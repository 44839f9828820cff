"""Hard-core quantum wave packets bouncing between a wall and a heavy particle.

Layers, each imported as its module (``from qbounce import grid``); the
package itself re-exports nothing:

* ``gaussian``  - packet and quadratic-form representations, the elastic map
* ``classical`` - collision table, channel kinematics, event-driven oracle
* ``channels``  - non-entangling channel decomposition and entanglement
* ``grid``      - 2D Crank-Nicolson solver on the triangular domain
* ``cli``       - batch runner with reproducible CSV/JSON artifacts
"""

__version__ = "0.1.0"
