"""Hard-core quantum wave packets bouncing between a wall and a heavy particle.

Layers:

* ``gaussian``  - packet and quadratic-form state algebra (exact transforms)
* ``classical`` - collision closed forms, exact tables, event-driven oracle
* ``channels``  - non-entangling channel decomposition and entanglement
* ``grid``      - 2D Crank-Nicolson solver on the triangular domain
* ``cli``       - batch runner with reproducible CSV/JSON artifacts
"""

from .gaussian import (GaussianPacket, MassPair, QuadraticFormState,
                       collide_gaussians, collide_velocities, evaluate,
                       evaluate_packet, free_evolve, wall_reflect, width_param)
from .classical import (ClassicalState, ClassicalTrajectory, EnsembleWidths,
                        closed_form_velocities, collision_angle, critical_count,
                        ensemble_widths, event_driven_trajectory, max_collisions,
                        pair_collision_times)
from .channels import (ChannelEnsemble, EntanglementReport, MixedPhaseError,
                       ScenarioParams, assemble_quadratic_form, entanglement_report,
                       mixed_phase_gate, propagate_ensemble, split_width)
from .grid import (GridField, GridSpec, energy, evolve, init_field,
                   load_snapshot, marginals, overlap, schmidt_purity)

__version__ = "0.1.0"
