"""Child process of the benchmark: a traced `qbounce run`, or the n = 256 grid probe.

    python3 perfbench/tracer.py trace SPANS_JSON RUN_ID -- run CONFIG --out DIR
    python3 perfbench/tracer.py probe OUT_JSON

`trace` swaps every public function of qbounce.{cli,channels,classical,
gaussian,grid}, and ClassicalTrajectory.state_at, for a timing wrapper.  Each
wrapper is rebound under every module attribute that referred to the
original, because `cli` and `channels` import functions by name.  It then
calls `cli.main` with the remaining arguments.  Spans stay in memory and are
written when the run ends, as [name, start, end, parent index] with the run
id; times are `time.perf_counter()`, which on Linux is CLOCK_MONOTONIC and so
comparable with the parent's clock.

`probe` times the grid API directly on acceptance criterion 9's
configuration, because no admissible CLI config resolves at n = 256.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import sys
import time

LAYERS = ("cli", "channels", "classical", "gaussian", "grid")

# Work counts taken from call arguments, at the boundary where the work happens.
COUNTERS = {
    "grid.evolve": lambda a: {"grid.evolve.steps": a["steps"]},
    "classical.monte_carlo_positions":
        lambda a: {"classical.mc_sample_instants": a["n_samples"] * len(a["times"])},
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []      # [name, start, end, parent index or -1]
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        counter = COUNTERS.get(name)
        sig = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counter:
                for key, n in counter(sig.bind(*args, **kwargs).arguments).items():
                    self.counts[key] = self.counts.get(key, 0) + n
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced


def instrument(tracer: Tracer):
    """Wrap the package's public functions; returns the imported modules."""
    import importlib
    package = importlib.import_module("qbounce")
    layers = [importlib.import_module(f"qbounce.{name}") for name in LAYERS]
    modules = [package, *layers]
    for layer in layers:
        short = layer.__name__.rsplit(".", 1)[1]
        for attr, obj in list(vars(layer).items()):
            if (attr.startswith("_") or isinstance(obj, type) or not callable(obj)
                    or getattr(obj, "__module__", None) != layer.__name__):
                continue
            wrapped = tracer.wrap(f"{short}.{attr}", obj)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is obj:
                        setattr(mod, key, wrapped)
    trajectory = layers[LAYERS.index("classical")].ClassicalTrajectory
    trajectory.state_at = tracer.wrap("classical.state_at", trajectory.state_at)
    return dict(zip(LAYERS, layers))


def trace(spans_path: str, run_id: str, argv: list[str]) -> int:
    from qbounce import channels
    reference_trajectory = channels.reference_trajectory   # the lru_cache object
    tracer = Tracer()
    cli = instrument(tracer)["cli"]
    try:
        rc = cli.main(argv)
    finally:
        info = reference_trajectory.cache_info()
        with open(spans_path, "w") as fh:
            fh.write(json.dumps({"run_id": run_id, "spans": tracer.spans,
                                 "counts": tracer.counts,
                                 "reference_trajectory": {"hits": info.hits,
                                                          "misses": info.misses}}))
    return rc


def probe(out_path: str) -> int:
    """Per-step and Schmidt-purity cost at n = 256 (criterion 9, dt = 2e-3)."""
    steps, repeats = 20, 3
    from qbounce import grid
    from qbounce.gaussian import GaussianPacket, MassPair
    spec = grid.GridSpec(n=256, length=16.0)
    masses = MassPair(1.0, 25.0)
    f = grid.field_from_packets(GaussianPacket.initial(7.3, 1.25, 3.0, 1.0),
                                GaussianPacket.initial(14.5, 0.35, 0.0, 25.0),
                                spec, cutoff=True)
    f = grid.evolve(f, masses, 2e-3, 1)          # first call pays lazy set-up
    step_ms, purity_ms = [], []
    for _ in range(repeats):
        t0 = time.perf_counter()
        f = grid.evolve(f, masses, 2e-3, steps)
        step_ms.append((time.perf_counter() - t0) * 1e3 / steps)
        t0 = time.perf_counter()
        grid.schmidt_purity(f)
        purity_ms.append((time.perf_counter() - t0) * 1e3)
    with open(out_path, "w") as fh:
        json.dump({"grid.step_ms.n256": statistics.median(step_ms),
                   "grid.schmidt_purity.ms.n256": statistics.median(purity_ms)}, fh)
    return 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["trace"] and sys.argv[4:5] == ["--"]:
        sys.exit(trace(sys.argv[2], sys.argv[3], sys.argv[5:]))
    if sys.argv[1:2] == ["probe"] and len(sys.argv) == 3:
        sys.exit(probe(sys.argv[2]))
    sys.exit(__doc__)
