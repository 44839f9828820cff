#!/usr/bin/env python3
"""End-to-end benchmark of `qbounce run`; see perfbench/README.md.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a qbounce checkout.  Every `qbounce run` is its own
process, one at a time (a closed loop with one client), with BLAS threads
set to the number of usable cores.  --trace 0 reports the end-to-end
metrics, --trace 1 the per-layer metrics of a separate traced run.  Each
metric is printed with its unit and sample count, then, as the last line,
one JSON object {"correct", "attempted", "failed", "metrics"}.  Scratch
output and a full result record (environment included) go to .bench_work/.
"""

from __future__ import annotations

import argparse
import csv
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import layers
from workloads import WORKLOADS, ReferenceChecks, config_text, scenario

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_SAMPLES = 9
SETUP_PER_RUN = 3
RUN_TIMEOUT_S = 100

END_TO_END = {"run_s": "s", "instants_per_s": "1/s", "setup_s": "s",
              "peak_rss_mb": "MiB"}
SETUP_CODE = "import sys; from qbounce.cli import parse_config; parse_config(sys.argv[1])"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def environment(seed: int) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True).stdout.strip()
    return {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
        "numba": importlib.util.find_spec("numba") is not None,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(child_env()["OPENBLAS_NUM_THREADS"]),
        "machine": platform.machine(), "commit": commit, "seed": seed,
    }


class Bench:
    """All runs of one workload and seed, with their correctness checks."""

    def __init__(self, name: str, seed: int):
        self.name, self.seed = name, seed
        self.workload = WORKLOADS[name]
        self.dir = WORK / f"{name}-seed{seed}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.keys = scenario(name, seed)
        self.config = self.dir / "scenario.cfg"
        self.config.write_text(config_text(self.keys))
        self.checks = ReferenceChecks(name, self.keys, self.config)
        self.env = child_env()
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.ref_errors: dict[str, float] = {}
        self.series: bytes | None = None
        self.runs = 0
        self.timings: dict[str, list[float]] = {}

    def spawn(self, argv: list[str], log: Path) -> tuple[int, float, float, float]:
        """(exit code, spawn time, exit time, peak RSS in MiB) of one child."""
        with open(log.with_suffix(".out"), "wb") as out, \
                open(log.with_suffix(".err"), "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env,
                                    cwd=ROOT)
            watchdog = threading.Timer(RUN_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            t1 = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, t0, t1, usage.ru_maxrss / 1024

    def fail(self, what: str) -> None:
        self.problems.append(what)
        if len(self.problems) <= 5:
            print(f"# FAIL {self.name} seed {self.seed}: {what}", file=sys.stderr)

    def validate(self) -> None:
        """`qbounce validate` on the generated config; also warms caches."""
        self.attempted += 1
        log = self.dir / "validate"
        rc, *_ = self.spawn([sys.executable, "-m", "qbounce.cli", "validate",
                             str(self.config)], log)
        info = dict(line.split(" = ", 1) for line in
                    log.with_suffix(".out").read_text().splitlines() if " = " in line)
        if rc != 0:
            self.fail(f"validate exited {rc}")
        elif (self.workload.schedule == "auto"
              and int(info.get("auto_schedule_len", -1)) != self.workload.instants):
            self.fail(f"auto_schedule_len {info.get('auto_schedule_len')} "
                      f"!= {self.workload.instants}")
        else:
            return
        self.failed += 1

    def setup_once(self) -> float:
        rc, t0, t1, _ = self.spawn([sys.executable, "-c", SETUP_CODE, str(self.config)],
                                   self.dir / "setup")
        if rc != 0:
            self.fail(f"set-up exited {rc}")
        return t1 - t0

    def run_once(self, traced: bool = False) -> dict:
        """One `qbounce run`, checked; returns its timings and trace."""
        self.runs += 1
        out = self.dir / f"run{self.runs}"
        cmd = ["run", str(self.config), "--out", str(out)]
        spans = self.dir / f"spans{self.runs}.json"
        argv = ([sys.executable, str(HERE / "tracer.py"), "trace", str(spans),
                 f"{self.name}-seed{self.seed}-run{self.runs}", "--", *cmd]
                if traced else [sys.executable, "-m", "qbounce.cli", *cmd])
        rc, t0, t1, rss = self.spawn(argv, self.dir / f"run{self.runs}")
        self.attempted += 1
        result = {"run_s": t1 - t0, "rss": rss, "spawn": t0, "exit": t1,
                  "snapshot_mb": sum(f.stat().st_size for f in out.glob("snapshots/*"))
                  / 2**20}
        problems = len(self.problems)
        if rc != 0:
            self.fail(f"run {self.runs} exited {rc}: "
                      + (self.dir / f"run{self.runs}.err").read_text()[-300:])
        else:
            self.check_output(out)
        if traced and spans.exists():
            result["trace"] = json.loads(spans.read_text())
            spans.unlink()
        self.failed += len(self.problems) > problems
        shutil.rmtree(out, ignore_errors=True)
        return result

    def check_output(self, out: Path) -> None:
        try:
            series = (out / "series.csv").read_bytes()
            manifest = json.loads((out / "manifest.json").read_text())
        except OSError as exc:
            self.fail(f"run {self.runs}: output missing ({exc})")
            return
        if self.series is None:
            self.series = series
        elif series != self.series:
            self.fail(f"run {self.runs}: series.csv differs from run 1")
        rows = list(csv.DictReader(series.decode().splitlines()))
        if len(rows) != self.workload.instants:
            self.fail(f"run {self.runs}: {len(rows)} rows, want {self.workload.instants}")
            return
        if self.workload.grid:
            snaps = len(list(out.glob("snapshots/field_t*.bin")))
            if snaps != self.workload.instants:
                self.fail(f"run {self.runs}: {snaps} snapshots")
        for check, err in self.checks.errors(rows, manifest).items():
            self.ref_errors[check] = max(err, self.ref_errors.get(check, 0.0))
            if not err <= 1.0:
                self.fail(f"run {self.runs}: reference check {check} at "
                          f"{err:.3g} of its tolerance")

    def measure(self, seconds: float) -> tuple[dict, dict]:
        """End-to-end metrics: (name -> value, name -> sample count)."""
        self.validate()
        start = time.perf_counter()
        setup: list[float] = []
        runs: list[dict] = []
        rounds: list[float] = []
        # set-up samples are spread between the runs, so that one burst of
        # load on the machine cannot move their median
        while len(runs) < 2 or (time.perf_counter() - start
                                + statistics.mean(rounds) <= seconds):
            t0 = time.perf_counter()
            setup += [self.setup_once() for _ in range(SETUP_PER_RUN)]
            runs.append(self.run_once())
            rounds.append(time.perf_counter() - t0)
        setup += [self.setup_once() for _ in range(SETUP_SAMPLES - len(setup))]
        self.timings = {"run_s": [r["run_s"] for r in runs], "setup_s": setup,
                        "peak_rss_mb": [r["rss"] for r in runs]}
        run_s = statistics.median(r["run_s"] for r in runs)
        metrics = {"run_s": run_s,
                   "instants_per_s": self.workload.instants / run_s,
                   "setup_s": statistics.median(setup),
                   "peak_rss_mb": statistics.median(r["rss"] for r in runs)}
        n = len(runs)
        return metrics, {"run_s": n, "instants_per_s": n,
                         "setup_s": len(setup), "peak_rss_mb": n}

    def measure_traced(self, seconds: float) -> tuple[dict, dict]:
        """Per-layer metrics of the traced run with the median run time."""
        self.validate()
        start = time.perf_counter()
        probe = self.dir / "probe.json"
        rc, *_ = self.spawn([sys.executable, str(HERE / "tracer.py"), "probe",
                             str(probe)], self.dir / "probe")
        if rc != 0:
            self.fail(f"probe exited {rc}")
        untraced: list[dict] = []
        traced: list[dict] = []
        while not traced or (time.perf_counter() - start + untraced[-1]["run_s"]
                             + traced[-1]["run_s"] <= seconds):
            untraced.append(self.run_once())
            traced.append(self.run_once(traced=True))
        self.timings = {"run_s": [r["run_s"] for r in untraced],
                        "trace.run_s": [r["run_s"] for r in traced]}
        with_trace = [r for r in traced if "trace" in r] or traced
        chosen = sorted(with_trace, key=lambda r: r["run_s"])[(len(with_trace) - 1) // 2]
        metrics = dict.fromkeys(layers.UNITS, 0.0)
        if "trace" in chosen:
            layer_metrics, inclusive = layers.analyse(chosen["trace"], chosen["spawn"],
                                                      chosen["exit"])
            metrics.update(layer_metrics)
            for name, secs in sorted(inclusive.items(), key=lambda kv: -kv[1])[:8]:
                print(f"# span {name:<40} {secs:9.4f} s "
                      f"{secs / chosen['run_s']:6.1%} of traced run_s")
        if rc == 0:
            metrics.update(json.loads(probe.read_text()))
        metrics["grid.snapshot_mb"] = chosen["snapshot_mb"]
        metrics["trace.overhead_s"] = (statistics.median(r["run_s"] for r in traced)
                                       - statistics.median(r["run_s"] for r in untraced))
        metrics["ref_err"] = max(self.ref_errors.values(), default=0.0)
        samples = dict.fromkeys(metrics, 1)
        samples["trace.overhead_s"] = len(traced)
        return metrics, samples


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    bench = Bench(name, seed)
    env = environment(seed)
    print(f"# workload {name}: {bench.workload.why}")
    print("# env " + " ".join(f"{k}={v}" for k, v in env.items()))
    if trace:
        values, samples = bench.measure_traced(seconds)
        units = layers.UNITS
    else:
        values, samples = bench.measure(seconds)
        units = END_TO_END
    for key, value in values.items():
        print(f"{key:<42} {value:>14.6g} {units[key]:<6} n={samples[key]}")
    print(f"{'error_rate':<42} {bench.failed / bench.attempted:>14.6g} ratio  "
          f"n={bench.attempted} ({bench.failed} failed)")
    for check, err in sorted(bench.ref_errors.items()):
        print(f"# ref_err {check:<33} {err:>14.6g} of tolerance")
    result = {"correct": not bench.problems, "attempted": bench.attempted,
              "failed": bench.failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()}}
    record = dict(result, workload=name, trace=trace, seconds=seconds, env=env,
                  samples=samples, timings=bench.timings, ref_errors=bench.ref_errors,
                  problems=bench.problems, scenario=bench.keys)
    results = WORK / "results"
    results.mkdir(exist_ok=True)
    (results / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "qbounce" / "cli.py").is_file():
        print(f"error: no qbounce sources under {SRC}; run from a qbounce checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace))
               for name in names}
    if len(results) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{k}": v for name, r in results.items()
                        for k, v in r["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
