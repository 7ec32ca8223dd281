"""matsec benchmark driver.

usage: python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout: the package is imported from
./src, never from an installed copy. One process, one thread. With
--trace 0 the run prints the end-to-end metrics (norm_trials_per_s,
setup_s, peak_rss_mb); with --trace 1 it alternates untraced and traced units and
prints the per-layer metrics. Either way the last stdout line is one JSON
object {"correct", "attempted", "failed", "metrics"}; lines before it give
the machine facts and a readable summary. Exit 1 when a check failed,
2 when the checkout is unusable.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NoReturn

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
PROBE = BENCH / "setup_probe.py"
SETUP_RUNS = 5           # fresh processes timed per run; the median is reported
TRACE_SETUP_RUNS = 3

# single-threaded numeric libraries: the workloads never use BLAS
for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")


def _fail(message: str) -> NoReturn:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def _import_matsec():
    if not (SRC / "matsec" / "__init__.py").is_file():
        _fail(f"no matsec source under {SRC}; run from a matsec checkout")
    sys.path.insert(0, str(SRC))
    import matsec
    if Path(matsec.__file__).resolve().parent != SRC / "matsec":
        _fail(f"imported matsec from {matsec.__file__}, not from {SRC}")


# -- set-up in fresh processes ------------------------------------------------


def _probe(workload: str, importtime: bool = False) -> tuple[dict, str]:
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else []) + [
        str(PROBE), str(SRC), workload]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        _fail(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.splitlines()[-1]), proc.stderr


def scipy_import_s(importtime_log: str) -> float:
    """Cumulative import time of the outermost scipy modules, from a
    `python -X importtime` log (children are printed before their parent)."""
    total_us = 0
    open_scipy = []            # depths of enclosing scipy imports, walking backwards
    for line in reversed(importtime_log.splitlines()):
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name_field = line[len("import time:"):].split("|")
        if not cumulative.strip().isdigit():
            continue               # the header line
        depth = len(name_field) - len(name_field.lstrip())
        name = name_field.strip()
        while open_scipy and open_scipy[-1] >= depth:
            open_scipy.pop()
        if name == "scipy" or name.startswith("scipy."):
            if not open_scipy:
                total_us += int(cumulative)
            open_scipy.append(depth)
    return total_us / 1e6


def measure_setup(workload: str, runs: int) -> list[dict]:
    _probe(workload)           # writes bytecode caches and warms the file cache
    return [_probe(workload)[0] for _ in range(runs)]


# -- machine facts --------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fp:
            for line in fp:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def machine_facts() -> dict:
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "cpu": _cpu_model(),
            "python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "commit": _git_commit()}


# -- the timed body ---------------------------------------------------------------


class Run:
    """Units executed so far, with their correctness verdicts."""

    def __init__(self, workload, seed: int):
        import matsec
        import workloads
        self.w = workload
        self.seed = seed
        self.state = workload.build()
        self.units = []            # Unit per seed index, first execution
        self.digests = []
        self.problems = []
        self.failed_trials = 0
        self.attempted = 0
        self._unit_seed = workloads.unit_seed
        self._pin_seed = workloads.PIN_SEED
        self._unit_type = workloads.Unit
        self._violations = (matsec.HarnessViolation, matsec.PolicyViolation)

    def execute(self, k: int):
        """Run unit k once; returns (wall seconds, unit). A unit that trips
        a harness or policy invariant yields no output and one problem."""
        seed = self._unit_seed(self.seed, k)
        t0 = time.perf_counter()
        try:
            unit = self.w.unit(self.state, seed)
        except self._violations as exc:
            unit = self._unit_type(b"", [f"seed {seed}: {type(exc).__name__}: {exc}"])
        wall = time.perf_counter() - t0
        self.attempted += self.w.trials
        return wall, unit

    def judge(self, k: int, unit, expect_digest: str | None = None) -> None:
        digest = hashlib.sha256(unit.output).hexdigest()
        problems = list(unit.problems)
        if (expect_digest is None and k == 0 and self.seed == self._pin_seed
                and digest != self.w.pinned):
            problems.append(f"output sha256 {digest} != pinned {self.w.pinned}")
        if expect_digest is not None and digest != expect_digest:
            problems.append(f"unit {k}: output changed between two executions")
        if problems:
            self.failed_trials += self.w.trials
            self.problems += problems
        if expect_digest is None:
            self.units.append(unit)
            self.digests.append(digest)

    def finish(self) -> None:
        # determinism: unit 0 again, after everything else ran in this process
        _, again = self.execute(0)
        self.judge(0, again, self.digests[0])
        final = self.w.final_check(self.units)
        if final:
            self.problems += final
            self.failed_trials = self.attempted


def untraced(run: Run, seconds: float, calibration) -> tuple[list, list]:
    """Per-unit rates and the machine's slowdown factor during each unit,
    the mean of the reference loop's factors before and after it."""
    rates, factors = [], []
    before = calibration.factor()
    start = time.perf_counter()
    k = 0
    while k == 0 or time.perf_counter() - start < seconds:
        wall, unit = run.execute(k)
        after = calibration.factor()
        run.judge(k, unit)
        rates.append(run.w.trials / wall)
        factors.append((before + after) / 2)
        before = after
        k += 1
    return rates, factors


def traced(run: Run, seconds: float):
    """Pairs of untraced and traced executions of the same unit."""
    from tracer import Tracer
    tracer = Tracer()
    exact = None
    traced_wall = 0.0
    ratios = []
    start = time.perf_counter()
    k = 0
    while k == 0 or time.perf_counter() - start < seconds:
        wall, unit = run.execute(k)
        run.judge(k, unit)
        with tracer.installed():
            twall, tunit = run.execute(k)
        run.judge(k, tunit, run.digests[k])   # tracing must not change the output
        if exact is None:
            exact = tracer.exact_counts()
        traced_wall += twall
        ratios.append(twall / wall)
        k += 1
    metrics = tracer.layer_metrics(exact, traced_wall)
    metrics["trace.overhead_ratio"] = (statistics.median(ratios), "ratio")
    return metrics, exact


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        _fail("--seed must be >= 0 and --seconds > 0")
    from calibrate import NOMINAL_S, Calibration, CalibrationError
    calibration = Calibration()      # before matsec loads: see calibrate.py
    _import_matsec()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}")
    w = workloads.WORKLOADS[args.workload]
    facts = machine_facts()

    setup = measure_setup(w.name, TRACE_SETUP_RUNS if args.trace else SETUP_RUNS)
    run = Run(w, args.seed)
    if args.trace:
        metrics, exact = traced(run, args.seconds)
        scipy_s = [scipy_import_s(_probe(w.name, importtime=True)[1])
                   for _ in range(TRACE_SETUP_RUNS)]
        metrics["setup.import_s"] = (statistics.median(s["import_s"] for s in setup), "s")
        metrics["setup.import_scipy_s"] = (statistics.median(scipy_s), "s")
        metrics["instances.build_s"] = (statistics.median(s["build_s"] for s in setup), "s")
        summary = {"exact_counts": exact}
    else:
        try:
            rates, factors = untraced(run, args.seconds, calibration)
        except CalibrationError as exc:
            _fail(str(exc))
        metrics = {
            "norm_trials_per_s": (statistics.median(
                r * f for r, f in zip(rates, factors)), "1/s"),
            "setup_s": (statistics.median(
                (s["import_s"] + s["build_s"]) * NOMINAL_S / s["loop_s"] for s in setup), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        summary = {"units": len(rates), "trials_per_unit": w.trials,
                   "trials_per_s": statistics.median(rates),
                   "raw_setup_s": statistics.median(s["import_s"] + s["build_s"] for s in setup),
                   "machine_slowdown": statistics.median(factors)}
    run.finish()
    failed_frac = run.failed_trials / run.attempted

    print("facts " + json.dumps(facts))
    print("summary " + json.dumps(summary))
    for problem in run.problems[:20]:
        print(f"FAILED CHECK: {problem}")
    print(f"{w.name} seed={args.seed} trace={args.trace}: " + ", ".join(
        f"{name} {value:.6g} {unit}" for name, (value, unit) in metrics.items())
        + f", failed_frac {failed_frac:.6g} ({run.failed_trials}/{run.attempted})")
    correct = not run.problems
    print(json.dumps({
        "correct": correct, "attempted": run.attempted, "failed": run.failed_trials,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
