"""The four benchmark workloads, drawn from the traffic Tier-1 and CLI users run.

A workload is a repeatable *unit* of work at one seed: one in-process
`matsec` CLI invocation, one trial stream, or one verification suite. A run
repeats units at seeds derived from the run seed and times each one. Every
unit returns the bytes a user would see, which the runner hashes, plus the
problems found by checks that hold at every seed.

Callers reach matsec through module attributes at call time (`cli.main`,
`analysis.run_suite`, ...), so the tracer's rebinding of those attributes
sees every call a unit makes.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from typing import Callable

from matsec import analysis, cli, instances, policies, simulate

# The seed at which each unit's output digest is pinned (Tier-1's seed).
PIN_SEED = 0
# Unit k of a run at seed s uses seed s + k * SEED_STRIDE, so unit 0 is the
# plain `--seed s` invocation and runs at small distinct seeds share no units.
SEED_STRIDE = 1_000_003

DYNKIN_P = 1.0 / math.e
DYNKIN_TOLERANCE = 0.02          # C10's tolerance around p*ln(1/p)
C8_TRIALS, C8_VIOLATIONS = 10_000, 357


@dataclass(frozen=True)
class Unit:
    output: bytes           # user-visible output, hashed for the correctness gate
    problems: list          # failed seed-independent checks, one line each


@dataclass(frozen=True)
class Workload:
    name: str
    trials: int                          # trials per unit
    build: Callable[[], object]          # instance and policy, as a fresh process builds them
    unit: Callable[[object, int], Unit]  # (built state, seed) -> Unit
    pinned: str                          # sha256 of unit output at PIN_SEED
    final_check: Callable[[list], list] = lambda units: []


def unit_seed(seed: int, k: int) -> int:
    return seed + k * SEED_STRIDE


def _cli(argv: list) -> tuple[bytes, list]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    problems = [] if code == 0 else [f"matsec {argv[0]} exited {code}"]
    return buf.getvalue().encode(), problems


# -- hat-sweep: C5 and `matsec sweep` traffic ---------------------------------

HAT_SWEEP_NS = (3, 6, 12)
HAT_SWEEP_PS = (0.25, 0.5)
HAT_SWEEP_TRIALS = 200           # per grid point


def _hat_sweep_build():
    return ([instances.hat_graph(n) for n in HAT_SWEEP_NS],
            policies.build_policy("virtual-msp"))


def _hat_sweep_unit(state, seed: int) -> Unit:
    out, problems = _cli([
        "sweep", "--instance", "hat",
        "--n-grid", ",".join(map(str, HAT_SWEEP_NS)),
        "--p-grid", ",".join(map(str, HAT_SWEEP_PS)),
        "--policy", "virtual-msp", "--trials", str(HAT_SWEEP_TRIALS),
        "--seed", str(seed)])
    rows = out.decode().splitlines()
    # the optimum of hat_graph(n) is the hub edge plus the n top edges
    expected = sum(n + 1 for n in HAT_SWEEP_NS) * len(HAT_SWEEP_PS)
    if len(rows) != expected + 1:
        problems.append(f"sweep wrote {len(rows) - 1} rows, expected {expected}")
    for row in rows[1:]:
        fields = row.split(",")
        if fields[4] != str(HAT_SWEEP_TRIALS) or not 0.0 <= float(fields[6]) <= 1.0:
            problems.append(f"bad sweep row: {row}")
    return Unit(out, problems)


# -- mhat64-trap: C7's heaviest size -------------------------------------------

MHAT_N = 64
MHAT_TRIALS = 50


def _mhat_build():
    return instances.modified_hat_graph(MHAT_N), policies.build_policy("virtual-msp")


def _mhat_unit(state, seed: int) -> Unit:
    bundle, _ = state
    hub = bundle.id_of("e_inf")
    hits = traps = 0
    problems = []
    stream = simulate.trial_stream("virtual-msp", bundle.view, bundle.weights,
                                   0.5, MHAT_TRIALS, seed)
    for i, trace in enumerate(stream):
        hit = hub in trace.accepted
        hits += hit
        if not analysis.check_modified_hat_trap(trace, bundle):
            traps += 1
            if hit:
                problems.append(f"seed {seed} trial {i}: hub edge accepted in a "
                                f"trace that fails the trap check")
    return Unit(f"hub_hits {hits}\ntrap_failures {traps}\n".encode(), problems)


# -- dynkin200: C10 traffic ------------------------------------------------------

DYNKIN_N = 200
DYNKIN_TRIALS = 1000


def _dynkin_build():
    return instances.uniform_instance(DYNKIN_N, 1), policies.build_policy("dynkin")


def _dynkin_unit(state, seed: int) -> Unit:
    out, problems = _cli([
        "estimate", "--instance", "uniform", "--n", str(DYNKIN_N), "--k", "1",
        "--policy", "dynkin", "--p", repr(DYNKIN_P),
        "--trials", str(DYNKIN_TRIALS), "--seed", str(seed)])
    if problems:
        return Unit(out, problems)
    report = json.loads(out)
    if report["trials"] != DYNKIN_TRIALS:
        problems.append(f"estimate reported {report['trials']} trials")
    return Unit(out, problems)


def _dynkin_final(units: list) -> list:
    """The best element's frequency, pooled over every unit of the run, lies
    within C10's tolerance of p*ln(1/p); one unit alone is too noisy."""
    reports = [json.loads(u.output) for u in units if u.output]
    if not reports:
        return ["no estimate report to pool"]
    hits = sum(round(r["minOverMwb"] * DYNKIN_TRIALS) for r in reports)
    freq = hits / (DYNKIN_TRIALS * len(reports))
    target = DYNKIN_P * math.log(1.0 / DYNKIN_P)
    if abs(freq - target) > DYNKIN_TOLERANCE:
        return [f"pooled dynkin frequency {freq:.4f} is more than "
                f"{DYNKIN_TOLERANCE} from {target:.4f}"]
    return []


# -- hat5-forbidden: C8 and `matsec verify`, the record=True path -----------------

HAT5_TRIALS = 1000


def _hat5_build():
    bundle = instances.hat_graph(5)
    return bundle, analysis.hat_forbidden_oracle(bundle), policies.build_policy("virtual-msp")


def _forbidden_suite(trials: int, seed: int):
    return analysis.run_suite("forbidden-consistency", n=5, p=0.5,
                              trials=trials, seed=seed)


def _first_live_failures(result) -> list:
    return [f for f in result.failures if "first live" in f]


def _hat5_unit(state, seed: int) -> Unit:
    result = _forbidden_suite(HAT5_TRIALS, seed)
    # the non-empty failure list is C8's finding: it is the output, not a failure
    out = "".join(f"{f}\n" for f in result.failures).encode()
    return Unit(out, [f"seed {seed}: {f}" for f in _first_live_failures(result)])


def _hat5_final(units: list) -> list:
    """Self-test at Tier-1 settings: the C8 line, 357 of 10,000 at seed 0."""
    result = _forbidden_suite(C8_TRIALS, 0)
    violations = sum("unexcused" in f for f in result.failures)
    problems = [f"C8 self-test: {f}" for f in _first_live_failures(result)]
    if violations != C8_VIOLATIONS:
        problems.append(f"C8 self-test: {violations} violations in {C8_TRIALS} "
                        f"trials, expected {C8_VIOLATIONS}")
    return problems


# Digests of unit 0 at PIN_SEED: the bytes `matsec sweep` / `matsec estimate`
# print for the same arguments, the trap counts, and C8's failure list.
WORKLOADS = {w.name: w for w in (
    Workload("hat-sweep", HAT_SWEEP_TRIALS * len(HAT_SWEEP_NS) * len(HAT_SWEEP_PS),
             _hat_sweep_build, _hat_sweep_unit,
             "52ca304abce415e0b811d1c11613afacc9d71e85ed257a54f81fabb327caf3a4"),
    Workload("mhat64-trap", MHAT_TRIALS, _mhat_build, _mhat_unit,
             "5185c45a320abab32f9220bfb2bee34a0a5851b7f470269f84ff7c009eb5aecc"),
    Workload("dynkin200", DYNKIN_TRIALS, _dynkin_build, _dynkin_unit,
             "ec5c69e361ffab65d6e4172c319bd591740871b49d8caf377a715279e58fee3c",
             _dynkin_final),
    Workload("hat5-forbidden", HAT5_TRIALS, _hat5_build, _hat5_unit,
             "5292c19e0a8894b7386060b8472358fc5e5ce3f7ca0a663aab89573f08f6a8cd",
             _hat5_final),
)}
