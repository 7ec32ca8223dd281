"""Command line front end.

Subcommands: simulate (one recorded trial), estimate (Monte Carlo acceptance
report), sweep (CSV over a parameter grid), replay (pinned single-run
fixtures), verify (randomized property suites), certify (exhaustive size-1
blocked-set refutation). Exit codes: 0 success, 1 failed check, 2 bad usage
or malformed input.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import json
import sys
from pathlib import Path

from . import instances
from .analysis import (SUITE_NAMES, certify_no_size1_strong_fs, estimate_grid,
                       reference_bound, run_suite, three_sigma)
from .instances import InstanceBundle
from .matroid import GraphicMatroid, UniformMatroid, dump_instance, parse_instance
from .policies import POLICIES
from .simulate import (draw_schedule, dump_json_line, dump_schedule,
                       dump_trace, forced_schedule, json_ready, parse_schedule,
                       run_trial, trace_records, trial_rng)


def _random_graphic(args) -> InstanceBundle:
    if args.vertices < 1 or args.edges < 0:
        raise ValueError("random-graphic needs --vertices >= 1 and --edges >= 0")
    return instances.random_graphic(args.vertices, args.edges, trial_rng(args.seed, 0xE5E5))


# family -> (builder(args), {size flag it reads: default}); one without n is sized by its count
FAMILIES = {
    "triangle": (lambda args: instances.triangle(), {}),
    "double-triangle": (lambda args: instances.double_triangle(), {}),
    "hat": (lambda args: instances.hat_graph(args.n), {"n": 5}),
    "modified-hat": (lambda args: instances.modified_hat_graph(args.n), {"n": 5}),
    "uniform": (lambda args: instances.uniform_instance(args.n, args.k), {"n": 5, "k": 1}),
    "random-graphic": (_random_graphic, {"vertices": 5, "edges": 8}),
}
SIZED_FAMILIES = ", ".join(name for name, (_, reads) in FAMILIES.items() if "n" in reads)
INSTANCE_FLAGS = ("n", "k", "vertices", "edges")
MAX_SIZE = 100_000      # cap on every size flag and on a graphic file's vertex count


def _check_size(what: str, value: int) -> None:
    if value > MAX_SIZE:
        raise ValueError(f"{what} {value} is too large (limit {MAX_SIZE})")


def _resolve_instance(args) -> tuple[InstanceBundle, str | None]:
    """Build the requested instance; returns (bundle, family), where the
    family is None for an --instance-file, whatever the file is named. A
    size flag the family does not read is an error, one it reads defaults;
    a file reads none, but a --k given with a uniform file must match its rank.
    Sizes above MAX_SIZE are rejected before anything is sized by them."""
    if getattr(args, "instance_file", None):
        with open(args.instance_file) as fp:
            base, weights = parse_instance(fp)
        if isinstance(base, GraphicMatroid):
            _check_size("vertex count", base.num_vertices)
        uniform = isinstance(base, UniformMatroid)
        for flag in INSTANCE_FLAGS:
            if getattr(args, flag) is not None and not (flag == "k" and uniform):
                raise ValueError(f"--{flag} does not apply to --instance-file")
        if uniform and args.k not in (None, base.k):
            raise ValueError(f"k={args.k} does not match the {base.k}-uniform instance")
        return instances._bundle(base, weights), None
    build, reads = FAMILIES[args.instance]
    for flag in INSTANCE_FLAGS:
        value = getattr(args, flag)
        if value is None:
            setattr(args, flag, reads.get(flag))
        elif flag not in reads:
            raise ValueError(f"--{flag} does not apply to {args.instance}")
        else:
            _check_size(f"--{flag}", value)
    return build(args), args.instance


def _out_stream(path):
    return open(path, "w") if path else contextlib.nullcontext(sys.stdout)


def _add_instance_args(sp) -> None:
    sp.add_argument("--instance", choices=tuple(FAMILIES), default="triangle",
                    help="named instance family (default: triangle)")
    sp.add_argument("--instance-file", metavar="PATH",
                    help="load the instance from a file instead")
    sp.add_argument("--n", type=int, default=None,
                    help=f"size parameter for {SIZED_FAMILIES}")
    sp.add_argument("--k", type=int, default=None,
                    help="rank of the uniform family; must match a uniform --instance-file")
    sp.add_argument("--vertices", type=int, default=None,
                    help="vertex count for random-graphic")
    sp.add_argument("--edges", type=int, default=None,
                    help="edge count for random-graphic")


def _add_policy_args(sp) -> None:
    sp.add_argument("--policy", default="virtual-msp", choices=tuple(POLICIES),
                    help="acceptance policy (default: virtual-msp)")


def _add_run_args(sp) -> None:
    sp.add_argument("--p", type=float, default=0.5,
                    help="sampling cutoff; arrivals before p are samples")
    sp.add_argument("--seed", type=int, default=0, help="master seed (default: 0)")


# -- simulate ----------------------------------------------------------------


def _cmd_simulate(args) -> int:
    bundle, _ = _resolve_instance(args)
    if args.schedule_file:
        if args.trial is not None:
            raise ValueError("--trial does not apply to --schedule-file")
        with open(args.schedule_file) as fp:
            schedule = parse_schedule(fp)
    else:
        schedule = draw_schedule(bundle.weights, trial_rng(args.seed, args.trial or 0))
    trace = run_trial(args.policy, bundle.view, bundle.weights, schedule, args.p)
    if args.schedule_out:
        with open(args.schedule_out, "w") as fp:
            dump_schedule(schedule, fp)
    if args.dump_instance:
        with open(args.dump_instance, "w") as fp:
            dump_instance(bundle.view.base, bundle.weights, fp)
    with _out_stream(args.out) as fp:
        dump_trace(trace_records(trace, bundle.view, bundle.weights), fp)
    label = bundle.weights.label
    got = bundle.weights.total(trace.accepted)
    opt = bundle.weights.total(bundle.mwb)
    summary = (f"accepted {len(trace.accepted)} of {bundle.weights.count}: "
               f"{', '.join(sorted(label(u) for u in trace.accepted)) or '(none)'}"
               f"  value {got}/{opt}")
    print(summary, file=sys.stdout if args.out else sys.stderr)
    return 0


# -- estimate ----------------------------------------------------------------


def _cmd_estimate(args) -> int:
    bundle, family = _resolve_instance(args)
    # checked before --out opens; the trials run when the report is read
    reports = estimate_grid(args.policy, bundle, (args.p,), args.trials, args.seed)
    bound = reference_bound(family, args.policy, args.p)
    direction = None if bound is None else "lower"
    with _out_stream(args.out) as fp:
        report = next(reports).to_json_obj()
        dump_json_line({**report, "analyticBound": bound, "boundDirection": direction}, fp)
    return 0


# -- sweep -------------------------------------------------------------------


def _grid(text: str, cast, flag: str):
    values = []
    for part in filter(str.strip, text.split(",")):
        try:
            values.append(cast(part))
        except ValueError:
            raise ValueError(f"{flag} takes {cast.__name__} values, got {part.strip()!r}") from None
    if not values:
        raise ValueError(f"{flag} needs at least one value")
    return values


def _cmd_sweep(args) -> int:
    ps = _grid(args.p_grid, float, "--p-grid")
    ns = [args.n] if args.n_grid is None else _grid(args.n_grid, int, "--n-grid")
    if args.n_grid is not None and (args.instance_file or "n" not in FAMILIES[args.instance][1]):
        where = "--instance-file" if args.instance_file else args.instance
        raise ValueError(f"--n-grid does not apply to {where}")
    if args.n_grid is not None and args.n is not None:
        raise ValueError("--n does not apply with --n-grid")
    grid = []
    for n in ns:        # the whole grid is built and checked once, before --out opens
        args.n = n
        bundle, family = _resolve_instance(args)
        reports = estimate_grid(args.policy, bundle, ps, args.trials, args.seed)
        grid.append((args.n, bundle, family, reports))     # args.n now holds the default, if any
    with _out_stream(args.out) as fp:
        rows = [["instance", "n", "policy", "p", "trials", "element", "freq", "ci", "bound"]]
        for n, bundle, family, reports in grid:     # each bundle's trials run here
            name = family or Path(args.instance_file).stem
            size = bundle.weights.count if n is None else n
            label = bundle.weights.label
            for p, report in zip(ps, reports):
                for u, freq in sorted(report.per_element_accept_freq.items()):
                    bound = reference_bound(family, args.policy, p, label(u))
                    rows.append([name, size, args.policy, f"{p:.9g}", args.trials,
                                 label(u), f"{freq:.9g}",
                                 f"{three_sigma(freq, args.trials):.9g}",
                                 "" if bound is None else f"{bound:.9g}"])
        csv.writer(fp, lineterminator="\n").writerows(rows)    # all or nothing on stdout
    return 0


# -- replay ------------------------------------------------------------------
#
# Each fixture pins one hand-checked run: its instance builder, policy and
# cutoff, and one row per arrival in time order, (label, time, phase,
# accepted, kicked, kicked-was-sample). The times make the schedule; replays
# recompute the run and fail loudly on any drift from the rest of the row.

FIXTURES = {
    "triangle-sample": (instances.triangle, "sample", 0.5, (
        ("e3", 0.2, "sample", False, None, None),
        ("e2", 0.6, "live", True, None, None),
        ("e1", 0.8, "live", True, None, None))),
    "triangle-greedy": (instances.triangle, "greedy-framework", 0.5, (
        ("e3", 0.2, "sample", False, None, None),
        ("e2", 0.6, "live", True, None, None),
        ("e1", 0.8, "live", False, None, None))),
    "uniform-virtual-stream": (lambda: instances.uniform_instance(6, 2), "virtual-msp", 0.25, (
        ("1", 0.05, "sample", False, None, None),
        ("3", 0.15, "sample", False, None, None),
        ("2", 0.40, "live", True, "1", True),
        ("4", 0.55, "live", False, "2", False),
        ("5", 0.70, "live", True, "3", True),
        ("6", 0.85, "live", False, "4", False))),
    "hat-claw": (lambda: instances.hat_graph(2), "virtual-msp", 0.25, (
        ("t_1", 0.05, "sample", False, None, None),
        ("b_1", 0.15, "sample", False, None, None),
        ("t_2", 0.40, "live", True, None, None),
        ("b_2", 0.55, "live", False, None, None),
        ("e_inf", 0.80, "live", True, "b_1", True))),
    "modified-hat-trap": (lambda: instances.modified_hat_graph(2), "virtual-msp", 0.25, (
        ("2_1", 0.05, "sample", False, None, None),
        ("3_1", 0.10, "sample", False, None, None),
        ("4_1", 0.15, "sample", False, None, None),
        ("2_2", 0.20, "sample", False, None, None),
        ("1_2", 0.40, "live", True, None, None),
        ("3_2", 0.50, "live", False, "1_2", False),
        ("4_2", 0.60, "live", True, "2_2", True),
        ("e_inf", 0.75, "live", False, "2_1", True),
        ("1_1", 0.90, "live", False, None, None))),
}


def _cmd_replay(args) -> int:
    build, policy, p, rows = FIXTURES[args.fixture]
    bundle = build()
    schedule = forced_schedule([(bundle.id_of(row[0]), row[1]) for row in rows])
    trace = run_trial(policy, bundle.view, bundle.weights, schedule, p)
    records = trace_records(trace, bundle.view, bundle.weights)
    if args.out:
        with open(args.out, "w") as fp:
            dump_trace(records, fp)
    label = bundle.weights.label
    print(f"fixture {args.fixture}: policy={policy} p={p}")
    ok = True
    for rec, row in zip(records, rows, strict=True):
        got = (label(rec.element), rec.phase, rec.accepted,
               None if rec.kicked is None else label(rec.kicked),
               rec.kicked_was_sample)
        if rec.phase == "sample":
            verdict = "sample"
        else:
            verdict = "ACCEPT" if rec.accepted else "reject"
            if rec.kicked is not None:
                tag = "sample" if rec.kicked_was_sample else "live"
                verdict += f"  kicked {label(rec.kicked)} ({tag})"
        line = f"  t={rec.time:.2f}  {got[0]:<8} {verdict}"
        if got != row[:1] + row[2:]:
            ok = False
            line += f"   << expected {row[2:]}"
        print(line)
    print(f"accepted: {', '.join(sorted(label(u) for u in trace.accepted))}")
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


# -- verify ------------------------------------------------------------------


def _cmd_verify(args) -> int:
    if args.n is not None:
        _check_size("--n", args.n)
    result = run_suite(args.suite, cases=args.cases, trials=args.trials, seed=args.seed,
                       n=args.n, p=args.p)
    print(f"suite {result.name}: {result.cases} cases, "
          f"{len(result.failures)} failures")
    for failure in result.failures[:10]:
        print(f"  {failure}")
    if len(result.failures) > 10:
        print(f"  ... and {len(result.failures) - 10} more")
    return 0 if result.passed else 1


# -- certify -----------------------------------------------------------------


def _cmd_certify(args) -> int:
    cert = certify_no_size1_strong_fs()
    with _out_stream(args.out) as fp:
        fp.write(json.dumps(json_ready(cert.to_json_obj()), indent=2))
        fp.write("\n")
    stream = sys.stdout if args.out else sys.stderr
    print(f"checked {cert.checked_assignments} assignments, "
          f"{len(cert.violations)} violated", file=stream)
    if cert.complete:
        print("every size-1 blocked-set table fails on the doubled triangle",
              file=stream)
        return 0
    print("INCOMPLETE: some assignment survived", file=stream)
    return 1


# -- parser ------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):   # add_subparsers makes each subparser one too
    def error(self, message):               # main reports it like any other bad input
        raise ValueError(message)


@functools.cache    # built on the first main(); each parse still returns a fresh Namespace
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="matsec",
        description="Matroid secretary simulation and verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("simulate", help="run one recorded trial")
    _add_instance_args(sp)
    _add_policy_args(sp)
    _add_run_args(sp)
    sp.add_argument("--trial", type=int, default=None,
                    help="trial index within the seeded stream")
    sp.add_argument("--schedule-file", metavar="PATH",
                    help="replay a fixed arrival schedule")
    sp.add_argument("--out", metavar="PATH", help="trace JSONL destination")
    sp.add_argument("--schedule-out", metavar="PATH",
                    help="write the arrival schedule")
    sp.add_argument("--dump-instance", metavar="PATH",
                    help="write the instance definition")
    sp.set_defaults(func=_cmd_simulate)

    sp = sub.add_parser("estimate", help="Monte Carlo acceptance report")
    _add_instance_args(sp)
    _add_policy_args(sp)
    _add_run_args(sp)
    sp.add_argument("--trials", type=int, default=10000)
    sp.add_argument("--out", metavar="PATH", help="report JSON destination")
    sp.set_defaults(func=_cmd_estimate)

    sp = sub.add_parser("sweep", help="CSV sweep over p (and n) grids")
    _add_instance_args(sp)
    _add_policy_args(sp)
    sp.add_argument("--seed", type=int, default=0, help="master seed (default: 0)")
    sp.add_argument("--trials", type=int, default=2000)
    sp.add_argument("--p-grid", default="0.25,0.5,0.75",
                    help="comma separated sampling cutoffs")
    sp.add_argument("--n-grid", default=None,
                    help=f"comma separated size parameters ({SIZED_FAMILIES})")
    sp.add_argument("--out", metavar="PATH", help="CSV destination")
    sp.set_defaults(func=_cmd_sweep)

    sp = sub.add_parser("replay", help="re-run a pinned fixture")
    sp.add_argument("fixture", choices=sorted(FIXTURES))
    sp.add_argument("--out", metavar="PATH", help="trace JSONL destination")
    sp.set_defaults(func=_cmd_replay)

    sp = sub.add_parser("verify", help="run a randomized property suite")
    sp.add_argument("suite", choices=SUITE_NAMES)
    sp.add_argument("--cases", type=int, default=None)
    sp.add_argument("--trials", type=int, default=None)
    sp.add_argument("--seed", type=int, default=0, help="master seed (default: 0)")
    sp.add_argument("--n", type=int, default=None)
    sp.add_argument("--p", type=float, default=None,
                    help="sampling cutoff for the trial suites (default: 0.5)")
    sp.set_defaults(func=_cmd_verify)

    sp = sub.add_parser("certify", help="exhaustive size-1 blocked-set refutation")
    sp.add_argument("--out", metavar="PATH", help="certificate JSON destination")
    sp.set_defaults(func=_cmd_certify)

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        for flag in ("seed", "trial"):
            if (getattr(args, flag, None) or 0) < 0:
                raise ValueError(f"--{flag} must be non-negative, got {getattr(args, flag)}")
        return args.func(args)
    except SystemExit as exc:               # -h printed the help
        return exc.code
    except (ValueError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
