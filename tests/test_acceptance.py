"""The eleven headline checks the package must satisfy, one test per criterion.

Each test prints a single `C<n> PASS/FAIL` line (echoed again in the
terminal summary) before asserting, so a full `pytest -v` run always shows
the verdict table. C10 also has silent companions that check it against
Dynkin's exact success probability.

Two criteria are expected to fail, and those failures are the honest
outcome. Both trace back to the same blind spot: the virtual policy's
accepted-set independence clause, which the per-instance acceptance
arguments never model.

C8: the size-2 blocked-set table for hat instances is refuted by
simulation. Roughly 4% of seeded virtual-policy traces on hat_graph(5) at
p = 0.5 contain a rejection the table cannot excuse, through two
mechanisms pinned as regressions in tests/test_analysis.py
(TestKnownTableGaps): the hub edge can be rejected before the first claw
has fully arrived, and a bottom edge can be rejected by the independence
clause alone. Both vanish when the first claw is sampled, which is the
regime the per-instance lemmas actually cover; the first-live half of the
criterion and the frequency bounds of C5/C6 hold with wide margins.

C7: the trap acceptance claim for modified hat instances promises that
every primed claw gets both its light edges accepted, but once one live
chain walls off the bottom vertex inside the accepted set, a later primed
claw's 4-edge passes both basis clauses and is still vetoed (pinned in
tests/test_analysis.py::TestKnownTrapGap). The conflict needs two such
structures in one trial, so it is invisible at small n (zero failures in
20000 trials at n = 4) and rare but real at n = 16 and 64. The hub edge
is rejected in every conflicting trace regardless, so the degradation
bound itself, the frequency halves of C7, holds.
"""

import itertools
import math
import time
from fractions import Fraction

import pytest

import conftest
from matsec import (
    brute_force_mwb,
    certify_no_size1_strong_fs,
    check_claw_blocker,
    check_first_live_accepted,
    check_forbidden_consistency,
    check_modified_hat_trap,
    estimate,
    forced_schedule,
    hat_forbidden_oracle,
    hat_graph,
    modified_hat_bounds,
    modified_hat_graph,
    random_graphic,
    run_suite,
    run_trial,
    three_sigma,
    trial_rng,
    trial_stream,
    triangle,
    uniform_instance,
)
from matsec.cli import main
from matsec.simulate import schedule_stream


def criterion(num, ok, detail):
    line = f"C{num} {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    conftest.ACCEPTANCE_LINES.append(line)
    return line


# -- C1: greedy against the exhaustive oracle -----------------------------------


def test_c01_oracle_equivalence():
    t0 = time.perf_counter()
    mismatches = 0
    for i in range(200):
        rng = trial_rng(10, i)
        nv = int(rng.integers(3, 7))
        ne = int(rng.integers(1, 9))
        b = random_graphic(nv, ne, rng)
        if b.view.greedy_mwb(b.weights) != brute_force_mwb(b.view, b.weights):
            mismatches += 1
    for i in range(50):
        n = i % 12 + 1
        b = uniform_instance(n, i % (n + 1))
        if b.view.greedy_mwb(b.weights) != brute_force_mwb(b.view, b.weights):
            mismatches += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and elapsed < 10.0
    criterion(1, ok, f"greedy = brute force on 200 graphic + 50 uniform "
                     f"instances, {mismatches} mismatches, {elapsed:.1f}s")
    assert mismatches == 0
    assert elapsed < 10.0


# -- C2: structural basis lemmas --------------------------------------------------


def test_c02_mwb_lemma_battery():
    t0 = time.perf_counter()
    result = run_suite("mwb-lemmas", cases=10_000, seed=0)
    elapsed = time.perf_counter() - t0
    ok = result.passed and elapsed < 60.0
    criterion(2, ok, f"basis/span/rank lemma battery: {result.cases} draws, "
                     f"{len(result.failures)} failures, {elapsed:.1f}s")
    assert result.failures == []
    assert elapsed < 60.0


# -- C3: policy equivalences -------------------------------------------------------


def test_c03_policy_equivalences():
    result = run_suite("equivalences", cases=1000, seed=0)
    ok = result.passed
    criterion(3, ok, f"policy pair agreement over {result.cases} seeded runs "
                     f"per pairing, {len(result.failures)} mismatches")
    assert result.failures == []


# -- C4: pinned separation replays -------------------------------------------------


def test_c04_counterexample_replays(capsys):
    codes = {f: main(["replay", f]) for f in
             ("triangle-sample", "triangle-greedy", "uniform-virtual-stream",
              "hat-claw", "modified-hat-trap")}
    capsys.readouterr()

    b = triangle()
    sched = forced_schedule([(b.id_of(l), t) for l, t in
                             [("e3", 0.2), ("e2", 0.6), ("e1", 0.8)]])
    sample_run = run_trial("sample", b.view, b.weights, sched, 0.5)
    greedy_run = run_trial("greedy-framework", b.view, b.weights, sched, 0.5)
    separation_a = (sample_run.accepted == frozenset(b.ids_of("e1", "e2"))
                    and greedy_run.accepted == frozenset(b.ids_of("e2")))

    u = uniform_instance(6, 2)
    sched = forced_schedule([(u.id_of(l), t) for l, t in
                             [("1", 0.05), ("3", 0.15), ("2", 0.40),
                              ("4", 0.55), ("5", 0.70), ("6", 0.85)]])
    virt = run_trial("virtual-msp", u.view, u.weights, sched, 0.25)
    separation_b = (u.id_of("2") in virt.accepted
                    and u.id_of("4") not in virt.accepted)

    ok = all(c == 0 for c in codes.values()) and separation_a and separation_b
    criterion(4, ok, f"5 pinned replays exact "
                     f"({sum(c == 0 for c in codes.values())}/5), sampling "
                     f"vs contracted separation and virtual top-rejection hold")
    assert codes == {f: 0 for f in codes}
    assert separation_a
    assert separation_b


# -- C5 + C6: hat-graph frequency bounds and claw blocking (one shared run) --------


@pytest.fixture(scope="module")
def hat10_run():
    bundle = hat_graph(10)
    trials = 100_000
    t0 = time.perf_counter()
    counts = {el: 0 for el in bundle.mwb}
    claw_failures = 0
    for trace in trial_stream("virtual-msp", bundle.view, bundle.weights,
                              0.5, trials, seed=0):
        for el in trace.accepted:
            if el in counts:
                counts[el] += 1
        if not check_claw_blocker(trace, bundle):
            claw_failures += 1
    elapsed = time.perf_counter() - t0
    return bundle, trials, counts, claw_failures, elapsed


def test_c05_hat_frequency_bounds(hat10_run):
    bundle, trials, counts, _, elapsed = hat10_run
    freqs = {el: c / trials for el, c in counts.items()}
    hub_freq = freqs[bundle.id_of("e_inf")]
    min_freq = min(freqs.values())
    hub_ok = hub_freq >= 0.125 - three_sigma(hub_freq, trials)
    min_ok = min_freq >= 0.25 - three_sigma(min_freq, trials)
    ok = hub_ok and min_ok and elapsed < 300.0
    criterion(5, ok, f"hat(10), p=0.5, {trials} trials: Pr[hub edge] = "
                     f"{hub_freq:.4f} >= 0.125, min over optimum = "
                     f"{min_freq:.4f} >= 0.25, {elapsed:.0f}s")
    assert hub_ok
    assert min_ok
    assert elapsed < 300.0


def test_c06_claw_blocking(hat10_run):
    _, trials, _, claw_failures, _ = hat10_run
    ok = claw_failures == 0
    criterion(6, ok, f"claw blocking held in {trials - claw_failures}/{trials} "
                     f"of the same hat(10) trials")
    assert claw_failures == 0


# -- C11: greedy against the virtual rule on a large hat graph -------------------


@pytest.fixture(scope="module")
def hat256_pairs():
    """Per schedule, whether (sample-contracted, virtual-msp) accept the hub edge."""
    bundle, trials = hat_graph(256), 150
    hub = bundle.id_of("e_inf")
    t0 = time.perf_counter()
    pairs = [tuple(hub in run_trial(policy, bundle.view, bundle.weights, schedule, 0.5).accepted
                   for policy in ("sample-contracted", "virtual-msp"))
             for schedule in schedule_stream(bundle.weights, trials, 0)]
    return trials, pairs, time.perf_counter() - t0


def test_c11_greedy_loses_the_hub_edge_on_a_large_hat(hat256_pairs):
    # the abstract's hat graph is the adversarial example for greedy rules: at
    # n = 256 the contracted sample rule accepts the hub edge far less often
    # than virtual-msp, compared on the same 150 schedules
    trials, pairs, elapsed = hat256_pairs
    greedy, virtual = (sum(column) for column in zip(*pairs))
    gap = (virtual - greedy) / trials
    band = 3.0 * math.sqrt(sum((v - g - gap) ** 2 for g, v in pairs) / (trials - 1) / trials)
    ok = gap > band
    criterion(11, ok, f"hat(256), p=0.5, {trials} paired schedules: Pr[hub edge] = "
                      f"{greedy / trials:.4f} for sample-contracted, {virtual / trials:.4f} "
                      f"for virtual-msp, gap {gap:.4f} > 3 sigma of the paired "
                      f"difference {band:.4f}, {elapsed:.1f}s")
    assert gap > band


# -- C7: modified hat degradation ---------------------------------------------------


@pytest.fixture(scope="module")
def mhat_runs():
    """Per size n, the hub hits and trap-check failures of 20000 virtual-msp
    traces on modified_hat_graph(n), and the failing traces that kept the hub."""
    trials, sizes = 20_000, (4, 16, 64)
    hub_hits, trap_failures = {}, {}
    hub_survived_a_trap = 0
    for n in sizes:
        bundle = modified_hat_graph(n)
        hub = bundle.id_of("e_inf")
        hits = 0
        traps = 0
        for trace in trial_stream("virtual-msp", bundle.view, bundle.weights,
                                  0.5, trials, seed=0):
            hits += hub in trace.accepted
            if not check_modified_hat_trap(trace, bundle):
                traps += 1
                hub_survived_a_trap += hub in trace.accepted
        hub_hits[n] = hits
        trap_failures[n] = traps
    return trials, sizes, hub_hits, trap_failures, hub_survived_a_trap


def test_c07_modified_hat_degradation(mhat_runs):
    trials, sizes, hub_hits, trap_failures, hub_survived_a_trap = mhat_runs
    freqs = {n: hits / trials for n, hits in hub_hits.items()}
    ceilings = {n: 1.0 - modified_hat_bounds(n, 0.5)[1] for n in sizes}
    monotone = all(
        freqs[b] <= freqs[a] + three_sigma(freqs[a], trials)
        + three_sigma(freqs[b], trials)
        for a, b in zip(sizes, sizes[1:]))
    bounded = all(freqs[n] <= ceilings[n] + three_sigma(freqs[n], trials)
                  for n in sizes)
    no_traps = all(v == 0 for v in trap_failures.values())
    ok = monotone and bounded and no_traps
    shown = ", ".join(f"n={n}: {freqs[n]:.4f} <= {ceilings[n]:.4f}" for n in sizes)
    if no_traps:
        detail = (f"hub-edge frequency over {trials} trials per size is "
                  f"non-increasing and below the rejection ceiling ({shown}); "
                  f"trap checker failures 0")
    else:
        split = ", ".join(f"n={n}: {trap_failures[n]}" for n in sizes)
        detail = (f"frequency halves hold ({shown}) but the trap acceptance "
                  f"claim failed in {sum(trap_failures.values())}/{len(sizes) * trials} "
                  f"traces ({split}): it ignores the accepted-set independence "
                  f"clause (pinned run in tests/test_analysis.py::TestKnownTrapGap)")
    criterion(7, ok, detail)
    assert monotone
    assert bounded
    # every conflicting trace still dooms the hub edge, which is why the
    # frequency bound above survives the claim's failure
    assert hub_survived_a_trap == 0
    assert no_traps, (
        f"{sum(trap_failures.values())} traces contain a primed claw whose "
        f"4-edge passed both basis clauses and was still rejected; the pair "
        f"acceptance claim does not account for the accepted-set independence "
        f"clause, see TestKnownTrapGap for a pinned schedule")


# -- C8: blocked-set table consistency (expected to fail, see module docstring) -----


@pytest.fixture(scope="module")
def hat5_forbidden_run():
    """Table violations and first-live failures over 10000 virtual-msp traces on hat_graph(5)."""
    bundle = hat_graph(5)
    oracle = hat_forbidden_oracle(bundle)
    trials = 10_000
    violations = 0
    first_live_failures = 0
    for trace in trial_stream("virtual-msp", bundle.view, bundle.weights,
                              0.5, trials, seed=0):
        ok, _ = check_forbidden_consistency(trace, oracle, bundle.view,
                                            bundle.weights)
        violations += not ok
        first_live_failures += not check_first_live_accepted(
            trace, bundle.view, bundle.weights)
    return trials, violations, first_live_failures


def test_c08_forbidden_set_consistency(hat5_forbidden_run):
    trials, violations, first_live_failures = hat5_forbidden_run
    ok = violations == 0 and first_live_failures == 0
    criterion(8, ok, f"first-live rule held in {trials}/{trials} traces, but "
                     f"the size-2 blocked-set table was violated in "
                     f"{violations}/{trials}: the table overreaches outside "
                     f"the fully-sampled-first-claw regime (pinned runs in "
                     f"tests/test_analysis.py::TestKnownTableGaps)")
    assert first_live_failures == 0
    assert violations == 0, (
        f"{violations}/{trials} traces contain a rejection the table cannot "
        f"excuse; the table's guarantee only holds once the first claw is "
        f"sampled, see TestKnownTableGaps for two pinned schedules")


# -- C9: the size-1 impossibility certificate ----------------------------------------


def test_c09_certificate():
    t0 = time.perf_counter()
    cert = certify_no_size1_strong_fs()
    elapsed = time.perf_counter() - t0
    diagonal = [v for v in cert.violations if "every pair" in v.assignment]
    ok = (cert.complete and cert.checked_assignments == 16
          and len(diagonal) == 1 and elapsed < 1.0)
    criterion(9, ok, f"size-1 blocked-set tables refuted on "
                     f"{len(cert.violations)}/{cert.checked_assignments} "
                     f"assignments including the three-cycle stage, "
                     f"{elapsed * 1000:.0f}ms")
    assert cert.complete
    assert cert.checked_assignments == 16
    assert len(diagonal) == 1
    assert elapsed < 1.0


# -- C10: classical single-slot sanity ------------------------------------------------


@pytest.fixture(scope="module")
def dynkin200_report():
    return estimate("dynkin", uniform_instance(200, 1), 1.0 / math.e, trials=100_000, seed=0)


def test_c10_dynkin_sanity(dynkin200_report):
    p = 1.0 / math.e
    freq = dynkin200_report.min_over_mwb
    target = 1.0 / math.e
    analytic = p * math.log(1.0 / p)
    ok = abs(freq - target) <= 0.02 and abs(freq - analytic) <= 0.02
    criterion(10, ok, f"dynkin on 200 elements at p=1/e: Pr[best] = "
                      f"{freq:.4f}, reference {target:.4f} "
                      f"(analytic {analytic:.4f}), tolerance 0.02")
    assert abs(freq - target) <= 0.02
    assert abs(freq - analytic) <= 0.02


def dynkin_exact(n, p):
    """P[dynkin accepts the best of n elements] at cutoff p, in exact arithmetic:
    (1-p)^n / n - p * sum over k in [1, n) of C(n-1, k) (-1)^k (1 - p^k) / k."""
    p = Fraction(p)
    return (1 - p) ** n / n - p * sum(
        Fraction(math.comb(n - 1, k) * (-1) ** k, k) * (1 - p ** k) for k in range(1, n))


def dynkin_enumerated(n, p):
    """The same probability from run_trial itself: every arrival order and every
    sample count m, weighted Bin(m; n, p) / n!, with the m samples forced below p
    and the live arrivals above it."""
    bundle, p = uniform_instance(n, 1), Fraction(p)
    (best,) = bundle.mwb
    cut, total = float(p), Fraction(0)
    for m in range(n + 1):
        weight = math.comb(n, m) * p ** m * (1 - p) ** (n - m) / math.factorial(n)
        if not weight:          # at p = 0 or 1 only one sample count occurs
            continue
        times = ([cut * (i + 1) / (m + 1) for i in range(m)]
                 + [cut + (1 - cut) * (j + 1) / (n - m + 1) for j in range(n - m)])
        for order in itertools.permutations(range(n)):
            trace = run_trial("dynkin", bundle.view, bundle.weights,
                              forced_schedule(zip(order, times)), cut)
            total += weight * (best in trace.accepted)
    return total


@pytest.mark.parametrize("n", [1, 2, 3, 5])
@pytest.mark.parametrize("p", [Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1)], ids=str)
def test_c10_exact_reference_is_what_the_harness_does(n, p):
    assert dynkin_enumerated(n, p) == dynkin_exact(n, p)


def test_c10_exact_reference_values():
    third = Fraction(1, 3)
    assert [dynkin_exact(n, third) for n in (1, 2, 3, 5)] == [
        Fraction(2, 3), Fraction(4, 9), Fraction(32, 81), Fraction(452, 1215)]
    assert float(dynkin_exact(200, 1.0 / math.e)) == 0.36787944117144233


def test_c10_seeded_estimate_is_within_3_sigma_of_exact(dynkin200_report):
    exact = float(dynkin_exact(200, 1.0 / math.e))
    freq, trials = dynkin200_report.min_over_mwb, dynkin200_report.trials
    assert abs(freq - exact) <= three_sigma(exact, trials)


# -- the seeded counts behind the C-lines ---------------------------------------------

SEEDED_COUNTS = {
    "C5 hub acceptances of 100000": 33825,
    "C6 claw-blocking failures of 100000": 0,
    "C7 hub hits of 20000 at n=4, 16, 64": (6817, 6665, 6207),
    "C7 trap failures of 20000 at n=4, 16, 64": (0, 22, 281),
    "C8 table violations of 10000": 357,
    "C8 first-live failures of 10000": 0,
    "C10 best-element acceptances of 100000": 36974,
    "C11 hub acceptances of 150 (sample-contracted, virtual-msp)": (16, 47),
}


def test_seeded_counts_are_unchanged(hat10_run, mhat_runs, hat5_forbidden_run,
                                     dynkin200_report, hat256_pairs):
    # read off the C-lines' own streams, so none runs twice; a change that keeps
    # the seeded behaviour keeps every integer, and one that moves any must say why
    bundle, _, counts, claw_failures, _ = hat10_run
    _, sizes, hub_hits, trap_failures, _ = mhat_runs
    _, violations, first_live_failures = hat5_forbidden_run
    _, pairs, _ = hat256_pairs
    report = dynkin200_report
    assert dict(zip(SEEDED_COUNTS, [
        counts[bundle.id_of("e_inf")], claw_failures,
        tuple(hub_hits[n] for n in sizes), tuple(trap_failures[n] for n in sizes),
        violations, first_live_failures,
        round(report.min_over_mwb * report.trials),
        tuple(sum(column) for column in zip(*pairs))])) == SEEDED_COUNTS
