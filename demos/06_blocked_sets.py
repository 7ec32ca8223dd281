"""Blocked-set tables: what they predict, and where the size-2 hat table cracks.

A blocked-set table is a compressed explanation of an online policy: for
every finite arrival prefix Y and newcomer u it names at most k earlier
elements whose live arrival excuses rejecting u. If u is in the best
basis of what has been seen and none of its blockers arrived live first,
a table-consistent policy must take u.

This demo queries the size-2 hat table directly, shows a conditioned run
where it holds, replays a pinned schedule where the virtual policy
genuinely deviates from it, and prints the exhaustive certificate that no
size-1 table can describe any reasonable policy at all.
"""

from matsec import (certify_no_size1_strong_fs, check_first_live_accepted,
                    check_forbidden_consistency, forced_schedule,
                    hat_forbidden_oracle, hat_graph, run_trial)

print("== the size-2 table on the 3-claw hat ==\n")
bundle = hat_graph(3)
oracle = hat_forbidden_oracle(bundle)
label = bundle.weights.label
queries = [
    ("hub edge, first claw already seen", ["t_1", "b_1", "t_2"], "e_inf"),
    ("hub edge, first claw unseen", ["t_2", "b_3"], "e_inf"),
    ("top edge of the leftmost complete claw", ["t_1", "b_1", "t_2", "b_2"], "t_1"),
    ("an ordinary top edge", ["b_3", "t_2"], "t_3"),
    ("a bottom edge closing no leftmost claw", ["t_1", "b_2"], "b_2"),
]
for note, seen_names, u_name in queries:
    Y = frozenset(bundle.named[s] for s in seen_names) | {bundle.named[u_name]}
    blocked = oracle.rule(Y, bundle.named[u_name])
    shown = ", ".join(sorted(label(v) for v in blocked)) or "(nothing)"
    print(f"  {note}:")
    print(f"    seen {{{', '.join(seen_names)}}} + {u_name}  ->  blocked by {shown}")

print("\n== a run the table explains ==\n")
bundle = hat_graph(5)
view, weights = bundle.view, bundle.weights
p = 0.5


def replay(named_times):
    sched = forced_schedule((bundle.named[s], t) for s, t in named_times)
    return run_trial("virtual-msp", view, weights, sched, p)


# With the first claw in the sample the hub edge's blockers never arrive
# live, and the virtual policy accepts it on sight.
CONDITIONED = [("t_1", 0.11), ("b_1", 0.32), ("b_4", 0.55), ("t_3", 0.60),
               ("e_inf", 0.64), ("t_5", 0.71), ("t_4", 0.78), ("t_2", 0.83),
               ("b_2", 0.90), ("b_3", 0.94), ("b_5", 0.97)]
trace = replay(CONDITIONED)
ok, offender = check_forbidden_consistency(trace, hat_forbidden_oracle(bundle),
                                           view, weights)
print(f"  first claw sampled: consistent = {ok},"
      f" hub accepted = {bundle.named['e_inf'] in trace.accepted}")

print("\n== a run it cannot explain ==\n")
# Nothing is sampled but b_5. The live claw edges fill the accepted set
# one claw short of spanning, then the hub edge arrives: it still sits in
# the best basis of everything seen, neither t_1 nor b_1 has appeared,
# yet the policy must reject it because the accepted set already spans
# its endpoints. The table has no blocker to point at.
HUB_GAP = [("b_5", 0.353), ("t_3", 0.359), ("t_5", 0.514), ("t_4", 0.521),
           ("b_4", 0.533), ("e_inf", 0.586), ("t_1", 0.602), ("t_2", 0.628),
           ("b_2", 0.681), ("b_3", 0.912), ("b_1", 0.973)]
trace = replay(HUB_GAP)
ok, offender = check_forbidden_consistency(trace, hat_forbidden_oracle(bundle),
                                           view, weights)
print(f"  consistent = {ok}, offending arrival = {label(offender)}"
      f" at t = {dict(HUB_GAP)[label(offender)]}")
print(f"  first live arrival handled correctly = "
      f"{check_first_live_accepted(trace, view, weights)}")
print("  the deviation needs the whole accepted set, not any two elements")

print("\n== no size-1 table survives at all ==\n")
cert = certify_no_size1_strong_fs()
print(f"  assignments enumerated: {cert.checked_assignments}")
print(f"  assignments violated:   {len(cert.violations)}")
print(f"  complete refutation:    {cert.complete}")
sample = cert.violations[-1]
print(f"  e.g. {sample.assignment}")
print(f"       forces {', '.join(sample.accepted)} (a dependent set)")
