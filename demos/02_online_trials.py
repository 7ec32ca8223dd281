"""One continuous-arrival trial, step by step.

Every element draws an arrival time uniformly from [0, 1); arrivals
before the cutoff p are samples the policy only observes, the rest are
live decisions. trace_records renders, for each arrival, whether it sat
in the max-weight basis of everything seen so far and what the policy did.
"""

from matsec import draw_schedule, hat_graph, run_trial, trace_records, trial_rng

bundle = hat_graph(3)
p = 0.5
schedule = draw_schedule(bundle.weights, trial_rng(seed=7, trial_index=0))
trace = run_trial("virtual-msp", bundle.view, bundle.weights, schedule, p)

label = bundle.weights.label
print(f"hat instance with 3 claws, cutoff p = {p}, policy virtual-msp\n")
print(f"{'time':>6}  {'element':<7} {'phase':<7} {'in MWB':<7} decision")
for rec in trace_records(trace, bundle.view, bundle.weights):
    if rec.phase == "sample":
        decision = "(observed)"
    elif rec.accepted:
        decision = "ACCEPT"
    else:
        decision = "reject"
    if rec.kicked is not None:
        origin = "sample" if rec.kicked_was_sample else "live"
        decision += f", displaced {label(rec.kicked)} ({origin})"
    print(f"{rec.time:>6.3f}  {label(rec.element):<7} {rec.phase:<7} "
          f"{str(rec.in_current_mwb):<7} {decision}")

got = bundle.weights.total(trace.accepted)
opt = bundle.weights.total(bundle.mwb)
print(f"\naccepted: {sorted(label(u) for u in trace.accepted)}")
print(f"value {got} of optimum {opt} ({float(got / opt):.0%})")
print("\nthe same seed always reproduces this run; change seed or trial_index")
print("for a fresh schedule")
