"""Two pinned schedules prove the policy families genuinely differ.

First: deciding against the max-weight basis of the samples alone can
accept a set no better policy would; contracting the accepted set fixes
that. Second: on uniform instances the virtual rule differs from the
optimistic rule about which reference element a live acceptance consumes.
"""

from matsec import forced_schedule, run_trial, triangle, uniform_instance


def run(policy, bundle, pairs, p):
    sched = forced_schedule([(bundle.id_of(lab), t) for lab, t in pairs])
    trace = run_trial(policy, bundle.view, bundle.weights, sched, p)
    return sorted(bundle.weights.label(u) for u in trace.accepted)


print("-- sampling-only rule vs contracted rule --")
tri = triangle()
stream = [("e3", 0.2), ("e2", 0.6), ("e1", 0.8)]
print("triangle, e3 sampled, then e2 and e1 arrive live (p = 0.5)")
print("  sample            accepts", run("sample", tri, stream, 0.5))
print("  sample-contracted accepts", run("sample-contracted", tri, stream, 0.5))
print("the sampling-only rule never notices e1 closes nothing against the")
print("samples, yet its two light picks total 3 against e2+e3 = 5\n")

print("-- virtual vs optimistic on a 2-uniform stream --")
uni = uniform_instance(6, 2)
stream = [("1", 0.05), ("3", 0.15), ("2", 0.30),
          ("4", 0.45), ("5", 0.60), ("6", 0.75)]
print("samples {1, 3}, then 2, 4, 5, 6 arrive in weight order (p = 0.25)")
print("  virtual-msp accepts", run("virtual-msp", uni, stream, 0.25))
print("  optimistic  accepts", run("optimistic", uni, stream, 0.25))
print("virtual rejects 4 because 4 displaces the earlier live acceptance 2,")
print("not a sample; optimistic happily burns its second threshold on 4")
