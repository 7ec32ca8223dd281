"""Per-element acceptance frequencies on the hat instance.

The hat graph is the hard case for sampling-based rules: the hub edge
dwarfs everything else, and a policy that lets any claw fill up both of
its edges before the hub edge arrives loses it forever. At p = 0.5 the
virtual rule accepts each top edge with probability about 0.37 and the
hub edge with about 0.34 (exactly 0.341321 on hat(10); the run below
prints 0.3393), so the hub edge is the minimum over the optimum, still
comfortably above the 1/4 guarantee and the p^2 (1-p) = 0.125 floor for
the hub edge.
"""

from matsec import estimate, hat_graph, three_sigma

bundle = hat_graph(10)
p = 0.5
trials = 20_000
report = estimate("virtual-msp", bundle, p, trials, seed=0)

label = bundle.weights.label
print(f"hat(10), p = {p}, {trials} trials, policy virtual-msp\n")
print(f"{'element':<8} {'freq':>8}")
for u, freq in sorted(report.per_element_accept_freq.items(),
                      key=lambda kv: -bundle.weights.weight(kv[0])):
    print(f"{label(u):<8} {freq:>8.4f}")

hub = bundle.id_of("e_inf")
hub_freq = report.per_element_accept_freq[hub]
print(f"\nhub edge floor  p^2 (1-p) = {p * p * (1 - p):.4f}"
      f"  observed {hub_freq:.4f}")
print(f"uniform floor   1/4 = 0.25"
      f"          observed min {report.min_over_mwb:.4f}"
      f" (3 sigma {three_sigma(report.min_over_mwb, trials):.4f})")
print(f"mean utility ratio: {report.utility_ratio_mean:.4f}")
