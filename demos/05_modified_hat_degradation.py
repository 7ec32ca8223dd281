"""The modified hat family pushes the hub edge's acceptance odds down.

Each claw carries a four-edge trap: when an early claw is fully sampled
and a later claw's light edges arrive live in the right order, the
virtual rule accepts two of them, and the pair spans the hub edge's
endpoints before it shows up. (The rare exception, where an earlier
accepted chain already walls off those endpoints, rejects the hub edge
just the same; tests/test_analysis.py::TestKnownTrapGap pins one such
run.) More claws mean more chances for a trap to arm, so the hub edge's
acceptance frequency sinks as n grows, in step with the analytic
rejection bound.
"""

from matsec import estimate, modified_hat_bounds, modified_hat_graph

p = 0.5
trials = 4000
print(f"modified hat, p = {p}, {trials} trials per size, policy virtual-msp\n")
print(f"{'n':>4} {'Pr[hub edge]':>14} {'ceiling':>10}")
for n in (2, 4, 8, 16, 32, 64):
    bundle = modified_hat_graph(n)
    report = estimate("virtual-msp", bundle, p, trials, seed=0)
    freq = report.per_element_accept_freq[bundle.id_of("e_inf")]
    p_n, rejection = modified_hat_bounds(n, p)
    print(f"{n:>4} {freq:>14.4f} {1 - rejection:>10.4f}")

print("\nceiling = 1 - rejection bound; the bound integrates the chance a")
print("sampled low claw arms the trap against the hub edge's arrival time.")
print("The trap is built against virtual-msp's rule, and no other policy is")
print("checked against the ceiling here, so what it shows is that no fixed")
print("acceptance guarantee for virtual-msp survives n -> inf.")
