"""Critical coupling gains across discontinuous-layer topologies.

For a fixed node system, the diffusive gain threshold c* scales with
1/lambda2 of its layer while the discontinuous gain threshold cd* scales
with 1/delta of its layer, so layer topology buys gain headroom with edges.
"""

import numpy as np

import pwsync as ps

relay = ps.relay_feedback_system()
cert = ps.relay_certificate()
gamma = np.eye(3)

N = 12
g_diff = ps.ring_graph(N)

print(f"relay network, N = {N}, diffusive layer fixed to a ring "
      f"(lambda2 = {ps.algebraic_connectivity(g_diff):.4f})")
print(f"{'discontinuous layer':<24} {'edges':>5} {'delta':>10} {'cd_star':>10}")
for kind, l in [("star", None), ("path", None), ("ring", None),
                ("nearest_neighbours", 2), ("complete", None)]:
    g_disc = ps.generate_topology(kind, N, l=l)
    report = ps.compute_thresholds(cert, gamma, gamma, g_diff, g_disc)
    label = kind if l is None else f"{kind}(l={l})"
    print(f"{label:<24} {g_disc.n_edges:>5} {report.delta_d:>10.4f} {report.cd_star:>10.4f}")

print()
report = ps.compute_thresholds(cert, gamma, gamma, g_diff, ps.ring_graph(N), field=relay)
print("full report for the ring/ring pairing (certificate spot-checked by sampling):")
print(f"  mu2(Q) = {report.mu2_q:.4f}, mu_inf(M) = {report.mu_inf_m:.1f}")
print(f"  c_star = {report.c_star:.3f}, cd_star = {report.cd_star:.3f}")
print(f"  certificate sampling verdict: {report.certificate_verified}")
print(f"  delta computed by: {report.delta_method} solver "
      f"({'certified' if report.delta_certified else 'upper bound only'})")

print()
print("hypothesis checks fail loudly, naming the violated clause:")
try:
    ps.compute_thresholds(cert, -np.eye(3), gamma, g_diff, ps.ring_graph(N))
except ValueError as exc:
    print(f"  {exc}")
try:
    ps.compute_thresholds(cert, gamma, gamma, ps.Graph(N), ps.ring_graph(N))
except ValueError as exc:
    print(f"  {exc}")
