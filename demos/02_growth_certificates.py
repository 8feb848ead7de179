"""Incremental growth certificates for relay-type vector fields.

A certificate (P, Q, M) bounds (x-y)^T P [f(x)-f(y)] by a quadratic form in
x-y plus a sign-linear term M that budgets the jumps of the switching part.
Two scalar examples show when the budget is needed, then the 3-state chaotic
relay system gets its constructive certificate, checked by sampling.
"""

import numpy as np

import pwsync as ps


def scalar_relay(relay_gain):
    """f(x) = x - relay_gain * sign(x)."""
    return ps.PwsVectorField(
        a=np.array([[1.0]]),
        switch_terms=(ps.SwitchTerm(np.array([relay_gain]), 0),),
    )


def describe(check):
    if check.holds:
        return f"holds over {check.n_checked} sampled pairs (worst slack {check.worst_slack:.3e})"
    x1, x2 = check.counterexample
    return f"FALSIFIED, e.g. pair x={x1.round(3)}, y={x2.round(3)}"


print("scalar example 1: f(x) = x - sign(x)   (jump points inward)")
inward = scalar_relay(1.0)
plain = ps.SigmaQuadCertificate(np.eye(1), np.eye(1), np.zeros((1, 1)))
print("  with zero jump budget:", describe(ps.verify_sigma_quad(inward, plain, seed=0)))

print("scalar example 2: f(x) = x + sign(x)   (jump points outward)")
outward = scalar_relay(-1.0)
print("  with zero jump budget:", describe(ps.verify_sigma_quad(outward, plain, seed=0)))
budgeted = ps.SigmaQuadCertificate(np.eye(1), np.eye(1), np.array([[2.0]]))
print("  with jump budget M = 2:", describe(ps.verify_sigma_quad(outward, budgeted, seed=0)))
constructive = ps.certificate_from_decomposition(outward)
print(f"  constructive budget from the decomposition: M = {constructive.m.ravel()}")

print()
print("3-state chaotic relay system")
relay = ps.relay_feedback_system()
print("  f(1, 0, 0) =", relay([1.0, 0.0, 0.0]))
cert = ps.relay_certificate()
print("  constructive certificate with P = I:")
print("    Q = A, mu2(Q)   =", round(ps.mu2(cert.q), 3))
print("    M = diag", np.diag(cert.m), " mu_inf(M) =", ps.mu_inf(cert.m))
check = ps.verify_sigma_quad(relay, cert, n_samples=100_000, seed=0)
print("  sampling check:", describe(check))
print("  (a passing sample check is falsification evidence, not a proof;")
print("   the constructive certificate is what guarantees the bound)")

bare = ps.SigmaQuadCertificate(cert.p, cert.q, np.zeros((3, 3)))
print("  same field without the jump budget:", describe(ps.verify_sigma_quad(relay, bare, seed=0)))
