from __future__ import annotations

import numpy as np
import pytest

import pwsync as ps


def scalar_field(slope: float, relay_gain: float) -> ps.PwsVectorField:
    """f(x) = slope*x - relay_gain*sign(x) on the real line."""
    return ps.PwsVectorField(
        a=np.array([[slope]]),
        switch_terms=(ps.SwitchTerm(gain=np.array([relay_gain]), coordinate=0),),
    )


def cert1(q: float, m: float) -> ps.SigmaQuadCertificate:
    return ps.SigmaQuadCertificate(np.eye(1), np.array([[q]]), np.array([[m]]))


# ----------------------------------------------------------------------------
# Field evaluation
# ----------------------------------------------------------------------------


def test_relay_field_at_unit_state(relay):
    np.testing.assert_allclose(relay([1.0, 0.0, 0.0]), [0.51, -97.922, -6.0], atol=1e-12)


def test_zero_field_everywhere():
    f = ps.PwsVectorField(a=np.zeros((2, 2)))
    assert np.array_equal(f([3.0, -4.0]), [0.0, 0.0])


def test_sign_zero_contributes_nothing(relay):
    x = np.array([0.0, 2.0, -1.0])
    np.testing.assert_allclose(relay(x), relay.a @ x, atol=1e-15)


def test_dimension_mismatch_rejected(relay):
    with pytest.raises(ValueError, match="length 3"):
        relay([1.0, 2.0])


def test_batch_evaluation_matches_pointwise(relay):
    rng = np.random.default_rng(0)
    states = rng.normal(size=(40, 3))
    batch = relay.evaluate_batch(states)
    for k in range(states.shape[0]):
        np.testing.assert_allclose(batch[k], relay(states[k]), atol=1e-12)


def test_field_validation():
    with pytest.raises(ValueError, match="square"):
        ps.PwsVectorField(a=np.ones((2, 3)))
    with pytest.raises(ValueError, match="length 2"):
        ps.PwsVectorField(a=np.eye(2), d=np.ones(3))
    with pytest.raises(ValueError, match="out of range"):
        ps.PwsVectorField(a=np.eye(2), switch_terms=(ps.SwitchTerm(np.ones(2), 2),))


# ----------------------------------------------------------------------------
# Certificate construction
# ----------------------------------------------------------------------------


def test_relay_certificate_construction(relay):
    cert = ps.certificate_from_decomposition(relay)
    assert np.array_equal(cert.q, relay.a)
    assert np.array_equal(relay.switching_bound(), [2.0, 4.0, 2.0])
    assert np.array_equal(cert.m, np.diag([2.0, 4.0, 2.0]))
    assert ps.mu_inf(cert.m) == 4.0


def test_no_switch_terms_give_zero_jump_budget():
    f = ps.PwsVectorField(a=np.array([[0.0, 1.0], [-1.0, 0.0]]))
    cert = ps.certificate_from_decomposition(f)
    assert np.array_equal(cert.m, np.zeros((2, 2)))


def test_scaled_p_scales_jump_budget():
    f = ps.PwsVectorField(
        a=np.zeros((2, 2)),
        switch_terms=(ps.SwitchTerm(np.array([1.0, 0.0]), 0),),
    )
    cert = ps.certificate_from_decomposition(f, 2.0 * np.eye(2))
    assert np.array_equal(cert.m, np.diag([4.0, 0.0]))


def test_non_positive_definite_p_rejected(relay):
    with pytest.raises(ValueError, match="positive definite"):
        ps.certificate_from_decomposition(relay, -np.eye(3))
    with pytest.raises(ValueError, match="positive definite"):
        ps.SigmaQuadCertificate(np.diag([1.0, 0.0]), np.eye(2), np.zeros((2, 2)))
    with pytest.raises(ValueError, match="symmetric"):
        ps.SigmaQuadCertificate(np.array([[1.0, 0.5], [0.0, 1.0]]), np.eye(2), np.zeros((2, 2)))


# ----------------------------------------------------------------------------
# Sampled verification
# ----------------------------------------------------------------------------


def test_relay_certificate_holds(relay, relay_cert):
    check = ps.verify_sigma_quad(relay, relay_cert, n_samples=100_000, seed=1)
    assert check.holds
    assert check.counterexample is None
    assert check.n_checked >= 100_000


def test_relay_without_jump_budget_is_falsified(relay, relay_cert):
    bare = ps.SigmaQuadCertificate(relay_cert.p, relay_cert.q, np.zeros((3, 3)))
    check = ps.verify_sigma_quad(relay, bare, n_samples=100_000, seed=1)
    assert not check.holds
    x1, x2 = check.counterexample
    # the returned pair genuinely violates the bound
    eta = x1 - x2
    lhs = eta @ bare.p @ (relay(x1) - relay(x2))
    rhs = eta @ bare.q @ eta
    assert lhs > rhs + 1e-9


def test_identity_map_is_quad():
    f = ps.PwsVectorField(a=np.eye(2))
    cert = ps.SigmaQuadCertificate(np.eye(2), np.eye(2), np.zeros((2, 2)))
    assert ps.verify_sigma_quad(f, cert, n_samples=20_000, seed=2).holds


def test_scalar_relay_with_inward_jump_is_quad():
    # f(x) = x - sign(x): the jump points inward, no budget needed
    check = ps.verify_sigma_quad(scalar_field(1.0, 1.0), cert1(1.0, 0.0), seed=3)
    assert check.holds


def test_scalar_relay_with_outward_jump_needs_budget():
    # f(x) = x + sign(x): fails with zero budget, passes with budget 2
    f = scalar_field(1.0, -1.0)
    assert not ps.verify_sigma_quad(f, cert1(1.0, 0.0), seed=4).holds
    assert ps.verify_sigma_quad(f, cert1(1.0, 2.0), seed=4).holds


def test_constructive_certificate_matches_scalar_outward_case():
    cert = ps.certificate_from_decomposition(scalar_field(1.0, -1.0))
    assert cert.q == np.array([[1.0]])
    assert cert.m == np.array([[2.0]])


def test_randomized_relay_class_certificates_hold():
    rng = np.random.default_rng(7)
    for trial in range(10):
        n = int(rng.integers(1, 5))
        terms = tuple(
            ps.SwitchTerm(gain=rng.normal(scale=2.0, size=n), coordinate=int(rng.integers(n)))
            for _ in range(int(rng.integers(1, 3)))
        )
        f = ps.PwsVectorField(a=rng.normal(scale=3.0, size=(n, n)), d=rng.normal(size=n), switch_terms=terms)
        cert = ps.certificate_from_decomposition(f)
        check = ps.verify_sigma_quad(f, cert, n_samples=100_000, seed=trial)
        assert check.holds, f"trial {trial}: worst slack {check.worst_slack}"


def test_verify_rejects_bad_sample_count(relay, relay_cert):
    with pytest.raises(ValueError):
        ps.verify_sigma_quad(relay, relay_cert, n_samples=0)
