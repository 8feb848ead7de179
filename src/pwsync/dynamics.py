"""Piecewise-smooth node dynamics and quadratic-growth certificates.

A node field is an affine map plus relay-style switching terms,

    f(x) = A x + d - sum_k B_k * sign(x[h_k]),

with sign(0) = 0 throughout the package. A certificate (P, Q, M), with P
symmetric positive definite, asserts the incremental growth bound

    (x - y)^T P [f(x) - f(y)]  <=  (x - y)^T Q (x - y) + (x - y)^T M sign(x - y)

for all x, y. With M = 0 this is the plain quadratic (QUAD) condition; the M
term budgets the bounded jumps of the switching part. For fields in the above
decomposed form a valid certificate is constructive: Q = P A and
M = diag(|P| m) with m = 2 * sum_k |B_k| bounding the switching variation.

Certificates can also be *falsified* numerically by sampling state pairs,
including pairs straddling each switching plane; a passing sample check is
evidence, not a proof.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "SwitchTerm",
    "PwsVectorField",
    "SigmaQuadCertificate",
    "certificate_from_decomposition",
    "verify_sigma_quad",
    "CertificateCheck",
]


@dataclass(frozen=True)
class SwitchTerm:
    """One relay term -gain * sign(x[coordinate])."""

    gain: np.ndarray
    coordinate: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "gain", np.asarray(self.gain, dtype=np.float64).reshape(-1))


@dataclass(frozen=True)
class PwsVectorField:
    """Affine dynamics plus coordinate-sign switching terms."""

    a: np.ndarray
    d: np.ndarray | None = None
    switch_terms: tuple[SwitchTerm, ...] = field(default=())

    def __post_init__(self) -> None:
        a = np.asarray(self.a, dtype=np.float64)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"state matrix must be square, got shape {a.shape}")
        n = a.shape[0]
        d = np.zeros(n) if self.d is None else np.asarray(self.d, dtype=np.float64).reshape(-1)
        if d.shape != (n,):
            raise ValueError(f"offset must have length {n}, got {d.shape}")
        terms = tuple(self.switch_terms)
        for term in terms:
            if term.gain.shape != (n,):
                raise ValueError(f"switch gain must have length {n}, got {term.gain.shape}")
            if not (0 <= term.coordinate < n):
                raise ValueError(f"switch coordinate {term.coordinate} out of range for n={n}")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "_a_t", a.T.copy())  # row-major A^T for the batched matmul
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "switch_terms", terms)

    @property
    def dimension(self) -> int:
        return self.a.shape[0]

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64).reshape(-1)
        if x.shape != (self.dimension,):
            raise ValueError(f"state must have length {self.dimension}, got {x.shape}")
        return self.evaluate_batch(x[None])[0]

    def evaluate_batch(self, states: np.ndarray) -> np.ndarray:
        """Vectorised evaluation over rows of an (m, n) state array."""
        states = np.asarray(states, dtype=np.float64)
        out = states @ self._a_t + self.d
        for term in self.switch_terms:
            out -= np.sign(states[:, term.coordinate])[:, None] * term.gain
        return out

    def switching_bound(self) -> np.ndarray:
        """Elementwise bound m on the switching-part variation: m = 2 sum_k |B_k|."""
        m = np.zeros(self.dimension)
        for term in self.switch_terms:
            m += 2.0 * np.abs(term.gain)
        return m


@dataclass(frozen=True)
class SigmaQuadCertificate:
    """(P, Q, M) matrices of the incremental growth bound; P must be SPD."""

    p: np.ndarray
    q: np.ndarray
    m: np.ndarray

    def __post_init__(self) -> None:
        p = np.asarray(self.p, dtype=np.float64)
        q = np.asarray(self.q, dtype=np.float64)
        m = np.asarray(self.m, dtype=np.float64)
        if not (p.shape == q.shape == m.shape) or p.ndim != 2 or p.shape[0] != p.shape[1]:
            raise ValueError("P, Q, M must be square matrices of matching shape")
        if not np.allclose(p, p.T, atol=1e-12):
            raise ValueError("P must be symmetric")
        if np.linalg.eigvalsh((p + p.T) / 2.0)[0] <= 0.0:
            raise ValueError("P must be positive definite")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "m", m)

    @property
    def dimension(self) -> int:
        return self.p.shape[0]


def certificate_from_decomposition(f: PwsVectorField, p=None, m=None) -> SigmaQuadCertificate:
    """Constructive certificate for a decomposed field: Q = P A, M = diag(|P| m).

    Q is taken as P A exactly (the quadratic form of the affine part under P),
    not a symmetrised bound, so downstream mu2(Q) matches mu2 of the raw
    coupling matrix when P is the identity. An explicit M replaces the
    constructive jump budget as given.
    """
    n = f.dimension
    p = np.eye(n) if p is None else np.asarray(p, dtype=np.float64)
    if p.shape != (n, n):
        raise ValueError(f"P must be {n}x{n}, got {p.shape}")
    if m is None:
        m = np.diag(np.abs(p) @ f.switching_bound())
    return SigmaQuadCertificate(p, p @ f.a, m)


# A sampled pair violates the certificate when its slack is below -_SLACK_TOLERANCE.
_SLACK_TOLERANCE = 1e-9
# Sampled states lie in the ball of this radius about the origin.
_SAMPLE_RADIUS = 10.0


@dataclass(frozen=True)
class CertificateCheck:
    """Outcome of sampled certificate falsification.

    holds=True means no violation was found among n_checked pairs (evidence,
    not proof); otherwise counterexample carries the first violating pair.
    """

    holds: bool
    n_checked: int
    worst_slack: float
    counterexample: tuple[np.ndarray, np.ndarray] | None = None


def verify_sigma_quad(
    f: PwsVectorField,
    cert: SigmaQuadCertificate,
    n_samples: int = 100_000,
    seed: int | None = 0,
) -> CertificateCheck:
    """Sample state pairs and test the certificate inequality on each.

    Pairs are drawn uniformly in the ball of radius _SAMPLE_RADIUS; an extra
    structured batch straddles each switching plane (opposite signs on the
    switching coordinate), where violations of too-small M show up first.
    Returns the first violating pair found, if any.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    if cert.dimension != f.dimension:
        raise ValueError("certificate and field dimensions differ")
    n = f.dimension
    rng = np.random.default_rng(seed)

    def ball(count: int) -> np.ndarray:
        z = rng.normal(size=(count, n))
        z /= np.maximum(np.linalg.norm(z, axis=1, keepdims=True), 1e-300)
        r = _SAMPLE_RADIUS * rng.random(count) ** (1.0 / n)
        return z * r[:, None]

    x1 = ball(n_samples)
    x2 = ball(n_samples)
    extra = max(n_samples // 10, 100)
    for term in f.switch_terms:
        s1 = ball(extra)
        s2 = ball(extra)
        s1[:, term.coordinate] = np.abs(s1[:, term.coordinate])
        s2[:, term.coordinate] = -np.abs(s2[:, term.coordinate])
        x1 = np.vstack([x1, s1])
        x2 = np.vstack([x2, s2])

    eta = x1 - x2
    df = f.evaluate_batch(x1) - f.evaluate_batch(x2)
    lhs = np.einsum("ij,ij->i", eta @ cert.p, df)
    rhs = np.einsum("ij,ij->i", eta @ cert.q, eta)
    rhs += np.einsum("ij,ij->i", eta @ cert.m, np.sign(eta))
    slack = rhs - lhs

    worst = float(slack.min())
    if worst >= -_SLACK_TOLERANCE:
        return CertificateCheck(True, x1.shape[0], worst)
    bad = int(np.argmax(slack < -_SLACK_TOLERANCE))  # first violating pair
    return CertificateCheck(False, x1.shape[0], worst, (x1[bad].copy(), x2[bad].copy()))
