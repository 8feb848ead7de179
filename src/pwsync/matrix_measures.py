"""Matrix measures (logarithmic norms) for the 2- and infinity-norms.

mu2(A)  is the largest eigenvalue of the symmetric part (A + A^T)/2, and
mu_inf(A) = max_i (A_ii + sum_{j != i} |A_ij|). The lower counterparts are
mu_p_lower(A) = -mu_p(-A), i.e. the smallest symmetric-part eigenvalue and
min_i (A_ii - sum_{j != i} |A_ij|) respectively.
"""

from __future__ import annotations

import numpy as np

__all__ = ["mu2", "mu_inf", "mu2_lower", "mu_inf_lower"]


def _as_square(a) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return a


def mu2(a) -> float:
    """Largest eigenvalue of the symmetric part of a."""
    a = _as_square(a)
    return float(np.linalg.eigvalsh((a + a.T) / 2.0)[-1])


def mu2_lower(a) -> float:
    """Smallest eigenvalue of the symmetric part of a (equals -mu2(-a))."""
    a = _as_square(a)
    return float(np.linalg.eigvalsh((a + a.T) / 2.0)[0])


def mu_inf(a) -> float:
    """max_i of diagonal entry plus absolute off-diagonal row sum."""
    a = _as_square(a)
    diag = np.diag(a)
    off = np.abs(a).sum(axis=1) - np.abs(diag)
    return float(np.max(diag + off))


def mu_inf_lower(a) -> float:
    """min_i of diagonal entry minus absolute off-diagonal row sum (equals -mu_inf(-a))."""
    # Rounding is symmetric under negation; `0.0 -`, not a unary minus, keeps a zero measure at +0.0.
    return 0.0 - mu_inf(-_as_square(a))
