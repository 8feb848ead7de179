"""Critical coupling gains for the two-layer (diffusive + discontinuous) protocol.

Sufficient gains for global asymptotic synchronization:

    c*   = mu2(Q)   / (lambda2(L)  * mu2_lower(P Gamma))
    cd*  = mu_inf(M) / (delta_d    * mu_inf_lower(P Gamma_d))

where lambda2 is the algebraic connectivity of the diffusive layer and
delta_d the minimum density of the discontinuous layer. The hypotheses
required alongside the gains: the certificate (P, Q, M) holds for the node
dynamics, both layer graphs are connected, and both inner-coupling measures
mu2_lower(P Gamma), mu_inf_lower(P Gamma_d) are strictly positive.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import PwsVectorField, SigmaQuadCertificate, verify_sigma_quad
from .graphs import Graph, algebraic_connectivity, is_connected
from .matrix_measures import mu2, mu2_lower, mu_inf, mu_inf_lower
from .min_density import EXACT_VERTEX_CAP, MinDensityResult, min_density_exact, min_density_heuristic, remove_edges

__all__ = [
    "min_density_auto",
    "ThresholdReport",
    "critical_gains",
    "compute_thresholds",
    "ScenarioResult",
    "resilience_report",
]

# Strictly-positive checks on the inner-coupling measures use this margin.
POSITIVITY_TOLERANCE = 1e-12
# State pairs drawn (with seed 0) when the certificate is spot-checked by sampling.
VERIFY_SAMPLES = 10_000


def min_density_auto(g: Graph, *, seed: int = 0) -> MinDensityResult:
    """Minimum density: exact enumeration up to EXACT_VERTEX_CAP vertices, Kernighan-Lin beyond.

    The cap is read at call time. The result's method names the solver that
    ran; only "exact" is certified.
    """
    if g.n_vertices <= EXACT_VERTEX_CAP:
        return min_density_exact(g, max_vertices=EXACT_VERTEX_CAP)
    return min_density_heuristic(g, seed=seed)


@dataclass(frozen=True)
class ThresholdReport:
    """Critical gains with every intermediate quantity needed to recompute them."""

    c_star: float
    cd_star: float
    lambda2: float
    density: MinDensityResult  # delta_d, the solver that found it, and its sparsest cut
    mu2_q: float
    mu2_lower_p_gamma: float
    mu_inf_m: float
    mu_inf_lower_p_gamma_d: float
    certificate_verified: bool | None  # sampled verdict on (P, Q, M); None when no field was given

    @property
    def delta_d(self) -> float:
        return self.density.delta

    @property
    def delta_method(self) -> str:
        """Solver that produced delta_d: "exact" or "heuristic"."""
        return self.density.method

    @property
    def delta_certified(self) -> bool:
        """True when delta_d came from exact enumeration.

        A heuristic delta is an upper bound on the true minimum density, so
        heuristic cd_star is only a lower bound on the certified-sufficient
        gain and must be labelled as such.
        """
        return self.delta_method == "exact"


def critical_gains(
    mu2_q: float,
    lambda2: float,
    mu2_lower_p_gamma: float,
    mu_inf_m: float,
    delta_d: float,
    mu_inf_lower_p_gamma_d: float,
) -> tuple[float, float]:
    """The two threshold formulas evaluated exactly as stored in reports."""
    c_star = mu2_q / (lambda2 * mu2_lower_p_gamma)
    cd_star = mu_inf_m / (delta_d * mu_inf_lower_p_gamma_d)
    return c_star, cd_star


def _strictly_positive(name: str, value: float) -> float:
    """The value of the named inner-coupling measure, refused unless above POSITIVITY_TOLERANCE (NaN too)."""
    if not value > POSITIVITY_TOLERANCE:
        raise ValueError(f"hypothesis violated: {name} = {value:.6g} is not strictly positive")
    return value


def _discontinuous_measures(cert: SigmaQuadCertificate, gamma_d) -> tuple[float, float]:
    """mu_inf(M) and mu_inf_lower(P Gamma_d), the latter required strictly positive."""
    mil = mu_inf_lower(cert.p @ np.asarray(gamma_d, dtype=np.float64))
    return mu_inf(cert.m), _strictly_positive("mu_inf_lower(P @ Gamma_d)", mil)


def compute_thresholds(
    cert: SigmaQuadCertificate,
    gamma: np.ndarray,
    gamma_d: np.ndarray,
    g_diffusive: Graph,
    g_discontinuous: Graph,
    *,
    field: PwsVectorField | None = None,
    heuristic_seed: int = 0,
) -> ThresholdReport:
    """Evaluate both critical gains for a certified system on two layer graphs.

    Violated hypotheses raise ValueError naming the failed clause. When the
    node field is supplied, the certificate is additionally spot-checked on
    VERIFY_SAMPLES sampled pairs (recorded as the report's certificate_verified,
    never raising: a sampled check can only falsify). The minimum density
    comes from min_density_auto and is kept whole in the report's density
    field.
    """
    gamma = np.asarray(gamma, dtype=np.float64)
    if g_diffusive.n_vertices != g_discontinuous.n_vertices:
        raise ValueError("both coupling layers must share the vertex set")
    if not is_connected(g_diffusive):
        raise ValueError("hypothesis violated: diffusive layer graph is not connected")
    if not is_connected(g_discontinuous):
        raise ValueError("hypothesis violated: discontinuous layer graph is not connected")

    p_gamma = cert.p @ gamma
    # eigvalsh cannot take a non-finite P @ Gamma: refuse it as the NaN measure it is.
    m2l = mu2_lower(p_gamma) if np.isfinite(p_gamma).all() else np.nan
    m2l = _strictly_positive("mu2_lower(P @ Gamma)", m2l)
    mu_inf_m, mil = _discontinuous_measures(cert, gamma_d)

    lambda2 = algebraic_connectivity(g_diffusive)
    density = min_density_auto(g_discontinuous, seed=heuristic_seed)

    verified: bool | None = None
    if field is not None:
        verified = verify_sigma_quad(field, cert, n_samples=VERIFY_SAMPLES, seed=0).holds

    mu2_q = mu2(cert.q)
    c_star, cd_star = critical_gains(mu2_q, lambda2, m2l, mu_inf_m, density.delta, mil)
    return ThresholdReport(
        c_star=c_star,
        cd_star=cd_star,
        lambda2=lambda2,
        density=density,
        mu2_q=mu2_q,
        mu2_lower_p_gamma=m2l,
        mu_inf_m=mu_inf_m,
        mu_inf_lower_p_gamma_d=mil,
        certificate_verified=verified,
    )


@dataclass(frozen=True)
class ScenarioResult:
    """Minimum density and discontinuous gain after one edge-removal scenario."""

    label: str
    removed_edges: tuple[tuple[int, int], ...]
    delta: float | None
    cd_star: float | None
    delta_method: str | None
    error: str | None = None


def resilience_report(
    base: Graph,
    removal_scenarios,
    cert: SigmaQuadCertificate,
    gamma_d: np.ndarray,
    *,
    labels: list[str] | None = None,
    heuristic_seed: int = 0,
) -> list[ScenarioResult]:
    """Recompute (delta, cd*) for each edge-removal scenario on the layer graph.

    Scenarios that disconnect the graph are reported as per-scenario errors
    rather than aborting the batch. Results are sorted by cd_star ascending
    (most resilient first); error entries sort last.
    """
    mu_inf_m, mil = _discontinuous_measures(cert, gamma_d)

    results: list[ScenarioResult] = []
    for idx, edges in enumerate(removal_scenarios):
        label = labels[idx] if labels else f"scenario_{idx}"
        removed = tuple(tuple(sorted((int(u), int(v)))) for u, v in edges)
        try:
            g = remove_edges(base, removed)
            if not is_connected(g):
                raise ValueError("removal disconnects the graph")
            density = min_density_auto(g, seed=heuristic_seed)
        except ValueError as exc:
            results.append(ScenarioResult(label, removed, None, None, None, str(exc)))
            continue
        cd_star = mu_inf_m / (density.delta * mil)
        results.append(ScenarioResult(label, removed, density.delta, cd_star, density.method))
    results.sort(key=lambda r: (r.cd_star is None, r.cd_star if r.cd_star is not None else 0.0))
    return results
