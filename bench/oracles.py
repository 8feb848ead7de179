"""Independent oracles for checking pwsync's outputs.

Each oracle is written from the paper's definitions rather than from
pwsync's code, so that a fault in pwsync does not also sit in the check:

- one explicit-Euler step of the two-layer network on edge lists
  (gather x_u - x_v, apply the identity or sign, scatter to both ends);
- the minimum density by brute-force enumeration of cuts with itertools;
- closed-form minimum densities of the ring, the path and the
  nearest-neighbour circulant, from their sparsest cut (two contiguous arcs
  as equal as possible);
- lambda2 from networkx.

The `*_agree` helpers are the comparisons the benchmark makes; the tests
in `test_bench_oracles.py` show that they reject deliberately wrong values.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np

# Relative tolerance of the edge-list e_tot series against pwsync's. The two
# sum in different orders, so they differ in the last bits; over a prefix of
# 30 steps at dt*c*lambda_max ~ 0.14 that grows by at most ~50x.
E_TOT_RTOL = 1e-9
# Absolute tolerance of an eigenvalue from two dense symmetric solvers.
LAMBDA2_ATOL = 1e-9
# Relative tolerance between a float density and its exact rational.
DENSITY_RTOL = 1e-12


def edge_list_euler_step(x, a, d, switch_terms, diff_edges, disc_edges, c, cd, gamma, gamma_d, dt):
    """One explicit-Euler step of dx_i/dt = f(x_i) + u_i on edge lists.

    f(x) = A x + d - sum_k g_k sign(x[h_k]); each edge (i, j) of the
    diffusive layer adds -c Gamma (x_i - x_j) to node i and the opposite to
    node j; each edge of the discontinuous layer does the same with
    cd Gamma_d sign(x_i - x_j).
    """
    drift = x @ np.asarray(a).T + d
    for gain, coord in switch_terms:
        drift = drift - np.sign(x[:, coord])[:, None] * gain
    u = np.zeros_like(x)
    for edges, gain, inner, law in (
        (diff_edges, c, gamma, None),
        (disc_edges, cd, gamma_d, np.sign),
    ):
        if len(edges) == 0:
            continue
        i, j = edges[:, 0], edges[:, 1]
        diff = x[i] - x[j]
        flow = gain * (diff if law is None else law(diff)) @ np.asarray(inner).T
        np.subtract.at(u, i, flow)
        np.add.at(u, j, flow)
    return x + dt * (drift + u)


def total_error(x) -> float:
    """e_tot: mean over nodes of the 2-norm of the deviation from the mean state."""
    dev = x - x.mean(axis=0)
    return float(np.sqrt((dev * dev).sum(axis=1)).mean())


def edge_list_e_tot(x0, steps, **step_args) -> np.ndarray:
    """e_tot at steps 0..steps of the edge-list Euler iteration from x0."""
    x = np.array(x0, dtype=np.float64)
    series = [total_error(x)]
    for _ in range(steps):
        x = edge_list_euler_step(x, **step_args)
        series.append(total_error(x))
    return np.asarray(series)


def e_tot_agree(series, reference, rtol: float = E_TOT_RTOL) -> bool:
    series = np.asarray(series, dtype=np.float64)
    reference = np.asarray(reference, dtype=np.float64)
    return series.shape == reference.shape and bool(
        np.all(np.abs(series - reference) <= rtol * np.abs(reference))
    )


def cut_density(n: int, edges, side) -> Fraction:
    """(N/2) b / (N1 N2) of the cut whose side V1 is the set `side`."""
    side = set(side)
    n1 = len(side)
    if not 0 < n1 < n:
        raise ValueError("a cut needs two nonempty sides")
    b = sum((u in side) != (v in side) for u, v in edges)
    return Fraction(n, 2) * Fraction(b, n1 * (n - n1))


def brute_force_min_density(n: int, edges) -> Fraction:
    """Minimum density over every cut; vertex 0 is pinned to side V1."""
    rest = range(1, n)
    return min(
        cut_density(n, edges, (0,) + others)
        for k in range(0, n - 1)
        for others in itertools.combinations(rest, k)
    )


def closed_form_min_density(kind: str, n: int, l: int | None = None) -> Fraction:
    """Minimum density of a ring, path or l-nearest-neighbour circulant.

    The sparsest cut splits the cycle (or the path) into two contiguous arcs
    of floor(N/2) and ceil(N/2) vertices; it crosses 2 edges of a ring, 1 of
    a path and l(l+1) of the circulant.
    """
    crossing = {"ring": 2, "path": 1}.get(kind)
    if kind == "nearest_neighbours":
        crossing = l * (l + 1)
    if crossing is None:
        raise ValueError(f"no closed form for {kind!r}")
    return Fraction(n, 2) * Fraction(crossing, (n // 2) * (n - n // 2))


def density_agrees(value: float, exact: Fraction, rtol: float = DENSITY_RTOL) -> bool:
    return abs(Fraction(value) - exact) <= rtol * exact


def laplacian_spectrum(n: int, edges) -> np.ndarray:
    """Ascending Laplacian eigenvalues, computed by networkx."""
    import networkx as nx

    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from((int(u), int(v)) for u, v in edges)
    return np.sort(nx.laplacian_spectrum(g))


def lambda2(n: int, edges) -> float:
    """Algebraic connectivity (second-smallest Laplacian eigenvalue) by networkx."""
    return float(laplacian_spectrum(n, edges)[1])


def lambda2_agrees(value: float, reference: float, atol: float = LAMBDA2_ATOL) -> bool:
    return abs(value - reference) <= atol
