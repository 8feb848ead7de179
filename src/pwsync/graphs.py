"""Undirected unweighted graphs: matrices, connectivity, and topology generators.

Graphs are always simple (no self-loops, no parallel edges) and vertices are
0-indexed. A graph is its vertex count and two read-only int64 endpoint
arrays (u_k, v_k) with u_k < v_k, sorted lexicographically, so that derived
objects (incidence matrix columns, generated files) are deterministic. Every
computation reads those arrays; the `edges` tuple is built only on request.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Graph",
    "incidence",
    "is_connected",
    "algebraic_connectivity",
    "complete_graph",
    "star_graph",
    "path_graph",
    "ring_graph",
    "nearest_neighbours_graph",
    "erdos_renyi_graph",
    "generate_topology",
    "read_graph_file",
    "write_graph_file",
    "graph_to_text",
]

TOPOLOGY_KINDS = ("complete", "star", "path", "ring", "nearest_neighbours", "erdos_renyi")


@dataclass(frozen=True, init=False, eq=False)
class Graph:
    """Immutable simple undirected graph on vertices 0..n_vertices-1.

    `edges` may be any iterable of (i, j) pairs, in any order and orientation,
    or an (E, 2) integer array. The constructor validates them (the first
    self-loop or out-of-range edge in input order is named; duplicates are
    refused) and keeps only the sorted endpoint arrays of `edge_array()`.
    """

    n_vertices: int
    _uv: tuple[np.ndarray, np.ndarray]  # what edge_array() returns

    def __new__(cls, n_vertices: int, edges=()) -> Graph:
        if n_vertices < 1:
            raise ValueError(f"graph needs at least one vertex, got n_vertices={n_vertices}")
        uv = np.asarray(edges if isinstance(edges, np.ndarray) else list(edges), dtype=np.int64)
        if uv.size and uv.shape[1:] != (2,):
            raise ValueError(f"edges must be (i, j) pairs, got an array of shape {uv.shape}")
        u, v = uv.reshape(-1, 2).T
        lo, hi = np.minimum(u, v), np.maximum(u, v)
        bad = np.flatnonzero((lo == hi) | (lo < 0) | (hi >= n_vertices))
        if bad.size:
            a, b = int(u[bad[0]]), int(v[bad[0]])
            raise ValueError(f"self-loop ({a},{b}) is not allowed" if a == b
                             else f"edge ({a},{b}) out of range for n_vertices={n_vertices}")
        order = np.lexsort((hi, lo))
        lo, hi = lo[order], hi[order]
        if ((lo[1:] == lo[:-1]) & (hi[1:] == hi[:-1])).any():
            raise ValueError("duplicate edges are not allowed")
        return cls._of_sorted(n_vertices, lo, hi)

    @classmethod
    def _of_sorted(cls, n_vertices: int, u: np.ndarray, v: np.ndarray) -> Graph:
        """Graph whose `edge_array()` is (u, v): own int64 arrays, sorted, u < v, no repeats; unchecked."""
        g = object.__new__(cls)
        u.setflags(write=False)
        v.setflags(write=False)
        g.__dict__.update(n_vertices=n_vertices, _uv=(u, v))  # frozen: no __setattr__
        return g

    def __reduce__(self):
        return Graph, (self.n_vertices, np.column_stack(self._uv))

    def __eq__(self, other) -> bool:
        return (isinstance(other, Graph) and self.n_vertices == other.n_vertices
                and all(map(np.array_equal, self._uv, other._uv)))

    def __hash__(self) -> int:
        return hash((self.n_vertices, self._uv[0].tobytes(), self._uv[1].tobytes()))

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """The sorted (i, j) pairs, i < j, as Python ints; built on every call."""
        return tuple(zip(*(arr.tolist() for arr in self._uv)))

    @property
    def n_edges(self) -> int:
        return self._uv[0].size

    def edge_array(self) -> tuple[np.ndarray, np.ndarray]:
        """The read-only endpoint arrays (u_k, v_k), the same objects on every call."""
        return self._uv

    def degrees(self) -> np.ndarray:
        return np.bincount(np.concatenate(self.edge_array()), minlength=self.n_vertices)

    def adjacency(self) -> np.ndarray:
        """Dense 0/1 adjacency matrix (int64)."""
        u, v = self.edge_array()
        a = np.zeros((self.n_vertices, self.n_vertices), dtype=np.int64)
        a[u, v] = a[v, u] = 1
        return a


def incidence(g: Graph) -> np.ndarray:
    """Signed vertex-edge incidence matrix B, whose B @ B.T is the Laplacian L = D - A.

    Column k corresponds to the k-th edge in sorted order and carries +1 at the
    smaller endpoint and -1 at the larger one (fixed convention; any consistent
    sign choice yields the same B @ B.T).
    """
    u, v = g.edge_array()
    k = np.arange(g.n_edges)
    b = np.zeros((g.n_vertices, g.n_edges), dtype=np.int64)
    b[u, k] = 1
    b[v, k] = -1
    return b


def _dense_laplacian(g: Graph) -> np.ndarray:
    """The float64 Laplacian L = D - A, written from the edge list."""
    u, v = g.edge_array()
    lap = np.diag(g.degrees().astype(np.float64))
    lap[u, v] = lap[v, u] = -1.0
    return lap


def _endpoints(g: Graph, n: int = 1) -> np.ndarray:
    """(2, E*n) flat indices into an (N, n) stack of each edge's endpoint coordinates: u's row, v's row."""
    return (np.stack(g.edge_array())[:, :, None] * n + np.arange(n)).reshape(2, -1)


def _edge_product(uv: np.ndarray, x: np.ndarray, law=None) -> np.ndarray:
    """B law(B^T x) for a stack x over the endpoint indices `uv` of `_endpoints`; L x when law is None.

    One gather of the edge differences and one bincount scatter, so it is
    *exactly* zero on a stack that is constant over the vertices (L @ x is not).
    """
    d = x.ravel()[uv]
    y = d - d[::-1]  # rows x_u - x_v (B^T x) and x_v - x_u, exactly its negation
    y = y if law is None else law(y)
    return np.bincount(uv.ravel(), y.ravel(), x.size).reshape(x.shape)


def is_connected(g: Graph) -> bool:
    """Whether every vertex is reachable from vertex 0; see `_induces_connected`."""
    return bool(_induces_connected(g, np.ones((1, g.n_vertices), dtype=bool))[0])


def _induces_connected(g: Graph, sides: np.ndarray) -> np.ndarray:
    """Whether the vertices marked in each row of `sides` induce a connected subgraph.

    The rows' induced subgraphs form one disjoint union over the flat vertex
    indices row * N + i. The set reached from each row's first marked vertex
    grows by both endpoints of every edge that crosses it, until none does:
    eccentricity + 1 passes over the edge arrays, with no list built.
    """
    n = g.n_vertices
    eu, ev = g.edge_array()
    row, k = np.nonzero(sides[:, eu] & sides[:, ev])
    u, v = row * n + eu[k], row * n + ev[k]
    seen = np.zeros(sides.size, dtype=bool)
    seen[np.arange(len(sides)) * n + sides.argmax(axis=1)] = True
    while (cross := seen[u] != seen[v]).any():
        seen[u[cross]] = seen[v[cross]] = True
    return (seen.reshape(sides.shape) == sides).all(axis=1)


DENSE_LAMBDA2_CAP = 500  # largest N whose lambda2 comes from every eigenvalue of the dense L
_LANCZOS_STEPS = 300  # Lanczos step budget above the cap, whatever N
_LANCZOS_CHECK = 10  # steps between convergence checks (one tridiagonal eigh each)
_LANCZOS_RESIDUAL = 1e-9  # Ritz residual, relative to 2*d_max >= ||L||_2, at which the proof takes over
_CHOLESKY_PANEL = 128  # columns per panel of the blocked Cholesky
_CHOLESKY_LEAF = 32  # most columns a panel solve substitutes one by one


def algebraic_connectivity(g: Graph) -> float:
    """Second-smallest Laplacian eigenvalue lambda2; positive iff g is connected.

    Up to DENSE_LAMBDA2_CAP vertices (read at call time) it is the second of
    all eigenvalues of the dense Laplacian (`numpy.linalg.eigvalsh`). Above
    the cap lambda2 is estimated on the edge list and the estimate is proved;
    if either step fails, the dense path runs instead.

    Estimate. `_lanczos_lambda2` returns the smallest Ritz value theta of L
    on the complement of the ones vector. Its Ritz vector lies in that
    complement, so theta >= lambda2 up to rounding. Lanczos stops once the
    Ritz residual is small enough for the proof below to succeed on a
    typical gap; the residual bounds theta's error only through that gap,
    which is not known, so it is the proof, not the residual, that
    certifies theta.

    Proof. L + 11^T has the eigenvalue N on the ones vector and lambda2..lambdaN
    on its complement, and lambdaN <= N for a simple graph, so its least
    eigenvalue is lambda2. Let s = theta - 1e-9*max(1, theta) and
    A = L + 11^T - sI, whose least eigenvalue is lambda2 - s. Its stored form
    A^ rounds the diagonal deg + 1 - s once, so ||A^ - A||_2 <= u*tr(A^)/(1 - u),
    u = 2^-53, as long as that diagonal is positive (else the factorisation
    fails). If the Cholesky factorisation of A^ completes in floating point,
    its factor R satisfies R R^T = A^ + dA with |dA| <= gamma_{N+2} |R||R^T|,
    gamma_k = k*u/(1 - k*u) (Demmel 1989; Higham, Accuracy and Stability of
    Numerical Algorithms, Thm 10.3, with one rounding more for a division
    done as a multiplication by the reciprocal). Then
    ||dA||_2 <= gamma_{N+2} ||R||_F^2 and ||R||_F^2 = tr(A^ + dA), so
    ||dA||_2 <= gamma_{N+2} tr(A^)/(1 - gamma_{N+2}). As R R^T is positive
    semidefinite, lambda2 - s >= -eps with eps = 1.01*gamma_{N+3}*tr(A^), the
    factor 1.01 covering the 1/(1 - gamma) terms and the rounding of eps
    itself. So lambda2 lies in [s - eps, theta]; on ER(1000, 8/999) layers
    eps is about 0.9e-9 and the bracket about 2e-9 wide.

    The value returned is theta, not s - eps: on ER(600..1200, d/(N - 1))
    layers theta agrees with `eigvalsh` to 1e-13 relative, while s - eps is
    2e-9 below it. The proof does not depend on where Lanczos stopped or on
    the order in which `_cholesky_in_place` sums its inner products.
    """
    if g.n_vertices < 2:
        raise ValueError("algebraic connectivity needs at least two vertices")
    if g.n_vertices > DENSE_LAMBDA2_CAP:
        theta = _lanczos_lambda2(g)
        if theta is not None and _lambda2_lower_bound(g, theta - 1e-9 * max(1.0, theta)) is not None:
            return theta
    return float(np.linalg.eigvalsh(_dense_laplacian(g))[1])


def _lanczos_lambda2(g: Graph) -> float | None:
    """Smallest Ritz value of L on the complement of the ones vector; None if not converged.

    Lanczos (Lanczos 1950; Paige 1972) on the edge-list product
    `_edge_product`, from a fixed-seed start with the ones vector deflated. Each
    step is reorthogonalised in full, twice, against the basis and the ones
    vector. Every _LANCZOS_CHECK steps the tridiagonal matrix T_j is
    diagonalised, and its least eigenvalue theta is accepted once the Ritz
    residual r = ||L y - theta y|| = |beta_j s_{j,1}| is at most
    _LANCZOS_RESIDUAL*2*d_max, where 2*d_max >= ||L||_2. A beta_j that small
    means the basis spans an invariant subspace, so the check runs then too;
    the next vector would be rounding noise. The budget is _LANCZOS_STEPS
    steps, or the N - 1 dimensions of the complement.

    Why 1e-9. Some eigenvalue lies within r of theta, and if gap is the
    distance from theta to every other eigenvalue of L on the complement,
    theta is within r^2/gap of that eigenvalue (Kato-Temple; Parlett,
    The Symmetric Eigenvalue Problem, Sec. 11). Here r <= 2e-9*d_max, so for
    d_max <= 30 the error r^2/gap is at most 3.6e-15/gap: below
    1e-12*max(1, theta) whenever gap >= 3.6e-3. ER(N, d/(N - 1)) layers with
    N = 600 to 1200 and d = 6 to 12 have gaps of 9e-3 to 1.4. The proof in
    `algebraic_connectivity` needs only theta - lambda2 below its margin
    1e-9*max(1, theta). If theta converged to another eigenvalue, or the gap
    is too small, the proof fails and the dense path runs. A residual of
    1e-13*2*d_max costs 20 to 30 more steps per N = 1000 layer and leaves
    theta no closer to `eigvalsh`.
    """
    n = g.n_vertices
    uv = _endpoints(g)
    tol = _LANCZOS_RESIDUAL * 2.0 * g.degrees().max()
    m = min(_LANCZOS_STEPS, n - 1)
    basis = np.empty((m, n))
    alpha, beta = np.zeros(m), np.empty(m)
    q = np.random.default_rng(0).standard_normal(n)
    q -= q.mean()
    basis[0] = q / np.linalg.norm(q)
    for j in range(m):
        q, done = basis[j], basis[: j + 1]
        w = _edge_product(uv, q)
        for _ in range(2):
            h = done @ w
            w -= h @ done
            w -= w.mean()
            alpha[j] += h[j]
        beta[j] = np.linalg.norm(w)
        if beta[j] <= tol or (j + 1) % _LANCZOS_CHECK == 0 or j + 1 == m:
            t = np.diag(alpha[: j + 1]) + np.diag(beta[:j], 1) + np.diag(beta[:j], -1)
            ritz, vecs = np.linalg.eigh(t)
            if abs(beta[j] * vecs[-1, 0]) <= tol:
                return float(ritz[0])
        if j + 1 < m:
            basis[j + 1] = w / beta[j]
    return None


def _lambda2_lower_bound(g: Graph, s: float) -> float | None:
    """s - eps if the Cholesky factorisation of L + 11^T - sI completes, else None.

    A completed factorisation proves lambda2 >= s - eps; see
    `algebraic_connectivity` for the argument and eps.
    """
    n = g.n_vertices
    u, v = g.edge_array()
    a = np.ones((n, n))  # L + 11^T: 0 on an edge, 1 off it; in place from here, no second N x N array
    a[u, v] = a[v, u] = 0.0
    a.flat[:: n + 1] = (g.degrees() + 1.0) - s  # deg + 1 is exact, so the diagonal is rounded once
    trace = float(a.trace())
    if not _cholesky_in_place(a):
        return None
    k_u = (n + 3) * np.finfo(np.float64).eps / 2.0
    return s - 1.01 * k_u / (1.0 - k_u) * trace


def _cholesky_in_place(a: np.ndarray) -> bool:
    """Overwrite the lower triangle of symmetric `a` with its Cholesky factor; False if not positive definite.

    Left-looking, in panels of _CHOLESKY_PANEL columns: a panel's update by
    the columns before it is one matmul, its diagonal block is factored by
    `numpy.linalg.cholesky`, and the rows below are solved in place against
    that factor by `_solve_panel`. Every entry is therefore the Cholesky
    recurrence, its entry minus an inner product summed in another order,
    then one division by the pivot. Higham's Thm 10.3 holds for any such
    order, so the bound and eps of `algebraic_connectivity` are unchanged.
    Only panel-sized temporaries are allocated besides `a`; the strict upper
    triangle is left as it was, apart from the diagonal blocks.
    """
    n = len(a)
    for j0 in range(0, n, _CHOLESKY_PANEL):
        j1 = min(j0 + _CHOLESKY_PANEL, n)
        if j0:
            panel = a[j0:, j0:j1]  # a view: `-=` on it writes nothing back through __setitem__
            panel -= a[j0:, :j0] @ a[j0:j1, :j0].T
        try:
            a[j0:j1, j0:j1] = np.linalg.cholesky(a[j0:j1, j0:j1])
        except np.linalg.LinAlgError:
            return False
        if j1 < n:
            _solve_panel(a[j1:, j0:j1], a[j0:j1, j0:j1])
    return True


def _solve_panel(x: np.ndarray, l: np.ndarray) -> None:
    """Overwrite x with the X that solves X l^T = x, for l lower triangular (its upper part is not read).

    Recursive halving: solve the left half of the columns, subtract its
    contribution from the right half with one matmul, solve the right half.
    Leaves of at most _CHOLESKY_LEAF columns are substituted column by column
    on a row-major copy: x_c = (x_c - X_{<c} l_{c,<c}) / l_cc.
    """
    k = len(l)
    if k > _CHOLESKY_LEAF:
        h = k // 2
        _solve_panel(x[:, :h], l[:h, :h])
        right = x[:, h:]
        right -= x[:, :h] @ l[h:, :h].T
        _solve_panel(right, l[h:, h:])
        return
    xt = x.T.copy()
    for c, row in enumerate(xt):
        row -= l[c, :c] @ xt[:c]
        row /= l[c, c]
    x[...] = xt.T


# ----------------------------------------------------------------------------
# Topology generators
# ----------------------------------------------------------------------------


def _check_n(n: int) -> None:
    if n < 2:
        raise ValueError(f"topology generators need n >= 2, got {n}")


def complete_graph(n: int) -> Graph:
    _check_n(n)
    return Graph._of_sorted(n, *np.triu_indices(n, 1))


def star_graph(n: int) -> Graph:
    """Star with vertex 0 as the hub."""
    _check_n(n)
    return Graph._of_sorted(n, np.zeros(n - 1, dtype=np.int64), np.arange(1, n))


def path_graph(n: int) -> Graph:
    _check_n(n)
    return Graph._of_sorted(n, np.arange(n - 1), np.arange(1, n))


def ring_graph(n: int) -> Graph:
    """Cycle 0-1-...-(n-1)-0; a 2-ring would need a parallel edge, so n = 2 gives one edge."""
    _check_n(n)
    if n == 2:
        return path_graph(2)
    u, v = np.arange(-1, n - 1), np.arange(n)
    u[0], v[0], v[1] = 0, 1, n - 1  # (0, 1) and (0, n - 1) sort first; then (i, i + 1)
    return Graph._of_sorted(n, u, v)


def nearest_neighbours_graph(n: int, l: int) -> Graph:
    """Circulant graph joining each vertex to its l nearest neighbours per side.

    Has exactly n*l edges, which requires 1 <= l <= floor((n-1)/2).
    """
    _check_n(n)
    if not (1 <= l <= (n - 1) // 2):
        raise ValueError(f"need 1 <= l <= floor((n-1)/2) = {(n - 1) // 2}, got l={l}")
    i, k = np.divmod(np.arange(n * l), l)
    return Graph(n, np.column_stack((i, (i + k + 1) % n)))


_ER_MAX_RETRIES = 1000  # draws erdos_renyi_graph makes before it gives up; read at call time


def erdos_renyi_graph(n: int, p: float, seed: int | None = None) -> Graph:
    """Connected G(n, p) sample.

    Each of the n(n-1)/2 vertex pairs (i, j), i < j, taken in row-major
    order, is drawn independently with probability p; the whole draw is
    repeated until the result is connected. Only the indices of the kept
    pairs are turned into endpoints, so no array of all pairs is built. Raises
    RuntimeError after _ER_MAX_RETRIES disconnected draws (p too small for n).
    """
    _check_n(n)
    if not (0.0 < p < 1.0):
        raise ValueError(f"edge probability must satisfy 0 < p < 1, got {p}")
    rng = np.random.default_rng(seed)
    rows = np.arange(n)
    row_start = rows * (2 * n - rows - 1) // 2  # flat index of pair (i, i + 1) in row-major order
    for _ in range(_ER_MAX_RETRIES):
        k = np.flatnonzero(rng.random(n * (n - 1) // 2) < p)
        i = np.searchsorted(row_start, k, side="right") - 1
        g = Graph._of_sorted(n, i, k - row_start[i] + i + 1)
        if is_connected(g):
            return g
    raise RuntimeError(f"no connected Erdos-Renyi draw with n={n}, p={p} in {_ER_MAX_RETRIES} retries")


def generate_topology(
    kind: str,
    n: int,
    *,
    l: int | None = None,
    p: float | None = None,
    seed: int | None = None,
) -> Graph:
    """Build one of the named topologies; see TOPOLOGY_KINDS."""
    plain = {"complete": complete_graph, "star": star_graph, "path": path_graph, "ring": ring_graph}
    if kind in plain:
        return plain[kind](n)
    if kind == "nearest_neighbours":
        if l is None:
            raise ValueError("nearest_neighbours topology needs parameter l")
        return nearest_neighbours_graph(n, l)
    if kind == "erdos_renyi":
        if p is None:
            raise ValueError("erdos_renyi topology needs parameter p")
        return erdos_renyi_graph(n, p, seed=seed)
    raise ValueError(f"unknown topology kind {kind!r}; expected one of {TOPOLOGY_KINDS}")


# ----------------------------------------------------------------------------
# Plain-text graph files: first line "N", then one "i j" edge per line, i < j.
# ----------------------------------------------------------------------------


def graph_to_text(g: Graph) -> str:
    u, v = (a.tolist() for a in g.edge_array())
    return "\n".join([str(g.n_vertices), *map("{} {}".format, u, v)]) + "\n"


def write_graph_file(g: Graph, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(graph_to_text(g))


def read_graph_file(path) -> Graph:
    """Parse a graph file, rejecting self-loops, duplicates and bad ranges."""
    with open(path, "r", encoding="ascii") as fh:
        lines = [(no, text) for no, line in enumerate(fh, start=1) if (text := line.strip())]
    if not lines:
        raise ValueError(f"{path}: empty graph file")
    try:
        n = int(lines[0][1])
    except ValueError as exc:
        raise ValueError(f"{path}: first line must be the vertex count") from exc
    if n < 1:
        raise ValueError(f"{path}: graph needs at least one vertex, got N={n}")
    edges: set[tuple[int, int]] = set()
    for lineno, line in lines[1:]:
        try:
            u, v = line.split()
            u, v = int(u), int(v)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: expected two integers 'i j', got {line!r}") from exc
        if u >= v:
            raise ValueError(f"{path}:{lineno}: edge ({u},{v}) must satisfy i < j (no self-loops)")
        if not (0 <= u and v < n):
            raise ValueError(f"{path}:{lineno}: edge ({u},{v}) out of range for N={n}")
        if (u, v) in edges:
            raise ValueError(f"{path}:{lineno}: duplicate edge ({u},{v})")
        edges.add((u, v))
    return Graph._of_sorted(n, *np.array(sorted(edges), dtype=np.int64).reshape(-1, 2).T.copy())
