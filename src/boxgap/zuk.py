"""Link graphs with triangle weights and the local gap certificate.

For a vertex x, the link is the graph induced on its neighbors; a link edge
(y, z) corresponds to a triangle (x, y, z). The triangle count tau(x, y) of
an edge equals the degree of y inside the link of x. The certificate checks
the smallest positive eigenvalue of every link's random-walk Laplacian: when
each link is connected and the minimum exceeds 1/2, the triangle-weighted
Laplacian has a gap of at least c = 2 - 1/min.

The certificate handles links in one batched pass over vertex chunks of
LINK_CHUNK: the neighbour rows come from the CSR arrays, link adjacency from
a ``searchsorted`` of the neighbour pairs in the sorted edge keys u * n + v,
giving one (c, m, m) stack per link size m; connectivity is decided for the
whole chunk before any of its links is solved, and each stack takes one
``eigvalsh`` call. ``link_graph`` and ``link_lambda1`` run the same kernel on
a batch of one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import DisconnectedLink, EdgeWithoutTriangle, EmptyLink
from .graph import Graph
from .spectral import (
    SpectrumReport,
    _weighted_laplacian,
    laplacian,
    pinned_spectrum,
)


def _triangle_weights(g: Graph) -> sp.csr_matrix:
    """tau(u, v), the common neighbours of each edge, as (A @ A) * A."""
    a = g.matrix
    return sp.csr_matrix((a @ a).multiply(a))


def triangle_counts(g: Graph):
    """Per-edge and per-vertex triangle counts.

    Returns (tau_edge, tau_vertex): a dict keyed by (u, v) with u < v giving
    the number of common neighbors, and an array with tau(x) = sum over
    incident edges, which is twice the number of triangles containing x.
    Loops are ignored.
    """
    w = _triangle_weights(g)
    # 1 + tau on every edge u < v, so edges in no triangle stay listed.
    upper = sp.triu(g.matrix + w, 1, format="csr").tocoo()
    tau = (upper.data - 1).astype(np.int64).tolist()
    tau_edge = dict(zip(zip(upper.row.tolist(), upper.col.tolist()), tau))
    tau_vertex = w.sum(axis=1).A1.astype(np.int64)
    return tau_edge, tau_vertex


@dataclass
class LinkGraph:
    """Weighted neighborhood graph of one base vertex."""

    base: int
    vertices: tuple  # original vertex ids of the neighbors
    edges: tuple  # pairs of local indices into vertices
    tau_edge: tuple  # tau(base, y) per link vertex = its degree in the link
    tau_total: int
    connected: bool

    @property
    def nu(self) -> np.ndarray:
        """Stationary weights nu(y) = tau(base, y) / tau(base)."""
        t = np.asarray(self.tau_edge, dtype=np.float64)
        return t / self.tau_total if self.tau_total else t


LINK_CHUNK = 2048  # vertices whose links are stacked at once; bounds memory


def _edge_keys(g: Graph) -> np.ndarray:
    """u * n + v for every loop-free (u, v) of g, sorted (the CSR order)."""
    rows = np.repeat(np.arange(g.n, dtype=np.int64), np.diff(g.indptr))
    return rows * g.n + g.indices


def _link_stack(g: Graph, keys: np.ndarray, xs: np.ndarray, m: int):
    """Links of the vertices xs, each of loop-free degree m.

    Returns (nbrs, a): nbrs[k] is the sorted neighbour row of xs[k] and
    a[k, i, j] whether nbrs[k, i] and nbrs[k, j] are adjacent, a (c, m, m)
    boolean stack found by searching the pair keys in ``keys``.
    """
    nbrs = g.indices[g.indptr[xs][:, None] + np.arange(m)].astype(np.int64)
    q = nbrs[:, :, None] * g.n + nbrs[:, None, :]
    pos = np.minimum(np.searchsorted(keys, q), max(len(keys) - 1, 0))
    return nbrs, keys[pos] == q


def _links_connected(a: np.ndarray) -> np.ndarray:
    """Per link of a (c, m, m) stack, whether it is connected; empty and
    one-vertex links count as disconnected (the hypothesis fails there)."""
    c, m, _ = a.shape
    if m < 2:
        return np.zeros(c, dtype=bool)
    reach = (a | np.eye(m, dtype=bool)).astype(np.float64)
    for _ in range((m - 1).bit_length()):  # paths of length up to 2^k
        reach = (reach @ reach > 0).astype(np.float64)
    return reach[:, 0, :].all(axis=1)


def _link_spectra(a: np.ndarray):
    """Two smallest eigenvalues of I - D^(-1/2) A D^(-1/2), the symmetric
    form of the random-walk Laplacian, for every link of a (c, m, m) stack
    whose links have no isolated vertex; one ``eigvalsh`` call."""
    m = a.shape[1]
    a = a.astype(np.float64)
    dinv = 1.0 / np.sqrt(a.sum(axis=2))
    sym = np.eye(m) - (dinv[:, :, None] * a) * dinv[:, None, :]
    evs = np.linalg.eigvalsh(sym)
    return evs[:, 0], evs[:, 1]


def link_graph(g: Graph, x: int) -> LinkGraph:
    """Link of x: neighbors of x with induced edges.

    An empty or single-vertex link is recorded as disconnected, matching the
    convention that the certificate hypothesis fails there.
    """
    m = g.nonloop_degree(x)
    nbrs, a = _link_stack(g, _edge_keys(g), np.array([x]), m)
    i, j = np.nonzero(np.triu(a[0], 1))
    deg = a[0].sum(axis=1)
    return LinkGraph(
        base=x,
        vertices=tuple(nbrs[0].tolist()),
        edges=tuple(zip(i.tolist(), j.tolist())),
        tau_edge=tuple(deg.tolist()),
        tau_total=int(deg.sum()),
        connected=bool(_links_connected(a)[0]),
    )


def link_lambda1(link: LinkGraph, tol: float = 1e-9) -> float:
    """First positive eigenvalue of the link's random-walk Laplacian.

    Computed from the symmetric normalization I - D^(-1/2) A D^(-1/2), which
    has the same spectrum; the kernel of a connected link is one-dimensional
    so the answer is the second-smallest eigenvalue.
    """
    m = len(link.vertices)
    if m == 0:
        raise EmptyLink(link.base)
    if not link.connected:
        raise DisconnectedLink(link.base)
    a = np.zeros((1, m, m), dtype=bool)
    for u, v in link.edges:
        a[0, u, v] = a[0, v, u] = True
    lam0, lam1 = _link_spectra(a)
    if abs(lam0[0]) > 100 * tol:
        raise DisconnectedLink(link.base)
    return float(lam1[0])


@dataclass
class ZukCertificate:
    per_vertex_lambda1: dict
    all_links_connected: bool
    min_lambda: float
    valid: bool  # min_lambda > 1/2 strictly, all inspected links connected
    c: float  # 2 - 1/min_lambda
    coverage: float  # |Y| / n
    subset: tuple = field(default=(), repr=False)

    def to_dict(self) -> dict:
        return {
            "per_vertex_lambda1": {
                str(k): v for k, v in sorted(self.per_vertex_lambda1.items())
            },
            "all_links_connected": self.all_links_connected,
            "min_lambda": self.min_lambda,
            "valid": self.valid,
            "c": self.c,
            "coverage": self.coverage,
        }


def zuk_certificate(g: Graph, subset=None, tol: float = 1e-9) -> ZukCertificate:
    """Certificate that min over the subset of link lambda_1 exceeds 1/2.

    Every link of every vertex must be connected (the hypothesis covers the
    whole graph, not just the inspected subset); DisconnectedLink is raised
    otherwise, at the first such vertex, before any eigensolve of its chunk.
    A subset link whose kernel is not one-dimensional (|lambda_0| above
    100 tol) also raises DisconnectedLink, at the first such subset vertex,
    once every link is known to be connected. With subset = all vertices a
    valid certificate claims the full gap for the triangle-weighted
    Laplacian.

    Links are handled LINK_CHUNK vertices at a time: per chunk, one stack of
    adjacency matrices and one ``eigvalsh`` call per link size.
    """
    vertices = tuple(sorted(subset)) if subset is not None else tuple(range(g.n))
    wanted = np.zeros(g.n, dtype=bool)
    wanted[list(vertices)] = True
    keys = _edge_keys(g)
    size = np.diff(g.indptr)
    lambda1 = np.zeros(g.n)
    off_kernel = g.n  # first subset vertex with |lambda_0| > 100 tol
    for lo in range(0, g.n, LINK_CHUNK):
        xs = np.arange(lo, min(lo + LINK_CHUNK, g.n))
        stacks = []
        for m in np.unique(size[xs]):
            ys = xs[size[xs] == m]
            stacks.append((ys, _link_stack(g, keys, ys, int(m))[1]))
        cut = [ys[~_links_connected(a)] for ys, a in stacks]
        if any(len(ys) for ys in cut):
            raise DisconnectedLink(int(np.concatenate(cut).min()))
        for ys, a in stacks:
            keep = wanted[ys]
            if keep.any():
                lam0, lam1 = _link_spectra(a[keep])
                lambda1[ys[keep]] = lam1
                bad = ys[keep][np.abs(lam0) > 100 * tol]
                off_kernel = min(off_kernel, int(bad.min(initial=g.n)))
    if off_kernel < g.n:
        raise DisconnectedLink(off_kernel)
    lam = dict(zip(vertices, lambda1[list(vertices)].tolist()))
    min_lambda = min(lam.values()) if lam else 0.0
    valid = bool(lam) and min_lambda > 0.5
    c = 2.0 - 1.0 / min_lambda if min_lambda > 0 else 0.0
    coverage = len(vertices) / g.n if g.n else 0.0
    return ZukCertificate(
        per_vertex_lambda1=lam,
        all_links_connected=True,
        min_lambda=min_lambda,
        valid=valid,
        c=c,
        coverage=coverage,
        subset=vertices,
    )


def delta_tau(g: Graph) -> sp.csr_matrix:
    """Triangle-weighted Laplacian, as a CSR matrix: edge (x, y) carries
    weight tau(x, y)."""
    return _weighted_laplacian(_triangle_weights(g))


def delta_tau_spectrum(g: Graph, tol: float = 1e-9) -> SpectrumReport:
    """Spectrum of the triangle-weighted Laplacian, kernel_dim pinned to g's
    component count.

    Δτ is split along its own weight support, the graph of the edges that
    lie in a triangle, and each block is solved alone (up to DENSE_LIMIT
    vertices one dense solve of the whole), so every block's zero is
    listed. A gap of 0.0 (to rounding) on a connected g means the
    triangle-weight graph is disconnected: Margulis graphs, where almost no
    edge lies in a triangle, list only zeros. A valid Żuk certificate
    implies every edge lies in a triangle, so there the blocks are g's
    components.
    """
    return pinned_spectrum(g, delta_tau(g), tol=tol)


def sandwich_check(
    g: Graph, trials: int = 100, tol: float = 1e-9, seed: int = 0
) -> bool:
    """Random-vector check of <Δξ,ξ> <= <Δ_τ ξ,ξ> <= d <Δξ,ξ>.

    Requires every edge to lie in at least one triangle; the left inequality
    can fail otherwise and EdgeWithoutTriangle is raised.

    Test-facing API: no command or other library function calls it; the
    tests do.
    """
    tau_edge, _ = triangle_counts(g)
    for (u, v), t in tau_edge.items():
        if t == 0:
            raise EdgeWithoutTriangle((u, v))
    lap = laplacian(g)
    dt = delta_tau(g)
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        xi = rng.standard_normal(g.n)
        q = float(xi @ (lap @ xi))
        qt = float(xi @ (dt @ xi))
        if not (q - tol <= qt <= g.degree_bound * q + tol):
            return False
    return True


@dataclass
class ZukGapCheck:
    applicable: bool
    passed: bool | None
    c: float
    gap: float | None

    def to_dict(self) -> dict:
        return {
            "applicable": self.applicable,
            "passed": self.passed,
            "c": self.c,
            "gap": self.gap,
        }


def verify_zuk_gap(g: Graph, tol: float = 1e-9) -> ZukGapCheck:
    """Check the certified gap against the triangle-weighted spectrum.

    Requires a valid whole-graph certificate; when the certificate is
    invalid the check is reported as not applicable rather than failed.

    Test-facing API: no command or other library function calls it; the
    tests do.
    """
    cert = zuk_certificate(g, tol=tol)
    if not cert.valid:
        return ZukGapCheck(applicable=False, passed=None, c=cert.c, gap=None)
    rep = delta_tau_spectrum(g, tol=tol)
    return ZukGapCheck(
        applicable=True,
        passed=rep.gap >= cert.c - tol,
        c=cert.c,
        gap=rep.gap,
    )
