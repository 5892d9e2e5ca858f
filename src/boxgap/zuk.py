"""Link graphs with triangle weights and the local gap certificate.

For a vertex x, the link is the graph induced on its neighbors; a link edge
(y, z) corresponds to a triangle (x, y, z). The triangle count tau(x, y) of
an edge equals the degree of y inside the link of x. The certificate checks
the smallest positive eigenvalue of every link's random-walk Laplacian: when
each link is connected and the minimum exceeds 1/2, the triangle-weighted
Laplacian has a gap of at least c = 2 - 1/min. Whether a link is connected
is decided once, on its boolean adjacency (``_links_connected``); the
eigensolve only supplies lambda_1, and no tolerance enters either.

The certificate handles links in one batched pass over vertex chunks of
LINK_CHUNK: the neighbour rows come from the CSR arrays, link adjacency from
a ``searchsorted`` of the neighbour pairs in the sorted edge keys u * n + v,
giving one (c, m, m) stack per link size m; connectivity is decided for the
whole chunk before any of its links is solved, and each stack takes one
``eigvalsh`` call. ``link_graph`` and ``link_lambda1`` run the same kernel on
a batch of one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import DisconnectedLink, EdgeWithoutTriangle
from .graph import Graph, Record, edge_keys
from .spectral import (
    SpectrumReport,
    _weighted_laplacian,
    laplacian,
    spectrum,
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


def _link_stack(g: Graph, keys: np.ndarray, xs: np.ndarray, m: int):
    """Links of the vertices xs, each of loop-free degree m.

    Returns (nbrs, a): nbrs[k] is the sorted neighbour row of xs[k] and
    a[k, i, j] whether nbrs[k, i] and nbrs[k, j] are adjacent, a (c, m, m)
    boolean stack found by searching the pair keys in ``keys``
    (``edge_keys``).
    """
    nbrs = g.indices[g.indptr[xs][:, None] + np.arange(m)].astype(np.int64)
    q = nbrs[:, :, None] * g.n + nbrs[:, None, :]
    return nbrs, keys[np.searchsorted(keys, q)] == q


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


def _link_spectra(a: np.ndarray) -> np.ndarray:
    """Second-smallest eigenvalue of I - D^(-1/2) A D^(-1/2), the symmetric
    form of the random-walk Laplacian, for every link of a (c, m, m) stack
    of connected links: its lambda_1, as the kernel is one-dimensional. One
    ``eigvalsh`` call."""
    m = a.shape[1]
    a = a.astype(np.float64)
    dinv = 1.0 / np.sqrt(a.sum(axis=2))
    sym = np.eye(m) - (dinv[:, :, None] * a) * dinv[:, None, :]
    return np.linalg.eigvalsh(sym)[:, 1]


def link_graph(g: Graph, x: int) -> LinkGraph:
    """Link of x: neighbors of x with induced edges.

    An empty or single-vertex link is recorded as disconnected, matching the
    convention that the certificate hypothesis fails there.
    """
    m = g.nonloop_degree(x)
    nbrs, a = _link_stack(g, edge_keys(g), np.array([x]), m)
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


def link_lambda1(link: LinkGraph) -> float:
    """First positive eigenvalue of the link's random-walk Laplacian, as
    ``_link_spectra`` computes it. A link that is not connected, empty and
    one-vertex links included, raises DisconnectedLink."""
    if not link.connected:
        raise DisconnectedLink(link.base)
    m = len(link.vertices)
    a = np.zeros((1, m, m), dtype=bool)
    for u, v in link.edges:
        a[0, u, v] = a[0, v, u] = True
    return float(_link_spectra(a)[0])


@dataclass
class ZukCertificate(Record):
    per_vertex_lambda1: dict
    all_links_connected: bool
    min_lambda: float
    valid: bool  # min_lambda > 1/2 strictly, all links connected
    c: float  # 2 - 1/min_lambda
    coverage: float  # 1.0, the whole graph (0.0 when n = 0)

    def to_dict(self) -> dict:
        # Vertex keys as strings, so a file's sorted keys run "10" before "2".
        d = super().to_dict()
        d["per_vertex_lambda1"] = {
            str(k): v for k, v in sorted(self.per_vertex_lambda1.items())
        }
        return d


def zuk_certificate(g: Graph) -> ZukCertificate:
    """Certificate that min over all vertices of link lambda_1 exceeds 1/2.

    The criterion speaks of the link of every vertex, so every link is
    solved. Every link must be connected; DisconnectedLink is raised
    otherwise, at the first such vertex, before any eigensolve of its chunk.
    A valid certificate claims the full gap for the triangle-weighted
    Laplacian.

    Links are handled LINK_CHUNK vertices at a time: per chunk, one stack of
    adjacency matrices and one ``eigvalsh`` call per link size.
    """
    keys = edge_keys(g)
    size = np.diff(g.indptr)
    lambda1 = np.zeros(g.n)
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
            lambda1[ys] = _link_spectra(a)
    lam = dict(enumerate(lambda1.tolist()))
    min_lambda = min(lam.values()) if lam else 0.0
    valid = bool(lam) and min_lambda > 0.5
    c = 2.0 - 1.0 / min_lambda if min_lambda > 0 else 0.0
    return ZukCertificate(
        per_vertex_lambda1=lam,
        all_links_connected=True,
        min_lambda=min_lambda,
        valid=valid,
        c=c,
        coverage=1.0 if g.n else 0.0,
    )


def delta_tau(g: Graph) -> sp.csr_matrix:
    """Triangle-weighted Laplacian, as a CSR matrix: edge (x, y) carries
    weight tau(x, y)."""
    return _weighted_laplacian(_triangle_weights(g))


def delta_tau_spectrum(g: Graph, tol: float = 1e-9) -> SpectrumReport:
    """Spectrum of the triangle-weighted Laplacian, through ``spectrum``
    with kernel_dim pinned to g's component count.

    Δτ's blocks are those of its own weight support, the graph of the edges
    that lie in a triangle; above DENSE_LIMIT each is solved alone, so every
    block's zero is listed. A gap of 0.0 (to rounding) on a connected g
    means the triangle-weight graph is disconnected: Margulis graphs, where
    almost no edge lies in a triangle, list only zeros. A valid Żuk
    certificate implies every edge lies in a triangle, so there the blocks
    are g's components.
    """
    return spectrum(g, delta_tau(g), tol=tol)


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


def verify_zuk_gap(g: Graph, tol: float = 1e-9) -> ZukGapCheck:
    """Check the certified gap against the triangle-weighted spectrum.

    Requires a valid whole-graph certificate; when the certificate is
    invalid the check is reported as not applicable rather than failed.

    Test-facing API: no command or other library function calls it; the
    tests do.
    """
    cert = zuk_certificate(g)
    if not cert.valid:
        return ZukGapCheck(applicable=False, passed=None, c=cert.c, gap=None)
    rep = delta_tau_spectrum(g, tol=tol)
    return ZukGapCheck(
        applicable=True,
        passed=rep.gap >= cert.c - tol,
        c=cert.c,
        gap=rep.gap,
    )
