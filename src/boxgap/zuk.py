"""Link graphs with triangle weights and the local gap certificate.

For a vertex x, the link is the graph induced on its neighbors; a link edge
(y, z) corresponds to a triangle (x, y, z). The triangle count tau(x, y) of
an edge equals the degree of y inside the link of x. The certificate checks
the smallest positive eigenvalue of every link's random-walk Laplacian: when
each link is connected and the minimum exceeds 1/2, the triangle-weighted
Laplacian has a gap of at least c = 2 - 1/min.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import DisconnectedLink, EdgeWithoutTriangle, EmptyLink
from .graph import Graph
from .spectral import (
    SpectrumReport,
    SymmetricOperator,
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


def link_graph(g: Graph, x: int) -> LinkGraph:
    """Link of x: neighbors of x with induced edges.

    An empty or single-vertex link is recorded as disconnected, matching the
    convention that the certificate hypothesis fails there.
    """
    nbrs = tuple(v for v in g.adjacency[x] if v != x)
    pos = {v: i for i, v in enumerate(nbrs)}
    edges = []
    deg = [0] * len(nbrs)
    for y in nbrs:
        for z in g.adjacency[y]:
            if z in pos and y < z:
                edges.append((pos[y], pos[z]))
                deg[pos[y]] += 1
                deg[pos[z]] += 1
    connected = _link_connected(len(nbrs), edges)
    return LinkGraph(
        base=x,
        vertices=nbrs,
        edges=tuple(edges),
        tau_edge=tuple(deg),
        tau_total=sum(deg),
        connected=connected,
    )


def _link_connected(n: int, edges) -> bool:
    if n <= 1:
        return False  # empty and singleton links fail the hypothesis
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = {0}
    stack = [0]
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == n


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
    deg = np.asarray(link.tau_edge, dtype=np.float64)
    a = np.zeros((m, m))
    for u, v in link.edges:
        a[u, v] = 1.0
        a[v, u] = 1.0
    dinv = 1.0 / np.sqrt(deg)
    sym = np.eye(m) - (dinv[:, None] * a) * dinv[None, :]
    evs = np.linalg.eigvalsh(sym)
    if abs(evs[0]) > 100 * tol:
        raise DisconnectedLink(link.base)
    return float(evs[1])


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
    otherwise. With subset = all vertices a valid certificate claims the
    full gap for the triangle-weighted Laplacian.
    """
    links = []
    for x in range(g.n):
        links.append(link_graph(g, x))
        if not links[x].connected:
            raise DisconnectedLink(x)
    vertices = tuple(sorted(subset)) if subset is not None else tuple(range(g.n))
    lam = {x: link_lambda1(links[x], tol) for x in vertices}
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


def delta_tau(g: Graph) -> SymmetricOperator:
    """Triangle-weighted Laplacian: edge (x, y) carries weight tau(x, y)."""
    return _weighted_laplacian(_triangle_weights(g))


def delta_tau_spectrum(g: Graph, tol: float = 1e-9) -> SpectrumReport:
    """Spectrum of the triangle-weighted Laplacian, kernel from components."""
    return pinned_spectrum(g, delta_tau(g), tol=tol)


def sandwich_check(
    g: Graph, trials: int = 100, tol: float = 1e-9, seed: int = 0
) -> bool:
    """Random-vector check of <Δξ,ξ> <= <Δ_τ ξ,ξ> <= d <Δξ,ξ>.

    Requires every edge to lie in at least one triangle; the left inequality
    can fail otherwise and EdgeWithoutTriangle is raised.
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
        q = lap.quadratic_form(xi)
        qt = dt.quadratic_form(xi)
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
