"""Laplacian and Markov operators, eigenvalue reports, expander checks.

The Laplacian is degree-minus-adjacency with loops ignored. The Markov
operator is M = I - Laplacian/(2d); since the operator norm of the Laplacian
is at most 2d, M is a contraction whose fixed space is spanned by the
per-component constants. "Spectral gap" of a graph operator always means the
smallest eigenvalue strictly above a kernel whose dimension equals the number
of connected components.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import DegreeBoundTooSmall, NoConvergence
from .graph import BoxSpace, Graph, connected_components

DENSE_LIMIT = 512  # exact dense solve at or below this dimension
KERNEL_TOL_DENSE = 1e-9  # dense eigenvalues within this of 0 count as kernel


@dataclass(frozen=True)
class SymmetricOperator:
    """Sparse symmetric real operator with a fixed dimension."""

    n: int
    matrix: sp.csr_matrix = field(compare=False)

    def apply(self, vec: np.ndarray) -> np.ndarray:
        return self.matrix @ vec

    def dense(self) -> np.ndarray:
        return self.matrix.toarray()

    def quadratic_form(self, vec: np.ndarray) -> float:
        return float(vec @ (self.matrix @ vec))


def _weighted_laplacian(w: sp.csr_matrix) -> SymmetricOperator:
    """diag(row sums of w) - w for a symmetric, zero-diagonal weight matrix."""
    lap = sp.diags(w.sum(axis=1).A1) - w
    return SymmetricOperator(n=w.shape[0], matrix=sp.csr_matrix(lap))


def laplacian(g: Graph) -> SymmetricOperator:
    """Graph Laplacian diag(deg) - A, with A = g.matrix (loops excluded)."""
    return _weighted_laplacian(g.matrix)


def markov(g: Graph, d: int | None = None) -> SymmetricOperator:
    """M = I - Laplacian/(2d); requires d at least the max degree."""
    if d is None:
        d = g.degree_bound
    if d < g.max_degree():
        raise DegreeBoundTooSmall(d, g.max_degree())
    lap = laplacian(g).matrix
    m = sp.identity(g.n, format="csr") - lap / (2.0 * d)
    return SymmetricOperator(n=g.n, matrix=sp.csr_matrix(m))


@dataclass
class SpectrumReport:
    """Ascending eigenvalues with kernel dimension and the gap above it."""

    eigenvalues: list
    kernel_dim: int
    gap: float
    method: str  # "exact-dense" | "iterative"
    tol: float

    def to_dict(self) -> dict:
        return {
            "eigenvalues": [float(v) for v in self.eigenvalues],
            "kernel_dim": self.kernel_dim,
            "gap": self.gap,
            "method": self.method,
            "tol": self.tol,
        }


def _dense_eigenvalues(op: SymmetricOperator) -> np.ndarray:
    if op.n == 0:
        return np.zeros(0)
    return np.linalg.eigvalsh(op.dense())


def iterative_eigenpairs(op: SymmetricOperator, k: int, tol: float):
    """The k smallest eigenvalues of a PSD operator A, ascending, and their
    eigenvectors as columns: the largest of sigma*I - A (sigma a Gershgorin
    bound), which restarted Lanczos resolves reliably. The fixed seeded start
    vector makes the answer depend only on A (all-ones would span a
    Laplacian's kernel). NoConvergence if ARPACK fails or a residual is large.
    """
    mat = op.matrix
    sigma = float(np.abs(mat).sum(axis=1).max()) + 1.0
    shifted = sp.identity(op.n, format="csr") * sigma - mat
    v0 = np.random.default_rng(0).standard_normal(op.n)
    try:
        mu, vecs = spla.eigsh(shifted, k=k, which="LA", tol=tol, v0=v0)
    except spla.ArpackNoConvergence as exc:
        raise NoConvergence(getattr(exc, "info", -1) or -1, str(exc)) from exc
    evs = sigma - mu
    order = np.argsort(evs)
    evs = evs[order]
    vecs = vecs[:, order]
    residuals = np.linalg.norm(mat @ vecs - vecs * evs, axis=0)
    if np.any(residuals > max(tol, 1e-12) * 100 * max(1.0, sigma)):
        raise NoConvergence(-1, f"max residual {residuals.max():.3g}")
    return evs, vecs


def spectrum(
    op: SymmetricOperator,
    k: int | None = None,
    tol: float = 1e-9,
    kernel_dim: int | None = None,
    method: str = "auto",
) -> SpectrumReport:
    """Report the k smallest eigenvalues of a symmetric operator.

    Dense exact solve at dimension <= 512 (or on request), restarted Krylov
    above. For dense solves the kernel is the set of eigenvalues within 1e-9
    of zero unless ``kernel_dim`` is given; iterative solves should always
    receive ``kernel_dim`` (for graph Laplacians: the component count), since
    Krylov residuals cannot separate a near-zero cluster reliably. The
    iterative path can list a repeated eigenvalue once (torus m=48: its 6-fold
    lambda_2); a connected graph's gap, the entry above its simple kernel, holds.
    ``pinned_spectrum`` solves a disconnected graph per component, so its
    kernel is counted once per component; a repeated eigenvalue inside one
    component can still be listed once.
    """
    n = op.n
    if k is None:
        k = n
    if k > n:
        raise ValueError(f"k={k} exceeds dimension {n}")
    use_dense = method == "dense" or (
        method == "auto" and (n <= DENSE_LIMIT or k > max(n - 2, 0))
    )
    if use_dense:
        evs = _dense_eigenvalues(op)[:k]
        used = "exact-dense"
    else:
        evs, _ = iterative_eigenpairs(op, k, tol)
        used = "iterative"
    if kernel_dim is None:
        cut = KERNEL_TOL_DENSE if used == "exact-dense" else tol
        kernel_dim = int(np.sum(np.abs(evs) <= cut))
    gap = float(evs[kernel_dim]) if kernel_dim < len(evs) else 0.0
    return SpectrumReport(
        eigenvalues=[float(v) for v in evs],
        kernel_dim=kernel_dim,
        gap=gap,
        method=used,
        tol=tol,
    )


def pinned_spectrum(
    g: Graph, op: SymmetricOperator, k: int | None = None, tol: float = 1e-9
) -> SpectrumReport:
    """Spectrum of an operator on g, kernel pinned to g's component count.

    k defaults to every eigenvalue up to DENSE_LIMIT vertices and to the
    kernel plus four above that. Above DENSE_LIMIT a disconnected g is solved
    one component at a time and the values merged, which is exact because
    the operator is block-diagonal over components.
    """
    comps = connected_components(g)
    if k is None:
        k = g.n if g.n <= DENSE_LIMIT else min(g.n, len(comps) + 4)
    kernel_dim = min(len(comps), k)
    if g.n <= DENSE_LIMIT or len(comps) == 1 or k > g.n:
        return spectrum(op, k=k, tol=tol, kernel_dim=kernel_dim)
    # The operator is block-diagonal over components: solve each block and
    # merge, so Lanczos sees one simple kernel per block and the kernel of g
    # keeps its full multiplicity.
    parts = []
    for comp in comps:
        idx = np.asarray(comp)
        block = SymmetricOperator(n=len(comp), matrix=op.matrix[idx][:, idx])
        parts.append(spectrum(block, k=min(k, len(comp)), tol=tol, kernel_dim=1))
    evs = sorted(v for part in parts for v in part.eigenvalues)[:k]
    return SpectrumReport(
        eigenvalues=evs,
        kernel_dim=kernel_dim,
        gap=evs[kernel_dim] if kernel_dim < k else 0.0,
        method="iterative" if any(p.method == "iterative" for p in parts)
        else "exact-dense",
        tol=tol,
    )


def graph_spectrum(g: Graph, k: int | None = None, tol: float = 1e-9) -> SpectrumReport:
    """Laplacian spectrum with the kernel pinned to the component count."""
    return pinned_spectrum(g, laplacian(g), k, tol)


@dataclass
class ExpanderReport:
    per_graph: list  # bool per index
    gaps: list
    min_gap: float
    threshold: float

    def to_dict(self) -> dict:
        return {
            "per_graph": self.per_graph,
            "gaps": self.gaps,
            "min_gap": self.min_gap,
            "threshold": self.threshold,
        }


def expander_check(box: BoxSpace, c: float, tol: float = 1e-9) -> ExpanderReport:
    """Per-graph test of Laplacian gap >= c, plus the minimum gap."""
    if c <= 0:
        raise ValueError("threshold must be positive")
    gaps = [graph_spectrum(g, tol=tol).gap for g in box.graphs]
    flags = [gap >= c for gap in gaps]
    min_gap = min(gaps) if gaps else 0.0
    return ExpanderReport(per_graph=flags, gaps=gaps, min_gap=min_gap, threshold=c)


def power_iterate(g: Graph, f, steps: int, d: int | None = None) -> np.ndarray:
    """Apply the Markov operator to f the given number of times."""
    if steps < 0:
        raise ValueError("step count must be non-negative")
    vec = np.asarray(f, dtype=np.float64).copy()
    if vec.shape != (g.n,):
        raise ValueError(f"function must have length {g.n}")
    m = markov(g, d).matrix
    for _ in range(steps):
        vec = m @ vec
    return vec


def markov_contraction_check(
    g: Graph,
    f,
    k_max: int,
    c_m: float,
    d: int | None = None,
    tol: float = 1e-9,
) -> list:
    """Check the geometric decay of successive Markov differences.

    Returns one boolean per k in 0..k_max for the inequality
    ||M^(k+1)f - M^k f|| <= (1 - c_m)^k ||Mf - f|| + tol. Guaranteed when
    c_m <= gap/(2d); a False entry is a finding, not an error.
    """
    vec = np.asarray(f, dtype=np.float64)
    m = markov(g, d).matrix
    base = float(np.linalg.norm(m @ vec - vec))
    results = []
    cur = vec
    nxt = m @ cur
    for k in range(k_max + 1):
        diff = float(np.linalg.norm(nxt - cur))
        results.append(diff <= (1.0 - c_m) ** k * base + tol)
        cur = nxt
        nxt = m @ cur
    return results
