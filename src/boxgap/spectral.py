"""Laplacian and Markov operators, eigenvalue reports, expander checks.

The Laplacian is degree-minus-adjacency with loops ignored. The Markov
operator is M = I - Laplacian/(2d); since the operator norm of the Laplacian
is at most 2d, M is a contraction whose fixed space is spanned by the
per-component constants. "Spectral gap" of a graph operator always means the
smallest eigenvalue strictly above a kernel whose dimension equals the number
of connected components.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import DegreeBoundTooSmall, NoConvergence
from .graph import BoxSpace, Graph, block_labels

DENSE_LIMIT = 512  # exact dense solve at or below this dimension
KERNEL_TOL_DENSE = 1e-9  # dense eigenvalues within this of 0 count as kernel


def _weighted_laplacian(w: sp.csr_matrix) -> sp.csr_matrix:
    """diag(row sums of w) - w for a symmetric, zero-diagonal weight matrix."""
    return sp.csr_matrix(sp.diags(w.sum(axis=1).A1) - w)


def laplacian(g: Graph) -> sp.csr_matrix:
    """Graph Laplacian diag(deg) - A, with A = g.matrix (loops excluded)."""
    return _weighted_laplacian(g.matrix)


def markov(g: Graph, d: int | None = None) -> sp.csr_matrix:
    """M = I - Laplacian/(2d); requires d at least the max degree."""
    if d is None:
        d = g.degree_bound
    if d < g.max_degree():
        raise DegreeBoundTooSmall(d, g.max_degree())
    return sp.csr_matrix(sp.identity(g.n, format="csr") - laplacian(g) / (2.0 * d))


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


def _dense(n: int, k: int) -> bool:
    """The one dense/iterative rule: dense for n <= DENSE_LIMIT or k > n - 2."""
    return n <= DENSE_LIMIT or k > n - 2


def iterative_eigenpairs(mat: sp.csr_matrix, k: int, tol: float):
    """The k smallest eigenvalues of a PSD matrix A, ascending, and their
    eigenvectors as columns: the largest of sigma*I - A (sigma a Gershgorin
    bound), which restarted Lanczos resolves reliably. The fixed seeded start
    vector makes the answer depend only on A (all-ones would span a
    Laplacian's kernel). NoConvergence if ARPACK fails or a residual is large.
    """
    n = mat.shape[0]
    sigma = float(np.abs(mat).sum(axis=1).max()) + 1.0
    shifted = sp.identity(n, format="csr") * sigma - mat
    v0 = np.random.default_rng(0).standard_normal(n)
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


def eigenpairs(mat: sp.csr_matrix, k: int, tol: float = 1e-9):
    """The k smallest eigenvalues of a symmetric PSD matrix, ascending, and
    their eigenvectors as columns: one dense ``eigh`` of the whole matrix
    under the dense/iterative rule, ``iterative_eigenpairs`` otherwise."""
    if _dense(mat.shape[0], k):
        vals, vecs = np.linalg.eigh(mat.toarray())
        return vals[:k], vecs[:, :k]
    return iterative_eigenpairs(mat, k, tol)


def spectrum(mat: sp.csr_matrix, k: int | None = None, tol: float = 1e-9,
             kernel_dim: int | None = None) -> SpectrumReport:
    """Report the k smallest eigenvalues of a symmetric sparse matrix: one
    dense ``eigvalsh`` of the whole matrix under the dense/iterative rule,
    restarted Krylov otherwise.

    Unless ``kernel_dim`` is given, the kernel is the set of eigenvalues
    within 1e-9 (dense) or tol (iterative) of zero; iterative solves should
    always receive it (for graph Laplacians: the component count), since
    Krylov residuals cannot separate a near-zero cluster reliably. The
    iterative path can list a repeated eigenvalue once (torus m=48: its
    6-fold lambda_2); a connected graph's gap, the entry above its simple
    kernel, holds.
    """
    n = mat.shape[0]
    if k is None:
        k = n
    if k > n:
        raise ValueError(f"k={k} exceeds dimension {n}")
    if _dense(n, k):
        evs = np.linalg.eigvalsh(mat.toarray())[:k]
        used = "exact-dense"
    else:
        evs, _ = iterative_eigenpairs(mat, k, tol)
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


def _operator_blocks(g: Graph, mat: sp.csr_matrix):
    """Connected blocks of the off-diagonal support of mat, an operator on g.

    Returns (singles, blocks): the vertices that are blocks of their own, as
    one array, and the other blocks as sorted index arrays in order of
    smallest member. When mat has an off-diagonal entry on exactly the edges
    of g, the blocks are g's cached components.
    """
    support = sp.csr_matrix(mat - sp.diags(mat.diagonal()))
    support.eliminate_zeros()
    support.sort_indices()
    same = (np.array_equal(support.indptr, g.indptr)
            and np.array_equal(support.indices, g.indices))
    labels = g.component_labels if same else block_labels(support)
    sizes = np.bincount(labels)
    big = sizes[labels] > 1
    members = np.flatnonzero(big)[np.argsort(labels[big], kind="stable")]
    return np.flatnonzero(~big), np.split(members, np.cumsum(sizes[sizes > 1]))[:-1]


def pinned_spectrum(g: Graph, mat: sp.csr_matrix, k: int | None = None,
                    tol: float = 1e-9, kernel_dim: int | None = None) -> SpectrumReport:
    """Spectrum of mat, an operator on g, with the given kernel dimension
    (None: g's component count; 0 for the Markov operator).

    k defaults to every eigenvalue up to DENSE_LIMIT vertices and to the
    kernel plus four above that. Above DENSE_LIMIT, unless mat's
    off-diagonal support is one block covering every vertex, the values of
    the blocks of that support are merged, which is exact because mat is
    block-diagonal over them: a single-vertex block is its diagonal entry,
    every other block is solved as ``spectrum`` solves it alone, so the
    kernel keeps its multiplicity. A value repeated inside one block can
    still be listed once. For the Laplacian, and for Δτ of a graph whose
    every edge lies in a triangle, the blocks are g's components. Δτ of a
    graph with edges in no triangle has more blocks; its listed kernel then
    holds every block's zero, so a gap of 0.0 (to rounding) means the
    triangle-weight graph is disconnected.
    """
    n = g.n
    if k is None:
        k = n if n <= DENSE_LIMIT else min(n, len(g.components) + 4)
    kernel_dim = min(len(g.components) if kernel_dim is None else kernel_dim, k)
    if n > DENSE_LIMIT and k <= n:
        singles, blocks = _operator_blocks(g, mat)
        if len(blocks) != 1 or len(singles):
            parts = [
                spectrum(mat[idx][:, idx], k=min(k, len(idx)), tol=tol, kernel_dim=1)
                for idx in blocks
            ]
            evs = np.sort(np.concatenate(
                [mat.diagonal()[singles]] + [p.eigenvalues for p in parts]
            ), kind="stable")[:k].tolist()
            return SpectrumReport(
                eigenvalues=evs,
                kernel_dim=kernel_dim,
                gap=evs[kernel_dim] if kernel_dim < k else 0.0,
                method="iterative" if any(p.method == "iterative" for p in parts)
                else "exact-dense",
                tol=tol,
            )
    return spectrum(mat, k=k, tol=tol, kernel_dim=kernel_dim)


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
    """Per-graph test of Laplacian gap >= c, plus the minimum gap.

    Test-facing API: no command or other library function calls it; the
    tests do.
    """
    if c <= 0:
        raise ValueError("threshold must be positive")
    gaps = [graph_spectrum(g, tol=tol).gap for g in box.graphs]
    flags = [gap >= c for gap in gaps]
    min_gap = min(gaps) if gaps else 0.0
    return ExpanderReport(per_graph=flags, gaps=gaps, min_gap=min_gap, threshold=c)


def power_iterate(g: Graph, f, steps: int, d: int | None = None) -> np.ndarray:
    """Apply the Markov operator to f the given number of times.

    The loop stops early once a step returns an array with the same float64
    bit pattern as its input (compared byte for byte, so -0.0 and 0.0 differ
    and a NaN matches itself). A step is a fixed function of those bits, so
    every later iterate would be the same array and the result is
    byte-identical to running all ``steps``. When 2d is a power of two every
    weight of M is exact, so the indicator of a union of components is a
    fixed point at once. Otherwise rounding may take a few steps to settle,
    or never settle; then all ``steps`` run, each with one extra O(n)
    compare.
    """
    if steps < 0:
        raise ValueError("step count must be non-negative")
    vec = np.asarray(f, dtype=np.float64).copy()
    if vec.shape != (g.n,):
        raise ValueError(f"function must have length {g.n}")
    m = markov(g, d)
    for _ in range(steps):
        nxt = m @ vec
        if nxt.tobytes() == vec.tobytes():
            break
        vec = nxt
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

    Test-facing API: no command or other library function calls it; the
    tests do.
    """
    vec = np.asarray(f, dtype=np.float64)
    m = markov(g, d)
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
