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
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import DegreeBoundTooSmall, NoConvergence
from .graph import BoxSpace, Graph, Record, block_labels

DENSE_LIMIT = 512  # exact dense solve at or below this dimension


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
class SpectrumReport(Record):
    """Ascending eigenvalues, as Python floats, with kernel dimension and
    the gap above it."""

    eigenvalues: list
    kernel_dim: int
    gap: float
    method: str  # "exact-dense" | "iterative"
    tol: float


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
    their eigenvectors as columns. Under the dense/iterative rule a dense
    solve computes only those k pairs, with LAPACK's ``evr`` on the index
    range 0..k-1 for every k; ``iterative_eigenpairs`` otherwise. The
    dense matrix is built in Fortran order, which LAPACK reads without a
    copy; being symmetric, it holds the same numbers either way."""
    n = mat.shape[0]
    if not _dense(n, k):
        return iterative_eigenpairs(mat, k, tol)
    return sla.eigh(mat.toarray(order="F"), subset_by_index=[0, k - 1],
                    driver="evr", overwrite_a=True)


def _operator_blocks(g: Graph, mat: sp.csr_matrix):
    """Connected blocks of the off-diagonal support of mat, an operator on g.

    Returns (singles, blocks): the vertices that are blocks of their own, as
    one array, and the other blocks as sorted index arrays in order of
    smallest member. When mat has an off-diagonal entry on exactly the edges
    of g, the blocks are g's cached components. ``spectrum`` solves mat one
    block at a time above DENSE_LIMIT.
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


def _smallest(mat: sp.csr_matrix, k: int, tol: float):
    """The min(k, dimension) smallest eigenvalues of one block, ascending,
    and whether Lanczos (not a dense ``eigvalsh``) found them."""
    k = min(k, mat.shape[0])
    if _dense(mat.shape[0], k):
        return np.linalg.eigvalsh(mat.toarray())[:k], False
    return iterative_eigenpairs(mat, k, tol)[0], True


def spectrum(g: Graph, mat: sp.csr_matrix, k: int | None = None, tol: float = 1e-9,
             kernel_dim: int | None = None) -> SpectrumReport:
    """The k smallest eigenvalues of mat, a symmetric operator on g, above a
    kernel of the given dimension (None: g's component count; 0 for the
    Markov operator), clamped to k.

    k defaults to every eigenvalue up to DENSE_LIMIT vertices and to the
    kernel plus four above that; k = 0 is answered without a solve. No
    tolerance can tell a near-zero cluster from the kernel, least of all
    from Krylov residuals, so the kernel is stated, not measured. The gap
    is the entry just above the kernel, 0.0 when none is listed.

    Up to DENSE_LIMIT, or when mat's off-diagonal support is one block
    covering every vertex, the whole of mat is solved once. Otherwise the
    values of the blocks of that support (``_operator_blocks``) are merged,
    which is exact because mat is block-diagonal over them: a single-vertex
    block is its diagonal entry and every other block is solved alone, so
    the kernel keeps its multiplicity. Each solve is dense or restarted
    Lanczos under the dense/iterative rule. Lanczos can list a value
    repeated inside one block once (torus m=48: its 6-fold lambda_2); a
    connected graph's gap, the entry above its simple kernel, holds. For
    the Laplacian, and for Δτ of a graph whose every edge lies in a
    triangle, the blocks are g's components. Δτ of a graph with edges in no
    triangle has more blocks; its listed kernel then holds every block's
    zero, so a gap of 0.0 (to rounding) means the triangle-weight graph is
    disconnected.
    """
    n = g.n
    if k is None:
        k = n if n <= DENSE_LIMIT else min(n, len(g.components) + 4)
    if k < 0:
        raise ValueError(f"k={k} must be 0 or more")
    if k > n:
        raise ValueError(f"k={k} exceeds dimension {n}")
    kernel_dim = min(len(g.components) if kernel_dim is None else kernel_dim, k)
    singles, blocks = [], [mat]  # the whole of mat, not copied
    if k == 0:
        blocks = []
    elif n > DENSE_LIMIT:
        singles, idx = _operator_blocks(g, mat)
        if len(idx) != 1 or len(singles):
            blocks = (mat[b][:, b] for b in idx)
    parts = [_smallest(block, k, tol) for block in blocks]
    evs = np.sort(np.concatenate(
        [mat.diagonal()[singles]] + [values for values, _ in parts]
    ), kind="stable")[:k].tolist()
    return SpectrumReport(
        eigenvalues=evs,
        kernel_dim=kernel_dim,
        gap=evs[kernel_dim] if kernel_dim < k else 0.0,
        method="iterative" if any(lanczos for _, lanczos in parts) else "exact-dense",
        tol=tol,
    )


def graph_spectrum(g: Graph, k: int | None = None, tol: float = 1e-9) -> SpectrumReport:
    """Laplacian spectrum with the kernel pinned to the component count."""
    return spectrum(g, laplacian(g), k, tol)


@dataclass
class ExpanderReport:
    per_graph: list  # bool per index
    gaps: list
    min_gap: float
    threshold: float


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
