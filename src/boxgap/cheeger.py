"""Cheeger constants: exact by exhaustive scan, sweep-cut bounds, and the
spectral sandwich between them.

The Cheeger constant used throughout is vertex-normalized, h = min |∂S|/|S|
over nonempty S with |S| <= n/2. The spectral reference value for the
sandwich is the second-smallest Laplacian eigenvalue counted with
multiplicity (0 for a disconnected graph, the gap for a connected one),
which keeps h >= lambda/2 valid on disconnected inputs where h = 0. One
predicate, ``_connected``, decides which graphs get that answer: below two
vertices or above one component, h = 0 and lambda_2 = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import exhaustive
from .errors import TooLargeForExact
from .graph import Graph, Record, induced_subgraph, sweep_profile, vertex_set
from .spectral import eigenpairs, laplacian

EXACT_CAP = 24


def _exact(n: int) -> bool:
    """The one exact/spectral rule: scan exhaustively up to EXACT_CAP
    vertices, read when called."""
    return n <= EXACT_CAP


@dataclass
class CheegerReport(Record):
    h: float
    witness: tuple
    method: str  # "exact" | "sweep"
    lower_bound: float  # lambda_2 / 2
    upper_bound: float  # sqrt(2 d lambda_2)


def _connected(g: Graph) -> bool:
    """The one degenerate-graph rule: a graph with fewer than two vertices
    or more than one component has h = 0 and lambda_2 = 0."""
    return g.n >= 2 and len(g.components) == 1


def _zero_report(g: Graph, method: str) -> CheegerReport:
    """The h = 0 report of a graph that is not ``_connected``: the smallest
    component is the witness (none below two vertices), both bounds are 0."""
    witness = min(g.components, key=lambda c: (len(c), c)) if g.n >= 2 else ()
    return CheegerReport(0.0, witness, method, 0.0, 0.0)


def second_eigenvalue(g: Graph) -> float:
    """Second-smallest Laplacian eigenvalue, multiplicity counted (exactly 0
    for a graph that is not ``_connected``). For a connected graph it is the
    lambda_2 of ``_fiedler_order``, from the same solve, bit for bit."""
    return _fiedler_order(g)[0] if _connected(g) else 0.0


def _bounds(g: Graph, lam: float):
    lam = max(lam, 0.0)
    return lam / 2.0, math.sqrt(2.0 * g.degree_bound * lam)


def cheeger_exact(g: Graph) -> CheegerReport:
    """Exact Cheeger constant by exhaustive subset scan.

    A graph that is not ``_connected`` gets the h = 0 report at any size;
    connected graphs above the cap raise TooLargeForExact.
    """
    if not _connected(g):
        return _zero_report(g, "exact")
    if not _exact(g.n):
        raise TooLargeForExact(g.n, EXACT_CAP)
    lower, upper = _bounds(g, second_eigenvalue(g))
    ratio, witness = exhaustive.min_ratio_subset(g, range(g.n), g.n // 2)
    return CheegerReport(float(ratio), witness, "exact", lower, upper)


def _fiedler_order(sub: Graph, tol: float = 1e-9):
    """Laplacian lambda_2 and stable Fiedler order of a connected graph,
    both from one ``eigenpairs`` solve of its two smallest pairs."""
    if sub.n < 2:
        return 0.0, np.arange(sub.n)
    vals, vecs = eigenpairs(laplacian(sub), 2, tol)
    order = np.arange(2) if sub.n == 2 else np.argsort(vecs[:, 1], kind="stable")
    return float(vals[1]), order


def induced_fiedler(g: Graph, vs: tuple):
    """(lambda_2, order) of the subgraph induced on vs, a sorted tuple of g's
    vertices used as given: lambda_2 as ``second_eigenvalue`` gives it and,
    when that subgraph is connected, its ``_fiedler_order`` as a read-only
    int64 array of g's vertices (else None). Each vs is solved once per
    graph and kept in ``g.memo``."""
    key = ("fiedler", vs)
    pair = g.memo.get(key)
    if pair is None:
        sub, _ = induced_subgraph(g, vs)
        if len(sub.components) > 1:
            pair = 0.0, None
        else:
            lam, local = _fiedler_order(sub)
            order = np.array(vs, dtype=np.int64)[local]
            order.flags.writeable = False
            pair = lam, order
        g.memo[key] = pair
    return pair


def cheeger_sweep(g: Graph, tol: float = 1e-9) -> CheegerReport:
    """Fiedler sweep upper bound on the Cheeger constant.

    A graph that is not ``_connected`` gets the h = 0 report, so the sweep
    runs only on connected inputs of two or more vertices. Among the
    prefixes with the least ratio, the cut whose smaller side has the fewest
    vertices wins, then the one whose sorted smaller side comes first (at
    k = n/2 both sides compete); that side is the witness. So the witness
    does not depend on the sign of the Fiedler vector.
    """
    if not _connected(g):
        return _zero_report(g, "sweep")
    lam, order = _fiedler_order(g, tol)
    lower, upper = _bounds(g, lam)
    n = g.n
    sizes = np.arange(1, n)
    ratios = sweep_profile(g, order)[: n - 1] / np.minimum(sizes, n - sizes)
    h = ratios[np.argmin(ratios)]
    tied = np.flatnonzero(ratios == h) + 1
    # The fewest vertices on a smaller side: at the first or the last tied
    # k. Such a side is the prefix at k = s or the suffix at k = n - s; at
    # s = n/2 these are the two sides of one cut.
    s = int(min(tied[0], n - tied[-1]))
    witness = min(tuple(sorted(side.tolist()))
                  for k, side in ((s, order[:s]), (n - s, order[n - s:]))
                  if ratios[k - 1] == h)
    return CheegerReport(float(h), witness, "sweep", lower, upper)


def cheeger_report(g: Graph, tol: float = 1e-9) -> CheegerReport:
    """Exact report if n <= EXACT_CAP or g is not ``_connected``, else sweep."""
    exact = _exact(g.n) or not _connected(g)
    return cheeger_exact(g) if exact else cheeger_sweep(g, tol)


def cheeger_sandwich_check(g: Graph, tol: float = 1e-9) -> bool:
    """Verify lambda/2 - tol <= h <= sqrt(2 d lambda) + tol.

    Uses the exact Cheeger value when feasible, else the Fiedler sweep
    value, which satisfies the same sandwich: it upper-bounds h from a
    witnessed cut and the sweep cut itself achieves the sqrt(2 d lambda)
    bound.

    Test-facing API: no command or other library function calls it; the
    tests do.
    """
    rep = cheeger_report(g, tol)
    return rep.lower_bound - tol <= rep.h <= rep.upper_bound + tol


def inner_expansion_exact(g: Graph, piece):
    """Exact min over T within the piece, |T| <= |piece|/2, of |∂T|/|T|.

    The boundary is ambient (edges leaving the piece count), so for a piece
    with empty boundary this is the piece's Cheeger constant. Repeated
    vertices count once.
    """
    piece = vertex_set(g, piece)
    if not _exact(len(piece)):
        raise TooLargeForExact(len(piece), EXACT_CAP)
    if len(piece) < 2:
        return None, None
    return exhaustive.min_ratio_subset(g, piece, len(piece) // 2)


@dataclass(frozen=True)
class Evidence(Record):
    """A piece's inner expansion: an exact scan's value and witness tuple
    (None and () below two vertices), or a spectral lower bound, no witness."""

    method: str  # "exact" | "spectral"
    value: float | None
    witness: tuple | None


def piece_evidence(g: Graph, piece) -> Evidence:
    """Exact scan up to EXACT_CAP vertices, else the spectral bound: both
    read from ``g.memo`` when g has solved the piece before. Depends only on
    the CSR rows of the piece's own vertices (loops never count)."""
    piece = vertex_set(g, piece)
    if _exact(len(piece)):
        value, witness = inner_expansion_exact(g, piece)
        return Evidence("exact", value, () if witness is None else witness)
    return Evidence("spectral", induced_fiedler(g, piece)[0] / 2.0, None)
