"""Cheeger constants: exact by exhaustive scan, sweep-cut bounds, and the
spectral sandwich between them.

The Cheeger constant used throughout is vertex-normalized, h = min |∂S|/|S|
over nonempty S with |S| <= n/2. The spectral reference value for the
sandwich is the second-smallest Laplacian eigenvalue counted with
multiplicity (0 for a disconnected graph, the gap for a connected one),
which keeps h >= lambda/2 valid on disconnected inputs where h = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import exhaustive
from .errors import TooLargeForExact
from .graph import (
    Graph,
    connected_components,
    induced_subgraph,
    sweep_profile,
    vertex_set,
)
from .spectral import eigenpairs, graph_spectrum, laplacian

EXACT_CAP = 24


@dataclass
class CheegerReport:
    h: float
    witness: tuple
    method: str  # "exact" | "sweep"
    lower_bound: float  # lambda_2 / 2
    upper_bound: float  # sqrt(2 d lambda_2)

    def to_dict(self) -> dict:
        return {
            "h": self.h,
            "witness": list(self.witness),
            "method": self.method,
            "lower_bound": self.lower_bound,
            "upper_bound": self.upper_bound,
        }


def second_eigenvalue(g: Graph, tol: float = 1e-9) -> float:
    """Second-smallest Laplacian eigenvalue, multiplicity counted (exactly 0
    for a disconnected graph)."""
    if g.n < 2 or len(connected_components(g)) > 1:
        return 0.0
    return graph_spectrum(g, k=2, tol=tol).gap


def _bounds(g: Graph, lam: float):
    lam = max(lam, 0.0)
    return lam / 2.0, math.sqrt(2.0 * g.degree_bound * lam)


def _smallest_component(comps) -> tuple:
    return min(comps, key=lambda c: (len(c), c))


def cheeger_exact(g: Graph, exact_cap: int = EXACT_CAP) -> CheegerReport:
    """Exact Cheeger constant by exhaustive subset scan.

    Disconnected graphs short-circuit to h = 0 with the smallest component
    as witness; connected graphs above the cap raise TooLargeForExact.
    """
    comps = connected_components(g)
    connected = g.n >= 2 and len(comps) == 1
    if connected and g.n > exact_cap:
        raise TooLargeForExact(g.n, exact_cap)
    lower, upper = _bounds(g, second_eigenvalue(g))
    if not connected:
        witness = _smallest_component(comps) if g.n >= 2 else ()
        return CheegerReport(0.0, witness, "exact", lower, upper)
    ratio, witness = exhaustive.min_ratio_subset(g, range(g.n), g.n // 2)
    return CheegerReport(float(ratio), witness, "exact", lower, upper)


def _fiedler_order(sub: Graph, tol: float = 1e-9):
    """Laplacian lambda_2 and stable Fiedler order of a connected graph."""
    if sub.n < 2:
        return 0.0, np.arange(sub.n)
    vals, vecs = eigenpairs(laplacian(sub), 2, tol)
    order = np.arange(2) if sub.n == 2 else np.argsort(vecs[:, 1], kind="stable")
    return float(vals[1]), order


def cheeger_sweep(g: Graph, tol: float = 1e-9) -> CheegerReport:
    """Fiedler sweep upper bound on the Cheeger constant.

    On disconnected graphs the answer is exactly 0 (one component is the
    witness), so the sweep runs only on connected inputs. The first prefix
    with the smallest ratio wins; its smaller side is the witness.
    """
    comps = connected_components(g)
    if len(comps) > 1:
        lower, upper = _bounds(g, second_eigenvalue(g, tol))
        return CheegerReport(0.0, _smallest_component(comps), "sweep", lower, upper)
    lam, order = _fiedler_order(g, tol)
    lower, upper = _bounds(g, lam)
    n = g.n
    if n < 2:
        return CheegerReport(0.0, (), "sweep", lower, upper)
    sizes = np.arange(1, n)
    ratios = sweep_profile(g, order)[: n - 1] / np.minimum(sizes, n - sizes)
    k = int(np.argmin(ratios)) + 1
    side = order[:k] if k <= n // 2 else order[k:]
    witness = tuple(sorted(int(v) for v in side))
    return CheegerReport(float(ratios[k - 1]), witness, "sweep", lower, upper)


def cheeger_report(g: Graph, tol: float = 1e-9,
                   exact_cap: int = EXACT_CAP) -> CheegerReport:
    """Exact report if n < 2, n <= exact_cap or g is disconnected, else sweep."""
    exact = g.n < 2 or g.n <= exact_cap or len(connected_components(g)) > 1
    return cheeger_exact(g, exact_cap) if exact else cheeger_sweep(g, tol)


def cheeger_sandwich_check(
    g: Graph, tol: float = 1e-9, exact_cap: int = EXACT_CAP
) -> bool:
    """Verify lambda/2 - tol <= h <= sqrt(2 d lambda) + tol.

    Uses the exact Cheeger value when feasible, else the Fiedler sweep
    value, which satisfies the same sandwich: it upper-bounds h from a
    witnessed cut and the sweep cut itself achieves the sqrt(2 d lambda)
    bound.

    Test-facing API: no command or other library function calls it; the
    tests do.
    """
    rep = cheeger_report(g, tol, exact_cap)
    return rep.lower_bound - tol <= rep.h <= rep.upper_bound + tol


def inner_expansion_exact(g: Graph, piece, exact_cap: int = EXACT_CAP):
    """Exact min over T within the piece, |T| <= |piece|/2, of |∂T|/|T|.

    The boundary is ambient (edges leaving the piece count), so for a piece
    with empty boundary this is the piece's Cheeger constant. Repeated
    vertices count once.
    """
    piece = vertex_set(g, piece)
    if len(piece) > exact_cap:
        raise TooLargeForExact(len(piece), exact_cap)
    if len(piece) < 2:
        return None, None
    return exhaustive.min_ratio_subset(g, piece, len(piece) // 2)


@dataclass(frozen=True)
class Evidence:
    """A piece's inner expansion: an exact scan's value and witness tuple
    (None and () below two vertices), or a spectral lower bound, no witness."""

    method: str  # "exact" | "spectral"
    value: float | None
    witness: tuple | None


def piece_evidence(g: Graph, piece, exact_cap: int = EXACT_CAP) -> Evidence:
    """Exact scan up to exact_cap vertices, else the spectral bound. Depends
    only on the CSR rows of the piece's own vertices (loops never count)."""
    piece = vertex_set(g, piece)
    if len(piece) <= exact_cap:
        value, witness = inner_expansion_exact(g, piece, exact_cap)
        return Evidence("exact", value, () if witness is None else witness)
    sub, _ = induced_subgraph(g, piece)
    return Evidence("spectral", second_eigenvalue(sub) / 2.0, None)
