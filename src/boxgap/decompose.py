"""Level-set decomposition of a graph into inner-expanding pieces.

The driver assumes a spectral gap c for the Laplacian and derives every
working constant from it: the Markov gap c_M = c/(2d), the inner-expansion
target C = c_M^2/72, the smoothing exponent K with (1-c_M)^K <= a^2/(5184 d^2)
for the target boundary ratio a, the measure diagnostic
delta = a^4 / (10^4 d^(3K+1)) and the goodness threshold a^2/100.

A sparse cut T (boundary below C|T|, minimal size) is smoothed with K Markov
steps; a level set U of the result in the band (1/3, 2/3) replaces it. That
T -> U step is ``replace_step``, the only one: it decides goodness
(|U △ T| < |T|/2, U nonempty, |∂U| <= (a^2/100)|U|) and reports the lemma's
checks |U △ T| < |T|/4 and |∂U| < a|U| as data. Good replacements become
pieces; bad cuts send their 3K-ball to the junk part. All guarantees that
the asymptotic argument provides only in the limit are re-checked on the
finite output and reported in a certificate instead of being assumed.

The lemma's third guarantee, U inside the K-ball of T, holds by
construction and is not measured: M = I - L/(2d) has nonnegative entries,
nonzero only on the diagonal and on edges, so M^K chi_T is exactly 0.0
outside ball(T, K), while every set ``level_set_cut`` returns is some
{f > t} with t at or above the band's lower edge a > 0.

At desk scale the smoothing is the identity. C is tiny (about 2.2e-6 for
c = 0.2, d = 8), so a cut T with |∂T| < C|T| and fewer than 1/C vertices
has empty boundary. T is then a union of components and M chi_T = chi_T;
when 2d is a power of two the equality holds bit for bit, and
``power_iterate`` stops after one step instead of running all K (1203
there).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import exhaustive
from .cheeger import _exact, induced_fiedler, piece_evidence
from .errors import IterationCap
from .graph import (
    Graph,
    Record,
    ball_of_set,
    boundary_size,
    connected_components,
    sweep_profile,
    vertex_set,
)
from .spectral import power_iterate


@dataclass(frozen=True)
class KunParams(Record):
    """Derived constants for the decomposition, recomputed from (c, d, alpha).

    c is the assumed Laplacian gap, d the degree bound, alpha the target
    boundary ratio. The remaining fields are functions of these three and
    are never set independently.
    """

    c: float
    d: int
    alpha: float
    c_m: float = field(init=False)
    C: float = field(init=False)
    K: int = field(init=False)
    delta: float = field(init=False)
    log10_delta: float = field(init=False)
    good_threshold: float = field(init=False)

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("degree bound must be positive")
        if not 0 < self.c < 2 * self.d:
            raise ValueError("assumed gap must lie in (0, 2d)")
        if not 0 < self.alpha < 1:
            raise ValueError("alpha must lie in (0, 1)")
        c_m = self.c / (2.0 * self.d)
        # K and delta are computed in log space: alpha^2 underflows to 0.0
        # for alpha below about 2e-162, and d^(3K+1) overflows a float for
        # large K. delta only serves as a reported diagnostic, never a gate;
        # it underflows to 0.0 there, while log10_delta stays finite.
        log_target = 2.0 * math.log(self.alpha) - math.log(5184.0 * self.d**2)
        k = max(1, math.ceil(log_target / math.log(1.0 - c_m)))
        log_delta = (
            4.0 * math.log(self.alpha)
            - 4.0 * math.log(10.0)
            - (3.0 * k + 1.0) * math.log(self.d)
        )
        object.__setattr__(self, "c_m", c_m)
        object.__setattr__(self, "C", c_m**2 / 72.0)
        object.__setattr__(self, "K", k)
        object.__setattr__(self, "delta", math.exp(log_delta))
        object.__setattr__(self, "log10_delta", log_delta / math.log(10.0))
        object.__setattr__(self, "good_threshold", self.alpha**2 / 100.0)


@dataclass
class LevelSetCut:
    t: float
    vertices: tuple
    boundary: int
    empty_band: bool


def level_set_cut(g: Graph, f, a: float, b: float) -> LevelSetCut:
    """Boundary-minimizing level set {f > t} over thresholds t in (a, b).

    Every distinct super-level set reachable with t in the band is a
    candidate; ties in |∂U| break toward the smaller nonempty |U|, and the
    empty set (reachable when max f < b) is returned only when it strictly
    beats every nonempty candidate. When no value of f falls inside the
    band, the super-level sets at the two band edges are compared by the
    same rule, the lower edge winning a full tie, and the result carries
    empty_band = True. The returned set always satisfies the band-average
    co-area bound |∂U|^2 <= (4 d^2 / (a^2 (b-a)^2)) ||Mf - f|| ||f||^3.
    """
    if not 0.0 < a < b < 1.0:
        raise ValueError("need 0 < a < b < 1")
    vec = np.asarray(f, dtype=np.float64)
    if vec.shape != (g.n,):
        raise ValueError(f"function must have length {g.n}")

    def super_level(t):
        return tuple(np.flatnonzero(vec > t).tolist())

    in_band = np.unique(vec[(vec > a) & (vec < b)])
    if in_band.size == 0:
        boundary, _, _, _, t, u = min(
            (boundary_size(g, u), not u, len(u), i, t, u)
            for i, (t, u) in enumerate(
                (((a + b) / 2.0, super_level(a)), (b, super_level(b)))
            )
        )
        return LevelSetCut(t=t, vertices=u, boundary=boundary, empty_band=True)

    # Sweep from the largest value downward. Tie group j of f-values ends at
    # ends[j] and closes {f >= val}, the super-level set for t in [next, val).
    order = np.argsort(-vec, kind="stable")
    desc = vec[order]
    ends = np.append(np.flatnonzero(desc[1:] != desc[:-1]), g.n - 1)
    lo = np.maximum(a, np.append(desc[ends[:-1] + 1], -math.inf))
    hi = np.minimum(b, desc[ends])
    inside = np.flatnonzero(lo < hi)
    boundaries = sweep_profile(g, order)[ends[inside]]
    # Sizes grow with j, so the first minimal boundary is the (|∂U|, |U|) min.
    j = inside[np.argmin(boundaries)]
    boundary = int(boundaries.min())
    # Thresholds above the largest value empty the set; that trivial witness
    # wins only when no actual level set matches its zero boundary.
    max_f = float(desc[0])
    if max_f < b and boundary > 0:
        return LevelSetCut(
            t=(max(a, max_f) + b) / 2.0, vertices=(), boundary=0,
            empty_band=False,
        )
    return LevelSetCut(
        t=float((lo[j] + hi[j]) / 2.0),
        vertices=tuple(sorted(int(v) for v in order[: ends[j] + 1])),
        boundary=boundary,
        empty_band=False,
    )


def coarea_bound(g: Graph, f, a: float, b: float, d: int | None = None) -> float:
    """Right-hand side of the co-area level-set estimate for f.

    Test-facing API: no command or other library function calls it; the
    tests do.
    """
    if d is None:
        d = g.degree_bound
    vec = np.asarray(f, dtype=np.float64)
    m = power_iterate(g, vec, 1, d)
    drift = float(np.linalg.norm(m - vec))
    norm = float(np.linalg.norm(vec))
    return 4.0 * d**2 / (a**2 * (b - a) ** 2) * drift * norm**3


def markov_level_set(g: Graph, t_set, k: int, d: int) -> LevelSetCut:
    """Level-set cut of the K-step Markov smoothing of an indicator, in the
    band (1/3, 2/3)."""
    chi = np.zeros(g.n)
    chi[list(t_set)] = 1.0
    f = power_iterate(g, chi, k, d)
    return level_set_cut(g, f, 1.0 / 3.0, 2.0 / 3.0)


@dataclass(frozen=True)
class ReplaceOutcome:
    """One T -> U step: the level set U that replaces T, the goodness
    decision ``kun_partition`` acts on, and the lemma's checks as data."""

    t_set: tuple
    cut: LevelSetCut
    sym_diff: int
    good: bool  # |U △ T| < |T|/2, U nonempty and |∂U| <= good_threshold |U|
    sym_diff_ok: bool  # |U △ T| < |T|/4
    boundary_ok: bool  # |∂U| < alpha |U|
    density_t: float
    delta: float

    def to_dict(self) -> dict:
        """The body of a step record."""
        return {
            "T": list(self.t_set),
            "U": list(self.cut.vertices),
            "threshold": self.cut.t,
            "empty_band": self.cut.empty_band,
            "sym_diff": self.sym_diff,
            "boundary_U": self.cut.boundary,
            "density_T": self.density_t,
            "delta": self.delta,
            "sym_diff_ok": self.sym_diff_ok,
            "boundary_ok": self.boundary_ok,
        }


def replace_step(g: Graph, t_set, params: KunParams) -> ReplaceOutcome:
    """Replace a sparse cut T by a level set U of M^K chi_T.

    T must be nonempty with |∂T| < C|T|, else ValueError. The lemma's
    guarantees |U △ T| < |T|/4 and |∂U| < alpha |U| hold asymptotically;
    here each is measured and reported, and a failure is data rather than
    an error. U inside the K-ball of T always holds (module docstring).
    """
    t_set = vertex_set(g, t_set)
    if not t_set or boundary_size(g, t_set) >= params.C * len(t_set):
        raise ValueError("T must be a nonempty sparse cut, |∂T| < C|T|")
    cut = markov_level_set(g, t_set, params.K, params.d)
    u = set(cut.vertices)
    sym = len(u ^ set(t_set))
    return ReplaceOutcome(
        t_set=t_set,
        cut=cut,
        sym_diff=sym,
        good=(sym < len(t_set) / 2.0 and bool(u)
              and cut.boundary <= params.good_threshold * len(u)),
        sym_diff_ok=sym < len(t_set) / 4.0,
        boundary_ok=cut.boundary < params.alpha * len(u),
        density_t=len(t_set) / g.n,
        delta=params.delta,
    )


def find_sparse_cut(g: Graph, c: float, region=None):
    """Smallest proper subset T of the region with |∂T| < c |T|, or None.

    Boundaries are ambient. Exhaustive and exact when the region has at most
    EXACT_CAP vertices; above that, candidates come from Fiedler sweeps of
    the region's components (prefixes, suffixes and whole components), and
    the smallest passing candidate is returned. Each component's Fiedler
    solve is kept in ``g.memo``, as is the min-ratio answer of an exact
    region with no sparse cut, so later searches and certificates on g
    read them from there.
    """
    if c <= 0:
        raise ValueError("ratio must be positive")
    region = vertex_set(g, region if region is not None else range(g.n))
    if len(region) <= 1:
        return None
    if _exact(len(region)):
        return exhaustive.min_sparse_subset(g, region, c)

    # Prefixes of each component's Fiedler order and of its reverse (the
    # suffixes); the full prefix is the whole component. Only the smallest
    # passing prefix of each is materialized.
    candidates = []
    for comp in connected_components(g, region):
        order = induced_fiedler(g, comp)[1]
        sizes = np.arange(1, len(order) + 1)
        for seq in (order, order[::-1]):
            passing = (sweep_profile(g, seq) < c * sizes) & (sizes < len(region))
            if passing.any():
                size = int(np.argmax(passing)) + 1
                candidates.append((size, tuple(np.sort(seq[:size]).tolist())))
    if not candidates:
        return None
    return min(candidates)[1]


@dataclass
class Decomposition(Record):
    """Partition into a junk part and inner-expanding pieces."""

    junk: tuple
    pieces: list
    steps: list  # chronological log of the construction

    def to_dict(self) -> dict:
        return {**super().to_dict(), "pieces": [list(p) for p in self.pieces]}


@dataclass
class PartitionCertificate(Record):
    """Post-hoc measurements of the decomposition guarantees."""

    junk_ratio: float
    piece_sizes: list
    boundary_ratios: list
    evidence: list  # per piece: {piece, method, value, witness, conclusive, meets_C}
    inconclusive: list  # piece indices with positive spectral bound below C
    passed: bool
    alpha: float
    C: float


def certify_partition(
    g: Graph, decomp: Decomposition, params: KunParams
) -> PartitionCertificate:
    """Measure junk fraction, boundary ratios and inner expansion per piece.

    A piece's inner expansion is its ``piece_evidence``: an exact scan is
    conclusive either way, a spectral bound only when it already meets C.
    It is read from, or left in, ``g.memo``, where sparse-cut searches
    and ``rewire_piece`` find it.
    """
    n = g.n or 1
    junk_ratio = len(decomp.junk) / n
    sizes = [len(p) for p in decomp.pieces]
    ratios = [
        boundary_size(g, p) / len(p) if p else 0.0 for p in decomp.pieces
    ]
    evidence = []
    inconclusive = []
    failed = junk_ratio >= params.alpha or any(
        r >= params.alpha for r in ratios
    )
    for i, piece in enumerate(decomp.pieces):
        ev = piece_evidence(g, piece)
        exact = ev.method == "exact"
        # value None: no subset of at most half the piece exists, so C is met
        # vacuously (None, as math.inf would not survive strict JSON).
        meets = ev.value is None or ev.value >= params.C
        evidence.append({"piece": i, **ev.to_dict(),
                         "conclusive": exact or meets, "meets_C": meets})
        if not meets and (exact or ev.value <= 0):
            failed = True
        elif not meets:
            inconclusive.append(i)
    return PartitionCertificate(
        junk_ratio=junk_ratio,
        piece_sizes=sizes,
        boundary_ratios=ratios,
        evidence=evidence,
        inconclusive=inconclusive,
        passed=not failed,
        alpha=params.alpha,
        C=params.C,
    )


def kun_partition(g: Graph, params: KunParams) -> tuple:
    """Decompose g into junk plus pieces with certified inner expansion.

    Repeatedly extract a minimal sparse cut from the live region and take
    its ``replace_step``; a good cut is replaced by its level set and
    becomes a piece, a bad one sends its 3K-ball to junk. When no sparse cut
    remains the live region is the final piece. A post-pass moves pieces
    whose boundary ratio reaches alpha into the junk part. Returns
    (Decomposition, PartitionCertificate).
    """
    live = set(range(g.n))
    junk: set = set()
    pieces: list = []
    steps: list = []
    for _ in range(g.n + 1):
        if not live:
            break
        t = find_sparse_cut(g, params.C, region=sorted(live))
        if t is None:
            pieces.append(tuple(sorted(live)))
            steps.append({"type": "final", "piece": len(pieces) - 1,
                          "size": len(live)})
            live.clear()
            break
        step = replace_step(g, t, params)
        if step.good:
            piece = tuple(sorted(live.intersection(step.cut.vertices)))
            pieces.append(piece)
            live -= set(piece)
            steps.append({"type": "good", "piece": len(pieces) - 1,
                          **step.to_dict()})
        else:
            ball = set(ball_of_set(g, t, 3 * params.K))
            absorbed = tuple(sorted(ball & live))
            junk.update(absorbed)
            live -= ball
            steps.append({"type": "bad", "absorbed": list(absorbed),
                          **step.to_dict()})
    else:
        raise IterationCap(g.n)

    # Final renaming: pieces that ended up with too much boundary join junk.
    kept = []
    for piece in pieces:
        if piece and boundary_size(g, piece) >= params.alpha * len(piece):
            junk.update(piece)
            steps.append({"type": "demoted", "piece": list(piece)})
        else:
            kept.append(piece)
    decomp = Decomposition(junk=tuple(sorted(junk)), pieces=kept, steps=steps)
    cert = certify_partition(g, decomp, params)
    return decomp, cert
