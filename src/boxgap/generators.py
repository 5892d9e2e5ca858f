"""Finite groups and their Cayley graphs, graph families, gluing
constructions, sofic verification and approximate-isomorphism accounting.

Randomized constructions are reproducible from a single integer seed, which
callers should record next to the output.
"""

from __future__ import annotations

import itertools
import reprlib
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegreeExceeded,
    IdentityGenerator,
    NotAnIsomorphism,
    NotEnoughRoom,
    NoDegreeHeadroom,
    NotSymmetric,
    UnknownLabel,
    VertexOutOfRange,
)
from .graph import (
    BoxSpace,
    Graph,
    _Spec,
    ball_of_set,
    build_graph,
    expect,
    expect_items,
    int64_pairs,
    vertex_set,
)


# ---------------------------------------------------------------------------
# Finite groups as integer arrays: a group lists its elements as the rows of
# the (N, r) int64 array elements, in lex order, and left_mul(s, x)
# left-multiplies the rows x by the element s (a row). Generators are passed
# as ints (cyclic groups) or integer sequences in the same form.


class ProductGroup:
    """Direct product of cyclic groups, elements as rows of residues."""

    def __init__(self, moduli):
        self.moduli = tuple(int(m) for m in moduli)
        if not self.moduli or any(m < 1 for m in self.moduli):
            raise ValueError("moduli must be a nonempty list of positive integers")
        self.elements = np.indices(self.moduli).reshape(len(self.moduli), -1).T

    def left_mul(self, s, x):
        return (s + x) % self.moduli


class CyclicGroup(ProductGroup):
    """Z/n with elements 0..n-1."""

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("order must be positive")
        super().__init__((n,))
        self.n = n


class SymmetricGroup:
    """Sym(k) as permutation rows p with p[i] the image of i."""

    def __init__(self, k: int):
        if k < 1:
            raise ValueError("degree must be positive")
        self.k = k
        self.elements = np.array(list(itertools.permutations(range(k))))

    def left_mul(self, s, x):
        return s[x]  # s after x: (s x)[i] = s[x[i]]


class SL2Prime:
    """SL(2, Z/p) as rows (a, b, c, d) with ad - bc = 1."""

    def __init__(self, p: int):
        if p < 2:
            raise ValueError("p must be at least 2")
        self.p = p
        a, b, c, d = m = np.indices((p,) * 4).reshape(4, -1)
        self.elements = m[:, (a * d - b * c) % p == 1].T

    def left_mul(self, s, x):
        return (s.reshape(2, 2) @ x.reshape(-1, 2, 2)).reshape(-1, 4) % self.p


def sl2_elementary_generators(p: int) -> list:
    """The four elementary matrices E12(+-1), E21(+-1)."""
    return [
        (1, 1, 0, 1),
        (1, p - 1, 0, 1),
        (1, 0, 1, 1),
        (1, 0, p - 1, 1),
    ]


def cayley_graph(group, gens) -> Graph:
    """Cayley graph of the left multiplication action, x ~ s x.

    Each generator must be a group element in canonical form (ValueError
    naming gens[i] otherwise). The generating set must be symmetric (closed
    under inverse) and must not contain the identity.
    """
    gens = list(gens)
    elements = group.elements
    radix = elements.max(axis=0) + 1  # so the keys ascend in lex order
    keys = np.ravel_multi_index(elements.T, radix)
    perms = []  # perms[i][u] is the index of gens[i] times elements[u]
    for i, s in enumerate(gens):
        s_row = np.asarray(s).reshape(-1)
        if (s_row.dtype.kind not in "iu" or s_row.shape != elements.shape[1:]
                or not (elements == s_row).all(axis=1).any()):
            raise ValueError(f"gens[{i}] must be a group element in canonical "
                             f"form, got {reprlib.repr(s)}")
        # s is an element, so its images are elements and every key is found
        images = group.left_mul(s_row, elements).T
        perms.append(np.searchsorted(keys, np.ravel_multi_index(images, radix)))
    u = np.arange(len(elements))
    rows = {p.tobytes() for p in perms}
    for s, p in zip(gens, perms):
        if (p == u).all():
            raise IdentityGenerator()
        if np.argsort(p).tobytes() not in rows:
            raise NotSymmetric(s)
    return build_graph(len(u), _map_edges(len(u), u, perms), max(len(gens), 1))


# ---------------------------------------------------------------------------
# Explicit families and gluings


def _map_edges(nv: int, u: np.ndarray, images) -> np.ndarray:
    """Each edge {u, v} once, for v over the image arrays of maps applied
    to the vertices u, fixed points dropped, as a sorted (m, 2) array."""
    u = np.tile(u, len(images))
    v = np.asarray(images, dtype=np.int64).ravel()
    keep = u != v
    lo, hi = np.minimum(u, v)[keep], np.maximum(u, v)[keep]
    keys = np.sort(lo * nv + hi)
    keys = keys[np.diff(keys, prepend=-1) != 0]  # np.unique hashes, slower here
    return np.column_stack(np.divmod(keys, nv))


def margulis_graph(n: int) -> Graph:
    """Expander family on the n x n torus, degree at most 8.

    Vertex (x, y) is joined to (x+-y, y), (x, y+-x), (x+-1, y), (x, y+-1),
    with duplicate pairs and fixed points collapsed away.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    x, y = np.divmod(np.arange(n * n, dtype=np.int64), n)
    images = [
        ((x + y) % n, y),
        ((x - y) % n, y),
        (x, (y + x) % n),
        (x, (y - x) % n),
        ((x + 1) % n, y),
        ((x - 1) % n, y),
        (x, (y + 1) % n),
        (x, (y - 1) % n),
    ]
    edges = _map_edges(n * n, x * n + y, [px * n + py for px, py in images])
    return build_graph(n * n, edges, 8)


def complete_graph(n: int) -> Graph:
    return build_graph(
        n, [(i, j) for i in range(n) for j in range(i + 1, n)], max(n - 1, 1)
    )


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)], 2)


def path_graph(n: int) -> Graph:
    return build_graph(n, [(i, i + 1) for i in range(n - 1)], 2 if n > 2 else 1)


def octahedron() -> Graph:
    """Complete tripartite graph on three antipodal pairs; every link is a
    4-cycle."""
    non_edges = {(0, 3), (1, 4), (2, 5)}
    edges = [
        (i, j)
        for i in range(6)
        for j in range(i + 1, 6)
        if (i, j) not in non_edges
    ]
    return build_graph(6, edges, 4)


def triangular_torus(m: int) -> Graph:
    """Six-regular triangulated torus; every link is a 6-cycle."""
    if m < 4:
        raise ValueError("m must be at least 4 to keep neighbors distinct")
    x, y = np.divmod(np.arange(m * m, dtype=np.int64), m)
    images = [((x + dx) % m) * m + (y + dy) % m
              for dx, dy in ((1, 0), (0, 1), (1, 1))]
    return build_graph(m * m, _map_edges(m * m, x * m + y, images), 6)


def glue_pair(g1: Graph, g2: Graph, v1: int, v2: int, d: int | None = None) -> Graph:
    """Disjoint union of two graphs plus one bridge edge (v1, v2).

    The bridge endpoints must be vertices of their graphs (VertexOutOfRange
    otherwise) with headroom under the degree bound d (default: the larger
    of the two input bounds).
    """
    if d is None:
        d = max(g1.degree_bound, g2.degree_bound)
    if g1.degree(v1) >= d:
        raise DegreeExceeded(v1, g1.degree(v1) + 1, d)
    if g2.degree(v2) >= d:
        raise DegreeExceeded(v2, g2.degree(v2) + 1, d)
    edges = np.concatenate(
        (g1.edge_array(), g2.edge_array() + g1.n, [[v1, g1.n + v2]])
    )
    return build_graph(g1.n + g2.n, edges, d,
                       allow_loops=g1.allows_loops or g2.allows_loops)


@dataclass
class GluedExpander:
    graph: Graph
    seed: int
    bijection: tuple  # pairs (y vertex in the union, image in x')
    loops: tuple
    alpha_ratio: float  # |T| / |Y|
    warn_alpha: bool  # alpha_ratio >= 1/2 voids the Cheeger estimate

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "bijection": [list(p) for p in self.bijection],
            "loops": list(self.loops),
            "alpha_ratio": self.alpha_ratio,
            "warn_alpha": self.warn_alpha,
        }


def glued_expander(
    x_prime: Graph, y: Graph, t_set, seed: int = 0, d: int | None = None
) -> GluedExpander:
    """Wire y minus an exempt set T onto x' by a seeded random matching.

    The output is the disjoint union (x' first, then y) with one matching
    edge per vertex of Y \\ T and a loop on every vertex left untouched, so
    every degree grows by exactly one. The output degree bound defaults to
    one more than the larger input bound. Raises NotEnoughRoom when x'
    cannot absorb the matching and NoDegreeHeadroom when a vertex has no
    room under an explicit bound d.
    """
    t_set = vertex_set(y, t_set)
    movers = sorted(set(range(y.n)) - set(t_set))
    if len(movers) > x_prime.n:
        raise NotEnoughRoom(len(movers), x_prime.n)
    d_out = d if d is not None else max(x_prime.degree_bound, y.degree_bound) + 1
    for g, off in ((x_prime, 0), (y, x_prime.n)):
        for v in range(g.n):
            if g.degree(v) + 1 > d_out:
                raise NoDegreeHeadroom(v + off, g.degree(v), d_out)
    rng = np.random.default_rng(seed)
    targets = rng.permutation(x_prime.n)[: len(movers)]
    sources = x_prime.n + np.array(movers, dtype=np.int64)
    matched = np.zeros(x_prime.n + y.n, dtype=bool)
    matched[sources] = matched[targets] = True
    loops = np.flatnonzero(~matched)
    edges = np.concatenate((
        x_prime.edge_array(),
        y.edge_array() + x_prime.n,
        np.stack((sources, targets), axis=1),
        np.stack((loops, loops), axis=1),
    ))
    graph = build_graph(len(matched), edges, d_out, allow_loops=True)
    bijection = tuple(zip(sources.tolist(), targets.tolist()))
    loops = tuple(loops.tolist())
    ratio = len(t_set) / y.n if y.n else 0.0
    return GluedExpander(
        graph=graph,
        seed=seed,
        bijection=bijection,
        loops=loops,
        alpha_ratio=ratio,
        warn_alpha=ratio >= 0.5,
    )


# ---------------------------------------------------------------------------
# Partial permutation actions and the sofic good-set count


class PermAction:
    """Finitely many labelled permutations of range(m), stored as the rows
    of one (s, m) int64 table; rows maps each label to its row.

    Labels come in inverse pairs; the pairing sigma(s^-1) = sigma(s)^-1 is
    validated unless check_inverses is disabled (actions loaded from raw
    permutation tables may not satisfy it exactly).
    """

    def __init__(self, m: int, perms: dict, inverses: dict,
                 check_inverses: bool = True):
        self.m = m
        self.inverses = inverses  # label -> label of the inverse
        self.rows = {label: r for r, label in enumerate(perms)}
        self.table = np.empty((len(perms), m), dtype=np.int64)
        for row, (label, p) in zip(self.table, perms.items()):
            if len(p) != m or (np.sort(p) != np.arange(m)).any():
                raise ValueError(f"sigma({label}) is not a bijection")
            row[:] = p
        for label in itertools.chain(*inverses.items()):
            if label not in self.rows:
                raise UnknownLabel(label)
        if check_inverses:
            pa = self.table[[self.rows[a] for a in inverses]]
            pb = self.table[[self.rows[b] for b in inverses.values()]]
            bad = (np.take_along_axis(pb, pa, axis=1) != np.arange(m)).any(axis=1)
            if bad.any():
                a, b = list(inverses.items())[int(np.argmax(bad))]
                raise ValueError(f"sigma({b}) is not the inverse of sigma({a})")

    def word(self, labels) -> np.ndarray:
        """Permutation of the word, leftmost label applied last."""
        out = np.arange(self.m)
        for label in reversed(list(labels)):
            if label not in self.rows:
                raise UnknownLabel(label)
            out = self.table[self.rows[label]][out]
        return out


def cyclic_action(m: int, shifts) -> PermAction:
    """Regular-style action of Z on Z/m: label t^k shifts by k.

    The shift list must be symmetric (contain -k with every k)."""
    if m < 1:
        raise ValueError(f"m must be positive, got {m}")
    shifts = sorted(set(int(k) for k in shifts))
    for k in shifts:
        if k % m == 0:
            raise ValueError("shift must be nontrivial mod m")
        if -k not in shifts:
            raise ValueError(f"shifts must be symmetric, missing {-k}")
    steps = np.array([k % m for k in shifts], dtype=np.int64)
    table = (np.arange(m) + steps[:, None]) % m
    return PermAction(m=m, perms=dict(zip((f"t^{k}" for k in shifts), table)),
                      inverses={f"t^{k}": f"t^{-k}" for k in shifts})


def with_transposition(action: PermAction, label: str, i: int, j: int) -> PermAction:
    """Pre-compose one labelled permutation (and its inverse partner) with
    the transposition (i j), keeping the inverse pairing intact.

    i and j must be points of the action (VertexOutOfRange otherwise)."""
    if label not in action.rows:
        raise UnknownLabel(label)
    for v in (i, j):
        if not 0 <= v < action.m:
            raise VertexOutOfRange(v, action.m)
    table = action.table.copy()
    p = table[action.rows[label]]
    p[[i, j]] = p[[j, i]]
    partner = action.inverses.get(label)
    if partner and partner != label:
        table[action.rows[partner]] = np.argsort(p)
    return PermAction(m=action.m, perms=dict(zip(action.rows, table)),
                      inverses=dict(action.inverses))


@dataclass
class SoficReport:
    good: tuple
    epsilon: float
    multiplicativity_failures: int
    fixed_point_failures: int

    def to_dict(self) -> dict:
        return {
            "good": list(self.good),
            "epsilon": self.epsilon,
            "multiplicativity_failures": self.multiplicativity_failures,
            "fixed_point_failures": self.fixed_point_failures,
        }


def sofic_verify(action: PermAction, relations, check_fixed) -> SoficReport:
    """Good-set count for a partial action.

    relations: triples of words (g, h, gh); a point y is good for the triple
    when sigma(g) sigma(h) y = sigma(gh) y. check_fixed: nontrivial words w
    whose permutation must move every good point. epsilon = 1 - |good| / m.
    """
    m = action.m
    good = np.ones(m, dtype=bool)
    mult_fail = 0
    for g_word, h_word, gh_word in relations:
        pg = action.word(g_word)
        ph = action.word(h_word)
        pgh = action.word(gh_word)
        ok = pg[ph] == pgh
        mult_fail += int(np.sum(~ok))
        good &= ok
    fix_fail = 0
    for w in check_fixed:
        pw = action.word(w)
        moved = pw != np.arange(m)
        fix_fail += int(np.sum(~moved))
        good &= moved
    eps = 1.0 - float(np.sum(good)) / m if m else 0.0
    return SoficReport(
        good=tuple(int(i) for i in np.flatnonzero(good)),
        epsilon=eps,
        multiplicativity_failures=mult_fail,
        fixed_point_failures=fix_fail,
    )


# ---------------------------------------------------------------------------
# Approximate isomorphism witnesses


@dataclass
class WitnessEntry:
    """Matched subgraphs at one index: vertices_x[i] maps to vertices_x2[i],
    and edges_x (in x coordinates) exist on both sides."""

    vertices_x: tuple
    vertices_x2: tuple
    edges_x: tuple

    def to_dict(self) -> dict:
        return {
            "vertices_x": list(self.vertices_x),
            "vertices_x2": list(self.vertices_x2),
            "edges_x": [list(e) for e in self.edges_x],
        }


@dataclass
class ApproxIsoWitness:
    entries: list

    def to_dict(self) -> dict:
        return {"entries": [e.to_dict() for e in self.entries]}

    @classmethod
    def from_dict(cls, data) -> "ApproxIsoWitness":
        """Parse the JSON of ``to_dict``; a ValueError names a bad entry."""
        entries = []
        for i, e in enumerate(expect(_Spec(data, "witness")["entries"],
                                     list, "entries")):
            what = f"entries[{i}]"
            e = _Spec(e, what)
            pairs = e["edges_x"]
            try:
                edges = tuple((int(u), int(v)) for u, v in pairs)
            except (TypeError, ValueError):
                raise ValueError(f"{what}.edges_x must be a list of [u, v] pairs, "
                                 f"got {reprlib.repr(pairs)}") from None
            entries.append(WitnessEntry(
                vertices_x=tuple(
                    expect_items(e["vertices_x"], int, f"{what}.vertices_x")),
                vertices_x2=tuple(
                    expect_items(e["vertices_x2"], int, f"{what}.vertices_x2")),
                edges_x=edges,
            ))
        return cls(entries=entries)


@dataclass
class ApproxIsoReport:
    ratios: list  # per index: dict with the four fractions
    verdict: bool
    tail_start: int
    tolerance: float

    def to_dict(self) -> dict:
        return {
            "ratios": self.ratios,
            "verdict": self.verdict,
            "tail_start": self.tail_start,
            "tolerance": self.tolerance,
        }


_ISO_FAILURES = (
    "edge endpoint not matched",
    "not an edge on the left",
    "not an edge on the right",
)


def approx_iso_check(
    x: BoxSpace, x2: BoxSpace, witness: ApproxIsoWitness, tolerance: float = 0.05
) -> ApproxIsoReport:
    """Verify a matched-subgraph witness and report the four ratio sequences.

    Witness vertices must lie in their graphs (VertexOutOfRange otherwise).
    Every listed edge must exist in x and, under the vertex map, in x2
    (NotAnIsomorphism for the first edge that fails). The verdict requires
    all four ratios to reach 1 - tolerance on the last quarter of the
    indices.
    """
    if not (len(x.graphs) == len(x2.graphs) == len(witness.entries)):
        raise ValueError("witness must align with both sequences")
    ratios = []
    for i, entry in enumerate(witness.entries):
        g, g2 = x.graphs[i], x2.graphs[i]
        if len(entry.vertices_x) != len(entry.vertices_x2):
            raise NotAnIsomorphism(i, None, "vertex lists differ in length")
        if len(set(entry.vertices_x)) != len(entry.vertices_x):
            raise NotAnIsomorphism(i, None, "duplicate vertices in witness")
        for vs, h in ((entry.vertices_x, g), (entry.vertices_x2, g2)):
            bad = [v for v in vs if not 0 <= v < h.n]
            if bad:
                raise VertexOutOfRange(bad[0], h.n)
        # image[w] is w's partner in x2, or -1 when w is unmatched; slot
        # g.n stands for every endpoint outside g.
        image = np.full(g.n + 1, -1, dtype=np.int64)
        image[list(entry.vertices_x)] = entry.vertices_x2
        edges = int64_pairs(entry.edges_x, g.n).reshape(-1, 2)
        mapped = image[np.where((edges >= 0) & (edges < g.n), edges, g.n)]
        fails = np.stack(((mapped < 0).any(axis=1), ~g.has_edges(edges),
                          ~g2.has_edges(mapped)), axis=1)
        if fails.any():
            k = int(np.argmax(fails.any(axis=1)))
            reason = _ISO_FAILURES[int(np.argmax(fails[k]))]
            raise NotAnIsomorphism(i, tuple(entry.edges_x[k]), reason)
        e_matched = len(entry.edges_x)
        ratios.append(
            {
                "vertices_x": len(entry.vertices_x) / g.n if g.n else 1.0,
                "vertices_x2": len(entry.vertices_x2) / g2.n if g2.n else 1.0,
                "edges_x": e_matched / g.num_edges if g.num_edges else 1.0,
                "edges_x2": e_matched / g2.num_edges if g2.num_edges else 1.0,
            }
        )
    n = len(ratios)
    tail_start = n - max(1, n // 4) if n else 0
    verdict = all(
        all(v >= 1.0 - tolerance for v in r.values()) for r in ratios[tail_start:]
    )
    return ApproxIsoReport(
        ratios=ratios, verdict=verdict, tail_start=tail_start, tolerance=tolerance
    )


def core_density(x: BoxSpace, subsets, radius: int) -> list:
    """Density of the radius-ball around each complement, with the growth
    bound d^(R+1) |Y^c| / |X| it must respect.

    Test-facing API: no command or other library function calls it; the
    tests do.
    """
    out = []
    for g, y in zip(x.graphs, subsets):
        yc = sorted(set(range(g.n)) - set(vertex_set(g, y)))
        if yc:
            blob = ball_of_set(g, yc, radius)
            density = len(blob) / g.n
        else:
            density = 0.0
        bound = x.d ** (radius + 1) * len(yc) / g.n if g.n else 0.0
        out.append(
            {
                "density": density,
                "bound": bound,
                "ok": density <= bound or not yc,
                "complement_size": len(yc),
            }
        )
    return out
