import itertools
import math

import numpy as np
import pytest

import boxgap as bg
import boxgap.graph as graph_mod
from boxgap.errors import (
    DegreeExceeded,
    IdentityGenerator,
    NotAnIsomorphism,
    NotEnoughRoom,
    NotSymmetric,
    UnknownLabel,
    VertexOutOfRange,
)

# Frozen spectral gaps of the torus family, measured with the dense solver
# (n <= 22) and the restarted Krylov solver (n = 23, 24).
MARGULIS_GAPS = {
    4: 2.221543, 5: 1.695381, 6: 1.344046, 7: 1.128767, 8: 0.983978,
    9: 0.883554, 10: 0.808019, 11: 0.750626, 12: 0.704343, 13: 0.666907,
    14: 0.635443, 15: 0.608807, 16: 0.585765, 17: 0.565835, 18: 0.548167,
    19: 0.532559, 20: 0.518515, 21: 0.505917, 22: 0.494464, 23: 0.484075,
    24: 0.474509,
}


def test_cayley_cyclic_is_cycle():
    g = bg.cayley_graph(bg.CyclicGroup(5), [1, 4])
    assert sorted(g.edges()) == sorted(bg.cycle_graph(5).edges())


def test_cayley_klein_four_is_k4():
    group = bg.ProductGroup([2, 2])
    gens = [(0, 1), (1, 0), (1, 1)]
    g = bg.cayley_graph(group, gens)
    assert sorted(g.edges()) == sorted(bg.complete_graph(4).edges())


def test_cayley_sym3_transpositions():
    group = bg.SymmetricGroup(3)
    gens = [(1, 0, 2), (2, 1, 0), (0, 2, 1)]
    g = bg.cayley_graph(group, gens)
    assert g.n == 6
    assert all(g.degree(v) == 3 for v in range(6))
    comps = bg.connected_components(g)
    assert len(comps) == 1
    # bipartite by parity: it is K_3,3, whose Laplacian spectrum is known
    evs = bg.graph_spectrum(g).eigenvalues
    assert np.allclose(evs, [0, 3, 3, 3, 3, 6], atol=1e-9)


def test_cayley_validation():
    with pytest.raises(NotSymmetric):
        bg.cayley_graph(bg.CyclicGroup(5), [1])
    with pytest.raises(IdentityGenerator):
        bg.cayley_graph(bg.CyclicGroup(5), [0, 1, 4])


def test_cayley_sl2():
    group = bg.SL2Prime(3)
    gens = bg.sl2_elementary_generators(3)
    g = bg.cayley_graph(group, gens)
    assert g.n == 24  # |SL(2, Z/3)|
    assert len(bg.connected_components(g)) == 1
    assert g.max_degree() <= 4


def test_cayley_vertex_transitive_spectrum():
    g = bg.cayley_graph(bg.CyclicGroup(12), [1, 11, 3, 9])
    degs = {g.degree(v) for v in range(g.n)}
    assert len(degs) == 1
    # right translation by any element is a graph automorphism
    perm = [(x + 5) % 12 for x in range(12)]
    edges = [(perm[u], perm[v]) for u, v in g.edges()]
    g2 = bg.build_graph(g.n, edges, g.degree_bound)
    assert np.allclose(
        bg.graph_spectrum(g).eigenvalues,
        bg.graph_spectrum(g2).eigenvalues,
        atol=1e-9,
    )


class TupleCyclic:
    """Oracle: Z/n with per-element arithmetic on ints."""

    def __init__(self, n):
        self.n = n

    def elements(self):
        return list(range(self.n))

    def multiply(self, a, b):
        return (a + b) % self.n

    def inverse(self, a):
        return (-a) % self.n

    def identity(self):
        return 0


class TupleProduct:
    """Oracle: a product of cyclic groups on tuples in lex order."""

    def __init__(self, moduli):
        self.moduli = tuple(moduli)

    def elements(self):
        return list(itertools.product(*(range(m) for m in self.moduli)))

    def multiply(self, a, b):
        return tuple((x + y) % m for x, y, m in zip(a, b, self.moduli))

    def inverse(self, a):
        return tuple((-x) % m for x, m in zip(a, self.moduli))

    def identity(self):
        return tuple(0 for _ in self.moduli)


class TupleSym:
    """Oracle: Sym(k) on permutation tuples in lex order, a after b."""

    def __init__(self, k):
        self.k = k

    def elements(self):
        return list(itertools.permutations(range(self.k)))

    def multiply(self, a, b):
        return tuple(a[b[i]] for i in range(self.k))

    def inverse(self, a):
        inv = [0] * self.k
        for i, j in enumerate(a):
            inv[j] = i
        return tuple(inv)

    def identity(self):
        return tuple(range(self.k))


class TupleSL2:
    """Oracle: SL(2, Z/p) on tuples (a, b, c, d) in lex order."""

    def __init__(self, p):
        self.p = p

    def elements(self):
        p = self.p
        return [m for m in itertools.product(range(p), repeat=4)
                if (m[0] * m[3] - m[1] * m[2]) % p == 1]

    def multiply(self, m1, m2):
        p = self.p
        a1, b1, c1, d1 = m1
        a2, b2, c2, d2 = m2
        return ((a1 * a2 + b1 * c2) % p, (a1 * b2 + b1 * d2) % p,
                (c1 * a2 + d1 * c2) % p, (c1 * b2 + d1 * d2) % p)

    def inverse(self, m):
        a, b, c, d = m
        p = self.p
        return (d % p, (-b) % p, (-c) % p, a % p)

    def identity(self):
        return (1, 0, 0, 1)


def loop_cayley(group, gens):
    """Oracle: the per-element loop Cayley graphs were built with."""
    elements = group.elements()
    index = {e: i for i, e in enumerate(elements)}
    gen_set = set(gens)
    for s in gens:
        if s == group.identity():
            raise IdentityGenerator()
        if group.inverse(s) not in gen_set:
            raise NotSymmetric(s)
    edges = set()
    for s in gens:
        for x in elements:
            u, v = index[x], index[group.multiply(s, x)]
            if u != v:
                edges.add((min(u, v), max(u, v)))
    return bg.build_graph(len(elements), sorted(edges), max(len(gens), 1))


def cayley_outcome(build, group, gens):
    """The graph build(group, gens) returns, or its exception's type,
    message and payload."""
    try:
        return build(group, gens)
    except (IdentityGenerator, NotSymmetric) as exc:
        return type(exc), str(exc), getattr(exc, "gen", None)


def group_cases():
    """(array group, tuple oracle, generating sets) over every group kind:
    symmetric sets, sets missing an inverse and those sets with the identity
    inserted, generators in random order."""
    rng = np.random.default_rng(16)
    groups = [(bg.CyclicGroup(n), TupleCyclic(n)) for n in range(1, 31)]
    for r in (2, 2, 2, 3, 3, 3):
        moduli = rng.integers(1, 7, size=r).tolist()
        groups.append((bg.ProductGroup(moduli), TupleProduct(moduli)))
    groups += [(bg.SymmetricGroup(k), TupleSym(k)) for k in range(1, 6)]
    groups += [(bg.SL2Prime(p), TupleSL2(p)) for p in (2, 3, 5, 7)]
    for group, oracle in groups:
        elements = oracle.elements()
        sets = []
        if isinstance(oracle, TupleSL2):
            sets.append(bg.sl2_elementary_generators(oracle.p))
        for _ in range(4):
            picks = [elements[i] for i in
                     rng.choice(len(elements), size=min(3, len(elements)))]
            gens = {s for x in picks for s in (x, oracle.inverse(x))}
            gens = sorted(gens - {oracle.identity()})
            rng.shuffle(gens)
            sets.append(gens)
            lonely = [x for x in gens if oracle.inverse(x) != x]
            if lonely:  # drop one inverse
                drop = oracle.inverse(lonely[rng.integers(len(lonely))])
                sets.append([x for x in gens if x != drop])
            # the identity before or after a generator missing its inverse
            at = int(rng.integers(len(sets[-1]) + 1))
            sets.append(sets[-1][:at] + [oracle.identity()] + sets[-1][at:])
        yield group, oracle, sets


def test_array_cayley_matches_loop():
    """Array Cayley graphs equal the loop oracle's on every group kind, and
    raise the same exception for the same first failing generator."""
    kinds = set()
    for group, oracle, sets in group_cases():
        for gens in sets:
            want = cayley_outcome(loop_cayley, oracle, gens)
            got = cayley_outcome(bg.cayley_graph, group, gens)
            assert got == want, (type(oracle).__name__, gens)
            kinds.add(want[0] if isinstance(want, tuple) else bg.Graph)
    assert kinds == {bg.Graph, IdentityGenerator, NotSymmetric}


@pytest.mark.parametrize("group, gens, bad", [
    (bg.CyclicGroup(5), [7, 3, 2], 0),
    (bg.CyclicGroup(5), [1, -1], 1),
    (bg.CyclicGroup(5), [1, 4, 1.5], 2),
    (bg.ProductGroup([2, 2]), [(1,)], 0),
    (bg.ProductGroup([2, 3]), [(1, 1), (1, 2), (2, 0)], 2),
    (bg.SymmetricGroup(3), [(1, 0, 2), (0, 0, 1)], 1),
    (bg.SymmetricGroup(3), [(1, 0, 2), (1, 0, 2, 3)], 1),
    (bg.SL2Prime(3), [(1, 1, 0, 1), (1, 2, 0, 1), (2, 0, 0, 1)], 2),
    (bg.SL2Prime(3), [(1, 1, 0, 1), (1, 5, 0, 1)], 1),
])
def test_cayley_rejects_non_elements(group, gens, bad):
    """A generator outside the group or off its canonical form raises,
    naming the first such generator; it is never wrapped or mis-indexed."""
    with pytest.raises(ValueError, match=rf"^gens\[{bad}\] must be a group element"):
        bg.cayley_graph(group, gens)


def test_margulis_smallest():
    g = bg.margulis_graph(2)
    assert g.n == 4
    assert g.max_degree() <= 8


def test_margulis_gap_regression():
    for n, frozen in MARGULIS_GAPS.items():
        gap = bg.graph_spectrum(bg.margulis_graph(n)).gap
        assert gap == pytest.approx(frozen, abs=5e-5)
        assert gap >= 0.3  # empirical family floor


def test_margulis_family_uniformity():
    g8 = bg.graph_spectrum(bg.margulis_graph(8)).gap
    g16 = bg.graph_spectrum(bg.margulis_graph(16)).gap
    assert g16 >= 0.5 * g8


def loop_margulis(n):
    """Oracle: the per-vertex loop the Margulis family was built with."""
    edges = set()
    for x in range(n):
        for y in range(n):
            u = x * n + y
            for px, py in (((x + y) % n, y), ((x - y) % n, y), (x, (y + x) % n),
                           (x, (y - x) % n), ((x + 1) % n, y), ((x - 1) % n, y),
                           (x, (y + 1) % n), (x, (y - 1) % n)):
                v = px * n + py
                if v != u:
                    edges.add((min(u, v), max(u, v)))
    return bg.build_graph(n * n, sorted(edges), 8)


def loop_torus(m):
    """Oracle: the per-vertex loop the triangulated tori were built with."""
    edges = set()
    for x in range(m):
        for y in range(m):
            u = x * m + y
            for dx, dy in ((1, 0), (0, 1), (1, 1)):
                v = ((x + dx) % m) * m + (y + dy) % m
                edges.add((min(u, v), max(u, v)))
    return bg.build_graph(m * m, sorted(edges), 6)


def test_array_generators_match_loops():
    for n in range(2, 41):
        assert bg.margulis_graph(n) == loop_margulis(n), n
    for m in range(4, 31):
        assert bg.triangular_torus(m) == loop_torus(m), m


def test_glue_pair_k4s():
    g = bg.glue_pair(bg.complete_graph(4), bg.complete_graph(4), 0, 0, d=4)
    assert g.n == 8
    assert bg.cheeger_exact(g).h == pytest.approx(0.25)


def test_glue_pair_single_vertices():
    one = bg.build_graph(1, [], 1)
    g = bg.glue_pair(one, one, 0, 0)
    assert sorted(g.edges()) == [(0, 1)]


def test_glue_pair_no_headroom():
    with pytest.raises(DegreeExceeded):
        bg.glue_pair(bg.complete_graph(4), bg.complete_graph(4), 0, 0)


@pytest.mark.parametrize("v1, v2", [(2, -1), (-1, 0), (5, 0), (0, 4)])
def test_glue_pair_vertex_out_of_range(v1, v2):
    with pytest.raises(VertexOutOfRange):
        bg.glue_pair(bg.cycle_graph(5), bg.complete_graph(4), v1, v2, d=4)


def test_glue_pair_kills_margulis_gap():
    m = bg.margulis_graph(8)
    gap_single = bg.graph_spectrum(m).gap
    pair = bg.glue_pair(m, m, 0, 0, d=8)
    assert bg.graph_spectrum(pair).gap < gap_single
    # bridge-cut witness caps the Cheeger constant
    assert bg.boundary_size(pair, tuple(range(64))) == 1


def test_glue_pair_cheeger_upper_bound(small_corpus):
    for g1 in small_corpus[:6]:
        if g1.n < 1 or g1.allows_loops:
            continue
        d = max(g1.degree_bound, 2) + 1
        g = bg.glue_pair(g1, g1, 0, 0, d=d)
        if g.n <= 24:
            assert bg.cheeger_exact(g).h <= 1 / g1.n + 1e-12


def test_glued_expander_nothing_to_wire():
    y = bg.cycle_graph(4)
    x = bg.complete_graph(6)
    res = bg.glued_expander(x, y, t_set=range(4), seed=3)
    g = res.graph
    assert g.n == 10
    # no matching edges, a loop everywhere, every degree one higher
    assert res.bijection == ()
    assert len(res.loops) == 10
    for v in range(6):
        assert g.degree(v) == x.degree(v) + 1
    for v in range(4):
        assert g.degree(6 + v) == y.degree(v) + 1


def test_glued_expander_half_alpha_flagged():
    res = bg.glued_expander(bg.complete_graph(6), bg.cycle_graph(4), (0, 1), seed=0)
    assert res.alpha_ratio == pytest.approx(0.5)
    assert res.warn_alpha
    g = res.graph
    assert g.n == 10
    for v in range(10):
        base = bg.complete_graph(6) if v < 6 else bg.cycle_graph(4)
        assert g.degree(v) == base.degree(v if v < 6 else v - 6) + 1


def test_glued_expander_margulis():
    x = bg.margulis_graph(6)
    y = bg.margulis_graph(4)
    t = bg.ball(y, 0, 0)
    assert len(t) <= 0.25 * y.n
    res = bg.glued_expander(x, y, t, seed=11)
    assert not res.warn_alpha
    assert len(bg.connected_components(res.graph)) == 1
    assert bg.cheeger_sweep(res.graph).h > 0


def test_glued_expander_reproducible():
    a = bg.glued_expander(bg.complete_graph(6), bg.cycle_graph(4), (0,), seed=5)
    b = bg.glued_expander(bg.complete_graph(6), bg.cycle_graph(4), (0,), seed=5)
    assert a.bijection == b.bijection
    assert sorted(a.graph.edges()) == sorted(b.graph.edges())


def test_glued_expander_without_loops_reads_back_equal(tmp_path):
    # With T empty and |X'| = |Y| the matching touches every vertex, so no
    # vertex takes a loop, and the graph equals its own files read back.
    g = bg.glued_expander(bg.cycle_graph(4), bg.cycle_graph(4), [], seed=0).graph
    assert g.loops == ()
    bg.write_edge_list(g, tmp_path / "g.txt")
    assert bg.read_edge_list(tmp_path / "g.txt") == g
    manifest = bg.write_manifest(bg.BoxSpace(graphs=[g], d=3), tmp_path / "box")
    assert bg.read_manifest(manifest).graphs == [g]


def test_glued_expander_not_enough_room():
    with pytest.raises(NotEnoughRoom):
        bg.glued_expander(bg.complete_graph(3), bg.cycle_graph(8), ())


def test_sofic_clean_action():
    action = bg.cyclic_action(101, [k for k in range(-50, 51) if k])
    relations = [
        ([f"t^{a}"], [f"t^{b}"], [f"t^{a + b}"])
        for a in (-50, -13, -2, 1, 7, 25)
        for b in (-21, -1, 3, 8, 25)
        if a + b != 0 and abs(a + b) <= 50
    ]
    fixed = [[f"t^{k}"] for k in (-50, -7, 1, 3, 50)]
    rep = bg.sofic_verify(action, relations, fixed)
    assert rep.epsilon == 0.0
    assert len(rep.good) == 101


def test_sofic_empty_relations_vacuous():
    action = bg.cyclic_action(7, [-1, 1])
    rep = bg.sofic_verify(action, [], [])
    assert rep.epsilon == 0.0


def test_sofic_single_defect():
    action = bg.cyclic_action(101, [k for k in range(-50, 51) if k])
    corrupted = bg.with_transposition(action, "t^1", 30, 29)
    relations = [
        ([f"t^{a}"], [f"t^{b}"], [f"t^{a + b}"])
        for a in (-5, 2, 7)
        for b in (3, -2)
        if a + b != 0
    ]
    rep = bg.sofic_verify(corrupted, relations, [["t^1"]])
    assert rep.epsilon == pytest.approx(1 / 101)
    assert 30 not in rep.good


def test_sofic_word_composition():
    action = bg.cyclic_action(10, [-1, 1, -3, 3])
    # sigma(t^1)^3 equals sigma(t^3) pointwise on the regular action
    rep = bg.sofic_verify(
        action, [(["t^1", "t^1", "t^1"], [], ["t^3"])], []
    )
    assert rep.epsilon == 0.0


def loop_action(m, perms, inverses, check_inverses=True):
    """Oracle: the tuple action's validation; its permutations as lists."""
    for label, p in perms.items():
        if sorted(p) != list(range(m)):
            raise ValueError(f"sigma({label}) is not a bijection")
    for a, b in inverses.items():
        if a not in perms or b not in perms:
            raise UnknownLabel(a if a not in perms else b)
    if check_inverses:
        for a, b in inverses.items():
            if any(perms[b][perms[a][i]] != i for i in range(m)):
                raise ValueError(f"sigma({b}) is not the inverse of sigma({a})")
    return {label: list(p) for label, p in perms.items()}


def loop_word(m, perms, labels):
    out = list(range(m))
    for label in reversed(list(labels)):
        if label not in perms:
            raise UnknownLabel(label)
        out = [perms[label][x] for x in out]
    return out


def loop_cyclic(m, shifts):
    """Oracle: the tuple cyclic action, as (perms, inverses)."""
    shifts = sorted(set(shifts))
    for k in shifts:
        if k % m == 0:
            raise ValueError("shift must be nontrivial mod m")
        if -k not in shifts:
            raise ValueError(f"shifts must be symmetric, missing {-k}")
    return ({f"t^{k}": [(i + k) % m for i in range(m)] for k in shifts},
            {f"t^{k}": f"t^{-k}" for k in shifts})


def loop_transposition(m, perms, inverses, label, i, j):
    perms = {k: list(p) for k, p in perms.items()}
    p = perms[label]
    p[i], p[j] = p[j], p[i]
    partner = inverses.get(label)
    if partner and partner != label:
        for a, b in enumerate(p):
            perms[partner][b] = a
    return perms


def loop_sofic(m, perms, relations, check_fixed):
    """Oracle: the good set and failure counts, one point at a time."""
    good, mult_fail, fix_fail = [], 0, 0
    for y in range(m):
        ok = True
        for g, h, gh in relations:
            if loop_word(m, perms, g)[loop_word(m, perms, h)[y]] != \
                    loop_word(m, perms, gh)[y]:
                mult_fail += 1
                ok = False
        for w in check_fixed:
            if loop_word(m, perms, w)[y] == y:
                fix_fail += 1
                ok = False
        if ok:
            good.append(y)
    return good, (1.0 - len(good) / m if m else 0.0), mult_fail, fix_fail


def outcome(fn, *args):
    """fn(*args), or the type and message of the error it raises."""
    try:
        return fn(*args)
    except (ValueError, UnknownLabel) as exc:
        return type(exc), str(exc)


def as_lists(action):
    return {label: action.table[r].tolist() for label, r in action.rows.items()}


def random_action(rng, m):
    """Labels a, A (inverse pair) and b (an involution), as (perms,
    inverses), with a seeded chance of each kind of invalid entry."""
    a = rng.permutation(m)
    b = np.arange(m)
    swap = rng.permutation(m)[: 2 * (m // 2)].reshape(-1, 2)
    b[swap[:, 0]], b[swap[:, 1]] = swap[:, 1], swap[:, 0]
    perms = {"a": a.tolist(), "A": np.argsort(a).tolist(), "b": b.tolist()}
    inverses = {"a": "A", "A": "a", "b": "b"}
    roll = rng.random(3)
    if roll[0] < 0.2:  # a repeated point or a wrong length
        label = ["a", "A", "b"][rng.integers(3)]
        bad = perms[label][:-1] if rng.random() < 0.5 else perms[label][:1] * m
        perms[label] = bad if m > 1 else []
    if roll[1] < 0.2:
        inverses["c" if rng.random() < 0.5 else "b"] = "c"
    if roll[2] < 0.2 and m > 2:  # break the a/A pairing
        perms["A"] = rng.permutation(m).tolist()
    return perms, inverses


def test_actions_match_tuple_oracle():
    """The table action validates, composes words, swaps transpositions
    and counts good points as the tuple action did, with equal errors."""
    rng = np.random.default_rng(61)
    seen = set()
    for _ in range(300):
        m = int(rng.integers(1, 13))
        perms, inverses = random_action(rng, m)
        check = bool(rng.random() < 0.8)
        want = outcome(loop_action, m, perms, inverses, check)
        got = outcome(bg.PermAction, m, perms, inverses, check)
        if isinstance(want, tuple):
            assert got == want, (m, perms, inverses)
            seen.add(next(k for k in ("bijection", "inverse of", "label")
                          if k in want[1]))
            continue
        assert as_lists(got) == want
        labels = ["a", "A", "b", "a", "c"][: int(rng.integers(2, 6))]
        words = [[labels[k] for k in rng.integers(len(labels), size=n)]
                 for n in rng.integers(0, 4, size=5)]
        for w in words:
            assert outcome(lambda w: got.word(w).tolist(), w) == \
                outcome(loop_word, m, want, w)
        if "c" in labels:
            continue
        i, j = rng.integers(m, size=2).tolist()
        label = ["a", "A", "b"][rng.integers(3)]
        swapped = outcome(lambda: bg.with_transposition(got, label, i, j))
        want_swapped = outcome(lambda: loop_action(m, loop_transposition(
            m, want, inverses, label, i, j), inverses))
        if isinstance(want_swapped, tuple):
            assert swapped == want_swapped
            continue
        assert as_lists(swapped) == want_swapped
        relations = [words[:3], words[2:]]
        rep = bg.sofic_verify(swapped, relations, words[3:])
        assert (list(rep.good), rep.epsilon, rep.multiplicativity_failures,
                rep.fixed_point_failures) == loop_sofic(
                    m, want_swapped, relations, words[3:])
    assert seen == {"bijection", "inverse of", "label"}


@pytest.mark.parametrize("m, shifts", [
    (7, [-1, 1]), (12, [3, -3, 5, -5, 3]), (1, []), (5, [-6, 6]),
    (5, [5, -5]), (6, [1, 2, -1]), (4, [2, -2]),
])
def test_cyclic_action_matches_tuple_oracle(m, shifts):
    want = outcome(loop_cyclic, m, shifts)
    got = outcome(bg.cyclic_action, m, shifts)
    if isinstance(want[0], type):
        assert got == want
    else:
        assert (as_lists(got), got.inverses) == want


@pytest.mark.parametrize("i, j", [(-1, 0), (9, 0), (0, 5), (2, -6)])
def test_with_transposition_rejects_outside_points(i, j):
    action = bg.cyclic_action(5, [-1, 1])
    with pytest.raises(VertexOutOfRange):
        bg.with_transposition(action, "t^1", i, j)


def test_approx_iso_identity():
    box = bg.BoxSpace(graphs=[bg.cycle_graph(6), bg.complete_graph(5)], d=4)
    witness = bg.ApproxIsoWitness(
        entries=[
            bg.WitnessEntry(
                vertices_x=tuple(range(g.n)),
                vertices_x2=tuple(range(g.n)),
                edges_x=tuple(g.edges()),
            )
            for g in box.graphs
        ]
    )
    rep = bg.approx_iso_check(box, box, witness, tolerance=0.0)
    assert rep.verdict
    assert all(v == 1.0 for r in rep.ratios for v in r.values())


@pytest.mark.parametrize("tolerance", [math.nan, math.inf, -math.inf, -1.0, 1.5])
def test_approx_iso_tolerance_must_be_in_unit_interval(tolerance):
    # inf would pass every witness and nan fail a perfect one.
    g = bg.cycle_graph(6)
    box = bg.BoxSpace(graphs=[g], d=2)
    witness = bg.ApproxIsoWitness(
        entries=[bg.WitnessEntry(tuple(range(6)), tuple(range(6)), tuple(g.edges()))]
    )
    with pytest.raises(ValueError, match=r"tolerance must be in \[0, 1\]"):
        bg.approx_iso_check(box, box, witness, tolerance=tolerance)


def test_approx_iso_corrupted_witness():
    box = bg.BoxSpace(graphs=[bg.cycle_graph(6)], d=2)
    witness = bg.ApproxIsoWitness(
        entries=[
            bg.WitnessEntry(
                vertices_x=(0, 1, 2, 3, 4, 5),
                vertices_x2=(0, 1, 2, 3, 4, 5),
                edges_x=((0, 2),),  # not an edge of C_6
            )
        ]
    )
    with pytest.raises(NotAnIsomorphism):
        bg.approx_iso_check(box, box, witness)


@pytest.mark.parametrize("g, entry, message", [
    # C4 folded two-to-one onto the edge (0, 1): every ratio would read 1.0
    (bg.cycle_graph(4),
     bg.WitnessEntry((0, 1, 2, 3), (0, 1, 0, 1), tuple(bg.cycle_graph(4).edges())),
     "(edge None): duplicate vertices in witness"),
    # one edge of three listed three times: an edge ratio of 1.0
    (bg.path_graph(4),
     bg.WitnessEntry((0, 1, 2, 3), (0, 1, 2, 3), ((0, 1), (0, 1), (1, 0))),
     "(edge (0, 1)): edge repeated"),
    (bg.path_graph(4),
     bg.WitnessEntry((0, 1, 2, 3), (0, 1, 2, 3), ((0, 1), (2, 3), (1, 0))),
     "(edge (1, 0)): edge repeated"),
])
def test_approx_iso_refuses_a_fold_and_repeated_edges(g, entry, message):
    box = bg.BoxSpace(graphs=[g], d=2)
    with pytest.raises(NotAnIsomorphism) as exc:
        bg.approx_iso_check(box, box, bg.ApproxIsoWitness([entry]))
    assert str(exc.value).endswith(message)


@pytest.mark.parametrize("vertices_x, vertices_x2, named", [
    ((0, 7, -3), (0, 1, 2), 7),  # the first in witness order, not the smallest
    ((5, 4), (0, 1), 5),
    ((0, 1), (2**70, 1), 2**70),  # past int64, named as given
    ((0, 1), (-1, 9), -1),
])
def test_approx_iso_names_the_first_vertex_out_of_range(vertices_x, vertices_x2,
                                                        named):
    box = bg.BoxSpace(graphs=[bg.cycle_graph(4)], d=2)
    entry = bg.WitnessEntry(vertices_x, vertices_x2, ())
    with pytest.raises(VertexOutOfRange) as exc:
        bg.approx_iso_check(box, box, bg.ApproxIsoWitness([entry]))
    assert exc.value.vertex == named and type(exc.value.vertex) is int
    assert str(exc.value) == f"vertex {named} out of range [0, 4)"


def test_approx_iso_tail_verdict():
    graphs = [bg.cycle_graph(8)] * 8
    box = bg.BoxSpace(graphs=graphs, d=2)
    entries = []
    for i, g in enumerate(graphs):
        keep = g.n if i >= 4 else g.n - 4  # early indices are bad
        vs = tuple(range(keep))
        es = tuple((u, v) for u, v in g.edges() if u < keep and v < keep)
        entries.append(bg.WitnessEntry(vs, vs, es))
    rep = bg.approx_iso_check(box, box, bg.ApproxIsoWitness(entries), 0.01)
    assert rep.verdict  # last quarter is perfect
    assert rep.tail_start == 6


def edge_loop_check(x, x2, witness):
    """Oracle for approx_iso_check's edge test: one has_edge call per side
    and witness edge, in order, on witnesses whose vertices are valid."""
    for i, entry in enumerate(witness.entries):
        vmap = dict(zip(entry.vertices_x, entry.vertices_x2))
        seen = set()
        for u, v in entry.edges_x:
            if u not in vmap or v not in vmap:
                raise NotAnIsomorphism(i, (u, v), "edge endpoint not matched")
            if not x.graphs[i].has_edge(u, v):
                raise NotAnIsomorphism(i, (u, v), "not an edge on the left")
            if not x2.graphs[i].has_edge(vmap[u], vmap[v]):
                raise NotAnIsomorphism(i, (u, v), "not an edge on the right")
            if frozenset((u, v)) in seen:
                raise NotAnIsomorphism(i, (u, v), "edge repeated")
            seen.add(frozenset((u, v)))


def test_approx_iso_first_failing_edge_matches_loop(small_corpus):
    """The vectorized edge test raises for the same first failing edge, with
    the same message, as the per-edge loop, and passes when it passes."""
    rng = np.random.default_rng(7)
    looped = bg.build_graph(5, [(0, 0), (0, 1), (1, 2), (3, 3), (3, 4)], 3,
                            allow_loops=True)
    outcomes = set()
    for g in small_corpus + [looped]:
        perm = rng.permutation(g.n)
        kept = [(perm[u], perm[v]) for u, v in g.edges() if rng.random() < 0.9]
        g2 = bg.build_graph(g.n, kept, g.degree_bound,
                            allow_loops=g.allows_loops)
        x = bg.BoxSpace(graphs=[g], d=g.degree_bound)
        x2 = bg.BoxSpace(graphs=[g2], d=g.degree_bound)
        for _ in range(20):
            vs = sorted(rng.choice(g.n, size=int(rng.integers(0, g.n + 1)),
                                   replace=False).tolist())
            inside = [e for e in g.edges() if e[0] in vs and e[1] in vs]
            junk = [tuple(rng.integers(-2, g.n + 2, size=2).tolist())
                    for _ in range(3)]
            pool = inside + junk + [(g.n + 2**70, 0)] + inside[:1] + [
                e[::-1] for e in inside[1:2]]
            picks = rng.permutation(len(pool))[: int(rng.integers(0, 8))]
            edges = tuple(pool[k] for k in picks)
            entry = bg.WitnessEntry(tuple(vs), tuple(perm[vs].tolist()), edges)
            witness = bg.ApproxIsoWitness([entry])
            try:
                edge_loop_check(x, x2, witness)
                want = None
            except NotAnIsomorphism as exc:
                want = str(exc)
            try:
                bg.approx_iso_check(x, x2, witness)
                got = None
            except NotAnIsomorphism as exc:
                got = str(exc)
            assert got == want, (g.n, entry)
            outcomes.add(want and want.rsplit(": ", 1)[1])
    assert outcomes == {None, "edge endpoint not matched",
                        "not an edge on the left", "not an edge on the right",
                        "edge repeated"}


def test_witness_json_roundtrip():
    w = bg.ApproxIsoWitness(
        entries=[bg.WitnessEntry((0, 1), (1, 0), ((0, 1),))]
    )
    back = bg.ApproxIsoWitness.from_dict(w.to_dict())
    assert back.entries[0].vertices_x == (0, 1)
    assert back.entries[0].edges_x.tolist() == [[0, 1]]


def test_witness_json_roundtrip_past_one_block():
    # from_dict fills the array from the flattened pairs in one call; a list
    # longer than the writer's block of rows comes back row for row.
    g = bg.cycle_graph(graph_mod._ROW_BLOCK + 3)
    edges = g.edge_array()
    vs = tuple(range(g.n))
    w = bg.ApproxIsoWitness([bg.WitnessEntry(vs, vs[::-1], edges)])
    back = bg.ApproxIsoWitness.from_dict(w.to_dict()).entries[0]
    assert back.edges_x.dtype == np.int64 and back.edges_x.shape == edges.shape
    assert np.array_equal(back.edges_x, edges)
    assert back.vertices_x == vs and back.vertices_x2 == vs[::-1]


def test_core_density_trivial_cases():
    box = bg.BoxSpace(graphs=[bg.cycle_graph(6), bg.cycle_graph(8)], d=2)
    full = [tuple(range(6)), tuple(range(8))]
    out = bg.core_density(box, full, radius=2)
    assert [o["density"] for o in out] == [0.0, 0.0]
    empty = [(), ()]
    out = bg.core_density(box, empty, radius=1)
    assert [o["density"] for o in out] == [1.0, 1.0]


def test_core_density_single_complement_vertex():
    g = bg.margulis_graph(4)
    box = bg.BoxSpace(graphs=[g], d=8)
    y = tuple(v for v in range(g.n) if v != 5)
    out = bg.core_density(box, [y], radius=1)
    assert out[0]["density"] <= (8 + 1) / g.n
    assert out[0]["ok"]


def test_core_density_bound_holds():
    rng = np.random.default_rng(9)
    box = bg.BoxSpace(
        graphs=[bg.margulis_graph(n) for n in (4, 6, 8)], d=8
    )
    for radius in (1, 2, 3):
        subsets = []
        for g in box.graphs:
            drop = rng.choice(g.n, size=max(1, g.n // 20), replace=False)
            subsets.append(tuple(v for v in range(g.n) if v not in set(drop)))
        for entry in bg.core_density(box, subsets, radius):
            assert entry["ok"]
            assert entry["density"] <= entry["bound"]
