"""The prefix-boundary sweep and its three callers against brute recounts.

Every oracle recomputes boundaries with ``boundary_size`` one set at a time.
Graphs stay far below the dense-solve limit, so Fiedler orders are
deterministic and the oracles can reuse them.
"""

import numpy as np
import pytest

import boxgap as bg
from boxgap.cheeger import _fiedler_order
from boxgap.graph import sweep_profile

from conftest import random_bounded_graph


def _random_graph(rng, loops):
    n = int(rng.integers(2, 30))
    d = int(rng.integers(1, 6))
    g = random_bounded_graph(rng, n, d, fill=float(rng.uniform(0.3, 1.0)))
    if not loops:
        return g
    extra = [(v, v) for v in range(n) if rng.random() < 0.4]
    return bg.build_graph(n, list(g.edges()) + extra, d + 1, allow_loops=True)


def _connected_random_graph(rng):
    while True:
        g = _random_graph(rng, loops=bool(rng.integers(0, 2)))
        big = max(bg.connected_components(g), key=len)
        if len(big) >= 3:
            return bg.induced_subgraph(g, big)[0]


def _recount(g, order):
    return [bg.boundary_size(g, order[: k + 1]) for k in range(len(order))]


@pytest.mark.parametrize("loops", [False, True])
def test_sweep_profile_matches_recount(loops):
    rng = np.random.default_rng(31 + loops)
    for _ in range(40):
        g = _random_graph(rng, loops)
        size = int(rng.integers(1, g.n + 1))  # often a strict subset
        order = [int(v) for v in rng.permutation(g.n)[:size]]
        assert sweep_profile(g, order).tolist() == _recount(g, order)


def test_sweep_profile_ignores_loops_and_counts_outside_edges():
    g = bg.build_graph(4, [(0, 0), (0, 1), (1, 2), (2, 2), (2, 3)], 3,
                       allow_loops=True)
    assert sweep_profile(g, [2]).tolist() == [2]
    assert sweep_profile(g, [0]).tolist() == [1]
    assert sweep_profile(g, [1, 0]).tolist() == [2, 1]
    assert sweep_profile(g, [3, 2, 1, 0]).tolist() == [1, 1, 1, 0]
    assert sweep_profile(g, []).tolist() == []


def test_cheeger_sweep_is_best_fiedler_prefix():
    rng = np.random.default_rng(47)
    for _ in range(30):
        g = _connected_random_graph(rng)
        n = g.n
        order = [int(v) for v in _fiedler_order(g)]
        ratios = [
            b / min(k + 1, n - k - 1)
            for k, b in enumerate(_recount(g, order)[: n - 1])
        ]
        k = int(np.argmin(ratios)) + 1
        side = order[:k] if k <= n // 2 else order[k:]
        rep = bg.cheeger_sweep(g)
        assert rep.h == ratios[k - 1]
        assert rep.witness == tuple(sorted(side))
        assert bg.boundary_size(g, rep.witness) / len(rep.witness) == rep.h


def _sparse_cut_candidates(g, c, region):
    """Every passing prefix and suffix of each region component's order."""
    sub, idx_map = bg.induced_subgraph(g, region)
    found = []
    for comp in bg.connected_components(sub):
        comp_sub, comp_map = bg.induced_subgraph(g, [idx_map[v] for v in comp])
        order = [comp_map[int(v)] for v in _fiedler_order(comp_sub)]
        for k in range(1, len(order) + 1):
            for side in (order[:k], order[k:]):
                if (side and len(side) < len(region)
                        and bg.boundary_size(g, side) < c * len(side)):
                    found.append((len(side), tuple(sorted(side))))
    return found


def test_find_sparse_cut_sweep_matches_oracle():
    rng = np.random.default_rng(59)
    for _ in range(60):
        g = _random_graph(rng, loops=bool(rng.integers(0, 2)))
        size = int(rng.integers(2, g.n + 1))
        region = sorted(int(v) for v in rng.permutation(g.n)[:size])
        c = float(rng.choice([0.05, 0.5, 1.0, 2.0]))
        found = _sparse_cut_candidates(g, c, region)
        want = min(found)[1] if found else None
        assert bg.find_sparse_cut(g, c, region=region, exact_cap=1) == want


def test_find_sparse_cut_sweep_breaks_size_ties_lexicographically():
    # On a path the Fiedler order runs end to end, so the halves {0..3} and
    # {4..7} are a prefix and a suffix with one boundary edge each; no
    # smaller set passes at c = 0.3.
    g = bg.path_graph(8)
    found = _sparse_cut_candidates(g, 0.3, range(8))
    assert sorted(s for s in found if s[0] == min(found)[0]) == [
        (4, (0, 1, 2, 3)),
        (4, (4, 5, 6, 7)),
    ]
    assert bg.find_sparse_cut(g, 0.3, exact_cap=1) == (0, 1, 2, 3)


def _level_set_oracle(g, f, a, b):
    """Min (|∂U|, |U|) over U = {f > t}, t at every distinct band interval."""
    cuts = sorted({a, b, *(float(v) for v in f if a < v < b)})
    sets = {
        tuple(int(v) for v in np.flatnonzero(f > (lo + hi) / 2.0))
        for lo, hi in zip(cuts, cuts[1:])
    }
    best = min((bg.boundary_size(g, u), len(u), u) for u in sets if u)
    if f.max() < b and best[0] > 0:
        return (), 0
    return best[2], best[0]


@pytest.mark.parametrize("a,b", [(1 / 3, 2 / 3), (0.1, 0.5)])
def test_level_set_cut_with_tied_values_matches_oracle(a, b):
    rng = np.random.default_rng(73)
    checked = 0
    for _ in range(60):
        g = _random_graph(rng, loops=bool(rng.integers(0, 2)))
        f = rng.integers(0, 6, g.n) / 5.0  # few distinct values, many ties
        if rng.random() < 0.3:
            f = np.minimum(f, 0.6)  # max f below b: the empty set competes
        if not np.any((f > a) & (f < b)):
            continue
        cut = bg.level_set_cut(g, f, a, b)
        assert (cut.vertices, cut.boundary) == _level_set_oracle(g, f, a, b)
        assert a < cut.t < b and not cut.empty_band
        assert cut.vertices == tuple(int(v) for v in np.flatnonzero(f > cut.t))
        checked += 1
    assert checked >= 30
