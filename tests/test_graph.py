import numpy as np
import pytest

import boxgap as bg
from boxgap.errors import DegreeExceeded, DuplicateEdge, VertexOutOfRange

from conftest import random_bounded_graph


def test_build_triangle():
    g = bg.build_graph(3, [(0, 1), (1, 2), (0, 2)], 2)
    assert g.n == 3
    assert g.adjacency == ((1, 2), (0, 2), (0, 1))
    assert g.num_edges == 3


def test_build_edgeless():
    g = bg.build_graph(2, [], 3)
    assert g.adjacency == ((), ())
    assert g.num_edges == 0


def test_build_cycle():
    g = bg.build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)], 2)
    assert g.adjacency == ((1, 3), (0, 2), (1, 3), (0, 2))


def test_build_errors():
    with pytest.raises(VertexOutOfRange):
        bg.build_graph(3, [(0, 3)], 2)
    with pytest.raises(DuplicateEdge):
        bg.build_graph(3, [(0, 1), (1, 0)], 2)
    with pytest.raises(DegreeExceeded) as exc:
        bg.build_graph(4, [(0, 1), (0, 2), (0, 3)], 2)
    assert exc.value.vertex == 0
    with pytest.raises(DuplicateEdge):
        bg.build_graph(3, [(1, 1)], 2)  # loops only on request


def test_loops_count_once_in_degree():
    g = bg.build_graph(2, [(0, 0), (0, 1)], 2, allow_loops=True)
    assert g.degree(0) == 2
    assert g.nonloop_degree(0) == 1
    assert g.num_edges == 2


def test_boundary_size_examples():
    k4 = bg.complete_graph(4)
    assert bg.boundary_size(k4, (0,)) == 3
    c4 = bg.cycle_graph(4)
    assert bg.boundary_size(c4, (0, 1)) == 2
    assert bg.boundary_size(c4, ()) == 0


def test_boundary_complement_symmetry(small_corpus):
    rng = np.random.default_rng(3)
    for g in small_corpus:
        if g.n == 0:
            continue
        s = tuple(int(v) for v in rng.choice(g.n, size=g.n // 2, replace=False))
        comp = tuple(v for v in range(g.n) if v not in set(s))
        assert bg.boundary_size(g, s) == bg.boundary_size(g, comp)


def test_ball_examples():
    c4 = bg.cycle_graph(4)
    assert bg.ball(c4, 0, 1) == (0, 1, 3)
    assert bg.ball(c4, 2, 0) == (2,)
    assert bg.ball(bg.complete_graph(4), 0, 5) == (0, 1, 2, 3)


def test_ball_growth_bound():
    rng = np.random.default_rng(11)
    for _ in range(40):
        n = int(rng.integers(5, 60))
        d = int(rng.integers(2, 7))
        g = random_bounded_graph(rng, n, d)
        size = int(rng.integers(1, max(2, n // 3)))
        s = tuple(int(v) for v in rng.choice(n, size=size, replace=False))
        for r in range(4):
            assert len(bg.ball_of_set(g, s, r)) <= d ** (r + 1) * len(s)


def test_connected_components():
    two = bg.disjoint_union(bg.complete_graph(3), bg.complete_graph(3))
    comps = bg.connected_components(two)
    assert comps == [(0, 1, 2), (3, 4, 5)]
    assert bg.connected_components(bg.cycle_graph(4)) == [(0, 1, 2, 3)]
    assert bg.connected_components(bg.build_graph(3, [], 1)) == [(0,), (1,), (2,)]


def brute_components(g):
    """Independent oracle: BFS from each unseen vertex in index order."""
    seen, comps = set(), []
    for start in range(g.n):
        if start in seen:
            continue
        comp, frontier = {start}, [start]
        while frontier:
            frontier = [v for u in frontier for v in g.adjacency[u] if v not in comp]
            comp.update(frontier)
        seen |= comp
        comps.append(tuple(sorted(comp)))
    return comps


def test_component_sizes_partition(small_corpus):
    loops = bg.build_graph(5, [(0, 0), (0, 1), (2, 3), (3, 3)], 3, allow_loops=True)
    for g in [*small_corpus, loops, bg.build_graph(0, [], 1)]:
        comps = bg.connected_components(g)
        assert comps == brute_components(g)
        assert all(type(v) is int for c in comps for v in c)
        assert sum(len(c) for c in comps) == g.n
        seen = set()
        for c in comps:
            assert not (set(c) & seen)
            seen |= set(c)


def test_induced_subgraph():
    k4 = bg.complete_graph(4)
    sub, idx = bg.induced_subgraph(k4, (0, 1, 2))
    assert sub.num_edges == 3 and sub.n == 3
    assert idx == (0, 1, 2)
    c4 = bg.cycle_graph(4)
    sub, _ = bg.induced_subgraph(c4, (0, 2))
    assert sub.num_edges == 0
    sub, _ = bg.induced_subgraph(c4, ())
    assert sub.n == 0


def test_edge_list_roundtrip(tmp_path):
    g = bg.glue_pair(bg.complete_graph(4), bg.cycle_graph(5), 1, 2, d=4)
    path = tmp_path / "g.txt"
    bg.write_edge_list(g, path)
    back = bg.read_edge_list(path)
    assert back.n == g.n
    assert back.degree_bound == g.degree_bound
    assert sorted(back.edges()) == sorted(g.edges())


def test_edge_list_errors(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("3\n")
    with pytest.raises(ValueError, match=":1:"):
        bg.read_edge_list(p)
    p.write_text("3 2\n0 1\n1 two\n")
    with pytest.raises(ValueError, match=":3:"):
        bg.read_edge_list(p)


def test_manifest_roundtrip(tmp_path):
    box = bg.BoxSpace(
        graphs=[bg.complete_graph(3), bg.cycle_graph(5)],
        d=2,
        labels=["a", "b"],
    )
    mpath = bg.write_manifest(box, tmp_path / "box")
    back = bg.read_manifest(mpath)
    assert back.sizes() == [3, 5]
    assert back.labels == ["a", "b"]
    assert back.monotone_sizes()


def test_boxspace_validates_degree():
    with pytest.raises(DegreeExceeded):
        bg.BoxSpace(graphs=[bg.complete_graph(5)], d=3)


def test_vertex_set_validation():
    g = bg.cycle_graph(4)
    assert bg.vertex_set(g, [3, 1, 1]) == (1, 3)
    with pytest.raises(VertexOutOfRange):
        bg.vertex_set(g, [4])
