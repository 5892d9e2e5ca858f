import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import boxgap as bg
import boxgap.graph as graph_mod
from boxgap.errors import DegreeExceeded, DuplicateEdge, VertexOutOfRange

from boxgap.cheeger import cheeger_report
from boxgap.spectral import DENSE_LIMIT
from conftest import neighbour_rows, random_bounded_graph


def test_build_triangle():
    g = bg.build_graph(3, [(0, 1), (1, 2), (0, 2)], 2)
    assert g.n == 3
    assert neighbour_rows(g) == ((1, 2), (0, 2), (0, 1))
    assert g.num_edges == 3


def test_build_edgeless():
    g = bg.build_graph(2, [], 3)
    assert neighbour_rows(g) == ((), ())
    assert g.num_edges == 0


def test_build_cycle():
    g = bg.build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)], 2)
    assert neighbour_rows(g) == ((1, 3), (0, 2), (1, 3), (0, 2))


def reference_build(n, edges, d, allow_loops=False):
    """Independent oracle: the edge-by-edge set loop, returning the sorted
    adjacency tuples (a loop listed once in its own row)."""
    adj = [set() for _ in range(n)]
    loops = set()
    for u, v in edges:
        for x in (u, v):
            if not 0 <= x < n:
                raise VertexOutOfRange(x, n)
        if u == v:
            if not allow_loops or u in loops:
                raise DuplicateEdge((u, v))
            loops.add(u)
            continue
        if v in adj[u]:
            raise DuplicateEdge((min(u, v), max(u, v)))
        adj[u].add(v)
        adj[v].add(u)
    for u in loops:
        adj[u].add(u)
    for v in range(n):
        if len(adj[v]) > d:
            raise DegreeExceeded(v, len(adj[v]), d)
    return tuple(tuple(sorted(a)) for a in adj)


def with_faults(rng, n, edges):
    """A copy of an edge list, shuffled and partly reversed, with zero to
    three injected faults at random places."""
    edges = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in edges]
    edges = [edges[i] for i in rng.permutation(len(edges))]
    for _ in range(int(rng.integers(0, 4))):
        kind = rng.integers(0, 4)
        at = int(rng.integers(0, len(edges) + 1))
        if kind == 0:  # one or both endpoints out of range
            bad, other = rng.choice([-1, -3, n, n + 2], size=2).tolist()
            edge = (bad, other if rng.random() < 0.3 else int(rng.integers(0, n)))
            edges.insert(at, edge if rng.random() < 0.5 else edge[::-1])
        elif kind == 1 and edges:  # repeated edge, maybe reversed
            u, v = edges[int(rng.integers(0, len(edges)))]
            edges.insert(at, (v, u) if rng.random() < 0.5 else (u, v))
        else:  # a loop, sometimes twice
            x = int(rng.integers(0, n))
            edges.insert(at, (x, x))
            if kind == 3:
                edges.insert(int(rng.integers(0, len(edges) + 1)), (x, x))
    return edges


def outcome(build, *args, **kwargs):
    try:
        return build(*args, **kwargs)
    except (VertexOutOfRange, DuplicateEdge, DegreeExceeded) as exc:
        return type(exc), exc.args, vars(exc)


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
    with pytest.raises(VertexOutOfRange) as exc:
        bg.build_graph(3, [(0, 1), (2, 2**70)], 2)  # past int64
    assert exc.value.vertex == 2**70
    # Random lists with injected faults raise what the reference raises.
    rng = np.random.default_rng(29)
    kinds = set()
    for _ in range(400):
        n = int(rng.integers(1, 16))
        d = int(rng.integers(1, 6))
        base = list(random_bounded_graph(rng, n, d).edges())
        edges = with_faults(rng, n, base)
        for bound in (d, max(1, d - 1)):  # the lower bound may overflow
            for loops in (False, True):
                want = outcome(reference_build, n, edges, bound, loops)
                got = outcome(bg.build_graph, n, edges, bound, allow_loops=loops)
                array = np.array(edges, dtype=np.int64).reshape(-1, 2)
                as_array = outcome(bg.build_graph, n, array, bound, allow_loops=loops)
                assert as_array == got
                if isinstance(got, bg.Graph):
                    got = neighbour_rows(got)
                else:
                    kinds.add(got[0])
                    payload = list(as_array[2].values())
                    while payload:  # the payload holds Python ints only
                        x = payload.pop()
                        if isinstance(x, tuple):
                            payload += x
                        else:
                            assert type(x) is int, as_array
                assert got == want, (n, edges, bound, loops)
    assert kinds == {VertexOutOfRange, DuplicateEdge, DegreeExceeded}


def loop_graph():
    return bg.build_graph(
        8, [(0, 0), (0, 1), (1, 2), (2, 2), (3, 4), (4, 5), (5, 3), (6, 6)],
        3, allow_loops=True,
    )


def oracle_ball(adj, s, r):
    seen = set(s)
    for _ in range(r):
        seen |= {w for u in seen for w in adj[u]}
    return tuple(sorted(seen))


def test_core_matches_set_oracles(small_corpus):
    rng = np.random.default_rng(13)
    for g in [*small_corpus, loop_graph()]:
        adj = [set(row) for row in neighbour_rows(g)]
        pairs = sorted({(min(u, v), max(u, v)) for u in range(g.n) for v in adj[u]})
        assert list(g.edges()) == pairs
        assert all(type(x) is int for e in g.edges() for x in e)
        array = g.edge_array()
        assert array.dtype == np.int64 and array.shape == (len(pairs), 2)
        assert array.tolist() == [list(e) for e in pairs]
        for u in range(g.n):
            for v in range(g.n):
                assert g.has_edge(u, v) is (v in adj[u]), (u, v)
        assert g.num_edges == len(pairs)
        assert g.max_degree() == max((len(a) for a in adj), default=0)
        for _ in range(6):
            size = int(rng.integers(0, g.n + 1))
            s = tuple(sorted(rng.choice(g.n, size=size, replace=False).tolist()))
            assert graph_mod.boundary_edges(g, s) == [
                (u, v) for u in s for v in sorted(adj[u]) if v not in s
            ]
            for r in range(4):
                assert bg.ball_of_set(g, s, r) == oracle_ball(adj, s, r)
            sub, idx = bg.induced_subgraph(g, s)
            assert idx == s
            pos = {v: i for i, v in enumerate(s)}
            assert neighbour_rows(sub) == tuple(
                tuple(sorted(pos[v] for v in adj[u] if v in pos)) for u in s
            )
            assert sub.degree_bound == g.degree_bound
            assert sub.allows_loops == bool(sub.loops)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_has_edges_matches_set_oracle(data):
    # Random graphs with loops; pairs in either order, with endpoints past
    # either end of [0, n), where a row-major key would alias another pair.
    n = data.draw(st.integers(0, 12), label="n")
    vertex = st.integers(0, max(n - 1, 0))
    picks = data.draw(st.lists(st.tuples(vertex, vertex), max_size=30)) if n else []
    edges = {(min(u, v), max(u, v)) for u, v in picks}
    degree = np.bincount([x for e in edges for x in set(e)], minlength=n)
    g = bg.build_graph(n, sorted(edges), max(int(degree.max(initial=0)), 1),
                       allow_loops=True)
    end = st.integers(-3, n + 3) | st.sampled_from([-2**63, 2**63 - 1])
    pairs = data.draw(st.lists(st.tuples(end, end), max_size=40), label="pairs")
    got = g.has_edges(np.array(pairs, dtype=np.int64).reshape(-1, 2))
    assert got.dtype == bool
    assert got.tolist() == [(min(u, v), max(u, v)) in edges for u, v in pairs]


def test_has_edges_out_of_range_pair_is_no_edge():
    # 0 * 6 + 8 is the key of edge (1, 2); the pair (0, 8) is no edge.
    assert bg.cycle_graph(6).has_edges([[0, 8], [8, 0], [1, 2]]).tolist() == [
        False, False, True]


def test_equal_edge_sets_give_equal_graphs(small_corpus):
    rng = np.random.default_rng(17)
    for g in [*small_corpus, loop_graph()]:
        edges = [e[::-1] if rng.random() < 0.5 else e for e in g.edges()]
        edges = [edges[i] for i in rng.permutation(len(edges))]
        again = bg.build_graph(g.n, edges, g.degree_bound, g.allows_loops)
        assert again == g and hash(again) == hash(g)
        looser = bg.build_graph(g.n, edges, g.degree_bound + 1, g.allows_loops)
        assert looser != g
    g = loop_graph()
    fewer_loops = [e for e in g.edges() if e != (6, 6)]
    assert bg.build_graph(8, fewer_loops, 3, allow_loops=True) != g
    assert g != "graph"
    assert not g.indptr.flags.writeable and not g.indices.flags.writeable


def test_loops_count_once_in_degree():
    g = bg.build_graph(2, [(0, 0), (0, 1)], 2, allow_loops=True)
    assert g.degree(0) == 2
    assert g.nonloop_degree(0) == 1
    assert g.num_edges == 2


def test_vertex_accessors_reject_out_of_range():
    g = bg.cycle_graph(5)
    calls = [lambda: g.degree(-1), lambda: g.degree(5),
             lambda: g.nonloop_degree(-1), lambda: g.has_edge(0, -1),
             lambda: g.has_edge(5, 0), lambda: g.has_edge(-7, -7)]
    for call in calls:
        with pytest.raises(VertexOutOfRange):
            call()


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


def test_components_found_once_per_graph(monkeypatch):
    torus = bg.triangular_torus(17)
    g = bg.disjoint_union(torus, torus)
    assert g.n > DENSE_LIMIT
    real = graph_mod._csgraph_components
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(graph_mod, "_csgraph_components", counting)
    assert cheeger_report(g).h == 0.0
    assert bg.graph_spectrum(g).kernel_dim == 2
    assert bg.delta_tau_spectrum(g).kernel_dim == 2
    assert len(calls) == 1
    assert bg.connected_components(g) == list(g.components)


def brute_components(g, region=None):
    """Independent oracle: BFS inside the region (all of g when None) from
    each unseen region vertex in index order."""
    adj = neighbour_rows(g)
    inside = set(range(g.n) if region is None else region)
    seen, comps = set(), []
    for start in sorted(inside):
        if start in seen:
            continue
        comp, frontier = {start}, [start]
        while frontier:
            frontier = [v for u in frontier for v in adj[u]
                        if v in inside and v not in comp]
            comp.update(frontier)
        seen |= comp
        comps.append(tuple(sorted(comp)))
    return comps


def test_component_labels_and_region_components_match_bfs():
    rng = np.random.default_rng(73)
    graphs = [bg.build_graph(0, [], 1)]
    for _ in range(40):
        n = int(rng.integers(1, 30))
        g = random_bounded_graph(rng, n, 3, fill=float(rng.uniform(0.05, 0.9)))
        loops = [(v, v) for v in range(n) if rng.random() < 0.2]
        graphs.append(g if not loops else bg.build_graph(
            n, list(g.edges()) + loops, 4, allow_loops=True))
    for g in graphs:
        comps = brute_components(g)
        assert g.components == tuple(comps)
        labels = [next(i for i, c in enumerate(comps) if v in c) for v in range(g.n)]
        assert g.component_labels.tolist() == labels
        for _ in range(3):
            region = rng.choice(g.n, size=int(rng.integers(0, g.n + 1)), replace=False)
            assert (bg.connected_components(g, region.tolist())
                    == brute_components(g, region.tolist()))


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
    # Loops and out-of-order input: rows in order, a loop first in its row.
    g = bg.build_graph(4, [(2, 3), (1, 1), (3, 0), (0, 1), (0, 0), (3, 3), (1, 2)],
                       3, allow_loops=True)
    bg.write_edge_list(g, path)
    assert path.read_bytes() == b"4 3\n0 0\n0 1\n0 3\n1 1\n1 2\n2 3\n3 3\n"
    assert bg.read_edge_list(path) == g


def _line_by_line_text(g):
    """The edge-list text one f-string per edge, the writer's reference."""
    return f"{g.n} {g.degree_bound}\n" + "".join(f"{u} {v}\n" for u, v in g.edges())


@pytest.mark.parametrize("g", [
    bg.build_graph(4, [(0, 0), (0, 1), (2, 3), (3, 3)], 3, allow_loops=True),
    bg.build_graph(0, [], 1),
    bg.build_graph(6, [(1, 4)], 2),  # isolated vertices
    bg.cycle_graph(graph_mod._ROW_BLOCK),  # exactly one block of rows
    bg.cycle_graph(2 * graph_mod._ROW_BLOCK + 1),  # three blocks, one row in the last
], ids=["loops", "empty", "isolated", "one-block", "three-blocks"])
def test_edge_list_text_matches_line_by_line(tmp_path, g):
    path = tmp_path / "g.txt"
    bg.write_edge_list(g, path)
    assert path.read_text() == _line_by_line_text(g)
    assert bg.read_edge_list(path) == g


def test_edge_list_errors(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("3\n")
    with pytest.raises(ValueError, match=":1:"):
        bg.read_edge_list(p)
    p.write_text("3 2\n0 1\n1 two\n")
    with pytest.raises(ValueError, match=":3:"):
        bg.read_edge_list(p)


def reference_read(path):
    """Oracle: the line-by-line reader that parsed every edge-list file
    before the bulk parse."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ValueError(f"{path}: empty file")
    head = lines[0].split()
    if len(head) != 2:
        raise ValueError(f"{path}:1: expected header 'n d'")
    try:
        n, d = int(head[0]), int(head[1])
    except ValueError:
        raise ValueError(f"{path}:1: expected header 'n d'") from None
    edges = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"{path}:{lineno}: expected 'u v'")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(f"{path}:{lineno}: expected 'u v'") from None
        edges.append((u, v))
    return bg.build_graph(n, edges, d, allow_loops=any(u == v for u, v in edges))


def read_outcome(read, path):
    try:
        return read(path)
    except (ValueError, VertexOutOfRange, DuplicateEdge, DegreeExceeded) as exc:
        return type(exc), exc.args


# Lines the line loop rejects, or accepts in a form a bulk parser might
# read differently: comments, underscores, signs, floats, int64 overflow,
# token counts, other whitespace and line breaks, non-ASCII digits.
BODY_FAULTS = [
    "# 0 1", "0 1 # edge", "1_0 2", "+1 2", "0 +2", "-0 1", "01 002", "1.0 2",
    "1e0 2", f"{2**63} 1", f"1 {-2**63 - 1}", f"0 {2**70}", "3", "1 2 3",
    "1-2 3", "+-1 2", "- 1", "0\x0c1", "0 1\x0c2 3", "1\xa02", "\u0661 2",
    "0\x0b1", "0 1\r", "0\r1", "\x1c", "", "  \t ", "0 n",
]
HEAD_FAULTS = ["", "3", "3 2 1", "+3 2", "3_0 2", "3.0 2", "three 2", "3\t2", " 3 2 "]


def pad(rng):
    return str(rng.choice(["", " ", "  ", "\t"]))


def test_read_edge_list_matches_line_loop(tmp_path):
    rng = np.random.default_rng(41)
    path = tmp_path / "g.txt"
    kinds = set()
    for trial in range(400):
        n = int(rng.integers(1, 14))
        d = int(rng.integers(1, 6))
        edges = list(random_bounded_graph(rng, n, d).edges())
        if rng.random() < 0.2:
            x = int(rng.integers(0, n))
            edges.append((x, x))  # a loop, maybe over the degree bound
        if rng.random() < 0.2 and edges:
            edges.append(edges[int(rng.integers(len(edges)))][::-1])
        lines = [f"{pad(rng)}{u}{pad(rng) or ' '}{v}{pad(rng)}" for u, v in edges]
        faulty = trial % 2 == 1
        extra = [pad(rng) for _ in range(int(rng.integers(0, 3)))]
        if faulty:
            extra += rng.choice(BODY_FAULTS, size=int(rng.integers(1, 3))).tolist()
        for line in extra:
            lines.insert(int(rng.integers(0, len(lines) + 1)), line)
        head = f"{n} {d}"
        if faulty and rng.random() < 0.2:
            head = str(rng.choice(HEAD_FAULTS))
        text = "\n".join([head, *lines]) + ("\n" if rng.random() < 0.8 else "")
        path.write_bytes(text.encode())
        want = read_outcome(reference_read, path)
        got = read_outcome(bg.read_edge_list, path)
        assert got == want, text
        kinds.add(type(got) if isinstance(got, bg.Graph) else got[0])
        if not faulty:
            assert graph_mod._parse_bulk(text) is not None  # the bulk path ran
    assert kinds == {bg.Graph, ValueError, VertexOutOfRange, DuplicateEdge,
                     DegreeExceeded}
    for text in ("", "\n", "3 2", "3 2\n", "3 2\n\n \n", "0 1\n", "3 2\n0\n",
                 "3 2\n0 1 2\n1 2 0\n"):
        path.write_bytes(text.encode())
        want = read_outcome(reference_read, path)
        assert read_outcome(bg.read_edge_list, path) == want


def test_read_header_matches_read_edge_list(tmp_path):
    # The header read gives the n and d of every file read_edge_list takes,
    # and raises its error for every header it rejects: one that does not
    # parse, a negative n or a d below 1.
    path = tmp_path / "g.txt"
    heads = HEAD_FAULTS + ["3 2", " 3  2\t", "-1 2", "3 0", "3 2\x0c0 1",
                           "\x0c3 2", "3 2\r0 1", "3 2\r", "0 1"]
    outcomes = set()
    for head in heads:
        for body in ("", "\n", "\n0 1\n1 2\n", "\n0 1\n0 1\n"):
            path.write_bytes((head + body).encode())
            got = read_outcome(graph_mod._read_header, path)
            want = read_outcome(bg.read_edge_list, path)
            if isinstance(want, bg.Graph):
                assert got == (want.n, want.degree_bound), head + body
                outcomes.add("graph")
            elif got[0] is ValueError:
                assert got == want, head + body
                outcomes.add("bad header")
    assert outcomes == {"graph", "bad header"}


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


def test_boxspace_validates_degree():
    with pytest.raises(DegreeExceeded):
        bg.BoxSpace(graphs=[bg.complete_graph(5)], d=3)


def test_boxspace_degree_error_names_the_vertex_and_the_graph():
    with pytest.raises(DegreeExceeded) as exc:
        bg.BoxSpace(graphs=[bg.cycle_graph(5), bg.complete_graph(5)], d=3)
    assert (exc.value.vertex, exc.value.degree, exc.value.bound) == (0, 4, 3)
    assert str(exc.value) == "graph 1: vertex 0 has degree 4 > bound 3"


def test_a_graph_is_its_edges():
    """The fields are the vertex count, the CSR rows, the loops and the
    degree bound; whether loops are allowed is read off the loops, so a
    subgraph that leaves every loop out equals the same edges built anew."""
    import dataclasses

    assert [f.name for f in dataclasses.fields(bg.Graph)] == [
        "n", "indptr", "indices", "loops", "degree_bound"]
    g = loop_graph()
    sub, _ = bg.induced_subgraph(g, (1, 3, 4, 5))
    for h in (g, sub, bg.cycle_graph(5)):
        assert h.allows_loops == bool(h.loops)
    assert not sub.allows_loops
    assert sub == bg.build_graph(4, list(sub.edges()), g.degree_bound)
    with pytest.raises(DuplicateEdge):
        bg.build_graph(2, [(0, 1), (1, 1)], 2)


def test_vertex_set_validation():
    g = bg.cycle_graph(4)
    assert bg.vertex_set(g, [3, 1, 1]) == (1, 3)
    with pytest.raises(VertexOutOfRange):
        bg.vertex_set(g, [4])
    # Other input kinds give a sorted tuple of Python ints too.
    for vertices, want in [
        ((3, 0, 3), (0, 3)),
        ({3, 0}, (0, 3)),
        ((v for v in [3, 2]), (2, 3)),
        (np.array([2, 1], dtype=np.uint64), (1, 2)),
        ([], ()),
        (np.array([], dtype=np.int64), ()),
    ]:
        got = bg.vertex_set(g, vertices)
        assert got == want and all(type(v) is int for v in got)
    # The smallest vertex out of range is named, in any input kind.
    for vertices, named in [
        ([9, 7, 1], 7),
        ([8, -2, -1, 3], -2),
        (np.array([9, 7, 1], dtype=np.int32), 7),
        (np.array([1, 2**63], dtype=np.uint64), 2**63),
        ([2**70, 3], 2**70),
    ]:
        with pytest.raises(VertexOutOfRange) as exc:
            bg.vertex_set(g, vertices)
        assert str(exc.value) == f"vertex {named} out of range [0, 4)"


def test_vertex_set_rejects_non_integers():
    # Floats are never truncated and bools are not vertices: the first entry
    # that is not a Python or NumPy integer is named in a ValueError.
    g = bg.cycle_graph(6)
    for bad, first in [
        ([1.7, True, np.float64(4.2)], "1.7"),
        ([1, True], "True"),
        ([2, np.float64(4.0)], "np.float64(4.0)"),
        ([0, "1"], "'1'"),
        (np.array([False, True]), "np.False_"),
        (np.array([1.0, 2.0]), "np.float64(1.0)"),
        (np.array([[1, 2]]), "array([1, 2])"),
    ]:
        with pytest.raises(ValueError, match=re.escape(f"vertex {first} ")):
            bg.vertex_set(g, bad)
    with pytest.raises(ValueError, match="vertex 0.2 "):
        bg.inner_expansion_exact(g, [0.2, 1.1, 2.7])
    with pytest.raises(ValueError, match="vertex 1.5 "):
        bg.vertex_set(g, [np.int64(6), 1.5])  # every entry is checked first
    with pytest.raises(VertexOutOfRange):
        bg.vertex_set(g, [np.int64(6), 1])
    for ok in (range(1, 5), [4, 1, 2, 4], np.array([4, 1, 2], dtype=np.int32),
               np.array([4, 1, 2], dtype=np.int64), [np.int32(2), np.uint8(1), 4]):
        got = bg.vertex_set(g, ok)
        assert got == tuple(sorted(set(int(v) for v in ok)))
        assert all(type(v) is int for v in got)
