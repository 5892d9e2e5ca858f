import math

import numpy as np
import pytest

import boxgap as bg
import boxgap.rewire as rewire_mod
from boxgap import cheeger, exhaustive
from boxgap.cheeger import induced_fiedler, second_eigenvalue
from boxgap.decompose import certify_partition
from boxgap.errors import HypothesisFailed, InsufficientSeparatedEdges
from boxgap.graph import boundary_edges

from conftest import bridged_k4_pair, fresh_copy, neighbour_rows


def pendant_cycle(n=20):
    """Cycle C_n plus one pendant vertex attached at 0."""
    edges = [(i, (i + 1) % n) for i in range(n)] + [(0, n)]
    return bg.build_graph(n + 1, edges, 3)


def test_select_no_boundary_needs_nothing():
    g = bg.cycle_graph(12)
    assert bg.select_separated_edges(g, range(12), r=2, count=0) == []


def test_select_c20_two_edges():
    g = bg.cycle_graph(20)
    f = bg.select_separated_edges(g, range(20), r=2, count=2)
    assert len(f) == 2
    (a, b), (c, d) = f

    # distance between the two edges must be at least 2r = 4
    adj = neighbour_rows(g)

    def graph_dist(u, v):
        frontier = {u}
        seen = {u}
        steps = 0
        while v not in seen:
            frontier = {
                y for x in frontier for y in adj[x] if y not in seen
            }
            seen |= frontier
            steps += 1
        return steps

    assert min(graph_dist(x, y) for x in (a, b) for y in (c, d)) >= 4


def test_select_all_adjacent_to_boundary():
    # K_4 side of a bridged pair: every vertex is adjacent to the endpoint
    # of the bridge, so no interior edge is eligible.
    pair = bridged_k4_pair()
    with pytest.raises(InsufficientSeparatedEdges):
        bg.select_separated_edges(pair, (0, 1, 2, 3), r=1, count=1)


def test_rewire_identity_when_detached():
    g = bg.cycle_graph(10)
    res = bg.rewire_piece(g, range(10), c_inner=0.4, alpha=0.2)
    assert res.edits == []
    assert res.edit_units == 0
    assert res.removed_vertices == ()
    assert sorted(res.new_graph.edges()) == sorted(g.edges())
    assert res.connected
    assert res.hypothesis_verified


def test_rewire_whole_component_keeps_the_graph(monkeypatch):
    """A piece without boundary edges is not edited, so the graph is
    returned as it is, with no copy and no rebuild."""
    g = bg.disjoint_union(bg.complete_graph(6), bg.cycle_graph(10))
    want = bg.rewire_piece(g, range(6), c_inner=0.4, alpha=0.2)

    def no_rebuild(*args, **kwargs):
        raise AssertionError("graph rebuilt")

    monkeypatch.setattr(rewire_mod, "build_graph", no_rebuild)
    got = bg.rewire_piece(g, range(6), c_inner=0.4, alpha=0.2)
    assert got == want and got.new_graph is g
    assert got.edits == [] and got.connected


def test_rewire_pendant_cycle():
    g = pendant_cycle(20)
    piece = tuple(range(20))
    c_inner, _ = bg.inner_expansion_exact(g, piece)
    assert c_inner == pytest.approx(0.2)
    res = bg.rewire_piece(g, piece, c_inner=c_inner, alpha=0.2)
    ops = [e["op"] for e in res.edits]
    assert ops == ["remove", "remove", "add"]
    assert res.edit_units == 1
    assert res.removed_vertices == ()
    assert res.connected and res.degree_ok
    assert res.budget_edits_ok and res.budget_removed_ok
    # detached: no edges leave the piece afterwards
    assert bg.boundary_size(res.new_graph, res.piece) == 0
    assert res.cheeger_evidence["method"] == "exact"
    assert res.cheeger_evidence["value"] >= c_inner / 6 - 1e-12


def test_rewire_hypothesis_failure():
    g = bg.build_graph(
        6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)], 3
    )
    with pytest.raises(HypothesisFailed) as exc:
        bg.rewire_piece(g, range(6), c_inner=0.5, alpha=0.9)
    assert exc.value.witness == (0, 1, 2)
    assert exc.value.ratio == pytest.approx(1 / 3)


def test_rewire_boundary_precondition():
    g = pendant_cycle(20)
    with pytest.raises(ValueError):
        bg.rewire_piece(g, range(20), c_inner=0.2, alpha=0.01)


def test_rewire_unbridges_margulis_pair():
    # Direct use with a measured piece-level expansion constant removes the
    # bridge: one rewiring unit, piece detached, expansion retained.
    m = bg.margulis_graph(5)
    pair = bg.glue_pair(m, m, 0, 0, d=8)
    side = tuple(range(25))
    res = bg.rewire_piece(pair, side, c_inner=1.0, alpha=0.2)
    assert res.edit_units == 1
    assert bg.boundary_size(res.new_graph, side) == 0
    assert res.connected
    sub, _ = bg.induced_subgraph(res.new_graph, side)
    assert bg.graph_spectrum(sub).gap > 0.3
    # the other side keeps its own copy intact minus nothing
    other, _ = bg.induced_subgraph(res.new_graph, tuple(range(25, 50)))
    assert sorted(other.edges()) == sorted(m.edges())


def test_rewire_two_boundary_edges_mechanics():
    # C_30 with pendants at 0 and 15: two boundary edges, so two interior
    # edges get consumed and two replacement edges appear. The separation
    # radius comes from the caller's constant. The piece is above the exact
    # cap, so the claimed expansion, far above the cycle's true one, is not
    # verified; it makes the arc between the two cuts strand and drop.
    n = 30
    edges = [(i, (i + 1) % n) for i in range(n)] + [(0, n), (15, n + 1)]
    g = bg.build_graph(n + 2, edges, 3)
    piece = tuple(range(n))
    res = bg.rewire_piece(g, piece, c_inner=4.0, alpha=0.2)
    assert res.r == 1
    assert res.edit_units == 2
    ops = sorted(e["op"] for e in res.edits)
    assert ops.count("remove") == 4 and ops.count("add") == 2
    assert res.removed_vertices == (3, 4, 5)
    assert not res.hypothesis_verified
    assert res.degree_ok
    assert bg.boundary_size(res.new_graph, res.piece) == 0
    assert res.connected
    # vertex-removal budget honestly fails for the inflated constant
    assert not res.budget_removed_ok


def reference_select(g, piece, r, count):
    """Set oracle for select_separated_edges: eligible edges listed from the
    neighbour rows, then the same greedy pass."""
    pset = set(piece)
    if count == 0:
        return []
    adj = neighbour_rows(g)
    q = {u for u, _ in boundary_edges(g, piece)}
    excluded = set(bg.ball_of_set(g, q, 1))
    eligible = sorted(
        (u, v) for u in piece for v in adj[u]
        if u < v and v in pset and u not in excluded and v not in excluded
    )
    selected, near = [], set()
    for u, v in eligible:
        if u in near or v in near:
            continue
        selected.append((u, v))
        if len(selected) == count:
            return selected
        near.update(bg.ball_of_set(g, (u, v), 2 * r - 1))
    raise InsufficientSeparatedEdges(len(selected), count)


def reference_rewire(g, piece, c_inner, alpha, exact_cap):
    """Set oracle for rewire_piece: the graph copied into per-vertex sets and
    edited in place, its piece components found on a rebuilt subgraph.
    Pieces of at most exact_cap vertices are scanned exhaustively."""
    piece = bg.vertex_set(g, piece)
    bedges = sorted(boundary_edges(g, piece))
    if len(bedges) >= alpha * len(piece):
        raise ValueError(
            f"boundary {len(bedges)} not below alpha |P| = {alpha * len(piece):.3g}"
        )
    hypothesis_verified = False
    if len(piece) <= exact_cap:
        value, witness = bg.inner_expansion_exact(g, piece)
        if value is not None and value < c_inner:
            raise HypothesisFailed(witness, value, c_inner)
        hypothesis_verified = True
    r = math.ceil(4.0 / c_inner)
    adj = [set(a) for a in neighbour_rows(g)]
    edits = []

    def remove_edge(u, v):
        adj[u].discard(v)
        adj[v].discard(u)
        edits.append({"op": "remove", "edge": [min(u, v), max(u, v)]})

    def add_edge(u, v):
        adj[u].add(v)
        adj[v].add(u)
        edits.append({"op": "add", "edge": [min(u, v), max(u, v)]})

    def piece_components():
        pos = {v: i for i, v in enumerate(piece)}
        sub = bg.build_graph(len(piece), [
            (pos[u], pos[v]) for u in piece for v in adj[u] if u < v
        ], g.degree_bound)
        comps = bg.connected_components(sub)
        comp_id = {piece[i]: cid for cid, comp in enumerate(comps) for i in comp}
        return comp_id, [len(comp) for comp in comps]

    removed_vertices = ()
    new_piece = piece
    new_graph = g
    if bedges:
        f_edges = reference_select(g, piece, r, len(bedges))
        for u, v_out in bedges:
            remove_edge(u, v_out)
        for e in f_edges:
            remove_edge(*e)
        comp_id, sizes = piece_components()
        plus = {}
        for u, v in f_edges:
            if comp_id[u] == comp_id[v]:
                plus[(u, v)] = min(u, v)
            elif sizes[comp_id[u]] != sizes[comp_id[v]]:
                plus[(u, v)] = u if sizes[comp_id[u]] > sizes[comp_id[v]] else v
            else:
                plus[(u, v)] = min(u, v)
        for (x, _), e in zip(bedges, f_edges):
            add_edge(x, plus[e])
        comp_id, _ = piece_components()
        stranded = set()
        for u, v in f_edges:
            e_plus = plus[(u, v)]
            e_minus = v if e_plus == u else u
            if comp_id[e_plus] != comp_id[e_minus]:
                stranded.add(comp_id[e_minus])
        if stranded:
            dropped = sorted(x for x in piece if comp_id[x] in stranded)
            for x in dropped:
                for y in list(adj[x]):
                    adj[x].discard(y)
                    adj[y].discard(x)
                edits.append({"op": "remove_vertex", "vertex": x})
            removed_vertices = tuple(dropped)
            new_piece = tuple(sorted(set(piece) - set(dropped)))
        edge_list = [(u, v) for u in range(g.n) for v in adj[u] if u <= v]
        new_graph = bg.build_graph(
            g.n, edge_list, g.degree_bound, allow_loops=g.allows_loops
        )
    sub, _ = bg.induced_subgraph(new_graph, new_piece)
    connected = len(bg.connected_components(sub)) == 1 if new_piece else False
    if len(new_piece) <= exact_cap:
        rep = bg.cheeger_exact(sub)
        evidence = {"method": "exact", "value": rep.h, "witness": list(rep.witness)}
    else:
        evidence = {"method": "spectral", "value": second_eigenvalue(sub) / 2.0,
                    "witness": None}
    try:
        feasible = alpha < 1.0 / float(g.degree_bound) ** (r + 1)
    except OverflowError:
        feasible = False
    return bg.RewireResult(
        new_graph=new_graph,
        piece_before=piece,
        piece=new_piece,
        edits=edits,
        edit_units=len(bedges),
        removed_vertices=removed_vertices,
        r=r,
        boundary_before=len(bedges),
        alpha=alpha,
        C=c_inner,
        alpha_feasible=feasible,
        hypothesis_verified=hypothesis_verified,
        budget_edits_ok=len(bedges) <= alpha * len(piece),
        budget_removed_ok=len(removed_vertices) <= (alpha / c_inner) * len(piece),
        degree_ok=new_graph.max_degree() <= g.degree_bound,
        connected=connected,
        cheeger_evidence=evidence,
    )


def random_piece_graph(rng):
    """A cycle C_n (the piece, vertices 0..n-1) with outside vertices hung
    on one or two cycle vertices, random chords and, sometimes, loops."""
    n = int(rng.integers(8, 41))
    edges = {(i, i + 1) for i in range(n - 1)} | {(0, n - 1)}
    outside = int(rng.integers(1, 4))
    for k in range(outside):
        for x in rng.choice(n, size=int(rng.integers(1, 3)), replace=False):
            edges.add((int(x), n + k))
    for _ in range(int(rng.integers(0, 4))):
        u, v = sorted(rng.choice(n, size=2, replace=False).tolist())
        edges.add((u, v))
    loops = rng.random() < 0.3
    if loops:
        edges |= {(x, x) for x in rng.choice(n + outside, size=2).tolist()}
    edges = sorted(edges)
    deg = np.bincount(np.array(edges).ravel(), minlength=n + outside)
    g = bg.build_graph(n + outside, edges, int(deg.max()), allow_loops=loops)
    return g, tuple(range(n))


def rewire_outcome(rewire, *args):
    try:
        res = rewire(*args)
    except (HypothesisFailed, InsufficientSeparatedEdges, ValueError) as exc:
        return type(exc), exc.args
    return res.to_dict(), res.new_graph


def test_rewire_matches_set_reference(monkeypatch):
    """rewire_piece on the edge array gives the edits, result and graph of
    the set-editing construction, exceptions included, under an exact cap
    of 8 or 16."""
    rng = np.random.default_rng(41)
    rewired = dropped = 0
    for _ in range(60):
        g, piece = random_piece_graph(rng)
        alpha = min(0.99, (len(boundary_edges(g, piece)) + 0.5) / len(piece))
        exact_cap = int(rng.choice([8, 16]))
        monkeypatch.setattr(cheeger, "EXACT_CAP", exact_cap)
        for c_inner in (0.5, 1, 2, 4, 8):
            args = (g, piece, c_inner, alpha)
            want = rewire_outcome(reference_rewire, *args, exact_cap)
            got = rewire_outcome(bg.rewire_piece, *args)
            assert got == want, (*args, exact_cap)
            if isinstance(got[0], dict) and got[0]["edits"]:
                rewired += 1
                dropped += bool(got[0]["removed_vertices"])
    assert rewired and dropped


def memo_answer(g, key):
    """What the producer of a memo key computes on g, arrays as bytes."""
    producer, vs, *arg = key
    if producer == "fiedler":
        answer = induced_fiedler(g, vs)
    else:
        answer = exhaustive.min_ratio_subset(g, vs, *arg)
    return [x.tobytes() if isinstance(x, np.ndarray) else x for x in answer]


def record_hand_overs(monkeypatch):
    """Wrap Graph.hand_over_memo; each call appends (the old memo, the edited
    graph, the entries the edited graph then holds)."""
    real = bg.Graph.hand_over_memo
    calls = []

    def recording(self, edited, touched):
        before = dict(self.memo)
        real(self, edited, touched)
        calls.append((before, edited, dict(edited.memo)))

    monkeypatch.setattr(bg.Graph, "hand_over_memo", recording)
    return calls


def check_hand_over(old_memo, edited, got, edits) -> int:
    """The edited graph received exactly the old entries whose vertex set
    holds no vertex an edit touches, each as a fresh equal graph computes
    it. Returns how many it received."""
    touched = set().union(*(e["edge"] if "edge" in e else [e["vertex"]]
                            for e in edits))
    want = {k: v for k, v in old_memo.items() if touched.isdisjoint(k[1])}
    assert got.keys() == want.keys()
    assert all(got[k] is want[k] for k in got)
    fresh = fresh_copy(edited)
    for key in got:
        assert memo_answer(edited, key) == memo_answer(fresh, key), key
    return len(got)


def test_rewire_hands_over_the_memo_of_untouched_vertex_sets(monkeypatch):
    """Before each rewiring, g's memo holds scans and Fiedler pairs of
    random vertex sets, some touched by the edits and some not."""
    rng = np.random.default_rng(43)
    monkeypatch.setattr(cheeger, "EXACT_CAP", 16)
    calls = record_hand_overs(monkeypatch)
    handed = withheld = 0
    for _ in range(40):
        g, piece = random_piece_graph(rng)
        for _ in range(6):
            vs = tuple(sorted(rng.choice(g.n, size=int(rng.integers(2, 9)),
                                         replace=False).tolist()))
            exhaustive.min_ratio_subset(g, vs, len(vs) // 2)
            induced_fiedler(g, vs)
        alpha = min(0.99, (len(boundary_edges(g, piece)) + 0.5) / len(piece))
        for c_inner in (0.5, 1, 2):
            calls.clear()
            got = rewire_outcome(bg.rewire_piece, g, piece, c_inner, alpha)
            if not isinstance(got[0], dict) or not got[0]["edits"]:
                assert calls == []
                continue
            (old_memo, edited, entries), = calls
            assert edited is got[1]
            n = check_hand_over(old_memo, edited, entries, got[0]["edits"])
            handed += n
            withheld += len(old_memo) - n
    assert handed and withheld


def bridged_margulis_pair(m, bridge):
    mg = bg.margulis_graph(m)
    return bg.glue_pair(mg, mg, *bridge, d=12)


def count_eigensolves(monkeypatch):
    """Wrap every numpy and scipy eigensolver boxgap calls; returns the
    dimension of each matrix solved."""
    import scipy.linalg
    import scipy.sparse.linalg

    dims = []
    for mod, fn in [(np.linalg, "eigh"), (np.linalg, "eigvalsh"),
                    (scipy.linalg, "eigh"), (scipy.linalg, "eigvalsh"),
                    (scipy.sparse.linalg, "eigsh")]:
        def solve(a, *args, _real=getattr(mod, fn), **kwargs):
            dims.append(a.shape[0])
            return _real(a, *args, **kwargs)
        monkeypatch.setattr(mod, fn, solve)
    return dims


MARGULIS_PAIR_PARAMS = bg.KunParams(c=12, d=12, alpha=0.9)


@pytest.mark.parametrize("m, bridge, extra", [
    (24, (5, 7), 0), (48, (0, 0), 0), (24, (5, 7), 25)])
def test_expanderize_hands_over_the_memo(monkeypatch, m, bridge, extra):
    """Bridged Margulis pairs, one with a Margulis graph beside it that
    becomes the last piece: each edited graph receives the untouched memo
    entries, and the reports equal those of a run without any hand-over."""
    g = bridged_margulis_pair(m, bridge)
    if extra:
        g = bg.disjoint_union(g, bg.margulis_graph(extra), d=12)
    monkeypatch.setattr(bg.Graph, "hand_over_memo", lambda *args: None)
    want = bg.expanderize(bg.BoxSpace(graphs=[fresh_copy(g)], d=12),
                          MARGULIS_PAIR_PARAMS).reports[0].to_dict()
    monkeypatch.undo()
    calls = record_hand_overs(monkeypatch)
    got = bg.expanderize(bg.BoxSpace(graphs=[g], d=12),
                         MARGULIS_PAIR_PARAMS).reports[0].to_dict()
    assert got == want
    edited = [o["edits"] for o in got["piece_outcomes"] if o["edits"]]
    assert len(edited) == len(calls) == 1
    handed = sum(check_hand_over(*call, edits) for call, edits in zip(calls, edited))
    assert handed == (1 if extra else 0)


def test_expanderize_margulis_pair_eigensolves(monkeypatch):
    """The Margulis 24 pair takes five solves: the whole graph, the live
    side after the first cut, piece 0 for the certificate, and both pieces
    on the rewired graph (piece 1 holds the bridge's far end). A Margulis
    25 graph beside it, the last piece, is solved once: its certificate
    solve is handed over to the rewired graph."""
    pair = bridged_margulis_pair(24, (5, 7))
    for g, want in [(pair, {576: 4, 1152: 1}),
                    (bg.disjoint_union(pair, bg.margulis_graph(25), d=12),
                     {576: 4, 625: 1, 1152: 1})]:
        dims = count_eigensolves(monkeypatch)
        bg.expanderize(bg.BoxSpace(graphs=[g], d=12), MARGULIS_PAIR_PARAMS)
        monkeypatch.undo()
        assert {n: dims.count(n) for n in dims} == want


def test_expanderize_reports_a_singleton_piece_as_the_certificate_does():
    """A piece of one vertex has no subset of at most half its size: its
    value is null in the certificate and in the rewiring outcome alike."""
    g = bg.disjoint_union(bg.complete_graph(6), bg.build_graph(1, [], 1), d=5)
    rep = bg.expanderize(bg.BoxSpace(graphs=[g], d=5),
                         bg.KunParams(c=4, d=5, alpha=0.2)).reports[0]
    assert rep.decomposition["pieces"][0] == [6]
    assert rep.certificate["evidence"][0]["value"] is None
    assert rep.piece_outcomes[0]["vertices"] == [6]
    assert rep.piece_outcomes[0]["cheeger_evidence"] == {
        "method": "exact", "value": None, "witness": []}


def test_rewire_degree_never_exceeds_bound():
    for n in (12, 16, 20):
        g = pendant_cycle(n)
        res = bg.rewire_piece(g, range(n), c_inner=4 / n, alpha=0.3)
        assert res.new_graph.max_degree() <= g.degree_bound


def test_rewire_small_verified_instances_meet_c_over_six():
    # detached pieces of assorted shapes: rewiring is the identity and the
    # exact Cheeger value must sit above C/6 by construction
    shapes = [
        bg.cycle_graph(12),
        bg.complete_graph(8),
        bg.margulis_graph(4),
        bg.octahedron(),
    ]
    for g in shapes:
        piece = tuple(range(g.n))
        c_inner, _ = bg.inner_expansion_exact(g, piece)
        res = bg.rewire_piece(g, piece, c_inner=c_inner, alpha=0.4)
        assert res.cheeger_evidence["value"] >= c_inner / 6 - 1e-12


def test_expanderize_disjoint_k6s_identity():
    g = bg.disjoint_union(bg.complete_graph(6), bg.complete_graph(6))
    box = bg.BoxSpace(graphs=[g], d=5)
    params = bg.KunParams(c=4, d=5, alpha=0.1)
    res = bg.expanderize(box, params)
    out = res.boxspace.graphs[0]
    assert sorted(out.edges()) == sorted(g.edges())
    rep = bg.approx_iso_check(box, res.boxspace, res.witness, tolerance=0.0)
    assert rep.verdict
    assert all(v == 1.0 for r in rep.ratios for v in r.values())


def count_calls(monkeypatch, module, name):
    """Wrap module.name so that each call is counted; returns the counts."""
    real = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_expanderize_scans_each_untouched_piece_once(monkeypatch):
    """Pieces the rewiring never touches keep the decomposition
    certificate's scan: it serves as their hypothesis check and as their
    Cheeger evidence, and no eigensolve is needed. The reference run gets
    its own equal graph, whose memo the counted run cannot read."""
    import boxgap.cheeger as cheeger_mod
    import boxgap.exhaustive as exhaustive_mod

    k6 = bg.complete_graph(6)
    g = bg.disjoint_union(bg.disjoint_union(k6, k6), bg.cycle_graph(8), d=5)
    box = bg.BoxSpace(graphs=[g], d=5)
    params = bg.KunParams(c=4, d=5, alpha=0.1)
    want = bg.expanderize(bg.BoxSpace(graphs=[fresh_copy(g)], d=5), params)
    scans = count_calls(monkeypatch, exhaustive_mod, "_Scan")
    solves = count_calls(monkeypatch, cheeger_mod, "_fiedler_order")
    res = bg.expanderize(box, params)
    rep = res.reports[0]
    assert rep.to_dict() == want.reports[0].to_dict()
    pieces = [list(range(6)), list(range(6, 12)), list(range(12, 20))]
    assert rep.decomposition["pieces"] == pieces
    assert [o["edits"] for o in rep.piece_outcomes] == [[], [], []]
    # One walk per region: the last piece's scan is the sparse-cut search
    # that found no cut in it.
    regions = [tuple(args[1]) for args in scans]
    assert len(regions) == len(set(regions)) and solves == []
    assert {tuple(p) for p in pieces} <= set(regions)
    assert [o["cheeger_evidence"] for o in rep.piece_outcomes] == [
        {"method": "exact", "value": 3.0, "witness": [0, 1, 2]},
        {"method": "exact", "value": 3.0, "witness": [0, 1, 2]},
        {"method": "exact", "value": 0.5, "witness": [0, 1, 2, 3]},
    ]


def test_expanderize_rescans_a_piece_whose_rows_changed(monkeypatch):
    """Rewiring piece 0 removes its one boundary edge, which ends in piece
    1, so piece 1's certificate scan is not handed over to the rewired
    graph: piece 1 is scanned again, and the report equals one made with no
    memo hand-over at all, on an equal graph of its own."""
    import boxgap.exhaustive as exhaustive_mod

    cycle = [(i, (i + 1) % 8) for i in range(8)]
    k4 = [(u, v) for u in range(8, 12) for v in range(u + 1, 12)]
    g = bg.build_graph(12, cycle + k4 + [(0, 8)], 4)
    box = bg.BoxSpace(graphs=[g], d=4)
    params = bg.KunParams(c=1, d=4, alpha=0.5)
    decomp = bg.Decomposition(junk=(), pieces=[tuple(range(8)),
                                               tuple(range(8, 12))], steps=[])

    def fixed_partition(g, params):
        return decomp, certify_partition(g, decomp, params)

    monkeypatch.setattr(rewire_mod, "kun_partition", fixed_partition)
    real_hand_over = bg.Graph.hand_over_memo
    monkeypatch.setattr(bg.Graph, "hand_over_memo", lambda *args: None)
    ref_box = bg.BoxSpace(graphs=[fresh_copy(g)], d=4)
    want = bg.expanderize(ref_box, params).reports[0].to_dict()
    monkeypatch.setattr(bg.Graph, "hand_over_memo", real_hand_over)
    scans = count_calls(monkeypatch, exhaustive_mod, "_Scan")
    got = bg.expanderize(box, params).reports[0].to_dict()
    assert got == want
    assert got["piece_outcomes"][0]["edit_units"] == 1
    # the certificate (2), piece 0 after its rewiring, piece 1 once
    assert len(scans) == 4
    assert got["piece_outcomes"][1]["cheeger_evidence"] == {
        "method": "exact", "value": 2.0, "witness": [0, 1]}


def test_expanderize_drops_small_components():
    g = bg.disjoint_union(bg.complete_graph(6), bg.complete_graph(3), d=5)
    box = bg.BoxSpace(graphs=[g], d=5)
    params = bg.KunParams(c=4, d=5, alpha=0.2)
    res = bg.expanderize(box, params, min_component=4)
    assert res.boxspace.sizes() == [6]
    assert res.reports[0].dropped_small_components == [[6, 7, 8]]
    rep = bg.approx_iso_check(box, res.boxspace, res.witness, tolerance=0.5)
    assert rep.ratios[0]["vertices_x"] == pytest.approx(6 / 9)
    assert rep.ratios[0]["vertices_x2"] == 1.0


def test_expanderize_output_without_loops_reads_back_equal(tmp_path):
    # The looped vertex beside Margulis 4 is a component of one vertex,
    # dropped with its loop, so the output graph has none and equals its
    # own files read back.
    m = bg.margulis_graph(4)
    g = bg.build_graph(17, np.concatenate((m.edge_array(), [[16, 16]])), 8,
                       allow_loops=True)
    res = bg.expanderize(bg.BoxSpace(graphs=[g], d=8),
                         bg.KunParams(c=4, d=8, alpha=0.9), min_component=2)
    assert res.reports[0].dropped_small_components == [[16]]
    out = res.boxspace.graphs[0]
    assert out.n == 16 and out.loops == ()
    manifest = bg.write_manifest(res.boxspace, tmp_path / "out")
    assert bg.read_manifest(manifest).graphs == [out]


def test_expanderize_propagates_a_value_error(monkeypatch):
    # kun_partition's pieces always meet rewire_piece's preconditions, so a
    # ValueError is a fault to report, not a piece to skip.
    def fail(*args):
        raise ValueError("rewire_piece fault")

    monkeypatch.setattr(rewire_mod, "rewire_piece", fail)
    g = bg.disjoint_union(bg.complete_graph(6), bg.complete_graph(3), d=5)
    with pytest.raises(ValueError, match="rewire_piece fault"):
        bg.expanderize(bg.BoxSpace(graphs=[g], d=5),
                       bg.KunParams(c=4, d=5, alpha=0.2))


def test_expanderize_junky_margulis_pair():
    m = bg.margulis_graph(6)
    pair = bg.glue_pair(m, m, 0, 0, d=8)
    g = bg.disjoint_union(pair, bg.cycle_graph(5), d=8)
    box = bg.BoxSpace(graphs=[g], d=8)
    params = bg.KunParams(c=0.2, d=8, alpha=0.3)
    res = bg.expanderize(box, params, min_component=6)
    assert res.boxspace.sizes() == [72]
    rep = bg.approx_iso_check(box, res.boxspace, res.witness, tolerance=0.1)
    assert rep.verdict
    for out in res.boxspace.graphs:
        assert bg.graph_spectrum(out).gap > 0


def test_expanderize_retention_recomputable_from_report():
    g = bg.disjoint_union(
        bg.glue_pair(bg.margulis_graph(5), bg.margulis_graph(5), 0, 0, d=8),
        bg.cycle_graph(4),
        d=8,
    )
    box = bg.BoxSpace(graphs=[g], d=8)
    params = bg.KunParams(c=0.2, d=8, alpha=0.3)
    res = bg.expanderize(box, params, min_component=5)
    rep = res.reports[0]
    junk = len(rep.decomposition["junk"])
    dropped = sum(len(c) for c in rep.dropped_small_components)
    skipped = sum(
        len(rep.decomposition["pieces"][s["piece"]]) for s in rep.skipped_pieces
    )
    removed = sum(len(o["removed_vertices"]) for o in rep.piece_outcomes)
    kept = len(res.witness.entries[0].vertices_x)
    assert kept == g.n - junk - dropped - skipped - removed


def test_expanderize_reports_are_serializable():
    import json

    g = bg.disjoint_union(bg.complete_graph(6), bg.complete_graph(3), d=5)
    box = bg.BoxSpace(graphs=[g], d=5)
    params = bg.KunParams(c=4, d=5, alpha=0.2)
    res = bg.expanderize(box, params)
    for rep in res.reports:
        json.dumps(rep.to_dict())
    json.dumps(res.witness.to_dict())
