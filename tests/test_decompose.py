
import math

import numpy as np
import pytest

import boxgap as bg
from boxgap import cheeger, decompose
from boxgap.cheeger import EXACT_CAP
from boxgap.decompose import markov_level_set
from boxgap.rewire import alpha_feasible

from conftest import bridged_k4_pair, fresh_copy, random_bounded_graph


def test_kun_params_values():
    p = bg.KunParams(c=6, d=5, alpha=0.1)
    assert p.c_m == pytest.approx(0.6)
    assert p.C == pytest.approx(0.6**2 / 72)
    assert (1 - p.c_m) ** p.K <= p.alpha**2 / (5184 * p.d**2)
    assert (1 - p.c_m) ** (p.K - 1) > p.alpha**2 / (5184 * p.d**2)
    assert p.good_threshold == pytest.approx(0.1**2 / 100)
    assert p.delta == pytest.approx(0.1**4 / (1e4 * 5 ** (3 * p.K + 1)), rel=1e-9)


def test_kun_params_validation():
    with pytest.raises(ValueError):
        bg.KunParams(c=0, d=4, alpha=0.2)
    with pytest.raises(ValueError):
        bg.KunParams(c=8, d=4, alpha=0.2)  # c must stay below 2d
    with pytest.raises(ValueError):
        bg.KunParams(c=1, d=4, alpha=1.2)


def test_kun_params_delta_underflows_quietly():
    p = bg.KunParams(c=0.05, d=8, alpha=0.3)
    assert p.K > 1000
    assert p.delta == 0.0


def test_kun_params_log10_delta():
    # The pipeline's constants: delta underflows, its log10 does not.
    p = bg.KunParams(c=0.2, d=8, alpha=0.3)
    assert p.K == 1203 and p.delta == 0.0
    assert math.isfinite(p.log10_delta)
    want = 4 * math.log10(0.3) - 4 - (3 * p.K + 1) * math.log10(8)
    assert p.log10_delta == pytest.approx(want, rel=1e-12)
    assert p.to_dict()["log10_delta"] == p.log10_delta
    q = bg.KunParams(c=12, d=8, alpha=0.9)
    assert q.delta == pytest.approx(6.62e-33, rel=1e-3)
    assert 10**q.log10_delta == pytest.approx(q.delta, rel=1e-12)


def test_kun_params_alpha_below_float_square():
    # alpha**2 underflows to 0.0 here, yet the expanderize gate lets this
    # alpha through; K comes from log(alpha), as log10_delta does.
    p = bg.KunParams(c=3.9, d=2, alpha=1e-170)
    assert alpha_feasible(p.alpha, p.C, p.d)
    log_target = 2 * math.log(1e-170) - math.log(5184 * 2**2)
    assert p.K * math.log(1 - p.c_m) <= log_target
    assert (p.K - 1) * math.log(1 - p.c_m) > log_target
    assert math.isfinite(p.log10_delta) and p.good_threshold == 0.0


def test_level_set_indicator():
    g = bg.cycle_graph(6)
    f = np.array([1.0, 1.0, 1.0, 0.0, 0.0, 0.0])
    cut = bg.level_set_cut(g, f, 1 / 3, 2 / 3)
    assert cut.vertices == (0, 1, 2)
    assert cut.empty_band  # indicator values never fall inside the band
    assert cut.boundary == 2


def test_level_set_empty_band_matches_vertex_loop():
    # Oracle: the super-level sets at the two band edges read vertex by
    # vertex; the cut is the one with the smaller (|∂U|, U empty, |U|), the
    # lower edge on a tie, as a tuple of Python ints.
    rng = np.random.default_rng(79)
    for _ in range(40):
        n = int(rng.integers(1, 40))
        g = random_bounded_graph(rng, n, 4)
        f = rng.integers(0, 2, n).astype(float)
        if rng.random() < 0.3:
            f[rng.random(n) < 0.3] = 0.9  # above the band, below 1
        cut = bg.level_set_cut(g, f, 1 / 3, 2 / 3)
        assert cut.empty_band
        sets = [tuple(v for v in range(n) if f[v] > t) for t in (1 / 3, 2 / 3)]
        want = min((bg.boundary_size(g, u), not u, len(u), i, u)
                   for i, u in enumerate(sets))[4]
        assert cut.vertices == want
        assert all(type(v) is int for v in cut.vertices)


def test_level_set_empty_band_tie_keeps_the_nonempty_set():
    # f = 2/3 everywhere: {f > 1/3} is the whole cycle and {f > 2/3} is
    # empty, both of boundary 0. The empty set wins only when strictly
    # better, as in the band (f = 0.5 gives the whole cycle too).
    g = bg.cycle_graph(6)
    cut = bg.level_set_cut(g, np.full(6, 2 / 3), 1 / 3, 2 / 3)
    assert cut.empty_band
    assert cut.vertices == tuple(range(6)) and cut.boundary == 0
    assert cut.vertices == bg.level_set_cut(g, np.full(6, 0.5), 1 / 3, 2 / 3).vertices
    # On a path the lower edge's set {0, 1} has boundary 1, so the empty
    # set above the upper edge is strictly better.
    path = bg.path_graph(4)
    cut = bg.level_set_cut(path, [2 / 3, 2 / 3, 0, 0], 1 / 3, 2 / 3)
    assert cut.vertices == () and cut.boundary == 0 and cut.empty_band


def test_level_set_constant():
    g = bg.cycle_graph(5)
    f = np.full(5, 0.5)
    cut = bg.level_set_cut(g, f, 1 / 3, 2 / 3)
    assert cut.vertices == (0, 1, 2, 3, 4)
    assert cut.boundary == 0
    assert cut.t < 0.5


def test_level_set_c8_smoothed_arc():
    # oracle: dense Markov power and exhaustive threshold scan
    g = bg.cycle_graph(8)
    chi = np.zeros(8)
    chi[:4] = 1.0
    m = np.eye(8) - bg.laplacian(g).toarray() / 4.0
    f = m @ (m @ chi)
    cut = bg.level_set_cut(g, f, 1 / 3, 2 / 3)
    assert cut.vertices == (0, 1, 2, 3)
    assert cut.boundary == 2
    assert cut.boundary**2 <= bg.coarea_bound(g, f, 1 / 3, 2 / 3, 2) + 1e-9


def test_level_set_matches_threshold_scan_oracle():
    rng = np.random.default_rng(77)
    for _ in range(60):
        n = int(rng.integers(3, 40))
        g = random_bounded_graph(rng, n, 5)
        f = rng.uniform(0, 1, n)
        cut = bg.level_set_cut(g, f, 1 / 3, 2 / 3)
        # the reported set really is the level set of the reported threshold
        assert cut.vertices == tuple(np.flatnonzero(f > cut.t))
        assert bg.boundary_size(g, cut.vertices) == cut.boundary
        # no sampled threshold beats the returned boundary on nonempty sets
        for t in np.linspace(1 / 3 + 1e-6, 2 / 3 - 1e-6, 201):
            u = tuple(np.flatnonzero(f > t))
            if u:
                assert bg.boundary_size(g, u) >= cut.boundary


def test_level_set_empty_when_every_cut_splits():
    # A triangle whose smoothed indicator converges to exactly 1/3 leaves
    # float dust straddling the band edge; every nonempty in-band level set
    # splits the triangle, and the only witness respecting the co-area
    # bound is the empty set reached above the maximum.
    g = bg.build_graph(5, [(0, 1), (0, 2), (1, 2)], 2)
    chi = np.zeros(5)
    chi[0] = 1.0
    f = bg.power_iterate(g, chi, 25, d=2)
    assert abs(f[:3] - 1 / 3).max() < 1e-9
    cut = bg.level_set_cut(g, f, 1 / 3, 2 / 3)
    assert cut.vertices == ()
    assert cut.boundary == 0
    assert cut.boundary**2 <= bg.coarea_bound(g, f, 1 / 3, 2 / 3, 2) + 1e-9


def test_level_set_coarea_adversarial_shapes():
    rng = np.random.default_rng(4242)
    for trial in range(600):
        n = int(rng.integers(2, 50))
        d = int(rng.integers(2, 7))
        g = random_bounded_graph(rng, n, d)
        kind = trial % 6
        if kind == 0:
            f = np.full(n, 0.5) + rng.normal(0, 1e-6, n)
        elif kind == 1:
            f = rng.uniform(0, 0.3, n)
        elif kind == 2:
            chi = np.zeros(n)
            chi[rng.choice(n, size=max(1, n // 4), replace=False)] = 1
            f = chi + rng.normal(0, 1e-3, n)
        elif kind == 3:
            f = np.where(rng.random(n) < 0.5, 1 / 3, 2 / 3)
        elif kind == 4:
            f = rng.uniform(0.33, 0.34, n)
        else:
            chi = np.zeros(n)
            chi[rng.choice(n, size=max(1, n // 3), replace=False)] = 1
            f = bg.power_iterate(g, chi, int(rng.integers(0, 30)), d)
        cut = bg.level_set_cut(g, f, 1 / 3, 2 / 3)
        assert cut.boundary**2 <= bg.coarea_bound(g, f, 1 / 3, 2 / 3, d) + 1e-9
        assert cut.vertices == tuple(np.flatnonzero(f > cut.t))


def test_level_set_coarea_property():
    rng = np.random.default_rng(123)
    for _ in range(200):
        n = int(rng.integers(2, 101))
        d = int(rng.integers(2, 7))
        g = random_bounded_graph(rng, n, d)
        f = rng.uniform(0, 1, n)
        cut = bg.level_set_cut(g, f, 1 / 3, 2 / 3)
        assert cut.boundary**2 <= bg.coarea_bound(g, f, 1 / 3, 2 / 3, d) + 1e-9


def test_level_set_band_validation():
    g = bg.cycle_graph(4)
    with pytest.raises(ValueError):
        bg.level_set_cut(g, np.zeros(4), 0.5, 0.4)


def test_replace_whole_component_is_fixed():
    two = bg.disjoint_union(bg.complete_graph(6), bg.complete_graph(6))
    p = bg.KunParams(c=4, d=5, alpha=0.1)
    out = bg.replace_step(two, tuple(range(6)), p)
    assert out.good and out.sym_diff_ok and out.boundary_ok
    assert out.cut.vertices == out.t_set == tuple(range(6))
    assert out.sym_diff == 0 and out.cut.boundary == 0
    record = out.to_dict()
    assert record["U"] == record["T"] == list(range(6))
    assert record["sym_diff"] == record["boundary_U"] == 0
    assert record["sym_diff_ok"] and record["boundary_ok"]


def test_replace_single_vertex_not_applicable():
    k8 = bg.complete_graph(8)
    p = bg.KunParams(c=7.9, d=7, alpha=0.2)
    with pytest.raises(ValueError):
        bg.replace_step(k8, (0,), p)
    with pytest.raises(ValueError):
        bg.replace_step(k8, (), p)


def test_replace_bridged_k4_side():
    # C = c_M^2/72 never exceeds 1/72, so a bridged K_4 side (boundary 1)
    # fails the sparse-cut precondition outright.
    pair = bridged_k4_pair()
    gap = bg.graph_spectrum(pair).gap
    p = bg.KunParams(c=gap, d=4, alpha=0.3)
    side = (0, 1, 2, 3)
    with pytest.raises(ValueError):
        bg.replace_step(pair, side, p)
    # With the calibrated K the smoothing flattens out on the connected
    # pair and the boundary-minimizing level set is the whole graph.
    flat = markov_level_set(pair, side, p.K, p.d)
    assert flat.vertices == tuple(range(8))
    assert flat.boundary == 0
    # Two smoothing steps keep the side's values clear of the band and the
    # level set recovers it exactly: one bridge edge of boundary, which an
    # alpha above 1/4 would accept.
    cut = markov_level_set(pair, side, 2, p.d)
    assert cut.vertices == side
    assert cut.boundary == 1
    assert cut.boundary < 0.26 * len(side)


def test_replace_outcome_within_ball():
    # U inside ball(T, K) is not measured by replace_step: M^K chi_T is 0.0
    # outside the ball and every level set sits above the band's lower edge.
    # Checked on any T and K, with degree bounds whose 2d is not a power of
    # two, and on replace_step itself for unions of components.
    rng = np.random.default_rng(89)
    escaped = 0
    for _ in range(300):
        n = int(rng.integers(2, 30))
        g = random_bounded_graph(rng, n, int(rng.integers(1, 6)))
        d = max(1, g.max_degree()) + int(rng.integers(0, 3))
        k = int(rng.integers(1, 7))
        t = [int(v) for v in rng.choice(n, size=int(rng.integers(1, n + 1)),
                                        replace=False)]
        u = set(markov_level_set(g, t, k, d).vertices)
        assert u <= set(bg.ball_of_set(g, t, k))
        escaped += not u <= set(t)
        comps = g.components
        if len(comps) > 1:
            t = [v for c in comps[: len(comps) // 2] for v in c]
            p = bg.KunParams(c=2 * d * rng.uniform(0.05, 0.95), d=d, alpha=0.5)
            out = bg.replace_step(g, t, p)
            assert set(out.cut.vertices) <= set(bg.ball_of_set(g, t, p.K))
    assert escaped > 20  # U often leaves T, so the ball is what holds it


def test_find_sparse_cut_k6_none():
    assert bg.find_sparse_cut(bg.complete_graph(6), 0.005) is None


def test_find_sparse_cut_bridged_pair():
    assert bg.find_sparse_cut(bridged_k4_pair(), 0.5) == (0, 1, 2, 3)


def test_find_sparse_cut_disjoint_triangles(monkeypatch):
    two = bg.disjoint_union(bg.complete_graph(3), bg.complete_graph(3))
    assert bg.find_sparse_cut(two, 0.5) == (0, 1, 2)
    # the sweep path finds a zero-boundary component as well
    monkeypatch.setattr(cheeger, "EXACT_CAP", 1)
    assert bg.find_sparse_cut(two, 0.5) == (0, 1, 2)


def test_find_sparse_cut_minimality():
    # a pendant vertex gives a size-1 cut that must beat larger candidates
    g = bg.build_graph(8, [(i, j) for i in range(6) for j in range(i + 1, 6)]
                       + [(5, 6), (6, 7)], 7)
    assert bg.find_sparse_cut(g, 1.5) == (7,)


def test_find_sparse_cut_region_restriction():
    pair = bridged_k4_pair()
    t = bg.find_sparse_cut(pair, 0.5, region=(4, 5, 6, 7))
    assert t == (4, 5, 6, 7) or t is None  # whole region is not proper
    assert bg.find_sparse_cut(pair, 0.5, region=(0, 1, 2, 3, 4, 5)) is not None


def test_kun_partition_k6():
    p = bg.KunParams(c=6, d=5, alpha=0.1)
    decomp, cert = bg.kun_partition(bg.complete_graph(6), p)
    assert decomp.junk == ()
    assert decomp.pieces == [(0, 1, 2, 3, 4, 5)]
    assert cert.passed
    assert cert.junk_ratio == 0.0


def test_kun_partition_two_k6():
    p = bg.KunParams(c=4, d=5, alpha=0.1)
    two = bg.disjoint_union(bg.complete_graph(6), bg.complete_graph(6))
    decomp, cert = bg.kun_partition(two, p)
    assert decomp.junk == ()
    assert decomp.pieces == [(0, 1, 2, 3, 4, 5), (6, 7, 8, 9, 10, 11)]
    assert cert.boundary_ratios == [0.0, 0.0]
    assert cert.passed


def test_kun_partition_bridged_pair_stays_whole():
    # With the honest constant C <= 1/72 the bridge is never a sparse cut,
    # so the connected pair survives as a single certified piece.
    pair = bridged_k4_pair()
    p = bg.KunParams(c=1.0, d=4, alpha=0.3)
    decomp, cert = bg.kun_partition(pair, p)
    assert decomp.junk == ()
    assert decomp.pieces == [tuple(range(8))]
    assert cert.passed


def test_kun_partition_is_a_partition(small_corpus):
    p = bg.KunParams(c=0.5, d=8, alpha=0.25)
    for g in small_corpus:
        if g.n == 0 or g.max_degree() > 8:
            continue
        decomp, _ = bg.kun_partition(g, p)
        all_vertices = sorted(decomp.junk + tuple(v for q in decomp.pieces for v in q))
        assert all_vertices == list(range(g.n))


def test_kun_partition_steps_are_replace_steps(small_corpus):
    # Every good or bad step record is replace_step's record of its T plus
    # the step's own keys. The corpus's sparse cuts are whole components,
    # so all good; a long path's 76-vertex prefix is a bad cut.
    p = bg.KunParams(c=0.5, d=8, alpha=0.25)
    cases = [(g, p) for g in small_corpus if g.n and g.max_degree() <= 8]
    cases.append((bg.path_graph(200), bg.KunParams(c=3.9, d=2, alpha=0.5)))
    kinds = []
    for g, params in cases:
        decomp, _ = bg.kun_partition(g, params)
        for step in decomp.steps:
            if step["type"] == "good":
                own = {"type": "good", "piece": step["piece"]}
            elif step["type"] == "bad":
                own = {"type": "bad", "absorbed": step["absorbed"]}
            else:
                continue
            kinds.append(step["type"])
            want = bg.replace_step(g, step["T"], params).to_dict()
            assert step == {**own, **want}
    assert kinds.count("good") >= 10 and kinds.count("bad") == 2


def test_kun_partition_deterministic():
    g = bg.disjoint_union(bg.margulis_graph(3), bg.cycle_graph(7), d=8)
    p = bg.KunParams(c=0.8, d=8, alpha=0.2)
    d1, c1 = bg.kun_partition(g, p)
    d2, c2 = bg.kun_partition(g, p)
    assert d1.pieces == d2.pieces and d1.junk == d2.junk
    assert c1.to_dict() == c2.to_dict()


def test_kun_partition_demotes_a_piece_with_too_much_boundary():
    # Margulis 20 with a path 0 - 400 - 401 hung off it: the Margulis side
    # is a good cut, the final piece {400, 401} has boundary 1 >= 0.5 * 2
    # and is demoted to junk.
    m = bg.margulis_graph(20)
    path = [[0, 400], [400, 401]]
    g = bg.build_graph(402, np.concatenate((m.edge_array(), path)), 9)
    decomp, cert = bg.kun_partition(g, bg.KunParams(c=12, d=9, alpha=0.5))
    assert [s["type"] for s in decomp.steps] == ["good", "final", "demoted"]
    assert decomp.steps[-1]["piece"] == [400, 401]
    assert decomp.pieces == [tuple(range(400))]
    assert decomp.junk == (400, 401)
    assert cert.passed


def test_certificate_fails_on_a_disconnected_piece():
    # Two triangles taken as one piece: one triangle has no boundary, so the
    # exact evidence is 0 and the certificate fails conclusively.
    tri = bg.build_graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)], 2)
    decomp = decompose.Decomposition(junk=(), pieces=[tuple(range(6))], steps=[])
    cert = decompose.certify_partition(tri, decomp,
                                       bg.KunParams(c=1, d=2, alpha=0.9))
    ev = cert.evidence[0]
    assert (ev["method"], ev["value"]) == ("exact", 0.0)
    assert ev["conclusive"] and not ev["meets_C"]
    assert not cert.passed and cert.inconclusive == []


def test_certificate_inner_expansion_exact_scan():
    p = bg.KunParams(c=4, d=5, alpha=0.1)
    two = bg.disjoint_union(bg.complete_graph(6), bg.complete_graph(6))
    _, cert = bg.kun_partition(two, p)
    for ev in cert.evidence:
        assert ev["method"] == "exact"
        assert ev["conclusive"]
        assert ev["value"] >= p.C
        assert ev["meets_C"]


def test_certificate_spectral_path_for_large_pieces():
    m = bg.margulis_graph(6)  # 36 vertices, one connected piece
    p = bg.KunParams(c=0.2, d=8, alpha=0.3)
    decomp, cert = bg.kun_partition(m, p)
    assert decomp.pieces == [tuple(range(36))]
    assert cert.evidence[0]["method"] == "spectral"
    assert cert.evidence[0]["value"] > 0
    assert cert.passed


def test_density_diagnostic_recorded():
    p = bg.KunParams(c=4, d=5, alpha=0.1)
    two = bg.disjoint_union(bg.complete_graph(6), bg.complete_graph(6))
    decomp, _ = bg.kun_partition(two, p)
    good_steps = [s for s in decomp.steps if s["type"] == "good"]
    assert good_steps and all("density_T" in s and "delta" in s for s in good_steps)


def test_kun_partition_solves_each_live_component_once(monkeypatch):
    # A bridged Margulis pair beside a cycle and a path: the pair stays
    # untouched while the cycle and the path are cut off, and is then split.
    m = bg.margulis_graph(12)
    pair = bg.glue_pair(m, m, 0, 0, d=8)
    g = bg.disjoint_union(
        bg.disjoint_union(pair, bg.cycle_graph(8), d=8), bg.path_graph(30), d=8
    )
    params = bg.KunParams(c=12, d=8, alpha=0.9)
    real_cut, real_order = decompose.find_sparse_cut, cheeger._fiedler_order

    # Reference: the same loop with every find_sparse_cut call made on a
    # fresh equal graph, recording the components each sweep search solves.
    swept = []

    def unmemoized(g, c, region=None):
        region = sorted(region)
        if len(region) > EXACT_CAP:
            sub, idx = bg.induced_subgraph(g, region)
            swept.extend(tuple(idx[v] for v in comp) for comp in sub.components)
        return real_cut(fresh_copy(g), c, region)

    monkeypatch.setattr(decompose, "find_sparse_cut", unmemoized)
    ref_decomp, ref_cert = bg.kun_partition(fresh_copy(g), params)
    monkeypatch.setattr(decompose, "find_sparse_cut", real_cut)
    assert len(set(swept)) < len(swept)  # some component is searched again

    solved = []

    def counting(sub, *args, **kwargs):
        solved.append(sub.n)
        return real_order(sub, *args, **kwargs)

    monkeypatch.setattr(cheeger, "_fiedler_order", counting)
    decomp, cert = bg.kun_partition(g, params)
    # One solve per vertex set: each searched component, and each spectral
    # piece of the certificate that no search met as a component.
    big = {p for p in decomp.pieces if len(p) > EXACT_CAP}
    assert big - set(swept) and big & set(swept)
    assert len(solved) == len(set(swept) | big)
    assert decomp.to_dict() == ref_decomp.to_dict()
    assert cert.to_dict() == ref_cert.to_dict()


def test_kun_partition_one_eigen_solve_per_component(monkeypatch):
    # The pipeline's shape: a bridged Margulis 16 pair, a cycle above the
    # exact cap, a random junk graph with an isolated vertex and a Margulis
    # 24 graph above DENSE_LIMIT. The cycle and the pair leave the live
    # region as good pieces long before the certificate is made.
    # Every eigen solve inside kun_partition is the one Fiedler solve of a
    # component; the certificate reads each solved piece's lambda_2 instead
    # of solving again, and equals one measured without the memos.
    import scipy.linalg
    import scipy.sparse.linalg

    from boxgap.spectral import DENSE_LIMIT

    m = bg.margulis_graph(16)
    parts = [bg.glue_pair(m, m, 0, 0, d=8), bg.cycle_graph(40),
             random_bounded_graph(np.random.default_rng(1), 20, 4, fill=0.8),
             bg.margulis_graph(24)]
    g = parts[0]
    for part in parts[1:]:
        g = bg.disjoint_union(g, part, d=8)
    params = bg.KunParams(c=0.2, d=8, alpha=0.3)
    calls = []

    def counting(name, real):
        def solve(a, *args, **kwargs):
            calls.append((name, a.shape[0]))
            return real(a, *args, **kwargs)
        return solve

    for mod, fn in [(np.linalg, "eigh"), (np.linalg, "eigvalsh"),
                    (scipy.linalg, "eigh"), (scipy.sparse.linalg, "eigsh")]:
        name = f"{mod.__name__}.{fn}"
        monkeypatch.setattr(mod, fn, counting(name, getattr(mod, fn)))
    decomp, cert = bg.kun_partition(g, params)
    monkeypatch.undo()

    solved = sorted(len(c) for c in g.components if len(c) > 1)
    assert solved == [19, 40, 512, 576]
    assert sorted(n for _, n in calls) == solved
    assert all(name == ("scipy.sparse.linalg.eigsh" if n > DENSE_LIMIT
                        else "scipy.linalg.eigh") for name, n in calls)
    big = [i for i, p in enumerate(decomp.pieces) if len(p) > EXACT_CAP]
    assert sorted(len(decomp.pieces[i]) for i in big) == [40, 512, 576]
    assert all(cert.evidence[i]["method"] == "spectral" for i in big)
    assert [step["type"] for step in decomp.steps] == ["good"] * 4 + ["final"]
    ref = decompose.certify_partition(fresh_copy(g), decomp, params)
    assert cert.to_dict() == ref.to_dict()


def test_kun_partition_scans_each_exact_region_once(monkeypatch):
    # Graphs around the exact cap: every region kun_partition scans, live
    # region or piece, is walked once. A final piece of at most EXACT_CAP
    # vertices takes its evidence from the sparse-cut walk that found no cut
    # in it, and the certificate equals one made on a fresh equal graph.
    # Each run gets its own fresh graph, as a second run on one graph would
    # find every answer in its memo.
    from boxgap import exhaustive

    rng = np.random.default_rng(83)
    graphs = [bg.cycle_graph(24), bg.path_graph(22), bg.margulis_graph(4),
              bridged_k4_pair()]
    graphs += [random_bounded_graph(rng, n, 4, fill=0.8) for n in (18, 23, 26)]
    graphs.append(bg.disjoint_union(
        bg.disjoint_union(bg.cycle_graph(12), bg.complete_graph(5), d=4),
        random_bounded_graph(rng, 14, 4, fill=0.8), d=4))
    real_scan = exhaustive._Scan
    memo_hits = 0
    for g in graphs:
        for c in (0.2, 1.5):
            params = bg.KunParams(c=c, d=g.degree_bound, alpha=0.9)
            scanned = []

            def counting(graph, region):
                scanned.append(tuple(region))
                return real_scan(graph, region)

            monkeypatch.setattr(exhaustive, "_Scan", counting)
            decomp, cert = bg.kun_partition(fresh_copy(g), params)
            monkeypatch.setattr(exhaustive, "_Scan", real_scan)
            exact = {p for p in decomp.pieces if 2 <= len(p) <= EXACT_CAP}
            assert len(scanned) == len(set(scanned))
            assert exact <= set(scanned)
            ref = decompose.certify_partition(fresh_copy(g), decomp, params)
            assert cert.to_dict() == ref.to_dict()
            final = [s for s in decomp.steps if s["type"] == "final"]
            memo_hits += any(2 <= s["size"] <= EXACT_CAP for s in final)
    assert memo_hits >= 8


def test_memo_answers_only_for_its_own_graph():
    # A cycle and a path on the same 30 vertices share every vertex tuple a
    # search or a certificate asks about, but not one answer: once one of
    # them has been solved and certified, the other still answers as a
    # fresh copy of itself does. Filling a memo leaves equality and hashing
    # as they were.
    params = bg.KunParams(c=1, d=2, alpha=0.9)

    def answers(g):
        decomp, cert = bg.kun_partition(g, params)
        return [bg.find_sparse_cut(g, 0.5), bg.find_sparse_cut(g, 0.5, range(20)),
                bg.find_sparse_cut(g, 0.05, range(20)),
                bg.piece_evidence(g, range(30)), bg.piece_evidence(g, range(20)),
                decomp.to_dict(), cert.to_dict()]

    cycle, path = bg.cycle_graph(30), bg.path_graph(30)
    for first, second in ((cycle, path), (path, bg.cycle_graph(30))):
        want = answers(fresh_copy(second))
        answers(first)
        assert answers(second) == want
    assert answers(cycle) != answers(path)

    twin = fresh_copy(cycle)
    before = hash(twin)
    assert cycle.memo and not twin.memo
    assert cycle == twin and hash(cycle) == hash(twin) == before
    answers(twin)
    assert cycle == twin and hash(twin) == before
