import inspect
import itertools

import numpy as np
import pytest

import boxgap as bg
import boxgap.zuk as zuk_mod
from boxgap.errors import DisconnectedLink, EdgeWithoutTriangle

from conftest import neighbour_rows, random_triangle_graph


def brute_triangles(g):
    """Independent oracle: count triangles by scanning vertex triples."""
    count = 0
    for a, b, c in itertools.combinations(range(g.n), 3):
        if g.has_edge(a, b) and g.has_edge(b, c) and g.has_edge(a, c):
            count += 1
    return count


def test_triangle_counts_k4():
    te, tv = bg.triangle_counts(bg.complete_graph(4))
    assert all(t == 2 for t in te.values())
    assert list(tv) == [6, 6, 6, 6]


def test_triangle_counts_c5():
    te, tv = bg.triangle_counts(bg.cycle_graph(5))
    assert all(t == 0 for t in te.values())
    assert not tv.any()


def test_triangle_counts_octahedron():
    te, tv = bg.triangle_counts(bg.octahedron())
    assert all(t == 2 for t in te.values())
    assert list(tv) == [8] * 6


def test_tau_sum_is_six_times_triangles():
    rng = np.random.default_rng(2)
    for _ in range(10):
        g = random_triangle_graph(rng, int(rng.integers(6, 16)), 6)
        _, tv = bg.triangle_counts(g)
        assert tv.sum() == 6 * brute_triangles(g)


def test_link_graph_k4():
    link = bg.link_graph(bg.complete_graph(4), 0)
    assert link.vertices == (1, 2, 3)
    assert link.connected
    assert np.allclose(link.nu, [1 / 3] * 3)


def test_link_graph_octahedron():
    link = bg.link_graph(bg.octahedron(), 0)
    assert len(link.vertices) == 4
    assert len(link.edges) == 4  # a 4-cycle
    assert link.connected
    assert np.allclose(link.nu, [0.25] * 4)


def test_link_graph_triangle_free():
    link = bg.link_graph(bg.cycle_graph(5), 0)
    assert len(link.vertices) == 2
    assert not link.connected


def brute_operators(g):
    """Independent oracle: Laplacian and Δτ from triplets, τ by set
    intersection of neighbourhoods (loops dropped)."""
    neigh = [set(a) - {u} for u, a in enumerate(neighbour_rows(g))]
    lap = np.zeros((g.n, g.n))
    dt = np.zeros((g.n, g.n))
    for u in range(g.n):
        for v in neigh[u]:
            tau = len(neigh[u] & neigh[v])
            lap[u, u] += 1
            lap[u, v] -= 1
            dt[u, u] += tau
            dt[u, v] -= tau
    return lap, dt


def test_link_degree_equals_tau(small_corpus):
    loops = bg.build_graph(5, [(0, 0), (0, 1), (2, 3), (3, 3)], 3, allow_loops=True)
    for g in [*small_corpus, loops]:
        te, _ = bg.triangle_counts(g)
        for x in range(g.n):
            link = bg.link_graph(g, x)
            for i, y in enumerate(link.vertices):
                key = (min(x, y), max(x, y))
                assert link.tau_edge[i] == te[key]
        lap, dt = brute_operators(g)
        assert np.array_equal(bg.laplacian(g).toarray(), lap)
        assert np.array_equal(bg.delta_tau(g).toarray(), dt)


def test_link_nu_is_probability():
    rng = np.random.default_rng(4)
    for _ in range(8):
        g = random_triangle_graph(rng, 12, 6)
        for x in range(g.n):
            link = bg.link_graph(g, x)
            if link.tau_total:
                assert link.nu.sum() == pytest.approx(1.0, abs=1e-12)


def test_link_lambda1_closed_forms():
    k4 = bg.complete_graph(4)
    assert bg.link_lambda1(bg.link_graph(k4, 0)) == pytest.approx(1.5, abs=1e-9)
    octa = bg.octahedron()
    assert bg.link_lambda1(bg.link_graph(octa, 0)) == pytest.approx(1.0, abs=1e-9)
    torus = bg.triangular_torus(4)
    assert bg.link_lambda1(bg.link_graph(torus, 0)) == pytest.approx(0.5, abs=1e-9)


def test_link_lambda1_relabeling_invariant():
    g = bg.octahedron()
    perm = [3, 5, 0, 2, 4, 1]
    edges = [(perm[u], perm[v]) for u, v in g.edges()]
    g2 = bg.build_graph(6, edges, g.degree_bound)
    vals1 = sorted(bg.link_lambda1(bg.link_graph(g, x)) for x in range(6))
    vals2 = sorted(bg.link_lambda1(bg.link_graph(g2, x)) for x in range(6))
    assert np.allclose(vals1, vals2, atol=1e-9)


def test_zuk_certificate_k5():
    cert = bg.zuk_certificate(bg.complete_graph(5))
    assert cert.min_lambda == pytest.approx(4 / 3, abs=1e-9)
    assert cert.c == pytest.approx(1.25, abs=1e-9)
    assert cert.valid
    assert cert.coverage == 1.0


def test_zuk_certificate_octahedron():
    cert = bg.zuk_certificate(bg.octahedron())
    assert cert.min_lambda == pytest.approx(1.0, abs=1e-9)
    assert cert.c == pytest.approx(1.0, abs=1e-9)
    assert cert.valid


def test_zuk_certificate_torus_borderline():
    cert = bg.zuk_certificate(bg.triangular_torus(4))
    assert cert.min_lambda == pytest.approx(0.5, abs=1e-9)
    assert not cert.valid  # strict inequality required


def relabelled(g, rng):
    """g with its vertices renamed by a random permutation."""
    perm = rng.permutation(g.n)
    return bg.build_graph(g.n, perm[g.edge_array()], g.degree_bound)


def test_whole_graph_certificate_under_relabelling():
    """Relabelling changes no verdict: every link of triangular_torus(12)
    is a 6-cycle, lambda_1 = 1/2 exactly, so the certificate is invalid;
    the octahedron's links are 4-cycles, lambda_1 = 1, valid with c = 1."""
    rng = np.random.default_rng(1)
    torus = bg.triangular_torus(12)
    for _ in range(40):
        cert = bg.zuk_certificate(relabelled(torus, rng))
        assert not cert.valid
        assert abs(cert.min_lambda - 0.5) <= 1e-9
        assert cert.coverage == 1.0 and cert.all_links_connected
    octa = bg.zuk_certificate(bg.octahedron())
    assert octa.valid and abs(octa.c - 1.0) <= 1e-12
    for _ in range(40):
        cert = bg.zuk_certificate(relabelled(bg.octahedron(), rng))
        assert cert.valid and abs(cert.c - octa.c) <= 1e-12


def test_zuk_certificate_disconnected_link():
    with pytest.raises(DisconnectedLink):
        bg.zuk_certificate(bg.cycle_graph(5))


def test_link_lambda1_empty_and_singleton_links():
    # One rule for links below two vertices, as in the certificate.
    isolated = bg.build_graph(3, [(1, 2)], 2)
    for x in (0, 1):  # an empty link, then a one-vertex link
        with pytest.raises(DisconnectedLink) as exc:
            bg.link_lambda1(bg.link_graph(isolated, x))
        assert exc.value.vertex == x
    with pytest.raises(DisconnectedLink) as exc:
        bg.zuk_certificate(isolated)
    assert exc.value.vertex == 0


def test_delta_tau_k4():
    dt = bg.delta_tau(bg.complete_graph(4))
    lap = bg.laplacian(bg.complete_graph(4))
    assert np.array_equal(dt.toarray(), 2 * lap.toarray())
    evs = bg.delta_tau_spectrum(bg.complete_graph(4)).eigenvalues
    assert np.allclose(evs, [0, 8, 8, 8], atol=1e-9)


def test_delta_tau_triangle_free_is_zero():
    dt = bg.delta_tau(bg.cycle_graph(6))
    assert not dt.toarray().any()


def test_delta_tau_octahedron_gap():
    rep = bg.delta_tau_spectrum(bg.octahedron())
    assert rep.gap == pytest.approx(8.0, abs=1e-9)


def test_sandwich_check_k4():
    g = bg.complete_graph(4)
    assert bg.sandwich_check(g, trials=50, seed=1)
    # tau is identically 2 there, so the middle form is exactly twice
    lap, dt = bg.laplacian(g), bg.delta_tau(g)
    rng = np.random.default_rng(0)
    xi = rng.standard_normal(4)
    assert xi @ (dt @ xi) == pytest.approx(2 * (xi @ (lap @ xi)))


def test_sandwich_check_constant_vector():
    g = bg.complete_graph(5)
    ones = np.ones(5)
    assert ones @ (bg.laplacian(g) @ ones) == pytest.approx(0.0, abs=1e-12)
    assert ones @ (bg.delta_tau(g) @ ones) == pytest.approx(0.0, abs=1e-12)


def test_sandwich_check_requires_triangles():
    with pytest.raises(EdgeWithoutTriangle):
        bg.sandwich_check(bg.cycle_graph(5))


def test_sandwich_quadratic_form_edge_sum_oracle():
    rng = np.random.default_rng(12)
    g = random_triangle_graph(rng, 14, 6)
    te, _ = bg.triangle_counts(g)
    xi = rng.standard_normal(g.n)
    direct = sum(t * (xi[u] - xi[v]) ** 2 for (u, v), t in te.items())
    assert xi @ (bg.delta_tau(g) @ xi) == pytest.approx(direct, rel=1e-12)


def test_verify_zuk_gap():
    res = bg.verify_zuk_gap(bg.complete_graph(5))
    assert res.applicable and res.passed
    assert res.gap == pytest.approx(15.0, abs=1e-9)
    res = bg.verify_zuk_gap(bg.octahedron())
    assert res.applicable and res.passed
    res = bg.verify_zuk_gap(bg.triangular_torus(4))
    assert not res.applicable and res.passed is None


def test_certified_graphs_meet_their_gap():
    for g in (bg.complete_graph(4), bg.complete_graph(7), bg.octahedron()):
        cert = bg.zuk_certificate(g)
        if cert.valid:
            rep = bg.delta_tau_spectrum(g)
            assert rep.gap >= cert.c - 1e-9


def reference_certificate(g):
    """Per-link oracle: each link built by walking the neighbour tuples and
    checked by a Python search, then one eigvalsh call per link; returns
    per_vertex_lambda1 or raises what the per-link search raises."""
    adj = neighbour_rows(g)
    nbrs = [tuple(v for v in adj[x] if v != x) for x in range(g.n)]
    mats = []
    for x in range(g.n):
        pos = {v: i for i, v in enumerate(nbrs[x])}
        a = np.zeros((len(pos), len(pos)))
        for y in nbrs[x]:
            for z in adj[y]:
                if z in pos and z != y:
                    a[pos[y], pos[z]] = 1.0
        seen, stack = {0}, [0]
        while stack and len(pos) > 1:
            for j in np.flatnonzero(a[stack.pop()]).tolist():
                if j not in seen:
                    seen.add(j)
                    stack.append(j)
        if len(pos) <= 1 or len(seen) < len(pos):
            raise DisconnectedLink(x)
        mats.append(a)
    lam = {}
    for x, a in enumerate(mats):
        dinv = 1.0 / np.sqrt(a.sum(axis=1))
        evs = np.linalg.eigvalsh(np.eye(len(a)) - (dinv[:, None] * a) * dinv[None, :])
        lam[x] = float(evs[1])
    return lam


def certificate_outcome(certify, g):
    try:
        got = certify(g)
    except DisconnectedLink as exc:
        return "DisconnectedLink", exc.vertex, exc.args
    return got.per_vertex_lambda1 if isinstance(got, bg.ZukCertificate) else got


def zuk_oracle_graphs(small_corpus):
    rng = np.random.default_rng(31)
    graphs = [*small_corpus, bg.octahedron(), bg.complete_graph(7)]
    graphs += [bg.triangular_torus(m) for m in range(4, 13)]
    for _ in range(12):
        graphs.append(random_triangle_graph(rng, int(rng.integers(6, 30)), 6))
    # Tori with one vertex or one edge removed: links of several sizes.
    for m in (5, 7):
        t = bg.triangular_torus(m)
        drop = int(rng.integers(1, t.n))
        graphs.append(bg.induced_subgraph(t, [v for v in range(t.n) if v != drop])[0])
        edges = list(t.edges())
        del edges[int(rng.integers(len(edges)))]
        graphs.append(bg.build_graph(t.n, edges, 6))
    # The first disconnected link lies past the first vertices.
    graphs.append(bg.disjoint_union(bg.triangular_torus(5), bg.cycle_graph(5)))
    graphs.append(bg.glue_pair(bg.octahedron(), bg.triangular_torus(5), 3, 7, d=7))
    return graphs


@pytest.mark.parametrize("chunk", [1, 5, None])
def test_certificate_matches_per_link_oracle(small_corpus, monkeypatch, chunk):
    """Byte-equal lambda_1 per vertex, and the same exception for the same
    vertex, over whole graphs and chunk sizes that split them (None keeps
    the module's chunk size)."""
    if chunk is not None:
        monkeypatch.setattr(zuk_mod, "LINK_CHUNK", chunk)
    outcomes = set()
    for g in zuk_oracle_graphs(small_corpus):
        want = certificate_outcome(reference_certificate, g)
        got = certificate_outcome(bg.zuk_certificate, g)
        assert got == want, g.n
        outcomes.add(type(got).__name__)
    assert outcomes == {"dict", "tuple"}


def test_connected_links_never_raise(small_corpus):
    """Connectivity is decided once, exactly: a graph whose links the BFS
    oracle finds connected gets a certificate, and no tolerance can reach
    the verdict (computed |lambda_0| reaches 1.1e-15 on these links, so a
    float kernel check at 100 tol would call some disconnected below
    tol = 1e-17)."""
    for fn in (bg.zuk_certificate, bg.link_lambda1):
        assert "tol" not in inspect.signature(fn).parameters
    certified = 0
    for g in zuk_oracle_graphs(small_corpus):
        try:
            want = reference_certificate(g)
        except DisconnectedLink:
            continue
        cert = bg.zuk_certificate(g)
        assert cert.all_links_connected and cert.per_vertex_lambda1 == want
        for x in range(g.n):
            assert bg.link_lambda1(bg.link_graph(g, x)) == want[x]
        certified += 1
    assert certified >= 20


def test_certificate_eigensolves_once_per_link_size_and_chunk(monkeypatch):
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        calls.append(a.shape)
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    cert = bg.zuk_certificate(bg.triangular_torus(24))
    assert calls == [(576, 6, 6)]
    assert cert.min_lambda == pytest.approx(0.5, abs=1e-9)


def test_link_graph_matches_certificate_kernel():
    g = bg.triangular_torus(6)
    cert = bg.zuk_certificate(g)
    for x in range(g.n):
        link = bg.link_graph(g, x)
        assert link.edges == tuple(sorted(link.edges))
        assert bg.link_lambda1(link) == cert.per_vertex_lambda1[x]
