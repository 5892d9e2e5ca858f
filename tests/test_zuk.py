import itertools

import numpy as np
import pytest

import boxgap as bg
from boxgap.errors import DisconnectedLink, EdgeWithoutTriangle

from conftest import random_triangle_graph


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
    assert link.mu(0) == 0.5


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
    neigh = [set(a) - {u} for u, a in enumerate(g.adjacency)]
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
        assert np.array_equal(bg.laplacian(g).dense(), lap)
        assert np.array_equal(bg.delta_tau(g).dense(), dt)


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


def test_zuk_certificate_disconnected_link():
    with pytest.raises(DisconnectedLink):
        bg.zuk_certificate(bg.cycle_graph(5))


def test_link_lambda1_empty_and_singleton_links():
    from boxgap.errors import EmptyLink

    isolated = bg.build_graph(3, [(1, 2)], 2)
    with pytest.raises(EmptyLink):
        bg.link_lambda1(bg.link_graph(isolated, 0))
    with pytest.raises(DisconnectedLink):
        bg.link_lambda1(bg.link_graph(isolated, 1))  # one-vertex link


def test_zuk_certificate_subset_must_still_cover_links():
    # links outside the subset are still part of the hypothesis
    g = bg.glue_pair(bg.complete_graph(4), bg.cycle_graph(5), 0, 0, d=4)
    with pytest.raises(DisconnectedLink):
        bg.zuk_certificate(g, subset=(1, 2, 3))


def test_delta_tau_k4():
    dt = bg.delta_tau(bg.complete_graph(4))
    lap = bg.laplacian(bg.complete_graph(4))
    assert np.array_equal(dt.dense(), 2 * lap.dense())
    evs = bg.delta_tau_spectrum(bg.complete_graph(4)).eigenvalues
    assert np.allclose(evs, [0, 8, 8, 8], atol=1e-9)


def test_delta_tau_triangle_free_is_zero():
    dt = bg.delta_tau(bg.cycle_graph(6))
    assert not dt.dense().any()


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
    assert dt.quadratic_form(xi) == pytest.approx(2 * lap.quadratic_form(xi))


def test_sandwich_check_constant_vector():
    g = bg.complete_graph(5)
    ones = np.ones(5)
    assert bg.laplacian(g).quadratic_form(ones) == pytest.approx(0.0, abs=1e-12)
    assert bg.delta_tau(g).quadratic_form(ones) == pytest.approx(0.0, abs=1e-12)


def test_sandwich_check_requires_triangles():
    with pytest.raises(EdgeWithoutTriangle):
        bg.sandwich_check(bg.cycle_graph(5))


def test_sandwich_quadratic_form_edge_sum_oracle():
    rng = np.random.default_rng(12)
    g = random_triangle_graph(rng, 14, 6)
    te, _ = bg.triangle_counts(g)
    xi = rng.standard_normal(g.n)
    direct = sum(t * (xi[u] - xi[v]) ** 2 for (u, v), t in te.items())
    assert bg.delta_tau(g).quadratic_form(xi) == pytest.approx(direct, rel=1e-12)


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
