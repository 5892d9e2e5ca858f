import math

import numpy as np
import pytest

import boxgap as bg
from boxgap.cheeger import second_eigenvalue
from boxgap.errors import DegreeBoundTooSmall
from boxgap.spectral import DENSE_LIMIT

from conftest import random_bounded_graph


def test_laplacian_closed_forms():
    evs = bg.graph_spectrum(bg.complete_graph(3)).eigenvalues
    assert np.allclose(evs, [0, 3, 3], atol=1e-9)
    evs = bg.graph_spectrum(bg.cycle_graph(4)).eigenvalues
    assert np.allclose(evs, [0, 2, 2, 4], atol=1e-9)
    evs = bg.graph_spectrum(bg.path_graph(2)).eigenvalues
    assert np.allclose(evs, [0, 2], atol=1e-9)


def test_laplacian_ignores_loops():
    g = bg.build_graph(3, [(0, 1), (1, 2), (0, 2), (0, 0)], 3, allow_loops=True)
    lap = bg.laplacian(g).dense()
    ref = bg.laplacian(bg.complete_graph(3)).dense()
    assert np.array_equal(lap, ref)


def test_laplacian_row_sums_and_psd(small_corpus):
    for g in small_corpus:
        lap = bg.laplacian(g)
        assert np.allclose(lap.dense().sum(axis=1), 0.0)
        evs = np.linalg.eigvalsh(lap.dense()) if g.n else []
        assert all(v >= -1e-9 for v in evs)


def test_markov_examples():
    evs = np.sort(np.linalg.eigvalsh(bg.markov(bg.complete_graph(3), 2).dense()))
    assert np.allclose(evs, [0.25, 0.25, 1.0], atol=1e-12)
    g = bg.cycle_graph(5)
    ones = np.ones(5)
    assert np.allclose(bg.markov(g).matrix @ ones, ones)
    edgeless = bg.build_graph(4, [], 3)
    assert np.array_equal(bg.markov(edgeless, 3).dense(), np.eye(4))
    with pytest.raises(DegreeBoundTooSmall):
        bg.markov(bg.complete_graph(4), d=2)


def test_spectrum_two_disjoint_edges():
    g = bg.disjoint_union(bg.path_graph(2), bg.path_graph(2))
    rep = bg.graph_spectrum(g, k=3)
    assert np.allclose(rep.eigenvalues, [0, 0, 2], atol=1e-9)
    assert rep.kernel_dim == 2
    assert abs(rep.gap - 2) < 1e-9


def test_spectrum_c8_gap():
    rep = bg.graph_spectrum(bg.cycle_graph(8))
    assert abs(rep.gap - (2 - math.sqrt(2))) < 1e-9


def test_spectrum_zero_operator():
    g = bg.build_graph(5, [], 2)
    rep = bg.spectrum(bg.laplacian(g))
    assert rep.kernel_dim == 5
    assert rep.gap == 0.0
    assert rep.eigenvalues == [0.0] * 5


def test_spectrum_k_validation():
    op = bg.laplacian(bg.cycle_graph(4))
    with pytest.raises(ValueError):
        bg.spectrum(op, k=5)


def test_dense_vs_iterative_agree():
    g = bg.margulis_graph(7)
    comps = len(bg.connected_components(g))
    dense = bg.spectrum(bg.laplacian(g), k=6, kernel_dim=comps, method="dense")
    it = bg.spectrum(bg.laplacian(g), k=6, tol=1e-10, kernel_dim=comps,
                     method="iterative")
    assert it.method == "iterative"
    assert np.allclose(dense.eigenvalues, it.eigenvalues, atol=1e-7)
    assert abs(dense.gap - it.gap) < 1e-7


def test_kernel_dim_matches_components():
    rng = np.random.default_rng(5)
    for _ in range(15):
        g = random_bounded_graph(rng, int(rng.integers(4, 40)), 4, fill=0.4)
        rep = bg.graph_spectrum(g)
        comps = len(bg.connected_components(g))
        evs = np.array(rep.eigenvalues)
        assert np.sum(np.abs(evs) <= 1e-9) == comps
        assert rep.kernel_dim == comps


def test_gap_of_union_is_min_of_component_gaps():
    g1 = bg.complete_graph(5)
    g2 = bg.cycle_graph(6)
    union = bg.disjoint_union(g1, g2)
    gap1 = bg.graph_spectrum(g1).gap
    gap2 = bg.graph_spectrum(g2).gap
    assert abs(bg.graph_spectrum(union).gap - min(gap1, gap2)) < 1e-9

    # Above DENSE_LIMIT the kernel of a union must keep its multiplicity.
    torus = bg.triangular_torus(24)
    union = bg.disjoint_union(torus, torus)
    assert union.n > DENSE_LIMIT
    rep = bg.graph_spectrum(union)
    assert abs(rep.gap - bg.graph_spectrum(torus).gap) < 1e-9
    assert rep.kernel_dim == 2
    assert sum(abs(v) < 1e-9 for v in rep.eigenvalues) == 2
    dt_rep = bg.delta_tau_spectrum(union)
    assert dt_rep.kernel_dim == 2
    assert abs(dt_rep.gap - bg.delta_tau_spectrum(torus).gap) < 1e-9
    assert second_eigenvalue(union) == 0.0
    assert bg.cheeger_sandwich_check(union)


def test_markov_is_contraction():
    rng = np.random.default_rng(17)
    for g in (bg.complete_graph(6), bg.cycle_graph(9), bg.margulis_graph(4)):
        m = bg.markov(g).matrix
        f = rng.standard_normal((g.n, 1000))
        assert np.all(
            np.linalg.norm(m @ f, axis=0) <= np.linalg.norm(f, axis=0) + 1e-9
        )


def test_expander_check_examples():
    box = bg.BoxSpace(
        graphs=[bg.complete_graph(4), bg.complete_graph(5), bg.complete_graph(6)],
        d=5,
    )
    rep = bg.expander_check(box, 3.0)
    assert rep.per_graph == [True, True, True]
    assert abs(rep.min_gap - 4.0) < 1e-9

    pair = bg.glue_pair(bg.complete_graph(4), bg.complete_graph(4), 0, 0, d=4)
    # independent dense oracle for the bridged pair's gap
    oracle = np.sort(np.linalg.eigvalsh(bg.laplacian(pair).dense()))[1]
    assert oracle < 1.0
    rep = bg.expander_check(bg.BoxSpace(graphs=[pair], d=4), 1.0)
    assert rep.per_graph == [False]
    assert abs(rep.min_gap - oracle) < 1e-9

    edgeless = bg.build_graph(6, [], 2)
    rep = bg.expander_check(bg.BoxSpace(graphs=[edgeless], d=2), 0.5)
    assert rep.per_graph == [False]


def test_power_iterate_examples():
    g = bg.cycle_graph(6)
    f = np.arange(6, dtype=float)
    assert np.array_equal(bg.power_iterate(g, f, 0), f)
    ones = np.ones(6)
    assert np.allclose(bg.power_iterate(g, ones, 7), ones)
    edge = bg.path_graph(2)
    assert np.allclose(bg.power_iterate(edge, [1, 0], 1, d=1), [0.5, 0.5])
    assert np.allclose(bg.power_iterate(edge, [1, 0], 1, d=2), [0.75, 0.25])


def test_power_iterate_indicator_stays_in_unit_interval():
    rng = np.random.default_rng(23)
    g = bg.margulis_graph(5)
    chi = np.zeros(g.n)
    chi[rng.choice(g.n, size=6, replace=False)] = 1.0
    for k in (1, 3, 10):
        f = bg.power_iterate(g, chi, k)
        assert f.min() >= -1e-12 and f.max() <= 1 + 1e-12


def test_markov_contraction_examples():
    g = bg.complete_graph(3)
    const = np.ones(3) * 0.4
    assert all(bg.markov_contraction_check(g, const, 20, 0.75, d=2))
    rng = np.random.default_rng(9)
    for _ in range(10):
        f = rng.standard_normal(3)
        assert all(bg.markov_contraction_check(g, f, 50, 0.75, d=2))


def test_markov_contraction_negative_control():
    # c_M above gap/(2d) on C_8 must produce failures for some k.
    g = bg.cycle_graph(8)
    gap = bg.graph_spectrum(g).gap
    too_big = gap / 4.0 + 0.06
    rng = np.random.default_rng(31)
    found_failure = False
    for _ in range(20):
        f = rng.standard_normal(8)
        if not all(bg.markov_contraction_check(g, f, 50, too_big)):
            found_failure = True
            break
    assert found_failure


def test_spectrum_report_json_roundtrip():
    rep = bg.graph_spectrum(bg.cycle_graph(5))
    d = rep.to_dict()
    assert set(d) == {"eigenvalues", "kernel_dim", "gap", "method", "tol"}
    assert d["method"] == "exact-dense"
