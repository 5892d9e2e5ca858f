import itertools
import math

import pytest

import boxgap as bg
import boxgap.cheeger as cheeger_mod
from boxgap.errors import TooLargeForExact, VertexOutOfRange

from conftest import bridged_k4_pair


def brute_cheeger(g):
    """Independent oracle: plain itertools scan over all small subsets."""
    best = math.inf
    for size in range(1, g.n // 2 + 1):
        for s in itertools.combinations(range(g.n), size):
            best = min(best, bg.boundary_size(g, s) / size)
    return best


def test_exact_c4():
    rep = bg.cheeger_exact(bg.cycle_graph(4))
    assert rep.h == 1.0
    assert rep.witness == (0, 1)
    assert rep.method == "exact"


def test_exact_k4():
    rep = bg.cheeger_exact(bg.complete_graph(4))
    assert rep.h == 2.0
    assert rep.witness == (0, 1)


def test_exact_c8():
    rep = bg.cheeger_exact(bg.cycle_graph(8))
    assert rep.h == 0.5


def test_exact_disconnected():
    two = bg.disjoint_union(bg.complete_graph(3), bg.complete_graph(3))
    rep = bg.cheeger_exact(two)
    assert rep.h == 0.0
    assert rep.witness == (0, 1, 2)


DEGENERATE = {
    "empty": (lambda: bg.build_graph(0, [], 2), ()),
    "one-vertex": (lambda: bg.build_graph(1, [], 2), ()),
    "two-isolated": (lambda: bg.build_graph(2, [], 2), (0,)),
    "two-triangles": (lambda: bg.disjoint_union(bg.complete_graph(3),
                                                bg.complete_graph(3)), (0, 1, 2)),
    # 72 vertices: above EXACT_CAP, so only the degenerate rule keeps it exact.
    "margulis-pair": (lambda: bg.disjoint_union(bg.margulis_graph(6),
                                                bg.margulis_graph(6)),
                      tuple(range(36))),
}


@pytest.mark.parametrize("name", DEGENERATE)
def test_degenerate_graphs_get_one_zero_report(monkeypatch, name):
    """Below two vertices or above one component: h = 0, lambda_2 = 0, the
    smallest component (none below two vertices) as witness and both bounds
    0, from every entry point, without an eigensolve."""
    build, witness = DEGENERATE[name]
    g = build()
    monkeypatch.setattr(cheeger_mod, "eigenpairs", None)
    assert cheeger_mod.second_eigenvalue(g) == 0.0
    for report, method in ((bg.cheeger_exact, "exact"),
                           (bg.cheeger_sweep, "sweep"),
                           (cheeger_mod.cheeger_report, "exact")):
        rep = report(g)
        assert rep == bg.CheegerReport(0.0, witness, method, 0.0, 0.0)


def test_exact_matches_brute_oracle(small_corpus):
    for g in small_corpus:
        if g.n < 2:
            continue
        rep = bg.cheeger_exact(g)
        assert rep.h == pytest.approx(brute_cheeger(g), abs=0)


def test_exact_witness_reproduces_h(small_corpus):
    for g in small_corpus:
        if g.n < 2:
            continue
        rep = bg.cheeger_exact(g)
        if rep.witness:
            assert bg.boundary_size(g, rep.witness) / len(rep.witness) == rep.h


def test_exact_cap(monkeypatch):
    g = bg.cycle_graph(25)

    def no_eigensolve(graph):
        raise AssertionError("eigensolve before the cap check")

    # A connected graph over the cap is refused before any eigensolve.
    with monkeypatch.context() as patch:
        patch.setattr(cheeger_mod, "second_eigenvalue", no_eigensolve)
        for big in (g, bg.margulis_graph(64)):
            with pytest.raises(TooLargeForExact):
                bg.cheeger_exact(big)
    monkeypatch.setattr(cheeger_mod, "EXACT_CAP", 25)
    rep = bg.cheeger_exact(g)
    assert rep.h == pytest.approx(2 / 12, abs=0)


def test_sweep_c4_equals_exact():
    rep = bg.cheeger_sweep(bg.cycle_graph(4))
    assert rep.h == 1.0
    assert rep.method == "sweep"


def test_sweep_k4():
    assert bg.cheeger_sweep(bg.complete_graph(4)).h == 2.0


def test_sweep_bridged_pair():
    rep = bg.cheeger_sweep(bridged_k4_pair())
    assert rep.h == pytest.approx(0.25, abs=0)
    assert len(rep.witness) == 4


def test_sweep_upper_bounds_exact(small_corpus):
    for g in small_corpus:
        if g.n < 2:
            continue
        assert bg.cheeger_sweep(g).h >= bg.cheeger_exact(g).h - 1e-12


def test_sandwich_examples():
    assert bg.cheeger_sandwich_check(bg.complete_graph(4))
    assert bg.cheeger_sandwich_check(bg.cycle_graph(8))
    assert bg.cheeger_sandwich_check(bg.build_graph(4, [], 2))


def test_sandwich_values_k4():
    rep = bg.cheeger_exact(bg.complete_graph(4))
    assert rep.lower_bound == pytest.approx(2.0, abs=1e-9)
    assert rep.upper_bound == pytest.approx(math.sqrt(24), abs=1e-9)


def test_sandwich_values_c8():
    rep = bg.cheeger_exact(bg.cycle_graph(8))
    gap = 2 - math.sqrt(2)
    assert rep.lower_bound == pytest.approx(gap / 2, abs=1e-9)
    assert rep.h == 0.5
    assert rep.upper_bound == pytest.approx(math.sqrt(4 * gap), abs=1e-9)


def test_sandwich_holds_on_corpus(small_corpus):
    for g in small_corpus:
        assert bg.cheeger_sandwich_check(g, tol=1e-9)


def test_sandwich_on_large_connected():
    assert bg.cheeger_sandwich_check(bg.margulis_graph(8), tol=1e-9)


def test_sweep_uses_iterative_fiedler_above_dense_limit():
    g = bg.margulis_graph(23)  # 529 vertices, above the dense crossover
    rep = bg.cheeger_sweep(g)
    assert rep.method == "sweep"
    assert 0 < rep.h <= rep.upper_bound + 1e-9
    assert bg.boundary_size(g, rep.witness) / len(rep.witness) == rep.h


def test_iterative_reports_do_not_depend_on_call_order():
    g = bg.triangular_torus(40)  # 1600 vertices, lambda_2 repeated
    first = (bg.graph_spectrum(g), bg.cheeger_sweep(g))
    bg.graph_spectrum(bg.margulis_graph(24))
    assert (bg.graph_spectrum(g), bg.cheeger_sweep(g)) == first


def test_inner_expansion_ambient():
    # C_20 living inside a graph with a pendant vertex: arcs through the
    # attachment pay for the extra edge, arcs avoiding it do not.
    edges = [(i, (i + 1) % 20) for i in range(20)] + [(0, 20)]
    g = bg.build_graph(21, edges, 3)
    val, wit = bg.inner_expansion_exact(g, range(20))
    assert val == pytest.approx(0.2, abs=0)
    assert 0 not in wit and len(wit) == 10


def test_pieces_count_repeated_vertices_once():
    g = bg.path_graph(4)
    assert bg.inner_expansion_exact(g, (1, 1, 2, 2)) == (2.0, (1,))
    assert bg.piece_evidence(g, (2, 1, 2, 1)) == bg.piece_evidence(g, (1, 2))
    # The cap is on distinct vertices: 40 entries, 20 vertices, exact.
    ev = bg.piece_evidence(bg.cycle_graph(30), list(range(20)) * 2)
    assert ev == bg.Evidence("exact", 0.2, tuple(range(10)))
    for piece in ((1, 4), (-1, 2)):
        with pytest.raises(VertexOutOfRange):
            bg.inner_expansion_exact(g, piece)
        with pytest.raises(VertexOutOfRange):
            bg.piece_evidence(g, piece)
