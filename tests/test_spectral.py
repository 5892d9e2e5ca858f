import math

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

import boxgap as bg
from boxgap import spectral
from boxgap.cheeger import _fiedler_order, second_eigenvalue
from boxgap.errors import DegreeBoundTooSmall
from boxgap.spectral import (
    DENSE_LIMIT,
    eigenpairs,
    iterative_eigenpairs,
)

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
    lap = bg.laplacian(g).toarray()
    ref = bg.laplacian(bg.complete_graph(3)).toarray()
    assert np.array_equal(lap, ref)


def test_laplacian_row_sums_and_psd(small_corpus):
    for g in small_corpus:
        lap = bg.laplacian(g)
        assert np.allclose(lap.toarray().sum(axis=1), 0.0)
        evs = np.linalg.eigvalsh(lap.toarray()) if g.n else []
        assert all(v >= -1e-9 for v in evs)


def test_markov_examples():
    evs = np.sort(np.linalg.eigvalsh(bg.markov(bg.complete_graph(3), 2).toarray()))
    assert np.allclose(evs, [0.25, 0.25, 1.0], atol=1e-12)
    g = bg.cycle_graph(5)
    ones = np.ones(5)
    assert np.allclose(bg.markov(g) @ ones, ones)
    edgeless = bg.build_graph(4, [], 3)
    assert np.array_equal(bg.markov(edgeless, 3).toarray(), np.eye(4))
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
    rep = bg.spectrum(g, bg.laplacian(g), kernel_dim=5)
    assert rep.kernel_dim == 5
    assert rep.gap == 0.0
    assert rep.eigenvalues == [0.0] * 5


def test_spectrum_k_validation():
    g = bg.cycle_graph(4)
    with pytest.raises(ValueError):
        bg.spectrum(g, bg.laplacian(g), k=5, kernel_dim=1)


def test_dense_vs_iterative_agree():
    g = bg.margulis_graph(7)
    lap = bg.laplacian(g)
    comps = len(bg.connected_components(g))
    dense = bg.spectrum(g, lap, k=6, kernel_dim=comps)
    assert dense.method == "exact-dense"
    evs, _ = iterative_eigenpairs(lap, 6, 1e-10)
    assert np.allclose(dense.eigenvalues, evs, atol=1e-7)
    assert abs(dense.gap - evs[comps]) < 1e-7


def _connected_random_graph(n):
    g = random_bounded_graph(np.random.default_rng(4), n, 5, fill=0.95)
    assert len(g.components) == 1
    return g


def test_dense_iterative_rule_edges():
    # Dense at n <= DENSE_LIMIT or k > n - 2; iterative otherwise.
    for n, k, method in [
        (DENSE_LIMIT, 2, "exact-dense"),
        (DENSE_LIMIT + 1, 2, "iterative"),
        (DENSE_LIMIT + 1, DENSE_LIMIT, "exact-dense"),
        (DENSE_LIMIT + 1, DENSE_LIMIT + 1, "exact-dense"),
    ]:
        g = _connected_random_graph(n)
        lap = bg.laplacian(g)
        rep = bg.spectrum(g, lap, k=k, kernel_dim=1)
        assert rep.method == method, (n, k)
        want = np.linalg.eigvalsh(lap.toarray())[:k]
        assert np.allclose(rep.eigenvalues, want, rtol=0, atol=1e-9)
        assert rep.gap == rep.eigenvalues[1]


def test_eigenpairs_dense_matches_iterative_above_limit():
    lap = bg.laplacian(_connected_random_graph(DENSE_LIMIT + 8))
    vals, vecs = eigenpairs(lap, 2)
    dvals, dvecs = np.linalg.eigh(lap.toarray())
    assert np.allclose(vals, dvals[:2], rtol=0, atol=1e-9)
    # At the limit: one dense solve of only the two wanted pairs.
    head = lap[:DENSE_LIMIT][:, :DENSE_LIMIT]
    hvals, hvecs = sla.eigh(head.toarray(), subset_by_index=[0, 1], driver="evr")
    got = eigenpairs(head, 2)
    assert np.array_equal(got[0], hvals) and np.array_equal(got[1], hvecs)
    # Same Fiedler order once the sign is aligned; the entries are further
    # apart than the two vectors differ, so the order is not a tie-break.
    fiedler, dense_fiedler = vecs[:, 1], dvecs[:, 1]
    fiedler = fiedler * np.sign(fiedler @ dense_fiedler)
    spacing = np.diff(np.sort(dense_fiedler)).min()
    assert np.abs(fiedler - dense_fiedler).max() < spacing / 4
    assert np.array_equal(np.argsort(fiedler, kind="stable"),
                          np.argsort(dense_fiedler, kind="stable"))


def _random_path_plus_chords(rng, n, d=5):
    """Connected random graph: a random Hamiltonian path plus random chords,
    every degree at most d."""
    perm = rng.permutation(n).tolist()
    edges = {tuple(sorted(e)) for e in zip(perm, perm[1:])}
    deg = np.bincount(np.array(list(edges)).ravel(), minlength=n)
    for u, v in rng.integers(0, n, size=(2 * n, 2)).tolist():
        e = (min(u, v), max(u, v))
        if u != v and e not in edges and deg[u] < d and deg[v] < d:
            edges.add(e)
            deg[[u, v]] += 1
    return bg.build_graph(n, sorted(edges), d)


def _check_dense_subsets(g, ks):
    """Dense eigenpairs(L, k), k <= n, against one full eigh of L."""
    lap = bg.laplacian(g)
    full = np.linalg.eigh(lap.toarray())[0]
    scale = 1.0 + abs(lap).sum(axis=0).max()  # 1 + ||L||_1
    for k in ks:
        assert spectral._dense(g.n, k) and k <= g.n
        vals, vecs = eigenpairs(lap, k)
        assert vals.shape == (k,) and vecs.shape == (g.n, k)
        assert np.abs(vals - full[:k]).max() <= 1e-12 * scale, (g.n, k)
        residuals = np.linalg.norm(lap @ vecs - vecs * vals, axis=0)
        assert residuals.max() <= 1e-10, (g.n, k)


def test_dense_subset_eigenpairs_match_full_eigh(small_corpus):
    # Every dense solve computes only its k pairs, through one driver up to
    # k = n; they are the full solve's, and lambda_2 is one number whichever
    # routine asks.
    rng = np.random.default_rng(31)
    sizes = (3, 4, 9, 40, 131, DENSE_LIMIT - 1, DENSE_LIMIT, DENSE_LIMIT + 1, 600)
    graphs = small_corpus + [_random_path_plus_chords(rng, n) for n in sizes]
    for g in graphs:
        n, connected = g.n, len(g.components) == 1
        if n <= DENSE_LIMIT:
            ks = sorted({1, 2, int(rng.integers(1, n)), n - 1, n} - {0})
        else:
            ks = [n - 1, n]  # the two k the dense/iterative rule solves dense
        if ks:
            _check_dense_subsets(g, ks)
        if connected and n >= 2:
            assert second_eigenvalue(g) == _fiedler_order(g)[0]
        else:
            assert second_eigenvalue(g) == 0.0
    # k = n at n = 2: a 2-vertex component's Fiedler solve.
    assert eigenpairs(bg.laplacian(bg.path_graph(2)), 2)[0].tolist() == [0.0, 2.0]


def test_dense_eigenpairs_bit_identical_to_c_order_eigh():
    # eigenpairs hands LAPACK a Fortran-order matrix; being symmetric, it
    # holds the same numbers as the C-order one, so the bits agree.
    rng = np.random.default_rng(47)
    for n in (2, 7, 40, 133, DENSE_LIMIT):
        g = random_bounded_graph(rng, n, 4)
        for mat in (bg.laplacian(g), bg.markov(g)):
            for k in sorted({1, 2, int(rng.integers(1, n + 1)), n}):
                vals, vecs = eigenpairs(mat, k)
                want_vals, want_vecs = sla.eigh(
                    mat.toarray(), subset_by_index=[0, k - 1], driver="evr")
                assert vals.tobytes() == want_vals.tobytes(), (n, k)
                assert vecs.tobytes() == want_vecs.tobytes(), (n, k)


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
        m = bg.markov(g)
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
    oracle = np.sort(np.linalg.eigvalsh(bg.laplacian(pair).toarray()))[1]
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


def _plain_iterates(g, f, steps, d):
    """Oracle: M^k f for k = 0..steps, each from the plain loop with no
    early exit."""
    m = bg.markov(g, d)
    vec = np.asarray(f, dtype=np.float64).copy()
    out = [vec]
    for _ in range(steps):
        vec = m @ vec
        out.append(vec)
    return out


def _power_iterate_inputs(rng, g):
    """Component indicators, constants, random vectors, and vectors with
    -0.0 or NaN entries."""
    comps = g.components
    for comp in (comps[0], comps[-1], [v for c in comps[::2] for v in c]):
        chi = np.zeros(g.n)
        chi[list(comp)] = 1.0
        yield chi
    yield np.full(g.n, 0.3)
    yield np.ones(g.n)
    yield rng.standard_normal(g.n)
    yield rng.integers(0, 2, g.n).astype(float)
    neg_zero = np.zeros(g.n)
    neg_zero[rng.random(g.n) < 0.5] = -0.0
    yield neg_zero
    with_nan = rng.standard_normal(g.n)
    with_nan[int(rng.integers(0, g.n))] = np.nan
    yield with_nan


@pytest.mark.parametrize("loops", [False, True])
def test_power_iterate_matches_plain_loop_bitwise(loops):
    rng = np.random.default_rng(61)
    for d in (2, 3, 4, 6):  # 2d a power of two, or not
        n = int(rng.integers(2, 25))
        fill = float(rng.uniform(0.2, 0.9))
        g = random_bounded_graph(rng, n, d - loops, fill=fill)
        if loops:  # a loop counts towards the degree bound
            extra = [(v, v) for v in range(n) if rng.random() < 0.4]
            g = bg.build_graph(n, list(g.edges()) + extra, d, allow_loops=True)
        for f in _power_iterate_inputs(rng, g):
            for steps, want in enumerate(_plain_iterates(g, f, 50, d)):
                got = bg.power_iterate(g, f, steps, d)
                assert got.tobytes() == want.tobytes(), (d, steps)


class _CountingMatrix:
    """A sparse matrix that counts its matrix-vector products."""

    def __init__(self, matrix):
        self.matrix = matrix
        self.matvecs = 0

    def __matmul__(self, vec):
        self.matvecs += 1
        return self.matrix @ vec


def test_power_iterate_stops_at_a_component_indicator(monkeypatch):
    # M chi_T = chi_T bit for bit when T is a union of components and 2d is
    # a power of two, so K = 1203 steps cost one product.
    real_markov = spectral.markov
    counters = []

    def counting_markov(g, d=None):
        counters.append(_CountingMatrix(real_markov(g, d)))
        return counters[-1]

    monkeypatch.setattr(spectral, "markov", counting_markov)
    g = bg.disjoint_union(bg.margulis_graph(6), bg.cycle_graph(9), d=8)
    chi = np.zeros(g.n)
    chi[:36] = 1.0
    out = bg.power_iterate(g, chi, 1203, d=8)
    assert out.tobytes() == chi.tobytes()
    assert len(counters) == 1 and counters[0].matvecs <= 2


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


@pytest.mark.parametrize("n", [6, DENSE_LIMIT + 2])
def test_negative_k_is_refused(n):
    # A dense solve would list every value but the largest and report the
    # last one listed as the gap; ARPACK would refuse k without naming it.
    g = bg.cycle_graph(n)
    with pytest.raises(ValueError, match="k=-1"):
        bg.graph_spectrum(g, k=-1)
    with pytest.raises(ValueError, match="k=-1"):
        bg.spectrum(g, bg.laplacian(g), k=-1, kernel_dim=1)


@pytest.mark.parametrize("n", [6, DENSE_LIMIT + 2])
def test_zero_k_is_answered_without_a_solve(n, monkeypatch):
    # The same empty record on both sides of DENSE_LIMIT; ARPACK would
    # refuse k = 0.
    def no_solve(*args, **kwargs):
        raise AssertionError("k = 0 reached a solver")

    monkeypatch.setattr(spectral, "iterative_eigenpairs", no_solve)
    monkeypatch.setattr(np.linalg, "eigvalsh", no_solve)
    g = bg.cycle_graph(n)
    empty = {"eigenvalues": [], "kernel_dim": 0, "gap": 0.0,
             "method": "exact-dense", "tol": 1e-9}
    assert bg.graph_spectrum(g, k=0).to_dict() == empty
    assert bg.spectrum(g, bg.markov(g), k=0, kernel_dim=0).to_dict() == empty


def test_kernel_dim_is_clamped_to_k():
    g = bg.cycle_graph(6)
    rep = bg.spectrum(g, bg.laplacian(g), k=1, kernel_dim=3)
    assert rep.kernel_dim == 1
    assert rep.gap == 0.0
    assert len(rep.eigenvalues) == 1 and abs(rep.eigenvalues[0]) <= 1e-9


def test_markov_of_a_torus_pair_lists_each_copy():
    # Above DENSE_LIMIT each torus is solved alone, so 0.4375, an
    # eigenvalue of each copy's Markov operator twice, is listed four times.
    torus = bg.triangular_torus(24)
    pair = bg.disjoint_union(torus, torus, d=8)
    assert pair.n > DENSE_LIMIT
    op = bg.markov(pair, 8)
    rep = bg.spectrum(pair, op, k=8, kernel_dim=0)
    want = np.linalg.eigvalsh(op.toarray())[:8]
    assert np.allclose(rep.eigenvalues, want, rtol=0, atol=1e-9)
    assert np.sum(np.abs(np.array(rep.eigenvalues) - 0.4375) <= 1e-9) == 4
    assert rep.kernel_dim == 0 and rep.gap == rep.eigenvalues[0]


def _weighted_block(rng, size, chords, diag_share):
    """Dense PSD block: weighted Laplacian of a random connected graph (a
    path plus chords, weights in [0.5, 2]) plus a nonnegative diagonal on a
    share of its vertices."""
    w = np.zeros((size, size))
    pairs = [(i, i + 1) for i in range(size - 1)]
    pairs += [tuple(rng.choice(size, 2, replace=False)) for _ in range(chords)]
    for u, v in pairs:
        w[u, v] = w[v, u] = rng.uniform(0.5, 2.0)
    block = np.diag(w.sum(axis=1)) - w
    extra = rng.uniform(0.0, 0.1, size) * (rng.random(size) < diag_share)
    return block + np.diag(extra)


def _block_operator(rng, bridged):
    """A permuted block-diagonal PSD operator above DENSE_LIMIT and a graph
    carrying it: its off-diagonal support, plus, when bridged, zero-weight
    edges joining consecutive blocks so that the graph is connected.

    Blocks: three single vertices with zero and three with nonzero diagonal,
    four copies of one 5-vertex block (every eigenvalue four times), two
    other 5-vertex blocks and one block above DENSE_LIMIT.
    """
    small = _weighted_block(rng, 5, 3, 0.0)
    blocks = [np.zeros((1, 1))] * 3
    blocks += [np.array([[v]]) for v in rng.uniform(0.01, 0.5, 3)]
    blocks += [small] * 4 + [_weighted_block(rng, 5, 2, 0.5) for _ in range(2)]
    blocks.append(_weighted_block(rng, DENSE_LIMIT + 20, 300, 0.02))
    dense = sp.block_diag(blocks).toarray()
    n = dense.shape[0]
    perm = rng.permutation(n)
    dense = dense[np.ix_(perm, perm)]
    inv = np.argsort(perm)  # block-order position -> vertex
    rows, cols = np.nonzero(np.triu(dense, 1))
    edges = set(zip(rows.tolist(), cols.tolist()))
    if bridged:
        starts = np.cumsum([0] + [len(b) for b in blocks[:-1]])
        for a, b in zip(starts, starts[1:]):
            u, v = int(inv[a]), int(inv[b])
            edges.add((min(u, v), max(u, v)))
    d = max(np.bincount(np.array(sorted(edges)).ravel(), minlength=n))
    g = bg.build_graph(n, sorted(edges), int(d))
    return g, sp.csr_matrix(dense), dense


@pytest.mark.parametrize("bridged", [False, True])
def test_spectrum_block_split_matches_dense(bridged):
    rng = np.random.default_rng(41)
    for _ in range(3):
        g, op, dense = _block_operator(rng, bridged)
        assert g.n > DENSE_LIMIT
        assert len(g.components) == (1 if bridged else 13)
        want = np.linalg.eigvalsh(dense)
        for k in (5, 12, 40):
            rep = bg.spectrum(g, op, k=k)
            assert rep.method == "iterative"
            assert np.allclose(rep.eigenvalues, want[:k], rtol=0, atol=1e-8)
            assert rep.kernel_dim == min(len(g.components), k)
        # Three zero singles and the four equal blocks' kernels: the matched
        # values include a seven-fold 0.
        assert np.sum(np.abs(want) <= 1e-9) >= 7


def _brute_blocks(mat):
    """Oracle for _operator_blocks: BFS over the nonzero off-diagonal
    entries of a dense copy of mat, from each unseen vertex in index order."""
    dense = mat.toarray()
    np.fill_diagonal(dense, 0.0)
    seen, blocks = set(), []
    for start in range(len(dense)):
        if start in seen:
            continue
        block, frontier = {start}, [start]
        while frontier:
            frontier = [int(v) for u in frontier for v in np.flatnonzero(dense[u])
                        if v not in block]
            block.update(frontier)
        seen |= block
        blocks.append(sorted(block))
    return [b[0] for b in blocks if len(b) == 1], [b for b in blocks if len(b) > 1]


def test_operator_blocks_match_bfs():
    rng = np.random.default_rng(83)
    graphs = [bg.build_graph(0, [], 1), bg.margulis_graph(6), bg.margulis_graph(24),
              bg.disjoint_union(bg.triangular_torus(4), bg.cycle_graph(5))]
    for _ in range(20):
        n = int(rng.integers(1, 25))
        g = random_bounded_graph(rng, n, 3, fill=float(rng.uniform(0.05, 0.9)))
        loops = [(v, v) for v in range(n) if rng.random() < 0.2]
        graphs.append(g if not loops else bg.build_graph(
            n, list(g.edges()) + loops, 4, allow_loops=True))
    for g in graphs:
        for op in (bg.laplacian(g), bg.markov(g), bg.delta_tau(g)):
            singles, blocks = spectral._operator_blocks(g, op)
            assert (singles.tolist(), [b.tolist() for b in blocks]) == _brute_blocks(op)


def test_delta_tau_margulis_lists_its_whole_kernel():
    # Almost no Margulis edge lies in a triangle, so Δτ splits into many
    # blocks and its smallest five eigenvalues are all 0.
    g = bg.margulis_graph(24)
    assert g.n > DENSE_LIMIT and len(g.components) == 1
    rep = bg.delta_tau_spectrum(g)
    assert len(rep.eigenvalues) == 5
    assert all(abs(v) <= 1e-9 for v in rep.eigenvalues)
    assert abs(rep.gap) <= 1e-9
