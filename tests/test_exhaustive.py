import itertools
import tracemalloc

import numpy as np
import pytest

import boxgap as bg
import boxgap.cheeger as cheeger_mod
import boxgap.exhaustive as ex
from boxgap.errors import TooLargeForExact
from boxgap.exhaustive import min_ratio_subset, min_sparse_subset

from conftest import fresh_copy, neighbour_rows, random_bounded_graph


def brute_min_ratio(g, region, max_size):
    """Reference scan with explicit tie-breaks: ratio, size, lex tuple."""
    best = None
    region = tuple(sorted(region))
    for size in range(1, max_size + 1):
        for s in itertools.combinations(region, size):
            ratio = bg.boundary_size(g, s) / size
            key = (ratio, size, s)
            if best is None or key < best:
                best = key
    return best


def brute_min_sparse(g, region, c):
    region = tuple(sorted(region))
    for size in range(1, len(region)):
        candidates = [
            s
            for s in itertools.combinations(region, size)
            if bg.boundary_size(g, s) < c * size
        ]
        if candidates:
            return min(candidates)
    return None


def reference_scan(g, region):
    """Ambient boundary and size of every subset mask of the region, one
    xor pass per internal edge over all 2**m masks plus each vertex's edges
    leaving the region."""
    vs = sorted(set(region))
    adj = neighbour_rows(g)
    pos = {v: i for i, v in enumerate(vs)}
    masks = np.arange(1 << len(vs), dtype=np.uint32)
    boundary = np.zeros(masks.shape, dtype=np.int32)
    size = np.zeros(masks.shape, dtype=np.int32)
    for u in vs:
        bit = (masks >> pos[u]) & 1
        size += bit
        for w in adj[u]:
            if w not in pos:
                boundary += bit
            elif u < w:
                boundary += ((masks >> pos[u]) ^ (masks >> pos[w])) & 1
    return vs, masks, boundary, size


def _lex_smallest(vs, masks):
    return min(
        tuple(vs[i] for i in range(len(vs)) if (mask >> i) & 1)
        for mask in masks.tolist()
    )


def reference_min_ratio(scan, max_size):
    vs, masks, boundary, size = scan
    ok = (size >= 1) & (size <= max_size)
    ratio = np.where(ok, boundary / np.maximum(size, 1), np.inf)
    hit = ratio == ratio.min()
    at = hit & (size == size[hit].min())
    return float(ratio.min()), _lex_smallest(vs, masks[at])


def reference_min_sparse(scan, c):
    vs, masks, boundary, size = scan
    hit = (size >= 1) & (size < len(vs)) & (boundary < c * size)
    if not hit.any():
        return None
    return _lex_smallest(vs, masks[hit & (size == size[hit].min())])


def test_min_ratio_matches_brute_force():
    rng = np.random.default_rng(41)
    for _ in range(40):
        n = int(rng.integers(2, 12))
        g = random_bounded_graph(rng, n, int(rng.integers(2, 5)))
        ratio, witness = min_ratio_subset(g, range(n), max(1, n // 2))
        b_ratio, b_size, b_set = brute_min_ratio(g, range(n), max(1, n // 2))
        assert ratio == b_ratio
        assert witness == b_set


def test_min_ratio_on_subregions():
    rng = np.random.default_rng(43)
    for _ in range(25):
        n = int(rng.integers(6, 14))
        g = random_bounded_graph(rng, n, 4)
        region = tuple(
            int(v) for v in rng.choice(n, size=int(rng.integers(2, n)), replace=False)
        )
        cap = max(1, len(region) // 2)
        ratio, witness = min_ratio_subset(g, region, cap)
        b_ratio, _, b_set = brute_min_ratio(g, region, cap)
        assert ratio == b_ratio and witness == b_set


def test_min_sparse_matches_brute_force():
    rng = np.random.default_rng(47)
    for _ in range(40):
        n = int(rng.integers(2, 12))
        g = random_bounded_graph(rng, n, int(rng.integers(2, 5)))
        for c in (0.3, 0.75, 1.5, 2.5):
            got = min_sparse_subset(g, range(n), c)
            want = brute_min_sparse(g, range(n), c)
            assert got == want


def test_tie_break_prefers_small_then_lex():
    # edgeless region: every subset has boundary 0, so the scan must land
    # on the single smallest lexicographic witness, vertex 0
    g = bg.build_graph(6, [], 2)
    ratio, witness = min_ratio_subset(g, range(6), 3)
    assert ratio == 0.0 and witness == (0,)
    assert min_sparse_subset(g, range(6), 0.5) == (0,)


def test_lex_tie_break_across_chunks(monkeypatch):
    # force tiny chunks so equal-size candidates straddle chunk boundaries
    import boxgap.exhaustive as ex

    monkeypatch.setattr(ex, "CHUNK_BITS", 2)
    rng = np.random.default_rng(53)
    for _ in range(10):
        n = int(rng.integers(5, 10))
        g = random_bounded_graph(rng, n, 3)
        ratio, witness = ex.min_ratio_subset(g, range(n), n // 2)
        b_ratio, _, b_set = brute_min_ratio(g, range(n), n // 2)
        assert ratio == b_ratio and witness == b_set
        got = ex.min_sparse_subset(g, range(n), 1.2)
        assert got == brute_min_sparse(g, range(n), 1.2)


def test_scans_at_the_cap_match_reference_kernel():
    # 19-21 vertices with the default CHUNK_BITS, so every scan crosses at
    # least two chunks; regions inside a larger graph have edges leaving them.
    import boxgap.exhaustive as ex

    rng = np.random.default_rng(59)
    for n, m in ((19, 19), (21, 21), (26, 20), (32, 21)):
        assert m > ex.CHUNK_BITS
        # a Hamiltonian cycle plus random chords: no isolated vertex
        d = int(rng.integers(1, 4))
        chords = random_bounded_graph(rng, n, d, fill=1.0).edges()
        cycle = ((v, (v + 1) % n) for v in range(n))
        g = bg.build_graph(n, {tuple(sorted(e)) for e in (*cycle, *chords)}, d + 2)
        region = sorted(int(v) for v in rng.choice(n, size=m, replace=False))
        ref = reference_scan(g, region)
        for cap in (m // 2, m):
            assert min_ratio_subset(g, region, cap) == reference_min_ratio(ref, cap)
        for c in (0.25, 0.6, 1.0, 1.8):
            assert min_sparse_subset(g, region, c) == reference_min_sparse(ref, c)


def test_scans_ignore_loops():
    rng = np.random.default_rng(61)
    for _ in range(30):
        n = int(rng.integers(2, 11))
        d = int(rng.integers(2, 5))
        base = random_bounded_graph(rng, n, d)
        loops = [(v, v) for v in range(n) if rng.random() < 0.5]
        g = bg.build_graph(n, list(base.edges()) + loops, d + 1, allow_loops=True)
        region = tuple(
            int(v) for v in rng.choice(n, size=int(rng.integers(1, n + 1)),
                                       replace=False)
        )
        cap = max(1, len(region) // 2)
        ratio, witness = min_ratio_subset(g, region, cap)
        b_ratio, _, b_set = brute_min_ratio(g, region, cap)
        assert ratio == b_ratio and witness == b_set
        for c in (0.3, 0.75, 1.5, 2.5):
            assert min_sparse_subset(g, region, c) == brute_min_sparse(g, region, c)


def test_scan_memory_is_bounded_by_the_chunk():
    # One 24-vertex scan keeps chunk-sized tables; a single int32 table over
    # all 2**24 subsets would take 64 MiB.
    g = random_bounded_graph(np.random.default_rng(67), 24, 4)
    tracemalloc.start()
    try:
        min_ratio_subset(g, range(24), 12)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def subset_sums(weights):
    """t[S] = sum of weights[i] over the bits i of S, by doubling."""
    t = np.empty(1 << len(weights), dtype=np.int32)
    t[0] = 0
    for i, w in enumerate(weights):
        np.add(t[: 1 << i], w, out=t[1 << i : 2 << i])
    return t


def boundary_table(deg, nbrs):
    """|∂S| for every subset S of len(deg) vertices as int32, one vertex
    at a time: |∂(S + i)| = |∂S| + deg(i) - 2 |N(i) ∩ S|."""
    t = np.zeros(1 << len(deg), dtype=np.int32)
    for i, (d, nb) in enumerate(zip(deg, nbrs)):
        inner = subset_sums([(nb >> j) & 1 for j in range(i)])
        t[1 << i : 2 << i] = t[: 1 << i] + d - 2 * inner
    return t


def table_width(degree_sum):
    """The narrowest integer type holding every value in ±degree_sum."""
    if degree_sum < 2**7:
        return np.int8
    return np.int16 if degree_sum < 2**15 else np.int32


def per_scan_size_order(low):
    """The size order from a popcount table by doubling: subsets by size,
    each size class by sorted vertex tuple (of two subsets of one size, the
    one holding the lowest vertex where they differ comes first), and one
    offset per size."""
    size = subset_sums([1] * low)
    masks = np.arange(1 << low)
    absent = [1 - ((masks >> j) & 1) for j in reversed(range(low))]
    order = np.lexsort(absent + [size])
    return order, np.concatenate(([0], np.cumsum(np.bincount(size))))


def per_scan_tables(g, region):
    """(cut, twice_cross, high_boundary, table width) from int32 tables
    built by doubling; cut and twice_cross gathered into size order."""
    vs = sorted(set(region))
    pos = {v: i for i, v in enumerate(vs)}
    adj = neighbour_rows(g)
    deg = [sum(w != u for w in adj[u]) for u in vs]
    nbrs = [sum(1 << pos[w] for w in adj[u] if w in pos and w != u) for u in vs]
    low = min(ex.CHUNK_BITS, len(vs))
    order, _ = per_scan_size_order(low)
    cut = boundary_table(deg[:low], nbrs[:low])[order]
    twice_cross = [
        2 * subset_sums([(nb >> j) & 1 for j in range(low)])[order]
        for nb in nbrs[low:]
    ]
    high = boundary_table(deg[low:], [nb >> low for nb in nbrs[low:]])
    return cut, twice_cross, high.tolist(), table_width(sum(deg))


def test_cached_size_order_matches_per_scan_argsort():
    for low in range(ex.CHUNK_BITS + 1):
        order, starts = ex._size_order(low)
        want_order, want_starts = per_scan_size_order(low)
        assert order.dtype == np.uint32
        np.testing.assert_array_equal(order, want_order)
        np.testing.assert_array_equal(starts, want_starts)


def test_scan_tables_match_per_scan_construction():
    rng = np.random.default_rng(71)
    for m in (2, 3, 7, 12, 17, 18, 19, 21, 24):
        for loops in (False, True):
            n = m + int(rng.integers(0, 6))
            d = int(rng.integers(2, 6))
            base = random_bounded_graph(rng, n, d)
            extra = [(v, v) for v in range(n) if loops and rng.random() < 0.5]
            g = bg.build_graph(n, list(base.edges()) + extra, d + 1,
                               allow_loops=loops)
            region = [int(v) for v in rng.choice(n, size=m, replace=False)]
            scan = ex._Scan(g, tuple(sorted(region)))
            cut, twice_cross, high, width = per_scan_tables(g, region)
            np.testing.assert_array_equal(scan.cut, cut)
            assert scan.cut.dtype == width == np.int8  # degree sum <= 5 m
            assert scan.high_boundary == high
            assert len(scan.twice_cross) == len(twice_cross) == m - scan.low
            for got, want in zip(scan.twice_cross, twice_cross):
                assert got.dtype == scan.cut.dtype == np.int8
                np.testing.assert_array_equal(got, want)


def test_size_order_is_built_once_per_chunk_width():
    ex._size_order.cache_clear()
    g = bg.cycle_graph(24)
    first = ex._Scan(g, range(20))
    second = ex._Scan(g, range(4, 24))
    assert ex._size_order.cache_info().misses == 1
    assert second.order is first.order and second.starts is first.starts
    ex._Scan(g, range(5))
    assert ex._size_order.cache_info().misses == 2


def test_cached_size_order_is_read_only():
    order, starts = ex._size_order(ex.CHUNK_BITS)
    for table in (order, starts):
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0] = 1


def random_region(rng, m):
    """A graph with loops on m + 2..5 vertices, all on one cycle plus random
    chords, and a random region of m of them: region vertices have edges
    leaving the region and none is isolated."""
    n = m + int(rng.integers(2, 6))
    d = int(rng.integers(1, 4))
    chords = random_bounded_graph(rng, n, d, fill=1.0).edges()
    cycle = ((v, (v + 1) % n) for v in range(n))
    edges = sorted({tuple(sorted(e)) for e in (*cycle, *chords)})
    loops = [(v, v) for v in range(n) if rng.random() < 0.3]
    g = bg.build_graph(n, edges + loops, d + 3, allow_loops=True)
    return g, sorted(int(v) for v in rng.choice(n, size=m, replace=False))


def check_shared_walk(g, region):
    """min_sparse_subset on a fresh graph against the oracles: its sparse
    answer always, and for a region with no sparse subset the min-ratio
    answer it leaves in the graph's memo, witness and tie-break included."""
    m = len(region)
    ref = reference_scan(g, region) if 10 < m <= 21 else None

    def oracle_ratio(cap):
        if m <= 10:
            ratio, _, witness = brute_min_ratio(g, region, cap)
            return ratio, witness
        return reference_min_ratio(ref, cap) if ref else None

    def oracle_sparse(c):
        if m <= 10:
            return brute_min_sparse(g, region, c)
        return reference_min_sparse(ref, c) if ref else min_sparse_subset(g, region, c)

    half = min_ratio_subset(g, region, m // 2)
    if m >= 2 and (m <= 10 or ref):
        assert half == oracle_ratio(m // 2)
    # No proper subset is sparse at the least ratio over all of them.
    floor = min_ratio_subset(g, region, m - 1)[0] if m >= 2 else 1.0
    for c in (floor, floor + 0.3, 0.4, 1.7):
        fresh = fresh_copy(g)
        got = min_sparse_subset(fresh, region, c)
        assert got == oracle_sparse(c)
        if m >= 2:
            assert (got is None) == (c <= floor)
        left = {("min_ratio", tuple(region), m // 2): half}
        assert fresh.memo == (left if got is None and m >= 2 else {})


def test_shared_walk_matches_both_scans(monkeypatch):
    # Regions of 0 to 24 vertices, each walked in up to 64 chunks so that
    # tie-breaks cross chunk boundaries.
    rng = np.random.default_rng(73)
    for m in range(25):
        monkeypatch.setattr(ex, "CHUNK_BITS", max(2, m - 6))
        check_shared_walk(*random_region(rng, m))


def hub_graph(rng, hubs, degree_sum):
    """hubs vertices on a cycle, with loops and chords, each carrying about
    degree_sum / hubs pendant leaves, so that the hubs' degrees (loops
    excluded) add up to degree_sum exactly."""
    inner = {tuple(sorted((v, (v + 1) % hubs))) for v in range(hubs)}
    inner |= {(v, v + hubs // 2) for v in range(0, hubs // 2, 3)}
    leaves = rng.multinomial(degree_sum - 2 * len(inner), [1 / hubs] * hubs)
    edges, n = sorted(inner), hubs
    for hub, k in enumerate(leaves.tolist()):
        edges += [(hub, leaf) for leaf in range(n, n + k)]
        n += k
    edges += [(v, v) for v in range(0, hubs, 4)]
    return bg.build_graph(n, edges, int(leaves.max()) + 6, allow_loops=True)


def star_forest(rng, centres, degree_sum):
    """centres stars with degree_sum leaves in all: the centres are pairwise
    nonadjacent, so the set of all of them has boundary degree_sum."""
    leaves = rng.multinomial(degree_sum, [1 / centres] * centres)
    edges, n = [], centres
    for centre, k in enumerate(leaves.tolist()):
        edges += [(centre, leaf) for leaf in range(n, n + k)]
        n += k
    return bg.build_graph(n, edges, int(leaves.max()))


def test_shared_walk_past_int16(monkeypatch):
    # Every table the walk touches holds values within the region's degree
    # sum: int8 below 2**7, int16 below 2**15, int32 from there on, checked
    # on both sides of each boundary. At 48000 the ten low hubs' table
    # would wrap int16 in the upper size classes the sparse scan reads.
    rng = np.random.default_rng(79)
    for degree_sum, dtype in ((2**7 - 1, np.int8), (2**7, np.int16),
                              (2**15 - 1, np.int16), (2**15, np.int32),
                              (48000, np.int32)):
        monkeypatch.setattr(ex, "CHUNK_BITS", 10)
        g = hub_graph(rng, 12, degree_sum)
        scan = ex._Scan(g, range(12))
        assert table_width(degree_sum) == scan.cut.dtype == dtype
        assert len(scan.twice_cross) == 2
        assert all(t.dtype == dtype for t in scan.twice_cross)
        cut, twice_cross, high, _ = per_scan_tables(g, range(12))
        np.testing.assert_array_equal(scan.cut, cut)
        for got, want in zip(scan.twice_cross, twice_cross):
            np.testing.assert_array_equal(got, want)
        assert scan.high_boundary == high
        check_shared_walk(g, list(range(12)))
        # One table holding the whole region, whose boundary is the degree
        # sum itself: the largest value a table of this width must hold.
        monkeypatch.setattr(ex, "CHUNK_BITS", 12)
        stars = star_forest(rng, 12, degree_sum)
        assert ex._Scan(stars, range(12)).cut.dtype == dtype
        ref = reference_scan(stars, range(12))
        assert min_ratio_subset(stars, range(12), 12) == reference_min_ratio(ref, 12)


def test_scan_refuses_regions_wider_than_the_mask(monkeypatch):
    def no_table(*args):
        raise AssertionError("table built for a region the masks cannot hold")

    monkeypatch.setattr(ex, "_boundary_table", no_table)
    monkeypatch.setattr(ex, "_size_order", no_table)
    monkeypatch.setattr(cheeger_mod, "EXACT_CAP", 40)
    g = bg.path_graph(ex.MASK_BITS + 1)
    for scan in (lambda: min_ratio_subset(g, range(g.n), g.n // 2),
                 lambda: min_sparse_subset(g, range(g.n), 0.5),
                 lambda: bg.cheeger_exact(g)):
        with pytest.raises(TooLargeForExact) as exc:
            scan()
        assert (exc.value.n, exc.value.cap) == (ex.MASK_BITS + 1, ex.MASK_BITS)
