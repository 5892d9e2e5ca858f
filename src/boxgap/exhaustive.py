"""Vectorized exhaustive scans over vertex subsets of a small region.

Boundaries are ambient: an edge leaving the region counts toward every
subset containing its inner endpoint, and loops never count. The region's
m <= ~24 vertices are the bits of a uint32 mask, so a scan refuses a region
of more than MASK_BITS vertices before building any table. The low
L = min(CHUNK_BITS, m) bits index a subset A, the high bits a subset B, and
one chunk holds the 2**L subsets A ∪ B of one B. The scan rests on

    |∂(A ∪ B)| = |∂A| + |∂B| - 2 |E(A, B)|.

The order of the low subsets by size (then by mask) and the offset of each
size class depend only on L, so they are built once per process for each L
(a stable argsort, cached as read-only uint32 masks on first use). Per scan
it builds, by adding one vertex at a time
(|∂(A + i)| = |∂A| + deg(i) - 2 |N(i) ∩ A|), a table of |∂A| over the low
subsets, gathered into size order, and one of |∂B| over the high subsets;
for each high vertex v it counts 2 |N(v) ∩ A| straight in size order, as
twice the popcount of each ordered mask A & N(v). The chunks run in
Gray-code order, so consecutive B differ in one vertex v and the running
table |∂A| - 2 |E(A, B)| changes by that vertex's table: one pass per chunk.
Every value of that table lies within the region's ambient degree sum of
zero, so it is int16 when that sum is below 2**15 (any region at the cap
with degrees up to 1365) and int32 otherwise; the walk then moves half the
bytes. A minimum per size class then leaves a scalar check over at most
L + 1 sizes, and masks are built only inside the winning size class.

Both scans read the same per-class minima in the same chunks; only the
best-so-far bookkeeping and the top size class differ. So the sparse scan
can also find the region's min-ratio answer over at most m // 2 vertices
in the same walk, for a region that turns out to have no sparse subset
(``min_sparse_subset(..., min_ratios=memo)``).

Ties between equal-ratio subsets break toward smaller size, then the
lexicographically smallest sorted vertex tuple, i.e. the largest
bit-reversed mask.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import TooLargeForExact
from .graph import Graph, vertex_set

CHUNK_BITS = 18  # subsets processed per chunk: 2**CHUNK_BITS
MASK_BITS = 32  # masks are uint32: the widest region a scan can cover


def _bitrev32(masks: np.ndarray) -> np.ndarray:
    # Reversing all 32 bits preserves the ordering induced by reversing any
    # fixed lower n bits, which is all the tie-break needs.
    x = masks.astype(np.uint32)
    x = ((x >> 1) & 0x55555555) | ((x & 0x55555555) << 1)
    x = ((x >> 2) & 0x33333333) | ((x & 0x33333333) << 2)
    x = ((x >> 4) & 0x0F0F0F0F) | ((x & 0x0F0F0F0F) << 4)
    x = ((x >> 8) & 0x00FF00FF) | ((x & 0x00FF00FF) << 8)
    return (x >> 16) | (x << 16)


def _subset_sums(weights) -> np.ndarray:
    """t[S] = sum of weights[i] over the bits i of S, by doubling."""
    t = np.empty(1 << len(weights), dtype=np.int32)
    t[0] = 0
    for i, w in enumerate(weights):
        np.add(t[: 1 << i], w, out=t[1 << i : 2 << i])
    return t


def _boundary_table(deg, nbrs) -> np.ndarray:
    """|∂S| for every subset S of len(deg) vertices, given their ambient
    degrees and their neighbours among themselves as bitmasks."""
    t = np.zeros(1 << len(deg), dtype=np.int32)
    for i, (d, nb) in enumerate(zip(deg, nbrs)):
        inner = _subset_sums([(nb >> j) & 1 for j in range(i)])
        t[1 << i : 2 << i] = t[: 1 << i] + d - 2 * inner
    return t


@lru_cache(maxsize=None)
def _size_order(low: int) -> tuple:
    """(order, starts): the masks of all subsets of low bits sorted by size,
    then by mask, and the offset of each size class in that order."""
    size = np.bitwise_count(np.arange(1 << low, dtype=np.uint32))
    order = np.argsort(size, kind="stable").astype(np.uint32)
    starts = np.concatenate(([0], np.cumsum(np.bincount(size))))
    order.flags.writeable = starts.flags.writeable = False
    return order, starts


class _Scan:
    """One region's per-scan tables, and its chunks in Gray-code order."""

    def __init__(self, g: Graph, region):
        self.vs = vs = vertex_set(g, region)
        if len(vs) > MASK_BITS:
            raise TooLargeForExact(len(vs), MASK_BITS)
        pos = {v: i for i, v in enumerate(vs)}
        deg, nbrs = [], []
        for u in vs:
            ws = g.indices[g.indptr[u] : g.indptr[u + 1]].tolist()  # no loops
            deg.append(len(ws))
            nbrs.append(sum(1 << pos[w] for w in ws if w in pos))
        self.m = m = len(vs)
        self.low = low = min(CHUNK_BITS, m)
        self.order, self.starts = _size_order(low)
        self.high_boundary = _boundary_table(
            deg[low:], [nb >> low for nb in nbrs[low:]]
        )
        # |cut| <= sum(deg): see the module docstring.
        dtype = np.int16 if sum(deg) < 1 << 15 else np.int32
        low_boundary = _boundary_table(deg[:low], nbrs[:low]).astype(dtype)
        self.cut = low_boundary.take(self.order)
        # 2|N(v) ∩ A| <= 2(m - 1) fits int8 for any region a scan can cover.
        self.twice_cross = []
        low_bits = (1 << low) - 1
        for nb in nbrs[low:]:
            cross = np.bitwise_count(self.order & np.uint32(nb & low_bits))
            cross += cross
            self.twice_cross.append(cross.view(np.int8))

    def chunks(self):
        """Yield (h, |h|, |∂B|) for each chunk's high bits h; while a chunk
        is current, self.cut holds |∂A| - 2|E(A, B)| for the low subsets A
        in size order."""
        for i in range(1 << (self.m - self.low)):
            h = i ^ (i >> 1)
            if i:
                v = (i & -i).bit_length() - 1  # the one high vertex that flips
                if (h >> v) & 1:
                    self.cut -= self.twice_cross[v]
                else:
                    self.cut += self.twice_cross[v]
            yield h, h.bit_count(), int(self.high_boundary[h])

    def minima(self, top: int) -> list:
        """Least self.cut in each low size class 0..top."""
        end = self.starts[top + 1]
        return np.minimum.reduceat(self.cut[:end], self.starts[: top + 1]).tolist()

    def best_in_class(self, h: int, k: int, hit) -> tuple:
        """(bit-reversed mask, mask) of the lexicographically smallest subset
        of the current chunk with k low vertices for which hit(cut) holds."""
        span = slice(self.starts[k], self.starts[k + 1])
        low = self.order[span][hit(self.cut[span])]
        masks = low | np.uint32(h << self.low)
        rev = _bitrev32(masks)
        i = int(np.argmax(rev))
        return int(rev[i]), int(masks[i])


def _mask_to_tuple(mask: int, vs) -> tuple:
    return tuple(vs[i] for i in range(len(vs)) if (mask >> i) & 1)


def _ratio_step(scan: _Scan, best, h: int, hs: int, hb: int, mins, top: int):
    """best ((ratio, size, -bit-reversed mask), mask) of min |∂S|/|S| after
    the current chunk, whose classes 0..top are allowed."""
    # Ratios of small ints; IEEE division maps equal rationals to equal
    # floats, so exact ties survive the float comparisons below.
    sizes = range(1 if hs == 0 else 0, top + 1)  # k = 0 at h = 0 is empty
    ratio, k = min(((mins[k] + hb) / (k + hs), k) for k in sizes)
    if best is not None and (ratio, k + hs) > best[0][:2]:
        return best
    rev, mask = scan.best_in_class(h, k, lambda cut: cut == mins[k])
    key = (ratio, k + hs, -rev)
    return (key, mask) if best is None or key < best[0] else best


def _ratio_answer(best, vs) -> tuple:
    return best[0][0], _mask_to_tuple(best[1], vs)


def min_ratio_subset(g: Graph, region, max_size: int):
    """Exact min of |∂S|/|S| over nonempty S within the region, |S| <= max_size.

    The boundary is taken in g (ambient). Returns (ratio, witness_tuple) or
    (None, None) if max_size < 1.
    """
    scan = _Scan(g, region)
    if scan.m == 0 or max_size < 1:
        return None, None
    best = None
    for h, hs, hb in scan.chunks():
        top = min(scan.low, max_size - hs)
        if top >= 0:
            best = _ratio_step(scan, best, h, hs, hb, scan.minima(top), top)
    return _ratio_answer(best, scan.vs)


def min_sparse_subset(g: Graph, region, c: float, min_ratios: dict | None = None):
    """Smallest nonempty proper subset S of the region with |∂S| < c|S|.

    Boundary in g (ambient). Ties at the minimal size break toward the
    lexicographically smallest vertex tuple. Returns a tuple or None.

    ``min_ratios`` is an optional memo. When the region has no sparse
    subset, the same walk also finds ``min_ratio_subset(g, region, m // 2)``
    for its m >= 2 vertices and stores it there under the region's sorted
    vertex tuple.
    """
    scan = _Scan(g, region)
    if scan.m <= 1:
        return None
    best = None  # ((size, -bit-reversed mask), mask)
    ratio = None  # _ratio_step's best, kept while no sparse subset is known
    for h, hs, hb in scan.chunks():
        # proper subsets only, and none larger than the best so far
        top = min(scan.low, (scan.m - 1 if best is None else best[0][0]) - hs)
        if top < 0:
            continue
        mins = scan.minima(top)
        half = min(scan.low, scan.m // 2 - hs)  # <= top while best is None
        if min_ratios is not None and best is None and half >= 0:
            ratio = _ratio_step(scan, ratio, h, hs, hb, mins, half)
        sizes = range(1 if hs == 0 else 0, top + 1)  # k = 0 at h = 0 is empty
        k = next((k for k in sizes if mins[k] + hb < c * (k + hs)), None)
        if k is None:
            continue
        rev, mask = scan.best_in_class(h, k, lambda cut: cut + hb < c * (k + hs))
        key = (k + hs, -rev)
        if best is None or key < best[0]:
            best = key, mask
    if best is None:
        if min_ratios is not None:
            min_ratios[scan.vs] = _ratio_answer(ratio, scan.vs)
        return None
    return _mask_to_tuple(best[1], scan.vs)
