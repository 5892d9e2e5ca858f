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
(a stable argsort, cached as read-only uint32 masks on first use, like the
plain ``arange`` of masks the tables below are built over). Per scan it
builds a table of |∂A| over the low subsets, gathered into size order, and
one of |∂B| over the high subsets, each by popcount doubling: the subsets
holding vertex i are those without it plus i, so

    t[2**i : 2**(i+1)] = t[:2**i] + deg(i) - 2 popcount(masks[:2**i] & N(i)).

For each high vertex v it counts 2 |N(v) ∩ A| straight in size order, as
twice the popcount of each ordered mask A & N(v). The chunks run in
Gray-code order, so consecutive B differ in one vertex v and the running
table |∂A| - 2 |E(A, B)| changes by that vertex's table: one pass per chunk.

Every table the walk touches has one integer width per scan, chosen from
the region's ambient degree sum S: int8 when S < 2**7 (every region at the
cap with degrees up to 5), int16 when S < 2**15 and int32 otherwise. No
value computed in that width leaves [-S, S], so none wraps:

- the running table lies in [-S, S]: |∂A| <= sum of deg over A and
  2 |E(A, B)| <= sum of deg over A ∪ B, and after each Gray-code step it
  holds the true value for the new B;
- 2 |N(v) ∩ A| <= deg(v) + sum of deg over A <= S, since each neighbour
  in A brings at least one to its own degree;
- while doubling, |∂A| + deg(i) <= sum of deg over A + i <= S, and the
  result |∂(A + i)| lies in [0, S];
- the scans' test ``cut + hb`` (NumPy keeps ``int8 array + Python int`` in
  int8) has the true value |∂(A ∪ B)|, which lies in [0, S].

Chunks of 2**16 subsets keep each table at 64 KiB in int8, so the set-up
costs little beside the walk even at the cap. A minimum per size class
then leaves a scalar check over at most L + 1 sizes, and masks are built
only inside the winning size class.

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

CHUNK_BITS = 16  # subsets processed per chunk: 2**CHUNK_BITS
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


@lru_cache(maxsize=None)
def _masks(bits: int) -> np.ndarray:
    """All masks of `bits` bits in order, as read-only uint32."""
    masks = np.arange(1 << bits, dtype=np.uint32)
    masks.flags.writeable = False
    return masks


def _table_dtype(degree_sum: int):
    """The one integer width of a scan's tables: see the module docstring."""
    for dtype in (np.int8, np.int16):
        if degree_sum <= np.iinfo(dtype).max:
            return dtype
    return np.int32


def _twice_popcount(masks, bits: int, dtype) -> np.ndarray:
    """2 |mask & bits| for each mask, in dtype."""
    out = np.bitwise_count(masks & np.uint32(bits), out=np.empty(len(masks), dtype))
    out += out
    return out


def _boundary_table(deg, nbrs, dtype) -> np.ndarray:
    """|∂S| for every subset S of len(deg) vertices, given their ambient
    degrees and their neighbours among themselves as bitmasks."""
    masks = _masks(len(deg))
    t = np.empty(1 << len(deg), dtype=dtype)
    t[0] = 0
    for i, (d, nb) in enumerate(zip(deg, nbrs)):
        inner = _twice_popcount(masks[: 1 << i], nb, dtype)
        np.subtract(t[: 1 << i] + d, inner, out=t[1 << i : 2 << i])
    return t


@lru_cache(maxsize=None)
def _size_order(low: int) -> tuple:
    """(order, starts): the masks of all subsets of low bits sorted by size,
    then by mask, and the offset of each size class in that order."""
    size = np.bitwise_count(_masks(low))
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
        dtype = _table_dtype(sum(deg))
        # Python ints, read once per chunk without a NumPy scalar.
        self.high_boundary = _boundary_table(
            deg[low:], [nb >> low for nb in nbrs[low:]], dtype
        ).tolist()
        self.cut = _boundary_table(deg[:low], nbrs[:low], dtype).take(self.order)
        self.twice_cross = [
            _twice_popcount(self.order, nb, dtype) for nb in nbrs[low:]
        ]

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
            yield h, h.bit_count(), self.high_boundary[h]

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
