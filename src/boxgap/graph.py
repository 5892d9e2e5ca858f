"""Immutable bounded-degree graphs and the set/boundary/ball primitives.

Graphs are simple undirected graphs with a recorded degree bound; loops are
permitted only when explicitly requested (they count 1 toward the degree and
are ignored by boundaries, distances and Laplacians). A graph is stored once,
as the CSR arrays ``indptr``/``indices`` of its loop-free adjacency plus the
sorted tuple of looped vertices, and only this module builds those arrays.
``build_graph`` takes either (u, v) pairs or an (m, 2) integer ndarray,
which the generators and the edge-list reader pass without a Python list in
between, and ``edge_array`` gives the edges back in that form, so code that
edits a graph works on the array and builds a new graph from it.
``matrix`` (a zero-copy sparse wrap that the Laplacians, triangle weights
and components read) and ``components`` are derived and built once on first
use. Vertex subsets are plain sorted tuples of indices. Disconnected graphs
are first class throughout; distance across components is treated as
infinite and never compared.

Edge-list files are parsed in one bulk ``np.loadtxt`` call when their text
holds only digits, signs, spaces, tabs and newlines; any other text, and
any body that call rejects, goes through a line loop that accepts the same
files and names the offending line.
"""

from __future__ import annotations

import io
import json
import os
import re
import reprlib
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components as _csgraph_components

from .errors import DegreeExceeded, DuplicateEdge, VertexOutOfRange

VertexSet = tuple  # sorted tuple of vertex indices


@dataclass(frozen=True, eq=False)
class Graph:
    """Finite undirected graph stored as CSR arrays.

    Row x of ``indptr``/``indices`` (int32, read-only) lists the neighbours
    of x other than x itself, sorted; ``loops`` is the sorted tuple of
    vertices carrying a loop. These arrays and ``loops`` are the whole
    graph: ``edge_array`` and ``edges`` list its edges and ``has_edge``
    searches row u; ``has_edge`` and the degrees raise VertexOutOfRange for
    a vertex outside [0, n). Build graphs with ``build_graph``, which
    validates symmetry and the degree bound. Two graphs are equal when they
    have the same vertex count, edges, loops, degree bound and loop flag.
    """

    n: int
    indptr: np.ndarray
    indices: np.ndarray
    loops: tuple
    degree_bound: int
    allows_loops: bool = False

    def __post_init__(self):
        for name in ("indptr", "indices"):
            arr = np.asarray(getattr(self, name), dtype=np.int32)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    def _key(self) -> tuple:
        return (self.n, self.loops, self.degree_bound, self.allows_loops,
                self.indptr.tobytes(), self.indices.tobytes())

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def _check(self, *vs) -> None:
        for v in vs:
            if not 0 <= v < self.n:
                raise VertexOutOfRange(v, self.n)

    def nonloop_degree(self, v: int) -> int:
        self._check(v)
        return int(self.indptr[v + 1] - self.indptr[v])

    def degree(self, v: int) -> int:
        return self.nonloop_degree(v) + self.has_edge(v, v)

    def has_edge(self, u: int, v: int) -> bool:
        self._check(u, v)
        if u == v:
            i = bisect_left(self.loops, u)
            return self.loops[i : i + 1] == (u,)
        # A binary search in row u; bisect on the array beats np.searchsorted
        # on a row slice for rows this short.
        lo, hi = int(self.indptr[u]), int(self.indptr[u + 1])
        i = bisect_left(self.indices, v, lo, hi)
        return bool(i < hi and self.indices[i] == v)

    def edge_array(self) -> np.ndarray:
        """Each edge once as a row (u, v) with u <= v, ordered by u then v,
        loops included: an (m, 2) int64 array that ``build_graph`` takes."""
        rows = np.repeat(np.arange(self.n, dtype=np.int64), np.diff(self.indptr))
        upper = self.indices > rows
        u, v = rows[upper], self.indices[upper].astype(np.int64)
        at = np.searchsorted(u, self.loops)  # (x, x) goes first in row x
        return np.stack((np.insert(u, at, self.loops),
                         np.insert(v, at, self.loops)), axis=1)

    def has_edges(self, pairs: np.ndarray) -> np.ndarray:
        """Whether each row (u, v) of an int64 array, in either order, is an
        edge (or, for u == v, a loop) of the graph."""
        return np.isin(np.sort(pairs, axis=1) @ (self.n, 1),
                       self.edge_array() @ (self.n, 1))

    def edges(self):
        """``edge_array`` as (u, v) tuples of Python ints."""
        e = self.edge_array()
        return zip(e[:, 0].tolist(), e[:, 1].tolist())

    @property
    def num_edges(self) -> int:
        return len(self.indices) // 2 + len(self.loops)

    def max_degree(self) -> int:
        deg = np.diff(self.indptr)
        deg[np.asarray(self.loops, dtype=np.intp)] += 1
        return int(deg.max(initial=0))

    @cached_property
    def matrix(self) -> sp.csr_matrix:
        """The loop-free adjacency as an n x n CSR matrix of float 0/1
        entries, sharing ``indptr`` and ``indices``."""
        return sp.csr_matrix(
            (np.ones(len(self.indices)), self.indices, self.indptr),
            shape=(self.n, self.n),
        )

    @cached_property
    def components(self) -> tuple:
        """Vertex sets of the connected components, each sorted, in order of
        smallest member (csgraph numbers components in that order)."""
        count, labels = _csgraph_components(self.matrix, directed=False)
        members = np.argsort(labels, kind="stable")
        ends = np.cumsum(np.bincount(labels, minlength=count))
        return tuple(tuple(c.tolist()) for c in np.split(members, ends)[:-1])


def vertex_set(g: Graph, vertices) -> VertexSet:
    """Normalize an iterable of vertices into a validated sorted tuple."""
    vs = sorted(set(int(v) for v in vertices))
    for v in vs:
        if not 0 <= v < g.n:
            raise VertexOutOfRange(v, g.n)
    return tuple(vs)


def int64_pairs(pairs, n: int) -> np.ndarray:
    """A list of (u, v) pairs as an int64 array; a vertex past int64 becomes
    -1 or n, which is out of range all the same."""
    try:
        return np.array(pairs, dtype=np.int64)
    except OverflowError:
        return np.array([[min(max(x, -1), n) for x in uv] for uv in pairs],
                        dtype=np.int64)


def build_graph(n, edges, d, allow_loops=False) -> Graph:
    """Build a validated graph from an edge list.

    ``edges`` is an iterable of (u, v) pairs or an (m, 2) integer ndarray,
    which is used as it is, with no Python list in between. Raises
    VertexOutOfRange, DuplicateEdge or DegreeExceeded, with Python ints in
    the payload. The first offending edge in input order decides between
    the first two: a vertex out of range, a repeated edge in either
    orientation, or a loop that is repeated or not allowed. Degrees are
    checked once every edge is valid. Equal edge sets give equal graphs.
    """
    if n < 0:
        raise ValueError("vertex count must be non-negative")
    if d < 1:
        raise ValueError("degree bound must be positive")
    if isinstance(edges, np.ndarray):
        given = e = edges.astype(np.int64, casting="safe", copy=False)
    else:
        given = list(edges)
        e = int64_pairs(given, n)
    if e.size and e.shape[1:] != (2,):
        raise ValueError("edges must be (u, v) pairs")
    e = e.reshape(-1, 2)
    lo, hi = e.min(axis=1), e.max(axis=1)
    outside = (lo < 0) | (hi >= n)
    # Every later copy of a key is bad; a key of an edge outside the range
    # can only make a later edge bad, so the first bad edge is the same.
    bad = np.ones(len(e), dtype=bool)
    bad[np.unique(lo * n + hi, return_index=True)[1]] = False
    bad |= outside | ((lo == hi) & (not allow_loops))
    if bad.any():
        i = int(np.argmax(bad))
        if outside[i]:
            u, v = (int(x) for x in given[i])
            raise VertexOutOfRange(v if 0 <= u < n else u, n)
        raise DuplicateEdge((int(lo[i]), int(hi[i])))
    is_loop = lo == hi
    loops = np.sort(lo[is_loop])
    lo, hi = lo[~is_loop], hi[~is_loop]
    keys = np.sort(np.concatenate((lo * n + hi, hi * n + lo)))
    rows, cols = np.divmod(keys, max(n, 1))
    row_len = np.bincount(rows, minlength=n)
    deg = row_len + np.bincount(loops, minlength=n)
    if (deg > d).any():
        v = int(np.argmax(deg > d))
        raise DegreeExceeded(v, int(deg[v]), d)
    return Graph(
        n=n,
        indptr=np.concatenate(([0], np.cumsum(row_len))),
        indices=cols,
        loops=tuple(loops.tolist()),
        degree_bound=d,
        allows_loops=bool(allow_loops),
    )


def _gather(g: Graph, vs: np.ndarray):
    """(i, w) over the loop-free rows of the vertices vs, in order: w runs
    through the sorted neighbours of vs[i]."""
    starts = g.indptr[vs]
    counts = g.indptr[vs + 1] - starts
    i = np.repeat(np.arange(len(vs)), counts)
    shift = starts - (np.cumsum(counts) - counts)
    return i, g.indices[np.arange(len(i)) + shift[i]]


def boundary_edges(g: Graph, s) -> list:
    """Edges of g with exactly one endpoint in s, as (inside, outside) pairs."""
    vs = np.array(vertex_set(g, s), dtype=np.int64)
    inside = np.zeros(g.n, dtype=bool)
    inside[vs] = True
    i, w = _gather(g, vs)
    out = ~inside[w]
    return list(zip(vs[i[out]].tolist(), w[out].tolist()))


def boundary_size(g: Graph, s) -> int:
    """|∂s|: the number of edges crossing between s and its complement."""
    return len(boundary_edges(g, s))


def sweep_profile(g: Graph, order) -> np.ndarray:
    """Boundary sizes of every prefix of a vertex order.

    ``order`` is a sequence of distinct vertices of g; the result b has
    b[k] = |∂{order[0], ..., order[k]}|. The boundary is ambient, so edges
    from an ordered vertex to a vertex outside ``order`` count, and loops
    are ignored. With every unordered vertex ranked len(order), an edge
    crosses prefix k exactly when min rank <= k < max rank, so one
    difference array over edge ranks gives all prefixes in
    O(n + edges at the ordered vertices).
    """
    order = np.asarray(order, dtype=np.int64)
    m = len(order)
    rank = np.full(g.n, m, dtype=np.int64)
    rank[order] = np.arange(m)
    lo, w = _gather(g, order)
    hi = rank[w]
    # Each crossing edge once, from its lower-ranked end.
    keep = lo < hi
    diff = (np.bincount(lo[keep], minlength=m + 1)
            - np.bincount(hi[keep], minlength=m + 1))
    return np.cumsum(diff[:m])


def ball(g: Graph, center: int, r: int) -> VertexSet:
    """All vertices at graph distance at most r from center."""
    return ball_of_set(g, (center,), r)


def ball_of_set(g: Graph, s, r: int) -> VertexSet:
    """All vertices at graph distance at most r from the set s."""
    if r < 0:
        raise ValueError("radius must be non-negative")
    frontier = np.array(vertex_set(g, s), dtype=np.int64)
    seen = np.zeros(g.n, dtype=bool)
    seen[frontier] = True
    for _ in range(r):
        if not len(frontier):
            break
        _, w = _gather(g, frontier)
        frontier = np.unique(w[~seen[w]])
        seen[frontier] = True
    return tuple(np.flatnonzero(seen).tolist())


def connected_components(g: Graph) -> list:
    """``g.components`` as a fresh list."""
    return list(g.components)


def induced_subgraph(g: Graph, s):
    """Subgraph induced on s, re-indexed 0..|s|-1.

    Returns (subgraph, index_map) where index_map[new_index] = old_index.
    """
    vs = vertex_set(g, s)
    old = np.array(vs, dtype=np.int64)
    pos = np.full(g.n, -1, dtype=np.int64)
    pos[old] = np.arange(len(vs))
    i, w = _gather(g, old)
    new = pos[w]
    keep = new >= 0
    row_len = np.bincount(i[keep], minlength=len(vs))
    loops = pos[np.asarray(g.loops, dtype=np.int64)]
    sub = Graph(
        n=len(vs),
        indptr=np.concatenate(([0], np.cumsum(row_len))),
        indices=new[keep],
        loops=tuple(loops[loops >= 0].tolist()),
        degree_bound=g.degree_bound,
        allows_loops=g.allows_loops,
    )
    return sub, vs


def disjoint_union(g1: Graph, g2: Graph, d: int | None = None) -> Graph:
    """Disjoint union with g2's vertices shifted by g1.n."""
    if d is None:
        d = max(g1.degree_bound, g2.degree_bound)
    edges = np.concatenate((g1.edge_array(), g2.edge_array() + g1.n))
    return build_graph(g1.n + g2.n, edges, d,
                       allow_loops=g1.allows_loops or g2.allows_loops)


@dataclass
class BoxSpace:
    """An indexed sequence of graphs sharing one degree bound."""

    graphs: list
    d: int
    labels: list | None = None

    def __post_init__(self):
        for i, g in enumerate(self.graphs):
            if g.max_degree() > self.d:
                raise DegreeExceeded(i, g.max_degree(), self.d)
        if self.labels is not None and len(self.labels) != len(self.graphs):
            raise ValueError("labels must align with graphs")

    def __len__(self):
        return len(self.graphs)

    def sizes(self) -> list:
        return [g.n for g in self.graphs]

    def monotone_sizes(self) -> bool:
        """Whether |X_i| is non-decreasing. Reported, never enforced."""
        sz = self.sizes()
        return all(a <= b for a, b in zip(sz, sz[1:]))


# ---------------------------------------------------------------------------
# JSON input entries

_JSON_KINDS = {
    dict: "an object", list: "a list", int: "an integer", str: "a string",
    bool: "a boolean",
}


def _is(value, kind) -> bool:
    """isinstance, except that JSON true and false are not integers."""
    return isinstance(value, kind) and (kind is not int or type(value) is not bool)


def expect(value, kind, what: str):
    """value if it is an instance of kind, else a ValueError naming what,
    the JSON entry it was read from."""
    if not _is(value, kind):
        raise ValueError(
            f"{what} must be {_JSON_KINDS[kind]}, got {reprlib.repr(value)}")
    return value


def expect_items(value, kind, what: str) -> list:
    """value if it is a list of instances of kind, else a ValueError naming
    the first entry that is not."""
    if not all(_is(x, kind) for x in expect(value, list, what)):
        j = next(j for j, x in enumerate(value) if not _is(x, kind))
        expect(value[j], kind, f"{what}[{j}]")
    return value


# ---------------------------------------------------------------------------
# Text formats: "n d" header plus one "u v" line per edge; manifests are JSON
# arrays of {path, label} with paths relative to the manifest file.


def write_edge_list(g: Graph, path) -> None:
    with open(path, "w") as fh:
        fh.write(f"{g.n} {g.degree_bound}\n")
        for u, v in g.edges():
            fh.write(f"{u} {v}\n")


# Text of only digits, signs, spaces, tabs and newlines: there the lines are
# the pieces between newlines and the tokens the runs between spaces and
# tabs, for Python and for np.loadtxt alike, so the bulk parse can accept
# nothing that the line loop rejects.
_PLAIN_TEXT = re.compile(r"[0-9 \t\n+-]*")


def _parse_bulk(text):
    """(n, d, edges) with edges an (m, 2) int64 array, or None when the line
    loop must decide (and phrase the error)."""
    if not _PLAIN_TEXT.fullmatch(text):
        return None
    head, _, body = text.partition("\n")
    try:
        n, d = map(int, head.split())
        if not body or body.isspace():
            return n, d, np.empty((0, 2), dtype=np.int64)
        edges = np.loadtxt(io.StringIO(body), dtype=np.int64, ndmin=2,
                           comments=None)
    except ValueError:  # bad token, token count or int64 overflow
        return None
    return (n, d, edges) if edges.shape[1] == 2 else None


def _parse_lines(path, text):
    """(n, d, edges) with edges a list of int pairs, one line at a time."""
    lines = text.splitlines()
    if not lines:
        raise ValueError(f"{path}: empty file")
    head = lines[0].split()
    if len(head) != 2:
        raise ValueError(f"{path}:1: expected header 'n d'")
    try:
        n, d = int(head[0]), int(head[1])
    except ValueError:
        raise ValueError(f"{path}:1: expected header 'n d'") from None
    edges = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"{path}:{lineno}: expected 'u v'")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(f"{path}:{lineno}: expected 'u v'") from None
        edges.append((u, v))
    return n, d, edges


def read_edge_list(path) -> Graph:
    """Read an edge-list file. The body is parsed in one bulk call; any text
    that call does not take goes through the line loop, which accepts the
    same files and reports the error with its line number."""
    with open(path) as fh:
        text = fh.read()
    parsed = _parse_bulk(text)
    if parsed is not None:
        n, d, edges = parsed
        loops = bool((edges[:, 0] == edges[:, 1]).any())
    else:
        n, d, edges = _parse_lines(path, text)
        loops = any(u == v for u, v in edges)
    return build_graph(n, edges, d, allow_loops=loops)


def write_manifest(box: BoxSpace, directory, name="manifest.json") -> str:
    """Write each graph as an edge list plus a manifest referencing them."""
    os.makedirs(directory, exist_ok=True)
    entries = []
    for i, g in enumerate(box.graphs):
        fname = f"graph_{i:04d}.txt"
        write_edge_list(g, os.path.join(directory, fname))
        label = box.labels[i] if box.labels else None
        entries.append({"path": fname, "label": label})
    mpath = os.path.join(directory, name)
    with open(mpath, "w") as fh:
        json.dump(entries, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return mpath


def read_manifest(path) -> BoxSpace:
    """Read a manifest of write_manifest's form; a ValueError names the first
    entry that is not an object with a string path."""
    with open(path) as fh:
        entries = expect(json.load(fh), list, "manifest")
    base = os.path.dirname(os.path.abspath(path))
    graphs = []
    labels = []
    for i, entry in enumerate(entries):
        what = f"manifest[{i}]"
        rel = expect(expect(entry, dict, what).get("path"), str, f"{what}.path")
        graphs.append(read_edge_list(os.path.join(base, rel)))
        labels.append(entry.get("label"))
    d = max((g.degree_bound for g in graphs), default=1)
    return BoxSpace(graphs=graphs, d=d, labels=labels)
