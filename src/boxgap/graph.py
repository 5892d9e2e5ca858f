"""Immutable bounded-degree graphs and the set/boundary/ball primitives.

Graphs are simple undirected graphs with a recorded degree bound; loops are
permitted only when explicitly requested (they count 1 toward the degree and
are ignored by boundaries, distances and Laplacians). Each graph also carries
its 0/1 adjacency as a sparse CSR matrix, ``Graph.matrix``, built once on first
use; it is the only place where edges become arrays, and the Laplacians,
triangle weights and connected components all read it. Loops are left out of
it. The connected components, ``Graph.components``, are likewise found once
per graph. Vertex subsets are plain sorted tuples of indices. Disconnected
graphs are first class throughout; distance across components is treated as
infinite and never compared.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components as _csgraph_components

from .errors import DegreeExceeded, DuplicateEdge, VertexOutOfRange

VertexSet = tuple  # sorted tuple of vertex indices


@dataclass(frozen=True)
class Graph:
    """Finite undirected graph with sorted adjacency lists.

    ``adjacency[x]`` is the sorted tuple of neighbors of ``x``; symmetry and
    the degree bound are validated at construction time. A loop at ``x`` is
    recorded as a single occurrence of ``x`` in its own adjacency list.
    ``matrix`` is the same adjacency as an n x n CSR matrix of float 0/1
    entries with sorted indices and loops excluded, cached on first access.
    """

    n: int
    adjacency: tuple
    degree_bound: int
    allows_loops: bool = False
    edge_labels: tuple | None = field(default=None, compare=False)

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def neighbors(self, v: int) -> tuple:
        return self.adjacency[v]

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adjacency[u]

    def edges(self):
        """Yield each edge once as (u, v) with u <= v."""
        for u in range(self.n):
            for v in self.adjacency[u]:
                if u <= v:
                    yield (u, v)

    @property
    def num_edges(self) -> int:
        loops = sum(1 for u in range(self.n) if u in self.adjacency[u])
        return (sum(len(a) for a in self.adjacency) + loops) // 2

    def max_degree(self) -> int:
        return max((len(a) for a in self.adjacency), default=0)

    def nonloop_degree(self, v: int) -> int:
        return len(self.adjacency[v]) - (1 if v in self.adjacency[v] else 0)

    @cached_property
    def matrix(self) -> sp.csr_matrix:
        indptr = np.cumsum([0, *map(self.nonloop_degree, range(self.n))])
        cols = [v for u, a in enumerate(self.adjacency) for v in a if v != u]
        return sp.csr_matrix(
            (np.ones(len(cols)), cols, indptr), shape=(self.n, self.n)
        )

    @cached_property
    def components(self) -> tuple:
        """Vertex sets of the connected components, each sorted, in order of
        smallest member (csgraph numbers components in that order)."""
        count, labels = _csgraph_components(self.matrix, directed=False)
        members = np.argsort(labels, kind="stable")
        ends = np.cumsum(np.bincount(labels, minlength=count))
        return tuple(tuple(c.tolist()) for c in np.split(members, ends)[:-1])

    def label_of(self, u: int, v: int):
        if self.edge_labels is None:
            return None
        key = (min(u, v), max(u, v))
        for pair, lab in self.edge_labels:
            if pair == key:
                return lab
        return None


def _check_vertex(v: int, n: int) -> None:
    if not 0 <= v < n:
        raise VertexOutOfRange(v, n)


def vertex_set(g: Graph, vertices) -> VertexSet:
    """Normalize an iterable of vertices into a validated sorted tuple."""
    vs = sorted(set(int(v) for v in vertices))
    for v in vs:
        _check_vertex(v, g.n)
    return tuple(vs)


def build_graph(n, edges, d, allow_loops=False, edge_labels=None) -> Graph:
    """Build a validated graph from an edge list.

    Raises VertexOutOfRange, DuplicateEdge or DegreeExceeded. The adjacency
    lists come out sorted, so equal edge sets give equal graphs.
    """
    if n < 0:
        raise ValueError("vertex count must be non-negative")
    if d < 1:
        raise ValueError("degree bound must be positive")
    adj = [set() for _ in range(n)]
    loops = set()
    for u, v in edges:
        _check_vertex(u, n)
        _check_vertex(v, n)
        if u == v:
            if not allow_loops:
                raise DuplicateEdge((u, v))
            if u in loops:
                raise DuplicateEdge((u, v))
            loops.add(u)
            continue
        if v in adj[u]:
            raise DuplicateEdge((min(u, v), max(u, v)))
        adj[u].add(v)
        adj[v].add(u)
    for u in loops:
        adj[u].add(u)
    for v in range(n):
        if len(adj[v]) > d:
            raise DegreeExceeded(v, len(adj[v]), d)
    labels = None
    if edge_labels:
        items = edge_labels.items() if hasattr(edge_labels, "items") else edge_labels
        labels = tuple(
            sorted(((min(u, v), max(u, v)), str(lab)) for (u, v), lab in items)
        )
    return Graph(
        n=n,
        adjacency=tuple(tuple(sorted(a)) for a in adj),
        degree_bound=d,
        allows_loops=allow_loops or bool(loops),
        edge_labels=labels,
    )


def boundary_edges(g: Graph, s) -> list:
    """Edges of g with exactly one endpoint in s, as (inside, outside) pairs."""
    sset = set(vertex_set(g, s))
    out = []
    for u in sorted(sset):
        for v in g.adjacency[u]:
            if v != u and v not in sset:
                out.append((u, v))
    return out


def boundary_size(g: Graph, s) -> int:
    """|∂s|: the number of edges crossing between s and its complement."""
    return len(boundary_edges(g, s))


def sweep_profile(g: Graph, order) -> np.ndarray:
    """Boundary sizes of every prefix of a vertex order.

    ``order`` is a sequence of distinct vertices of g; the result b has
    b[k] = |∂{order[0], ..., order[k]}|. The boundary is ambient, so edges
    from an ordered vertex to a vertex outside ``order`` count, and loops
    are ignored. With every unordered vertex ranked len(order), a non-loop
    edge crosses prefix k exactly when min rank <= k < max rank, so one
    difference array over edge ranks gives all prefixes in
    O(n + edges at the ordered vertices).
    """
    order = np.asarray(order, dtype=np.int64)
    m = len(order)
    rank = np.full(g.n, m, dtype=np.int64)
    rank[order] = np.arange(m)
    degrees = [len(g.adjacency[v]) for v in order]
    lo = np.repeat(np.arange(m), degrees)
    hi = rank[np.fromiter(
        (w for v in order for w in g.adjacency[v]), dtype=np.int64,
        count=len(lo),
    )]
    # Each crossing edge once, from its lower-ranked end; loops have lo == hi.
    keep = lo < hi
    diff = (np.bincount(lo[keep], minlength=m + 1)
            - np.bincount(hi[keep], minlength=m + 1))
    return np.cumsum(diff[:m])


def ball(g: Graph, center: int, r: int) -> VertexSet:
    """All vertices at graph distance at most r from center."""
    _check_vertex(center, g.n)
    return ball_of_set(g, (center,), r)


def ball_of_set(g: Graph, s, r: int) -> VertexSet:
    """All vertices at graph distance at most r from the set s."""
    if r < 0:
        raise ValueError("radius must be non-negative")
    seen = set(vertex_set(g, s))
    frontier = set(seen)
    for _ in range(r):
        if not frontier:
            break
        nxt = set()
        for u in frontier:
            for v in g.adjacency[u]:
                if v not in seen:
                    seen.add(v)
                    nxt.add(v)
        frontier = nxt
    return tuple(sorted(seen))


def connected_components(g: Graph) -> list:
    """``g.components`` as a fresh list."""
    return list(g.components)


def induced_subgraph(g: Graph, s):
    """Subgraph induced on s, re-indexed 0..|s|-1.

    Returns (subgraph, index_map) where index_map[new_index] = old_index.
    """
    vs = vertex_set(g, s)
    pos = {v: i for i, v in enumerate(vs)}
    edges = []
    for u in vs:
        for v in g.adjacency[u]:
            if v in pos and u <= v:
                edges.append((pos[u], pos[v]))
    sub = build_graph(len(vs), edges, g.degree_bound, allow_loops=g.allows_loops)
    return sub, vs


def disjoint_union(g1: Graph, g2: Graph, d: int | None = None) -> Graph:
    """Disjoint union with g2's vertices shifted by g1.n."""
    if d is None:
        d = max(g1.degree_bound, g2.degree_bound)
    off = g1.n
    edges = list(g1.edges()) + [(u + off, v + off) for u, v in g2.edges()]
    return build_graph(
        g1.n + g2.n,
        edges,
        d,
        allow_loops=g1.allows_loops or g2.allows_loops,
    )


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
# Text formats: "n d" header plus one "u v" line per edge; manifests are JSON
# arrays of {path, label} with paths relative to the manifest file.


def write_edge_list(g: Graph, path) -> None:
    with open(path, "w") as fh:
        fh.write(f"{g.n} {g.degree_bound}\n")
        for u, v in g.edges():
            fh.write(f"{u} {v}\n")


def read_edge_list(path) -> Graph:
    with open(path) as fh:
        lines = fh.read().splitlines()
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
    loops = False
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
        if u == v:
            loops = True
        edges.append((u, v))
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
    with open(path) as fh:
        entries = json.load(fh)
    base = os.path.dirname(os.path.abspath(path))
    graphs = []
    labels = []
    for entry in entries:
        graphs.append(read_edge_list(os.path.join(base, entry["path"])))
        labels.append(entry.get("label"))
    d = max((g.degree_bound for g in graphs), default=1)
    return BoxSpace(graphs=graphs, d=d, labels=labels)
