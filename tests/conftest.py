import numpy as np
import pytest

import boxgap as bg


def neighbour_rows(g):
    """Oracle neighbour lists: the sorted neighbours of every vertex, read
    from the sparse matrix in coordinate form, with a loop listed once in
    its own row."""
    adj = [set() for _ in range(g.n)]
    coo = g.matrix.tocoo()
    for u, v in zip(coo.row.tolist(), coo.col.tolist()):
        adj[u].add(v)
    for x in g.loops:
        adj[x].add(x)
    return tuple(tuple(sorted(a)) for a in adj)


def random_bounded_graph(rng, n, d, fill=0.6):
    """Random simple graph on n vertices with max degree <= d."""
    edges = set()
    deg = [0] * n
    target = max(0, int(n * d / 2 * fill))
    for _ in range(target * 6 + 10):
        u, v = int(rng.integers(0, n)), int(rng.integers(0, n))
        if u == v:
            continue
        key = (min(u, v), max(u, v))
        if key in edges or deg[u] >= d or deg[v] >= d:
            continue
        edges.add(key)
        deg[u] += 1
        deg[v] += 1
        if len(edges) >= target:
            break
    return bg.build_graph(n, sorted(edges), d)


def fresh_copy(g):
    """A new graph equal to g, with nothing in its memo yet."""
    return bg.build_graph(g.n, g.edge_array(), g.degree_bound,
                          allow_loops=g.allows_loops)


def random_triangle_graph(rng, n, d):
    """Random graph in which every edge lies in at least one triangle."""
    edges = set()
    deg = [0] * n
    for _ in range(n * 2):
        tri = rng.choice(n, size=3, replace=False)
        tri = [int(v) for v in tri]
        pairs = [
            (min(a, b), max(a, b))
            for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[0], tri[2]))
        ]
        new = [p for p in pairs if p not in edges]
        counts = {}
        for u, v in new:
            counts[u] = counts.get(u, 0) + 1
            counts[v] = counts.get(v, 0) + 1
        if any(deg[v] + c > d for v, c in counts.items()):
            continue
        for u, v in new:
            edges.add((u, v))
        for v, c in counts.items():
            deg[v] += c
    return bg.build_graph(n, sorted(edges), d)


def bridged_k4_pair():
    return bg.glue_pair(bg.complete_graph(4), bg.complete_graph(4), 0, 0, d=4)


def petersen_graph():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return bg.build_graph(10, outer + spokes + inner, 3)


@pytest.fixture(scope="session")
def small_corpus():
    """Graphs with at most 14 vertices, mixing shapes and disconnection."""
    rng = np.random.default_rng(20240811)
    graphs = [
        bg.complete_graph(2),
        bg.complete_graph(4),
        bg.complete_graph(6),
        bg.complete_graph(8),
        bg.cycle_graph(4),
        bg.cycle_graph(5),
        bg.cycle_graph(8),
        bg.cycle_graph(14),
        bg.path_graph(2),
        bg.path_graph(7),
        bg.path_graph(14),
        bg.octahedron(),
        petersen_graph(),
        bridged_k4_pair(),
        bg.disjoint_union(bg.complete_graph(3), bg.complete_graph(3)),
        bg.disjoint_union(bg.cycle_graph(4), bg.path_graph(5)),
        bg.build_graph(3, [], 2),
        bg.build_graph(6, [(0, i) for i in range(1, 6)], 5),  # star
    ]
    for _ in range(12):
        n = int(rng.integers(4, 15))
        d = int(rng.integers(2, 7))
        graphs.append(random_bounded_graph(rng, n, d))
    return graphs
