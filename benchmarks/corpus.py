"""Seeded workload corpora and the CLI commands each workload runs.

A workload is a list of graphs plus an ordered list of ``boxgap`` CLI
commands. The seed draws the random graphs and one vertex relabelling per
graph; spectra, Cheeger constants and certificate values do not change under
relabelling, so every output check holds on every seed. Each graph carries a
JSON label naming its family and parameters, which the output checker uses to
pick its closed-form expectations.

Only the public ``boxgap`` API is used here, so the corpus is built the way a
library user would build it.
"""

from __future__ import annotations

import json
import random

import boxgap as bg

EXPANDERIZE_FLAGS = ("--alpha", "0.3", "--gap", "0.2", "--allow-infeasible-alpha")

# Graph sizes per workload. The smoke sizes keep every check meaningful (same
# families, same dispatch branches where cheap) but run in about a second.
SIZES = {
    "scan-large": {
        "full": {"margulis": (48, 128), "torus": (48, 96)},
        "smoke": {"margulis": (6, 8), "torus": (6, 8)},
    },
    "pipeline": {
        "full": {"pairs": (16, 24, 32), "random_junk": 20},
        "smoke": {"pairs": (8, 10), "random_junk": 12},
    },
    "exact-cap": {
        "full": {
            "cycle": 24,
            "path": 22,
            "margulis": 4,
            "random": (20, 22, 23, 25, 26),
            "union_cycles": (12, 16, 20),
            "union_random": (14, 18, 21),
        },
        "smoke": {
            "cycle": 12,
            "path": 10,
            "margulis": 3,
            "random": (10, 12, 25),
            "union_cycles": (5, 6),
            "union_random": (7,),
        },
    },
}

WORKLOADS = tuple(SIZES)


def commands(workload: str) -> list:
    """Ordered (name, extra argv) pairs; the runner adds --input and --out.

    approx-iso compares the pipeline corpus with the expanderize output, so
    the runner also passes that output's manifest and witness.
    """
    if workload == "scan-large":
        return [("spectrum", []), ("cheeger", []), ("zuk", [])]
    if workload == "pipeline":
        return [
            ("expanderize", [*EXPANDERIZE_FLAGS, "--min-component", "12"]),
            ("approx-iso", []),
        ]
    if workload == "exact-cap":
        return [
            ("cheeger", []),
            ("expanderize", [*EXPANDERIZE_FLAGS, "--min-component", "4"]),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def random_connected_graph(rng: random.Random, n: int, d: int = 4,
                           fill: float = 0.6):
    """Random connected graph with max degree <= d.

    A random Hamiltonian path makes it connected; random chords are then
    added, respecting the degree bound, up to fill * n * d / 2 edges.
    """
    order = list(range(n))
    rng.shuffle(order)
    edges = {(min(u, v), max(u, v)) for u, v in zip(order, order[1:])}
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    target = max(len(edges), int(fill * n * d / 2))
    for _ in range(20 * n):
        if len(edges) >= target:
            break
        u, v = rng.randrange(n), rng.randrange(n)
        key = (min(u, v), max(u, v))
        if u == v or key in edges or deg[u] >= d or deg[v] >= d:
            continue
        edges.add(key)
        deg[u] += 1
        deg[v] += 1
    return bg.build_graph(n, sorted(edges), d)


def relabel(g, rng: random.Random):
    """The same graph under a uniformly random vertex permutation."""
    perm = list(range(g.n))
    rng.shuffle(perm)
    edges = [(perm[u], perm[v]) for u, v in g.edges()]
    return bg.build_graph(g.n, edges, g.degree_bound, allow_loops=g.allows_loops)


def _specs(workload: str, sizes: dict, rng: random.Random) -> list:
    """(label, graph) pairs before relabelling."""
    out = []
    if workload == "scan-large":
        for n in sizes["margulis"]:
            out.append(({"family": "margulis", "n": n}, bg.margulis_graph(n)))
        for m in sizes["torus"]:
            out.append(({"family": "triangular_torus", "m": m},
                        bg.triangular_torus(m)))
    elif workload == "pipeline":
        for n in sizes["pairs"]:
            m = bg.margulis_graph(n)
            pair = bg.glue_pair(m, m, 0, 0, d=8)
            cycle = bg.cycle_graph(max(3, int(0.04 * pair.n)))
            junk = random_connected_graph(rng, sizes["random_junk"])
            g = bg.disjoint_union(bg.disjoint_union(pair, cycle, d=8), junk, d=8)
            out.append(({"family": "bridged_margulis_pair", "n": n,
                         "pair_vertices": pair.n, "cycle": cycle.n,
                         "random_junk": junk.n}, g))
    elif workload == "exact-cap":
        out.append(({"family": "cycle", "n": sizes["cycle"]},
                    bg.cycle_graph(sizes["cycle"])))
        out.append(({"family": "path", "n": sizes["path"]},
                    bg.path_graph(sizes["path"])))
        out.append(({"family": "margulis", "n": sizes["margulis"]},
                    bg.margulis_graph(sizes["margulis"])))
        for n in sizes["random"]:
            out.append(({"family": "random", "n": n},
                        random_connected_graph(rng, n)))
        parts = [bg.cycle_graph(n) for n in sizes["union_cycles"]]
        parts += [random_connected_graph(rng, n) for n in sizes["union_random"]]
        union = parts[0]
        for part in parts[1:]:
            union = bg.disjoint_union(union, part, d=4)
        out.append(({"family": "union",
                     "cycles": list(sizes["union_cycles"]),
                     "random": list(sizes["union_random"])}, union))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return out


def build(workload: str, seed: int, smoke: bool = False):
    """The workload's box space; labels are JSON family descriptions."""
    if workload not in SIZES:
        raise ValueError(f"unknown workload {workload!r}")
    sizes = SIZES[workload]["smoke" if smoke else "full"]
    rng = random.Random(f"boxgap-bench:{workload}:{seed}")
    graphs, labels = [], []
    for label, g in _specs(workload, sizes, rng):
        graphs.append(relabel(g, rng))
        labels.append(json.dumps(label, sort_keys=True))
    d = max(g.degree_bound for g in graphs)
    return bg.BoxSpace(graphs=graphs, d=d, labels=labels)
