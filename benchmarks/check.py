"""Output checker for benchmark iterations (standard library only).

Every CLI output is re-derived from the corpus edge-list files, never from
``boxgap``, and numbers are compared within the tolerances below, never as
bytes: fresh-process reruns already differ in the last digits of some
spectral values. An operation is one (graph, command) pair; it fails when
its command exits nonzero or any check on that graph's output fails.
"""

from __future__ import annotations

import csv
import json
import math
import os

# Quantities the CLI computes with the same integer-over-integer division as
# the recount (h from a witness, boundary ratios, retention ratios).
TOL_RECOUNT = 1e-12
# The CLI's own --tol default; Cheeger sandwich bounds are checked with it.
TOL_BOUND = 1e-9
# Iterative eigenvalues against closed forms or another solve of the same
# operator (ARPACK tol 1e-9 with a residual check).
TOL_EIG = 1e-7
# Every retention ratio of an approx-iso witness must reach this.
MIN_RATIO = 0.9
# The CLI's default --exact-cap: graphs up to this size get exact Cheeger.
EXACT_CAP = 24


class Graph:
    """Edge-list file as adjacency sets (loops dropped: they never cross)."""

    def __init__(self, path: str):
        with open(path) as fh:
            lines = fh.read().split("\n")
        self.n = int(lines[0].split()[0])  # header: "n d"
        self.adj = [set() for _ in range(self.n)]
        self.m = 0
        for line in lines[1:]:
            if not line.strip():
                continue
            u, v = (int(x) for x in line.split())
            self.m += 1
            if u != v:
                self.adj[u].add(v)
                self.adj[v].add(u)

    def has_edge(self, u: int, v: int) -> bool:
        return 0 <= u < self.n and v in self.adj[u]

    def boundary(self, vertices) -> int:
        inside = set(vertices)
        return sum(1 for u in inside for v in self.adj[u] if v not in inside)

    def components(self) -> int:
        seen = [False] * self.n
        count = 0
        for start in range(self.n):
            if seen[start]:
                continue
            count += 1
            seen[start] = True
            stack = [start]
            while stack:
                u = stack.pop()
                for v in self.adj[u]:
                    if not seen[v]:
                        seen[v] = True
                        stack.append(v)
        return count


def _load(path: str):
    with open(path) as fh:
        return json.load(fh)


def _close(a, b, tol) -> bool:
    return a is not None and b is not None and abs(a - b) <= tol


def torus_gap(m: int) -> float:
    """Laplacian gap of the m x m triangular torus."""
    return 4.0 - 4.0 * math.cos(2.0 * math.pi / m)


def check_spectrum(g: Graph, label: dict, out: str, i: int) -> list:
    rep = _load(os.path.join(out, "spectrum", f"spectrum_{i:04d}.json"))
    errs = []
    comps = g.components()
    delta = rep["delta"]
    evs = delta["eigenvalues"]
    if rep["n"] != g.n or rep["components"] != comps:
        errs.append(f"n/components {rep['n']}/{rep['components']} != {g.n}/{comps}")
    if delta["kernel_dim"] != min(comps, len(evs)):
        errs.append(f"kernel_dim {delta['kernel_dim']} != {comps} components")
    if any(b < a - TOL_EIG for a, b in zip(evs, evs[1:])):
        errs.append("eigenvalues not ascending")
    if comps == 1 and g.n > 1 and not delta["gap"] > 0:
        errs.append(f"connected graph with gap {delta['gap']}")
    if label["family"] == "triangular_torus":
        want = torus_gap(label["m"])
        if not _close(delta["gap"], want, TOL_EIG):
            errs.append(f"torus gap {delta['gap']} != 4 - 4cos(2pi/m) = {want}")
        # Every torus edge lies in exactly two triangles: Delta_tau = 2 Delta.
        if not _close(rep["delta_tau"]["gap"], 2 * want, 2 * TOL_EIG):
            errs.append(f"torus delta_tau gap {rep['delta_tau']['gap']} != {2 * want}")
    return errs


def check_cheeger(g: Graph, label: dict, out: str, i: int) -> list:
    rep = _load(os.path.join(out, "cheeger", f"cheeger_{i:04d}.json"))
    errs = []
    h, witness = rep["h"], rep["witness"]
    connected = g.components() == 1
    want_method = "exact" if (not connected or g.n <= EXACT_CAP) else "sweep"
    if rep["n"] != g.n:
        errs.append(f"n {rep['n']} != {g.n}")
    if rep["method"] != want_method:
        errs.append(f"method {rep['method']} != {want_method}")
    if g.n >= 2:
        if not 1 <= len(witness) <= g.n // 2:
            errs.append(f"witness size {len(witness)} outside [1, n/2]")
        elif len(set(witness)) != len(witness) or not all(
            0 <= v < g.n for v in witness
        ):
            errs.append("witness is not a vertex set")
        else:
            recount = g.boundary(witness) / len(witness)
            if not _close(h, recount, TOL_RECOUNT):
                errs.append(f"h {h} != recounted |dS|/|S| {recount}")
    if not rep["lower_bound"] - TOL_BOUND <= h <= rep["upper_bound"] + TOL_BOUND:
        errs.append(f"h {h} outside [{rep['lower_bound']}, {rep['upper_bound']}]")
    if not connected and h != 0.0:
        errs.append(f"disconnected graph with h {h}")
    family = label["family"]
    if family in ("cycle", "path"):
        want = (2.0 if family == "cycle" else 1.0) / (g.n // 2)
        if not _close(h, want, TOL_RECOUNT):
            errs.append(f"{family} h {h} != {want}")
    spectrum = os.path.join(out, "spectrum", f"spectrum_{i:04d}.json")
    if connected and os.path.exists(spectrum):
        gap = _load(spectrum)["delta"]["gap"]
        if not _close(2 * rep["lower_bound"], gap, TOL_EIG):
            errs.append(f"lower bound {rep['lower_bound']} != spectrum gap/2 {gap / 2}")
    return errs


def check_zuk(g: Graph, label: dict, out: str, i: int) -> list:
    rep = _load(os.path.join(out, "zuk", f"zuk_{i:04d}.json"))
    errs = []
    if rep["valid"] and not rep["min_lambda"] > 0.5:
        errs.append(f"valid certificate with min_lambda {rep['min_lambda']}")
    if label["family"] == "triangular_torus":
        # Every link is a 6-cycle, whose first positive eigenvalue is 1/2.
        if rep["valid"] or not _close(rep["min_lambda"], 0.5, TOL_BOUND):
            errs.append(f"torus valid={rep['valid']} min_lambda={rep['min_lambda']}")
        if not rep.get("all_links_connected") or rep.get("coverage") != 1.0:
            errs.append("torus links not all connected or coverage < 1")
    if label["family"] == "margulis":
        if rep["valid"] or rep["min_lambda"] is not None or not rep.get("diagnostic"):
            errs.append("Margulis graph not reported invalid with a diagnostic")
    return errs


def check_expanderize(g: Graph, label: dict, out: str, i: int) -> list:
    base = os.path.join(out, "expanderize")
    rep = _load(os.path.join(base, f"expanderize_{i:04d}.json"))
    entry = _load(os.path.join(base, "witness.json"))["entries"][i]
    produced = Graph(os.path.join(base, "graphs", f"graph_{i:04d}.txt"))
    errs = []
    decomp, cert = rep["decomposition"], rep["certificate"]
    parts = [decomp["junk"], *decomp["pieces"]]
    if sorted(v for part in parts for v in part) != list(range(g.n)):
        errs.append("junk and pieces do not partition the vertex set")
    pieces = decomp["pieces"]
    if cert["piece_sizes"] != [len(p) for p in pieces]:
        errs.append("piece sizes do not match the pieces")
    if len(cert["boundary_ratios"]) != len(pieces):
        errs.append("one boundary ratio per piece expected")
    for j, (piece, ratio) in enumerate(zip(pieces, cert["boundary_ratios"])):
        recount = g.boundary(piece) / len(piece) if piece else 0.0
        if not _close(ratio, recount, TOL_RECOUNT):
            errs.append(f"piece {j} boundary ratio {ratio} != recount {recount}")
    kept = entry["vertices_x"]
    if kept != rep["kept_vertices"] or produced.n != len(kept):
        errs.append("witness, report and output graph disagree on kept vertices")
    if not set(kept) <= {v for piece in pieces for v in piece}:
        errs.append("a kept vertex lies outside every piece")
    vmap = dict(zip(entry["vertices_x"], entry["vertices_x2"]))
    edges = [tuple(e) for e in entry["edges_x"]]
    missing_in = [e for e in edges if not g.has_edge(*e)]
    missing_out = [
        (u, v) for u, v in edges
        if u not in vmap or v not in vmap or not produced.has_edge(vmap[u], vmap[v])
    ]
    for side, missing in (("input", missing_in), ("output", missing_out)):
        if missing:
            errs.append(f"{len(missing)} witness edges missing in the {side} "
                        f"graph, first {missing[0]}")
    return errs


def check_approx_iso(g: Graph, label: dict, out: str, i: int) -> list:
    rep = _load(os.path.join(out, "approx-iso", "approx_iso.json"))
    base = os.path.join(out, "expanderize")
    entry = _load(os.path.join(base, "witness.json"))["entries"][i]
    produced = Graph(os.path.join(base, "graphs", f"graph_{i:04d}.txt"))
    errs = []
    if rep["verdict"] is not True:
        errs.append("verdict is not true")
    ratios = rep["ratios"][i]
    matched = len(entry["edges_x"])
    want = {  # an empty side counts as fully retained, as in the CLI
        "vertices_x": len(entry["vertices_x"]) / g.n if g.n else 1.0,
        "vertices_x2": len(entry["vertices_x2"]) / produced.n if produced.n else 1.0,
        "edges_x": matched / g.m if g.m else 1.0,
        "edges_x2": matched / produced.m if produced.m else 1.0,
    }
    for key, value in want.items():
        if not _close(ratios.get(key), value, TOL_RECOUNT):
            errs.append(f"{key} ratio {ratios.get(key)} != recount {value}")
        elif ratios[key] < MIN_RATIO:
            errs.append(f"{key} ratio {ratios[key]} below {MIN_RATIO}")
    return errs


def _summary_error(out: str, command: str, graphs: int):
    """Why the command's summary.csv is unusable, or None."""
    try:
        with open(os.path.join(out, command, "summary.csv")) as fh:
            rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    except (OSError, csv.Error) as exc:
        return f"summary.csv unreadable: {exc}"
    if len(rows) - 1 != graphs:  # minus the header
        return f"summary.csv has {len(rows) - 1} rows for {graphs} graphs"
    return None


CHECKS = {
    "spectrum": check_spectrum,
    "cheeger": check_cheeger,
    "zuk": check_zuk,
    "expanderize": check_expanderize,
    "approx-iso": check_approx_iso,
}


def check_iteration(workdir: str, ops: list) -> list:
    """Failures of one iteration: (command, graph index, reason) triples.

    ``ops`` is the worker's list of {command, exit}. Every command is
    checked on every corpus graph, so an iteration attempts
    len(ops) * graphs operations and at most that many fail.
    """
    corpus = os.path.join(workdir, "corpus")
    manifest = _load(os.path.join(corpus, "manifest.json"))
    graphs = [Graph(os.path.join(corpus, e["path"])) for e in manifest]
    labels = [json.loads(e["label"]) for e in manifest]
    out = os.path.join(workdir, "out")
    failures = []
    for op in ops:
        command = op["command"]
        if op["exit"] != 0:
            failures += [(command, i, f"exit code {op['exit']}")
                         for i in range(len(graphs))]
            continue
        summary = _summary_error(out, command, len(graphs))
        for i, (g, label) in enumerate(zip(graphs, labels)):
            try:
                errs = CHECKS[command](g, label, out, i)
            except (OSError, ValueError, KeyError, IndexError, TypeError,
                    ZeroDivisionError) as exc:
                errs = [f"unreadable output: {type(exc).__name__}: {exc}"]
            if summary:
                errs.append(summary)
            if errs:
                failures.append((command, i, "; ".join(errs)))
    return failures
