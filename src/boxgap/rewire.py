"""Detach inner-expanding pieces by rewiring their boundary edges inward.

A piece P whose small subsets all expand at rate C, and whose boundary is
below alpha |P|, can be cut loose: each boundary edge is paired with a
well-separated interior edge F, both are removed, and the dangling inner
endpoint is wired to the far endpoint of its F-edge. Stranded fragments
(when an F-edge separated its small side) are deleted. The detached piece
keeps degree at most d and, in the regime the construction targets, has
Cheeger constant at least C/6; at small sizes that is verified exactly.

The pipeline entry point runs the level-set decomposition, rewires every
piece sequentially on a shared working graph, drops the junk part and tiny
components, and emits a matched-subgraph witness relating input and output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .cheeger import (
    EXACT_CAP,
    cheeger_exact,
    inner_expansion_exact,
    second_eigenvalue,
)
from .decompose import KunParams, kun_partition
from .errors import HypothesisFailed, InsufficientSeparatedEdges
from .generators import ApproxIsoWitness, WitnessEntry
from .graph import (
    BoxSpace,
    Graph,
    boundary_edges,
    build_graph,
    connected_components,
    induced_subgraph,
    vertex_set,
)


def alpha_feasible(alpha: float, c_inner: float, d: int) -> bool:
    """Whether alpha < 1/d^(r+1) with r = ceil(4 / c_inner).

    This is the threshold below which the separated-edge selection has a
    feasibility certificate. A power too large for a float is infeasible.
    """
    r = math.ceil(4.0 / c_inner)
    try:
        return alpha < 1.0 / float(d) ** (r + 1)
    except OverflowError:
        return False


def select_separated_edges(g: Graph, piece, r: int, count: int) -> list:
    """Greedily pick interior edges of the piece, pairwise 2r apart.

    Eligible edges have both endpoints inside the piece, with neither
    endpoint in, or adjacent to, the set Q of inner boundary endpoints.
    Edges are considered in (min, max) order; distances are graph distances
    in g. Raises InsufficientSeparatedEdges when fewer than count fit.
    """
    piece = vertex_set(g, piece)
    pset = set(piece)
    if count == 0:
        return []
    q = {u for u, _ in boundary_edges(g, piece)}
    excluded = set(q)
    for u in q:
        excluded.update(w for w in g.adjacency[u])
    eligible = sorted(
        (u, v)
        for u in piece
        for v in g.adjacency[u]
        if u < v and v in pset and u not in excluded and v not in excluded
    )
    selected = []
    dist = [math.inf] * g.n
    for u, v in eligible:
        if dist[u] < 2 * r or dist[v] < 2 * r:
            continue
        selected.append((u, v))
        if len(selected) == count:
            return selected
        # Multi-source BFS from the new edge, capped at depth 2r - 1.
        frontier = {u, v}
        dist[u] = dist[v] = 0
        for depth in range(1, 2 * r):
            nxt = set()
            for x in frontier:
                for y in g.adjacency[x]:
                    if dist[y] > depth:
                        dist[y] = depth
                        nxt.add(y)
            if not nxt:
                break
            frontier = nxt
    raise InsufficientSeparatedEdges(len(selected), count)


@dataclass
class RewireResult:
    new_graph: Graph
    piece_before: tuple
    piece: tuple  # after stranded-fragment removal
    edits: list  # [{op: add|remove|remove_vertex, ...}]
    edit_units: int  # number of rewired boundary edges
    removed_vertices: tuple
    r: int
    boundary_before: int
    alpha: float
    C: float
    alpha_feasible: bool  # alpha < 1/d^(r+1)
    hypothesis_verified: bool
    budget_edits_ok: bool
    budget_removed_ok: bool
    degree_ok: bool
    connected: bool
    cheeger_evidence: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        d = {k: v for k, v in self.__dict__.items() if k != "new_graph"}
        d["piece_before"] = list(self.piece_before)
        d["piece"] = list(self.piece)
        d["removed_vertices"] = list(self.removed_vertices)
        return d


def rewire_piece(
    g: Graph,
    piece,
    c_inner: float,
    alpha: float,
    exact_cap: int = EXACT_CAP,
    verify: bool = True,
) -> RewireResult:
    """Remove the piece's boundary and restore expansion by rewiring.

    Requires |∂P| < alpha |P|. The inner-expansion hypothesis (every T of at
    most half the piece has ambient boundary at least c_inner |T|) is
    verified exhaustively up to exact_cap vertices, raising HypothesisFailed
    with a witness; larger pieces carry hypothesis_verified = False. The
    separation radius is r = ceil(4 / c_inner).
    """
    piece = vertex_set(g, piece)
    if not piece:
        raise ValueError("piece must be nonempty")
    if c_inner <= 0 or not 0 < alpha < 1:
        raise ValueError("need c_inner > 0 and alpha in (0, 1)")
    bedges = sorted(boundary_edges(g, piece))
    if len(bedges) >= alpha * len(piece):
        raise ValueError(
            f"boundary {len(bedges)} not below alpha |P| = {alpha * len(piece):.3g}"
        )
    hypothesis_verified = False
    if verify and len(piece) <= exact_cap:
        value, witness = inner_expansion_exact(g, piece, exact_cap)
        if value is not None and value < c_inner:
            raise HypothesisFailed(witness, value, c_inner)
        hypothesis_verified = True
    r = math.ceil(4.0 / c_inner)

    edits = []
    adj = [set(a) for a in g.adjacency]

    def remove_edge(u, v):
        adj[u].discard(v)
        adj[v].discard(u)
        edits.append({"op": "remove", "edge": [min(u, v), max(u, v)]})

    def add_edge(u, v):
        adj[u].add(v)
        adj[v].add(u)
        edits.append({"op": "add", "edge": [min(u, v), max(u, v)]})

    def piece_components():
        # Component index and size per piece vertex; once its boundary is
        # removed, the piece is closed under adj.
        pos = {v: i for i, v in enumerate(piece)}
        sub = build_graph(len(piece), [
            (pos[u], pos[v]) for u in piece for v in adj[u] if u < v
        ], g.degree_bound)
        comps = connected_components(sub)
        comp_id = {piece[i]: cid for cid, comp in enumerate(comps) for i in comp}
        return comp_id, [len(comp) for comp in comps]

    removed_vertices = ()
    new_piece = piece
    if bedges:
        f_edges = select_separated_edges(g, piece, r, len(bedges))
        for u, v_out in bedges:
            remove_edge(u, v_out)
        for e in f_edges:
            remove_edge(*e)
        # Larger-component endpoint of each removed interior edge, measured
        # in the piece after all removals; ties go to the smaller index.
        comp_id, sizes = piece_components()
        plus = {}
        for u, v in f_edges:
            if comp_id[u] == comp_id[v]:
                plus[(u, v)] = min(u, v)
            elif sizes[comp_id[u]] != sizes[comp_id[v]]:
                plus[(u, v)] = u if sizes[comp_id[u]] > sizes[comp_id[v]] else v
            else:
                plus[(u, v)] = min(u, v)
        for (x, _), e in zip(bedges, f_edges):
            add_edge(x, plus[e])
        # Fragments stranded from their e+ side are deleted outright.
        comp_id, _ = piece_components()
        stranded = set()
        for u, v in f_edges:
            e_plus = plus[(u, v)]
            e_minus = v if e_plus == u else u
            if comp_id[e_plus] != comp_id[e_minus]:
                stranded.add(comp_id[e_minus])
        if stranded:
            dropped = sorted(
                x for x in piece if comp_id[x] in stranded
            )
            for x in dropped:
                for y in list(adj[x]):
                    adj[x].discard(y)
                    adj[y].discard(x)
                edits.append({"op": "remove_vertex", "vertex": x})
            removed_vertices = tuple(dropped)
            new_piece = tuple(v for v in piece if v not in set(dropped))

    edge_list = sorted(
        (u, v) for u in range(g.n) for v in adj[u] if u <= v
    )
    new_graph = build_graph(
        g.n, edge_list, g.degree_bound, allow_loops=g.allows_loops
    )
    degree_ok = new_graph.max_degree() <= g.degree_bound
    if new_piece:
        assert not boundary_edges(new_graph, new_piece)

    sub, _ = induced_subgraph(new_graph, new_piece)
    connected = len(connected_components(sub)) == 1 if new_piece else False
    if len(new_piece) <= exact_cap:
        rep = cheeger_exact(sub, exact_cap)
        evidence = {"method": "exact", "value": rep.h, "witness": list(rep.witness)}
    else:
        evidence = {
            "method": "spectral",
            "value": second_eigenvalue(sub) / 2.0,
            "witness": None,
        }
    units = len(bedges)
    return RewireResult(
        new_graph=new_graph,
        piece_before=piece,
        piece=new_piece,
        edits=edits,
        edit_units=units,
        removed_vertices=removed_vertices,
        r=r,
        boundary_before=len(bedges),
        alpha=alpha,
        C=c_inner,
        alpha_feasible=alpha_feasible(alpha, c_inner, g.degree_bound),
        hypothesis_verified=hypothesis_verified,
        budget_edits_ok=units <= alpha * len(piece),
        budget_removed_ok=len(removed_vertices) <= (alpha / c_inner) * len(piece),
        degree_ok=degree_ok,
        connected=connected,
        cheeger_evidence=evidence,
    )


@dataclass
class GraphPipelineReport:
    index: int
    decomposition: dict
    certificate: dict
    piece_outcomes: list
    skipped_pieces: list
    dropped_small_components: list
    kept_vertices: tuple

    def to_dict(self) -> dict:
        d = dict(self.__dict__)
        d["kept_vertices"] = list(self.kept_vertices)
        return d


@dataclass
class ExpanderizeResult:
    boxspace: BoxSpace
    witness: ApproxIsoWitness
    reports: list


def expanderize(
    box: BoxSpace,
    params: KunParams,
    min_component: int = 0,
    exact_cap: int = EXACT_CAP,
) -> ExpanderizeResult:
    """Decompose, rewire and prune every graph of the sequence.

    Pieces whose rewiring fails (hypothesis violation, no room for
    separated edges) are diverted to junk with a diagnostic instead of
    aborting the run. Components of the result smaller than min_component
    are dropped. The witness records, per index, the surviving vertices and
    the edges present on both sides.
    """
    out_graphs = []
    entries = []
    reports = []
    for i, g in enumerate(box.graphs):
        decomp, cert = kun_partition(g, params, exact_cap)
        work = g
        outcomes = []
        skipped = []
        survivors = []
        for j, piece in enumerate(decomp.pieces):
            try:
                res = rewire_piece(
                    work, piece, params.C, params.alpha, exact_cap
                )
            except (HypothesisFailed, InsufficientSeparatedEdges, ValueError) as exc:
                skipped.append({"piece": j, "reason": str(exc)})
                continue
            work = res.new_graph
            survivors.extend(res.piece)
            outcomes.append({"piece": j, **res.to_dict()})
        survivors = sorted(set(survivors))
        sub, idx_map = induced_subgraph(work, survivors)
        dropped = []
        keep_local = []
        for comp in connected_components(sub):
            if len(comp) < min_component:
                dropped.append([idx_map[v] for v in comp])
            else:
                keep_local.extend(comp)
        kept = tuple(sorted(idx_map[v] for v in keep_local))
        out_graph, kept_map = induced_subgraph(work, kept)
        out_graphs.append(out_graph)
        matched = []
        for a, b in out_graph.edges():
            u, v = kept_map[a], kept_map[b]
            if g.has_edge(u, v):
                matched.append((min(u, v), max(u, v)))
        entries.append(
            WitnessEntry(
                vertices_x=kept,
                vertices_x2=tuple(range(len(kept))),
                edges_x=tuple(sorted(matched)),
            )
        )
        reports.append(
            GraphPipelineReport(
                index=i,
                decomposition=decomp.to_dict(),
                certificate=cert.to_dict(),
                piece_outcomes=outcomes,
                skipped_pieces=skipped,
                dropped_small_components=dropped,
                kept_vertices=kept,
            )
        )
    out_box = BoxSpace(graphs=out_graphs, d=box.d, labels=box.labels)
    return ExpanderizeResult(
        boxspace=out_box,
        witness=ApproxIsoWitness(entries=entries),
        reports=reports,
    )
