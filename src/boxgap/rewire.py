"""Detach inner-expanding pieces by rewiring their boundary edges inward.

A piece P whose small subsets all expand at rate C, and whose boundary is
below alpha |P|, can be cut loose: each boundary edge is paired with a
well-separated interior edge F, both are removed, and the dangling inner
endpoint is wired to the far endpoint of its F-edge. Stranded fragments
(when an F-edge separated its small side) are deleted. The detached piece
keeps degree at most d and, in the regime the construction targets, has
Cheeger constant at least C/6; at small sizes that is verified exactly.

The hypothesis check and the detached piece's Cheeger evidence both come
from ``cheeger.piece_evidence``, which reads ``Graph.memo``; a rewired graph
takes over the entries of every vertex set its edits did not touch, so a
piece is measured again only once an edit has reached its rows.

The pipeline entry point runs the level-set decomposition, rewires every
piece sequentially on a shared working graph, drops the junk part and tiny
components, and emits a matched-subgraph witness relating input and output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .cheeger import _exact, piece_evidence
from .decompose import KunParams, kun_partition
from .errors import HypothesisFailed, InsufficientSeparatedEdges
from .generators import ApproxIsoWitness, WitnessEntry
from .graph import (
    BoxSpace,
    Graph,
    Record,
    ball_of_set,
    boundary_edges,
    build_graph,
    connected_components,
    induced_subgraph,
    vertex_set,
)


def separation_radius(c_inner: float) -> int:
    """r = ceil(4 / c_inner): the F-edges of a piece are picked 2r apart."""
    return math.ceil(4.0 / c_inner)


def alpha_feasible(alpha: float, c_inner: float, d: int) -> bool:
    """Whether alpha < 1/d^(r+1) with r = separation_radius(c_inner).

    This is the threshold below which the separated-edge selection has a
    feasibility certificate. A power too large for a float is infeasible.
    """
    try:
        return alpha < 1.0 / float(d) ** (separation_radius(c_inner) + 1)
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
    if count == 0:
        return []
    q = {u for u, _ in boundary_edges(g, piece)}
    ok = np.zeros(g.n, dtype=bool)
    ok[list(piece)] = True
    ok[list(ball_of_set(g, q, 1))] = False
    edges = g.edge_array()
    lo, hi = edges[:, 0], edges[:, 1]
    selected = []
    near = set()  # vertices within 2r - 1 of a selected edge
    for u, v in edges[ok[lo] & ok[hi] & (lo < hi)].tolist():  # loops left out
        if u in near or v in near:
            continue
        selected.append((u, v))
        if len(selected) == count:
            return selected
        if r > 0:
            near.update(ball_of_set(g, (u, v), 2 * r - 1))
    raise InsufficientSeparatedEdges(len(selected), count)


@dataclass
class RewireResult(Record):
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
        # The post-removal vertices go under "vertices", which leaves "piece"
        # free for the piece's index in its decomposition.
        d = super().to_dict()
        del d["new_graph"]
        d["vertices"] = d.pop("piece")
        return d


def rewire_piece(
    g: Graph,
    piece,
    c_inner: float,
    alpha: float,
) -> RewireResult:
    """Remove the piece's boundary and restore expansion by rewiring.

    Requires |∂P| < alpha |P|. The inner-expansion hypothesis (every T of at
    most half the piece has ambient boundary at least c_inner |T|) is
    verified exhaustively up to EXACT_CAP vertices, raising HypothesisFailed
    with a witness; larger pieces carry hypothesis_verified = False. The
    separation radius is r = separation_radius(c_inner). The edited graph
    takes over g's memo entries of vertex sets the edits do not touch.
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
    hypothesis_verified = _exact(len(piece))
    if hypothesis_verified:
        ev = piece_evidence(g, piece)
        if ev.value is not None and ev.value < c_inner:
            raise HypothesisFailed(ev.witness, ev.value, c_inner)
    r = separation_radius(c_inner)
    edits = []
    removed_vertices = ()
    new_piece = piece
    new_graph = g  # with no boundary edges nothing is edited

    def rebuild(edges):
        return build_graph(g.n, edges, g.degree_bound, allow_loops=True)

    if bedges:
        f_edges = select_separated_edges(g, piece, r, len(bedges))
        cut = [(min(u, v), max(u, v)) for u, v in bedges] + f_edges
        edits += [{"op": "remove", "edge": list(e)} for e in cut]
        edges = g.edge_array()
        edges = edges[~np.isin(edges @ (g.n, 1), np.array(cut) @ (g.n, 1))]
        # With its boundary cut the piece is a union of components. Each
        # removed interior edge (u < v) is rewired to its endpoint in the
        # larger component; ties go to u.
        label = rebuild(edges).component_labels
        size = np.bincount(label)
        plus = [v if size[label[v]] > size[label[u]] else u for u, v in f_edges]
        added = [(min(x, p), max(x, p)) for (x, _), p in zip(bedges, plus)]
        edits += [{"op": "add", "edge": list(e)} for e in added]
        edges = np.concatenate((edges, np.array(added, dtype=np.int64)))
        new_graph = rebuild(edges)
        # Fragments stranded from their e+ side are deleted outright; a
        # fragment is a whole component, so its edges go with either end.
        label = new_graph.component_labels
        stranded = [label[v if p == u else u]
                    for (u, v), p in zip(f_edges, plus) if label[u] != label[v]]
        if stranded:
            drop = np.isin(label, stranded)
            removed_vertices = tuple(np.flatnonzero(drop).tolist())
            edits += [{"op": "remove_vertex", "vertex": x} for x in removed_vertices]
            new_piece = tuple(x for x in piece if not drop[x])
            new_graph = rebuild(edges[~drop[edges[:, 0]]])
        g.hand_over_memo(new_graph, {x for e in cut + added for x in e}
                         .union(removed_vertices))

    degree_ok = new_graph.max_degree() <= g.degree_bound
    if new_piece:
        assert not boundary_edges(new_graph, new_piece)

    # With no boundary left the piece is a union of components, and its inner
    # expansion is its Cheeger constant; if unedited, it is read from the memo.
    connected = new_piece in new_graph.components
    evidence = piece_evidence(new_graph, new_piece)
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
        # The witness in the piece's own coordinates, 0 .. |piece| - 1.
        cheeger_evidence={
            **evidence.to_dict(),
            "witness": None if evidence.witness is None
            else np.searchsorted(new_piece, evidence.witness).tolist(),
        },
    )


@dataclass
class GraphPipelineReport(Record):
    index: int
    decomposition: dict
    certificate: dict
    piece_outcomes: list
    skipped_pieces: list
    dropped_small_components: list
    kept_vertices: tuple


@dataclass
class ExpanderizeResult:
    boxspace: BoxSpace
    witness: ApproxIsoWitness
    reports: list


def expanderize(
    box: BoxSpace,
    params: KunParams,
    min_component: int = 0,
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
        decomp, cert = kun_partition(g, params)
        work = g
        outcomes = []
        skipped = []
        survivors = []
        for j, piece in enumerate(decomp.pieces):
            try:
                res = rewire_piece(work, piece, params.C, params.alpha)
            except (HypothesisFailed, InsufficientSeparatedEdges) as exc:
                skipped.append({"piece": j, "reason": str(exc)})
                continue
            work = res.new_graph
            survivors.extend(res.piece)
            outcomes.append({"piece": j, **res.to_dict()})
        comps = connected_components(work, survivors)
        dropped = [list(c) for c in comps if len(c) < min_component]
        kept = tuple(sorted(v for c in comps if len(c) >= min_component for v in c))
        out_graph, _ = induced_subgraph(work, kept)
        out_graphs.append(out_graph)
        # kept is sorted, so the mapped edges stay in (u, v) order, u <= v.
        pairs = np.array(kept, dtype=np.int64)[out_graph.edge_array()]
        matched = pairs[g.has_edges(pairs)]
        entries.append(
            WitnessEntry(
                vertices_x=kept,
                vertices_x2=tuple(range(len(kept))),
                edges_x=matched,
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
