"""Spectral-gap toolkit for sequences of bounded-degree graphs.

Covers Laplacian and Markov spectra, exact and sweep Cheeger constants, the
level-set decomposition into inner-expanding pieces, boundary rewiring into
certified expanders, link-graph gap certificates, graph-family generators,
sofic verification and approximate-isomorphism accounting.
"""

from .cheeger import (
    CheegerReport,
    Evidence,
    cheeger_exact,
    cheeger_sandwich_check,
    cheeger_sweep,
    inner_expansion_exact,
    piece_evidence,
)
from .decompose import (
    Decomposition,
    KunParams,
    LevelSetCut,
    PartitionCertificate,
    ReplaceOutcome,
    coarea_bound,
    find_sparse_cut,
    kun_partition,
    level_set_cut,
    replace_step,
)
from .generators import (
    ApproxIsoWitness,
    CyclicGroup,
    GluedExpander,
    PermAction,
    ProductGroup,
    SL2Prime,
    SoficReport,
    SymmetricGroup,
    WitnessEntry,
    approx_iso_check,
    cayley_graph,
    complete_graph,
    core_density,
    cycle_graph,
    cyclic_action,
    glue_pair,
    glued_expander,
    margulis_graph,
    octahedron,
    path_graph,
    sl2_elementary_generators,
    sofic_verify,
    triangular_torus,
    with_transposition,
)
from .graph import (
    BoxSpace,
    Graph,
    ball,
    ball_of_set,
    boundary_size,
    build_graph,
    connected_components,
    disjoint_union,
    induced_subgraph,
    read_edge_list,
    read_manifest,
    vertex_set,
    write_edge_list,
    write_manifest,
)
from .rewire import (
    ExpanderizeResult,
    RewireResult,
    expanderize,
    rewire_piece,
    select_separated_edges,
)
from .spectral import (
    ExpanderReport,
    SpectrumReport,
    expander_check,
    graph_spectrum,
    laplacian,
    markov,
    markov_contraction_check,
    power_iterate,
    spectrum,
)
from .zuk import (
    LinkGraph,
    ZukCertificate,
    ZukGapCheck,
    delta_tau,
    delta_tau_spectrum,
    link_graph,
    link_lambda1,
    sandwich_check,
    triangle_counts,
    verify_zuk_gap,
    zuk_certificate,
)

__version__ = "0.1.0"
