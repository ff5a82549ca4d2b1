"""Exact domination and packing numbers with structural certificates.

gamma(G) is the least size of a dominating set; rho(G) the largest number
of vertices with pairwise disjoint closed neighborhoods (equivalently,
pairwise distance at least 3).  Always rho <= gamma.  This package computes
both exactly, and for three graph classes builds certificates that bound
gamma by a multiple of rho constructively: cubic bipartite graphs, maximal
outerplanar graphs, and biconvex bipartite graphs.
"""

from .graphs import (
    CertificateError,
    Graph,
    bipartition,
    distances_from,
    is_dominating,
    is_packing,
    square_restricted,
)
from .formats import (
    FormatError,
    decode_any,
    decode_graph6,
    decode_sparse6,
    encode_graph6,
    iter_graph6_stream,
    read_edgelist,
    write_edgelist,
    write_graph6_stream,
)
from .solvers import (
    BRUTE_CAP,
    BudgetExceeded,
    DEFAULT_BUDGET,
    Solution,
    brute_gamma,
    brute_rho,
    cycle_gamma,
    cycle_rho,
    domination_number,
    packing_number,
    path_gamma,
    path_rho,
    solve_pair,
)
from .bicubic import (
    LayerDecomposition,
    certify_bicubic,
    combined_packing,
    layer_decompose,
    maximal_packing_in,
    side_packing,
    validate_bicubic,
)
from .outerplanar import (
    DualTree,
    NotMaximalOuterplanar,
    Triangulation,
    averaged_dominating,
    build_clique_graph,
    build_dual,
    certify_mop,
    clique_graph_numbers,
    lift_packing,
    low_degree_count,
    project_dominating,
    recognize_mop,
    tokunaga_color,
    verify_tokunaga,
)
from .biconvex import (
    Block,
    CBDecomposition,
    Certificate,
    ConvexOrdering,
    TrimmedCore,
    cb_decompose,
    certify_biconvex,
    construct_dominating,
    construct_packing,
    trim_core,
    validate_convex,
)
from .generators import (
    enumerate_bicubic,
    gen_complete,
    gen_complete_bipartite,
    gen_cycle,
    gen_path,
    gen_random_biconvex,
    gen_random_bicubic,
    gen_random_connected,
    gen_random_mop,
    gen_random_tree,
    gen_rook,
    gen_star,
    gen_sun,
    gen_tight_family,
    generalized_petersen,
    heawood,
    petersen,
)
from .harness import (
    DEFAULT_PREDICATES,
    EXPERIMENTS,
    PREDICATES,
    GraphFacts,
    ScanItem,
    default_scan_items,
    detect_families,
    make_item,
    run_experiment,
    run_scan,
    scan_verdict,
    verify_counterexamples,
    write_counterexamples,
)
from .reports import ScanRecord, bound_str, read_report, summarize, write_report

__version__ = "0.1.0"
