"""Sharp bounds for independence numbers and independent-set counts of
graphs with a given number of vertices and edges.

The bounds are exact integers, attained by lex graphs, and verifiable by
exhaustive enumeration at small order.  Counting kernels run on the
compiled extension when it imports and on pure Python otherwise;
KERNEL_BACKEND reports which.
"""

from ._kernels import BACKEND as KERNEL_BACKEND
from .arith import Count, binom, is_exact_triangular, isqrt, triangular_decompose
from .bounds import (
    BoundReport,
    IrBound,
    SRelation,
    alpha_upper,
    bound_report,
    cr_upper,
    ir_upper_erdos,
    ir_upper_lex,
    s_alpha_relation,
)
from .counting import (
    IndependenceProfile,
    clique_profile,
    complement,
    independence_profile,
)
from .errors import BudgetExceededError, DomainError, FormatError
from .formats import (
    EMITTERS,
    PARSERS,
    GraphDocument,
    emit_dot,
    emit_edgelist,
    emit_graph6,
    parse_document,
    parse_edgelist,
    parse_graph6,
)
from .lexgraph import (
    Graph,
    VertexSet,
    build_lex_graph,
    is_dominating_set,
    is_independent_set,
    lex_compare,
    lex_maximum_independent_sets,
    lex_neighborhood,
)
from .sds import (
    ErdosDecomposition,
    SdsDecomposition,
    erdos_decompose_for_independent_sets,
    sds_decompose,
    sds_reconstruct,
)
from .verify import (
    DEFAULT_BUDGET,
    CellScan,
    SharpnessCertificate,
    SkippedCell,
    VerificationSummary,
    graph_count,
    pair_slots,
    scan_cell,
    verify_alpha_sharp,
    verify_ir_sharp,
    verify_range,
    verify_total_count_extremality,
)

__version__ = "0.1.0"

__all__ = [
    "KERNEL_BACKEND",
    "__version__",
    "Count",
    "isqrt",
    "binom",
    "triangular_decompose",
    "is_exact_triangular",
    "DomainError",
    "BudgetExceededError",
    "FormatError",
    "SdsDecomposition",
    "ErdosDecomposition",
    "sds_decompose",
    "sds_reconstruct",
    "erdos_decompose_for_independent_sets",
    "Graph",
    "VertexSet",
    "lex_compare",
    "build_lex_graph",
    "lex_neighborhood",
    "lex_maximum_independent_sets",
    "is_independent_set",
    "is_dominating_set",
    "IndependenceProfile",
    "independence_profile",
    "complement",
    "clique_profile",
    "SRelation",
    "IrBound",
    "BoundReport",
    "alpha_upper",
    "ir_upper_lex",
    "ir_upper_erdos",
    "cr_upper",
    "s_alpha_relation",
    "bound_report",
    "DEFAULT_BUDGET",
    "CellScan",
    "SharpnessCertificate",
    "SkippedCell",
    "VerificationSummary",
    "pair_slots",
    "graph_count",
    "scan_cell",
    "verify_alpha_sharp",
    "verify_ir_sharp",
    "verify_total_count_extremality",
    "verify_range",
    "GraphDocument",
    "emit_edgelist",
    "parse_edgelist",
    "emit_graph6",
    "parse_graph6",
    "emit_dot",
    "parse_document",
    "EMITTERS",
    "PARSERS",
]
