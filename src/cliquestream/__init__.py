"""Maximal-clique listing by reverse search.

The enumeration walks an in-tree over the maximal cliques rooted at the
lexicographically greatest one, generating children of whole batches of
cliques in one shot (via a rectangular Boolean matrix product or a
direct bitset formula) and optionally smoothing output through a
bounded-delay queue scheduler.
"""

from .batch_dfs import (
    BATCH_COMPLETED,
    CLIQUE_COLLECTED,
    TRAVERSAL_ENDED,
    StepEvent,
    TraversalStats,
    step_events,
)
from .delay_scheduler import (
    DelayConfig,
    Emission,
    StrictRunReport,
    list_mc,
    run_strict,
)
from .graph import (
    Graph,
    VertexSet,
    lex_compare,
    sort_lex_descending,
)
from .kernels import (
    ChildSpec,
    build_batch_matrices,
    children_batch,
    children_naive,
    filter_children,
    good_table_bitset,
    good_table_rectangular,
)
from .rs_tree import (
    OpCounter,
    child,
    clique_index,
    is_maximal_clique,
    lex_completion,
    parent,
    root,
)

__all__ = [
    "BATCH_COMPLETED",
    "CLIQUE_COLLECTED",
    "TRAVERSAL_ENDED",
    "ChildSpec",
    "DelayConfig",
    "Emission",
    "Graph",
    "OpCounter",
    "StepEvent",
    "StrictRunReport",
    "TraversalStats",
    "VertexSet",
    "build_batch_matrices",
    "child",
    "children_batch",
    "children_naive",
    "clique_index",
    "filter_children",
    "good_table_bitset",
    "good_table_rectangular",
    "is_maximal_clique",
    "lex_compare",
    "lex_completion",
    "list_mc",
    "parent",
    "root",
    "run_strict",
    "sort_lex_descending",
    "step_events",
]
