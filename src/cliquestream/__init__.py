"""Maximal-clique listing by reverse search.

The enumeration walks an in-tree over the maximal cliques rooted at the
lexicographically greatest one, generating children of whole batches of
cliques in one shot (via a rectangular Boolean matrix product or a
direct bitset formula) and optionally smoothing output through a
bounded-delay queue scheduler.

The package top exports the listing entry points and the types in their
signatures; the tree and kernel primitives stay in their modules.
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
from .graph import Graph, VertexSet
from .rs_tree import OpCounter

__all__ = [
    "BATCH_COMPLETED",
    "CLIQUE_COLLECTED",
    "TRAVERSAL_ENDED",
    "DelayConfig",
    "Emission",
    "Graph",
    "OpCounter",
    "StepEvent",
    "StrictRunReport",
    "TraversalStats",
    "VertexSet",
    "list_mc",
    "run_strict",
    "step_events",
]
