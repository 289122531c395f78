"""Batch depth-first traversal of the reverse-search tree.

The backtracking stack is LIFO and stores compressed (parent, index-list)
entries rather than expanded cliques, so a batch of B parents costs O(nB)
stack space.  Each outer iteration pops up to ``capacity`` cliques (each
pop expands one index into a clique via lexicographic completion and emits
it), asks ``children_fn`` for all their child specs in one shot, and pushes
the non-empty specs back on top.  A clique popped from spec ``(P, i)`` has
reverse-search index ``i`` by definition (the root has 0), so ``pop``
returns that index with the clique and no index is recomputed.

The traversal is exposed as a resumable event stream
(:func:`step_events`).  One :class:`~cliquestream.rs_tree.OpCounter` per
listing takes every charge, and each event costs the counter's growth since
the previous event.  Index lists are consumed in ascending order and child
specs are pushed in batch order, so emission order is deterministic for a
given (graph, kernel, capacity).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

from .graph import Graph, VertexSet, below_mask, vbit
from .kernels import ChildSpec
from .rs_tree import OpCounter, _lc_bits

CLIQUE_COLLECTED = "clique-collected"
BATCH_COMPLETED = "batch-completed"
TRAVERSAL_ENDED = "traversal-ended"

# children_fn(cliques, indices) -> specs; indices[k] is the index of
# cliques[k], 0 for the root
ChildrenFn = Callable[[list[VertexSet], list[int]], list[ChildSpec]]


@dataclass(frozen=True)
class StepEvent:
    """One step of the traversal: what happened plus the work units accrued
    since the previous event."""

    kind: str
    clique: VertexSet | None
    cost: int


@dataclass
class TraversalStats:
    batches_total: int = 0
    batches_undersized: int = 0
    max_stack_cliques: int = 0
    cliques_emitted: int = 0
    stack_cliques: int = 0
    total_cost: int = 0


class BacktrackStack:
    """LIFO stack of pending child specs (plus the seeded root clique).

    ``pending`` counts cliques still to be expanded, i.e. the sum of the
    remaining index-list lengths.
    """

    def __init__(self) -> None:
        self._entries: list = []
        self.pending = 0

    def __bool__(self) -> bool:
        return bool(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def seed(self, clique: VertexSet) -> None:
        self._entries.append(clique)
        self.pending += 1

    def push(self, spec: ChildSpec) -> None:
        if spec.indices:
            self._entries.append([spec, 0])
            self.pending += len(spec.indices)

    def pop(self, g: Graph, counter: OpCounter | None = None) -> tuple[VertexSet, int]:
        """Expand and remove the next pending clique from the top entry;
        returns it with its index (0 for the seeded root)."""
        if not self._entries:
            raise IndexError("pop from an empty backtracking stack")
        top = self._entries[-1]
        self.pending -= 1
        if isinstance(top, VertexSet):
            self._entries.pop()
            return top, 0
        spec, pos = top
        i = spec.indices[pos]
        if pos + 1 == len(spec.indices):
            self._entries.pop()
        else:
            top[1] = pos + 1
        base = (spec.parent.bits & below_mask(i) & g.adj[i - 1]) | vbit(i)
        return VertexSet(_lc_bits(g, base, counter)), i


def step_events(
    g: Graph,
    root_clique: VertexSet,
    children_fn: ChildrenFn,
    capacity: int,
    stats: TraversalStats | None = None,
    counter: OpCounter | None = None,
) -> Iterator[StepEvent]:
    """Resumable event stream of the batch traversal.

    Yields one clique-collected event per emission, one batch-completed
    event per children invocation, and a final traversal-ended event.
    ``counter`` is the listing's one ledger: pops charge it, and
    ``children_fn`` should charge the same one.  Each event costs the
    counter's growth since the previous event, so units already on it (the
    root's construction) fall on the first event.
    """
    if capacity < 1:
        raise ValueError("batch capacity must be at least 1")
    if stats is None:
        stats = TraversalStats()
    if counter is None:
        counter = OpCounter()
    stack = BacktrackStack()
    stack.seed(root_clique)
    stats.max_stack_cliques = max(stats.max_stack_cliques, stack.pending)
    stats.stack_cliques = stack.pending
    charged = 0
    while stack:
        batch: list[VertexSet] = []
        indices: list[int] = []
        while len(batch) < capacity and stack:
            clique, index = stack.pop(g, counter)
            batch.append(clique)
            indices.append(index)
            stats.cliques_emitted += 1
            stats.stack_cliques = stack.pending
            cost, charged = counter.ops - charged, counter.ops
            stats.total_cost += cost
            yield StepEvent(CLIQUE_COLLECTED, clique, cost)
        stats.batches_total += 1
        if len(batch) < capacity:
            stats.batches_undersized += 1
        for spec in children_fn(batch, indices):
            stack.push(spec)
        stats.max_stack_cliques = max(stats.max_stack_cliques, stack.pending)
        stats.stack_cliques = stack.pending
        cost, charged = counter.ops - charged, counter.ops
        stats.total_cost += cost
        yield StepEvent(BATCH_COMPLETED, None, cost)
    yield StepEvent(TRAVERSAL_ENDED, None, 0)
