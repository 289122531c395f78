"""Batch depth-first traversal of the reverse-search tree.

The backtracking stack is LIFO and stores compressed (parent, index-list)
entries rather than expanded cliques, so a batch of B parents costs O(nB)
stack space.  Each outer iteration pops up to ``capacity`` cliques (each
pop expands one index into a clique via lexicographic completion and emits
it), asks ``children_fn`` for all their child specs in one shot, and pushes
the non-empty specs back on top.  A clique popped from spec ``(P, i)`` has
reverse-search index ``i`` by definition (the root has 0), so the pop hands
that index to ``children_fn`` with the clique and no index is recomputed.

The traversal is exposed as a resumable event stream
(:func:`step_events`) carrying per-event work-unit costs.  Index lists are
consumed in ascending order and child specs are pushed in batch order, so
emission order is deterministic for a given (graph, kernel, capacity).
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

# children_fn(cliques, indices) -> (specs, work units); indices[k] is the
# index of cliques[k], 0 for the root
ChildrenFn = Callable[[list[VertexSet], list[int]], tuple[list[ChildSpec], int]]


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
    remaining index-list lengths.  ``last_index`` is the index of the clique
    the latest :meth:`pop` returned (0 for the seeded root).
    """

    def __init__(self) -> None:
        self._entries: list = []
        self.pending = 0
        self.last_index = 0

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

    def pop(self, g: Graph, counter: OpCounter | None = None) -> VertexSet:
        """Expand and remove the next pending clique from the top entry."""
        if not self._entries:
            raise IndexError("pop from an empty backtracking stack")
        top = self._entries[-1]
        self.pending -= 1
        if isinstance(top, VertexSet):
            self._entries.pop()
            self.last_index = 0
            return top
        spec, pos = top
        i = self.last_index = spec.indices[pos]
        if pos + 1 == len(spec.indices):
            self._entries.pop()
        else:
            top[1] = pos + 1
        base = (spec.parent.bits & below_mask(i) & g.adj[i - 1]) | vbit(i)
        return VertexSet(_lc_bits(g, base, counter))


def step_events(
    g: Graph,
    root_clique: VertexSet,
    children_fn: ChildrenFn,
    capacity: int,
    stats: TraversalStats | None = None,
    root_cost: int = 0,
) -> Iterator[StepEvent]:
    """Resumable event stream of the batch traversal.

    Yields one clique-collected event per emission, one batch-completed
    event per children invocation, and a final traversal-ended event.
    ``root_cost`` is charged to the first event so the root's construction
    work is visible to schedulers.
    """
    if capacity < 1:
        raise ValueError("batch capacity must be at least 1")
    if stats is None:
        stats = TraversalStats()
    stack = BacktrackStack()
    stack.seed(root_clique)
    stats.max_stack_cliques = max(stats.max_stack_cliques, stack.pending)
    stats.stack_cliques = stack.pending
    counter = OpCounter()
    pending_cost = root_cost
    while stack:
        batch: list[VertexSet] = []
        indices: list[int] = []
        while len(batch) < capacity and stack:
            before = counter.ops
            clique = stack.pop(g, counter)
            batch.append(clique)
            indices.append(stack.last_index)
            stats.cliques_emitted += 1
            stats.stack_cliques = stack.pending
            cost = counter.ops - before + pending_cost
            pending_cost = 0
            stats.total_cost += cost
            yield StepEvent(CLIQUE_COLLECTED, clique, cost)
        stats.batches_total += 1
        if len(batch) < capacity:
            stats.batches_undersized += 1
        specs, cost = children_fn(batch, indices)
        for spec in specs:
            stack.push(spec)
        stats.max_stack_cliques = max(stats.max_stack_cliques, stack.pending)
        stats.stack_cliques = stack.pending
        stats.total_cost += cost
        yield StepEvent(BATCH_COMPLETED, None, cost)
    yield StepEvent(TRAVERSAL_ENDED, None, 0)

