"""Batch depth-first traversal of the reverse-search tree.

The backtracking stack is LIFO and stores compressed entries rather than
expanded cliques: a parent's mask beside its child indices as one int mask
(bit i - 1 for index i), so a batch of B parents costs O(nB) stack space.
Each outer iteration pops up to ``capacity`` cliques (each pop expands the
top entry's lowest index into a clique via lexicographic completion and
emits it) and stacks the batch's non-empty child masks at its end, the last
parent's on top.  Each pop's one walk over the clique's members also finds
its ``N(C)`` and outside set, the masks both kernels' tests read.  A
per-parent ``decide`` ("bitset") tests each clique right after its event
and holds its pair until the batch ends; a batch ``children_fn`` ("rect")
takes the batch's masks, indices, ``N(C)`` and outside sets at its end
and returns their child masks in order, which the traversal zips back onto
the parents (a step of another length raises ``ValueError``); a plain
traversal stacks that zip as one source, read as the stack reaches each
parent, and keeps no other reference to the step's tuples, so a "rect"
step, which drops its indices, ``N(C)`` and outside sets once its last
slice is built, suspends with its parents and what it has left to
release.  A clique popped from ``(P, i)`` has reverse-search
index ``i`` by definition (the root has 0), so ``pop`` returns that index
with the clique and no index is recomputed.

The traversal is exposed as a resumable event stream (:func:`step_events`) of
:class:`StepEvent` named tuples ``(kind, clique, cost)``.  The stack, the
batch and the children steps carry int masks, and each clique event wraps
one ``VertexSet`` without its constructor.  One ``OpCounter`` per listing
takes every charge, and each event costs the counter's growth since the
previous event.  A paced stream, for a consumer that must act while a
``children_fn`` step runs, yields a children-work event after each read of
the step that charged units.  Indices are consumed in ascending order, so
emission order is deterministic for a given (graph, kernel, capacity),
paced or not.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, NamedTuple

from .graph import Graph, VertexSet, iter_bits
from .rs_tree import OpCounter, _child_walk

CLIQUE_COLLECTED = "clique-collected"
BATCH_COMPLETED = "batch-completed"
TRAVERSAL_ENDED = "traversal-ended"
CHILDREN_WORK = "children-work"

# children_fn(masks, indices, nears, outsides) -> the child masks of masks, one each and in order
# (bit i - 1 for index i), any iterable, lazy in a listing; four tuples, element k for masks[k]
# (index 0: root), in batch order if paced (a read that charges ends a children-work event),
# else last parent first
ChildrenFn = Callable[[tuple, tuple, tuple, tuple], Iterable[int]]
# decide(g, mask, index, counter, near, outside) -> the clique's child mask, bit i - 1 for index
# i; near is N(C), outside the non-members adjacent to every member below them (0: root)
Decide = Callable[[Graph, int, int, OpCounter, int, int], int]

# raw constructors of the two per-clique events, StepEvent here and
# delay_scheduler's Emission: StepEvent(...) would run a Python-level __new__
_new = object.__new__
_tuple_new = tuple.__new__
_set_bits = VertexSet.bits.__set__


class StepEvent(NamedTuple):
    """One step of the traversal: what happened plus the work units accrued
    since the previous event."""

    kind: str
    clique: VertexSet | None
    cost: int


@dataclass(slots=True)
class TraversalStats:
    """Kept current as events are yielded: ``batches_total`` batches,
    ``batches_undersized`` those under ``capacity`` cliques, ``cliques_emitted``
    clique events, ``total_cost`` every event's cost; ``stack_cliques`` the cliques
    pending on the stack, ``max_stack_cliques`` its most after a lazy push or a batch."""

    batches_total: int = 0
    batches_undersized: int = 0
    max_stack_cliques: int = 0
    cliques_emitted: int = 0
    stack_cliques: int = 0
    total_cost: int = 0


class BacktrackStack:
    """LIFO stack of flat ``parent mask, child mask`` entry pairs (the seeded
    root's child mask is 0) and the lazy sources :func:`step_events` reads
    before a pop; ``pending`` counts the cliques left in the entries' child
    masks.
    """

    def __init__(self) -> None:
        self._entries: list = []
        self.pending = 0

    def seed(self, clique: int) -> None:
        self._entries += clique, 0
        self.pending += 1

    def push(self, parent: int, children: int) -> None:
        if children:
            self._entries += parent, children
            self.pending += children.bit_count()

    def pop(self, g: Graph, counter: OpCounter | None = None) -> tuple:
        """Expand and remove the top entry's lowest child index; returns the
        clique's mask, its index, its ``N(C)`` and its outside set from one
        walk over its members (:func:`~cliquestream.rs_tree._child_walk`).
        The seeded root needs no walk: it returns index 0, no outside set
        and an ``N(C)`` of 0, which :func:`step_events` fills in after the
        root's event."""
        entries = self._entries
        if not entries:
            raise IndexError("pop from an empty backtracking stack")
        parent, children = entries[-2], entries[-1]
        self.pending -= 1
        low = children & -children
        if low == children:
            del entries[-2:]
            if not low:
                return parent, 0, 0, 0
        else:
            entries[-1] = children ^ low
        return _child_walk(g, parent, low, counter)


def step_events(
    g: Graph,
    root_clique: VertexSet,
    children_fn: ChildrenFn | None,
    capacity: int,
    stats: TraversalStats | None = None,
    counter: OpCounter | None = None,
    paced: bool = False,
    decide: Decide | None = None,
) -> Iterator[StepEvent]:
    """Resumable event stream of the batch traversal.

    Yields one clique-collected event per emission, one batch-completed
    event per batch, and a final traversal-ended event.  ``counter`` is the
    listing's one ledger: pops charge it, and the children step should
    charge the same one.  Each event costs the counter's growth since the
    previous event, so units already on it (the root's construction) fall on
    the first event.  With ``decide``, each clique is decided from its pop's
    masks right after its event, ``children_fn`` and ``paced`` are unused,
    and a clique event costs its pop and the previous clique's decision
    unless it opens a batch, a batch-completed event its last clique's
    decision.  Otherwise ``children_fn`` takes each batch.  Unpaced, its
    step is read as the stack reaches each parent, so a lazy step's work
    falls on the events that wait for it.  A paced step runs at its batch
    end, and a children-work event follows each child mask whose read
    charged units.
    """
    if capacity < 1:
        raise ValueError("batch capacity must be at least 1")
    if stats is None:
        stats = TraversalStats()
    if counter is None:
        counter = OpCounter()
    stack = BacktrackStack()
    entries = stack._entries
    stack.seed(root_clique.bits)
    stats.max_stack_cliques = max(stats.max_stack_cliques, stack.pending)
    charged = 0
    while True:
        batch: list[tuple] = []  # children_fn's popped cliques: mask, index, near, outside
        held: list[int] = []  # decide's non-empty pairs, flat: parent mask, child mask
        size = held_cliques = 0
        while size < capacity:
            # a lazy source on top is read up to its first parent with children, dropped once spent
            while entries and type(entries[-1]) is not int:
                for parent, children in entries[-1]:
                    if children:
                        stack.push(parent, children)
                        if stack.pending > stats.max_stack_cliques:
                            stats.max_stack_cliques = stack.pending
                        break
                else:
                    entries.pop()
            if not entries:
                break
            mask, index, near, outside = stack.pop(g, counter)
            size += 1
            stats.cliques_emitted += 1
            stats.stack_cliques = stack.pending
            cost, charged = counter.ops - charged, counter.ops
            stats.total_cost += cost
            clique = _new(VertexSet)  # a clique mask is never negative: skip the check
            _set_bits(clique, mask)
            yield _tuple_new(StepEvent, (CLIQUE_COLLECTED, clique, cost))
            if not index:  # the root's N(C), found after its event so that its output need not wait
                for v in iter_bits(mask):
                    near |= g.adj[v - 1]
            if decide is None:
                batch.append((mask, index, near, outside))
            else:
                children = decide(g, mask, index, counter, near, outside)
                if children:
                    held.append(mask)
                    held.append(children)
                    held_cliques += children.bit_count()
        if not size:
            break
        stats.batches_total += 1
        stats.batches_undersized += size < capacity
        if decide is not None:  # batch order, the last parent on top
            entries += held
            stack.pending += held_cliques
        elif not paced:  # the batch last parent first, a source read as the stack reaches it
            step = tuple(zip(*reversed(batch)))
            entries.append(zip(step[0], children_fn(*step), strict=True))
            del step  # children_fn and the zip hold what the stack still needs
        else:  # zip(strict=True): a step of another length raises ValueError
            step = tuple(zip(*batch))
            for parent, children in zip(step[0], children_fn(*step), strict=True):
                stack.push(parent, children)
                if counter.ops > charged:
                    cost, charged = counter.ops - charged, counter.ops
                    stats.total_cost += cost
                    yield StepEvent(CHILDREN_WORK, None, cost)
            del step
        stats.max_stack_cliques = max(stats.max_stack_cliques, stack.pending)
        stats.stack_cliques = stack.pending
        cost, charged = counter.ops - charged, counter.ops
        stats.total_cost += cost
        yield StepEvent(BATCH_COMPLETED, None, cost)
    stats.total_cost += counter.ops - charged
    yield StepEvent(TRAVERSAL_ENDED, None, counter.ops - charged)
