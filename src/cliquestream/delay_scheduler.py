"""Bounded-delay emission on top of the batch traversal.

``list_mc`` drives the traversal with the batched children kernel and
yields the raw step-event stream.  ``run_strict`` replays that stream
through a FIFO queue: a bootstrapping phase first banks ``boot_target``
cliques without printing anything, then the listing phase dequeues one
clique whenever at least ``tau_delay`` work units accrued since the last
print (or the queue overflows ``boot_target + n^2``), and a final drain
empties the queue once the traversal ends.

Work units are the operation counts charged to the listing's one counter:
the root's construction, every pop's completion and every children
invocation's word ops and multiply-adds.  Without a given config,
``run_strict`` calibrates from its own stream's first batch
(:func:`calibrate`) and replays it into boot; both derived quantities carry
a factor of :data:`CALIBRATION_MARGIN` so the printing rate stays safely
below the collection rate and the queue never starves between boot and
drain.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import chain
from typing import Iterator

from .batch_dfs import (
    BATCH_COMPLETED,
    CLIQUE_COLLECTED,
    TRAVERSAL_ENDED,
    StepEvent,
    TraversalStats,
    step_events,
)
from .graph import Graph, VertexSet
from .kernels import KERNELS, check_graph_matrix, children_batch, graph_matrix
from .rs_tree import OpCounter, root


CALIBRATION_MARGIN = 2


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


@dataclass
class DelayConfig:
    """Scheduler knobs: work units per guaranteed print, boot queue target."""

    tau_delay: int
    boot_target: int

    def __post_init__(self) -> None:
        if self.tau_delay < 1:
            raise ValueError("tau_delay must be at least 1")
        if self.boot_target < 1:
            raise ValueError("boot_target must be at least 1")


@dataclass(frozen=True)
class Emission:
    """One printed clique with its scheduling context."""

    clique: VertexSet
    ordinal: int
    cost_units: int
    queue_size: int
    stack_cliques: int


@dataclass
class StrictRunReport:
    """Observability for one strict-mode run (filled as the run proceeds)."""

    config: DelayConfig | None = None
    stats: TraversalStats = field(default_factory=TraversalStats)
    boot_exhausted: bool = False
    boot_collected: int = 0
    queue_peak: int = 0
    max_event_cost: int = 0
    starved_checks: int = 0
    emitted: int = 0


def list_mc(
    g: Graph,
    kernel: str = "bitset",
    capacity: int | None = None,
    stats: TraversalStats | None = None,
) -> Iterator[StepEvent]:
    """Event stream of the full listing: construct the root, then batch-DFS
    with the chosen children kernel, "bitset" or "rect" (the choices in
    :data:`~cliquestream.kernels.KERNELS`).  Default capacity is n^2.  One
    counter takes the root, every pop and every children step, so the
    root's units fall on the first event.  Each batch carries its cliques'
    indices from the stack; the "rect" kernel's graph matrix is built (and
    charged) once, with the first batch.  An unknown kernel, a capacity
    below 1, or a "rect" n whose graph matrix
    :func:`~cliquestream.kernels.check_graph_matrix` refuses, raises
    ValueError here, before anything is built."""
    if kernel not in KERNELS:
        raise ValueError(f"unknown kernel {kernel!r}")
    cap = capacity if capacity is not None else g.n * g.n
    if cap < 1:
        raise ValueError("batch capacity must be at least 1")
    if kernel == "rect":
        check_graph_matrix(g.n)
    counter = OpCounter()
    mg = None

    def children_fn(cliques: list[VertexSet], indices: list[int]):
        nonlocal mg
        if kernel == "rect" and mg is None:
            mg = graph_matrix(g, counter)
        return children_batch(
            g, cliques, kernel=kernel, counter=counter, indices=indices, mg=mg
        )

    root_clique = root(g, counter)
    return step_events(g, root_clique, children_fn, cap, stats=stats, counter=counter)


def calibrate(
    g: Graph, events: Iterator[StepEvent]
) -> tuple[DelayConfig, list[StepEvent]]:
    """Derive a DelayConfig from the first batch of ``events``.

    Returns the config and the events read, for the caller to replay.  With
    c = :data:`CALIBRATION_MARGIN`, tau_delay = c * ceil(first-batch cost /
    first-batch size) and boot_target = c * n * ceil(first-batch cost /
    tau_delay).  The first batch holds only the root, whose children
    computation carries the full per-batch overhead, so the resulting
    tau_delay upper-bounds the per-clique cost of later batches.
    """
    head: list[StepEvent] = []
    batch_cost = 0
    batch_size = 0
    for event in events:
        head.append(event)
        if event.kind == CLIQUE_COLLECTED:
            batch_size += 1
        elif event.kind == BATCH_COMPLETED:
            batch_cost = event.cost
            break
        else:
            break
    batch_cost = max(1, batch_cost)
    batch_size = max(1, batch_size)
    tau = max(1, CALIBRATION_MARGIN * _ceil_div(batch_cost, batch_size))
    boot_target = max(1, CALIBRATION_MARGIN * g.n * _ceil_div(batch_cost, tau))
    return DelayConfig(tau_delay=tau, boot_target=boot_target), head


def boot(events: Iterator[StepEvent], q: deque[VertexSet], boot_target: int) -> bool:
    """Bank cliques into ``q`` until it holds ``boot_target`` of them and the
    current batch iteration has completed.  Prints nothing.  Returns True
    when the stream ran out first (the queue then holds every clique).
    """
    at_boundary = False
    while len(q) < boot_target or not at_boundary:
        event = next(events, None)
        if event is None:
            return True
        if event.kind == CLIQUE_COLLECTED:
            q.append(event.clique)
        elif event.kind == TRAVERSAL_ENDED:
            return True
        at_boundary = event.kind == BATCH_COMPLETED
    return False


def run_strict(
    g: Graph,
    cfg: DelayConfig | None = None,
    kernel: str = "bitset",
    capacity: int | None = None,
    report: StrictRunReport | None = None,
) -> Iterator[Emission]:
    """Boot, then print one queued clique per tau_delay work units.

    Yields every maximal clique exactly once, in queue-insertion (i.e.
    collection) order.  The queue never exceeds boot_target + n^2 + 1
    entries thanks to the forced-drain guard, and nothing is printed
    before boot returns.  Without ``cfg``, the stream's own first batch
    calibrates one; ``report.config`` is set before the first emission.
    """
    if report is None:
        report = StrictRunReport()
    stats = report.stats
    events = list_mc(g, kernel=kernel, capacity=capacity, stats=stats)
    if cfg is None:
        cfg, head = calibrate(g, events)
        events = chain(head, events)
    report.config = cfg
    q: deque[VertexSet] = deque()
    exhausted = boot(events, q, cfg.boot_target)
    report.boot_exhausted = exhausted
    report.boot_collected = peak = len(q)
    overflow = cfg.boot_target + g.n * g.n
    counter = 0
    ordinal = 0
    if not exhausted:
        for event in events:
            counter += event.cost
            if event.cost > report.max_event_cost:
                report.max_event_cost = event.cost
            if event.kind == CLIQUE_COLLECTED:
                q.append(event.clique)
                if len(q) > peak:
                    peak = len(q)
            if (len(q) > 0 and counter >= cfg.tau_delay) or len(q) > overflow:
                clique = q.popleft()
                ordinal += 1
                yield Emission(clique, ordinal, counter, len(q), stats.stack_cliques)
                counter = 0
            elif (
                counter >= cfg.tau_delay
                and len(q) == 0
                and event.kind != TRAVERSAL_ENDED
            ):
                report.starved_checks += 1
    while len(q):
        # final drain; the first drained clique inherits the residual counter
        clique = q.popleft()
        ordinal += 1
        yield Emission(clique, ordinal, counter, len(q), stats.stack_cliques)
        counter = 0
    report.queue_peak = peak
    report.emitted = ordinal
