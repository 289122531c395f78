"""Bounded-delay emission on top of the batch traversal.

``list_mc`` drives the traversal with the batched children kernel and
yields the raw step-event stream.  ``run_strict`` replays that stream
through a FIFO queue: a bootstrapping phase first banks ``boot_target``
cliques without printing anything, then the listing phase dequeues one
clique whenever at least ``tau_delay`` work units accrued since the last
print (or the queue overflows ``boot_target + n^2``), and a final drain
empties the queue once the traversal ends.  ``list_mc`` is a listing's
one gate: ``run_strict`` and the CLI open their streams through it, so all
three refuse bad arguments with ``ValueError`` at the call.

Work units are the operation counts charged to the listing's one counter:
the root's construction, every pop's completion and every children
invocation's word ops and multiply-adds.  ``run_strict`` calibrates from
its own stream's head (:func:`calibrate`): the first batch is always the
root alone, so with c = :data:`CALIBRATION_MARGIN`, tau_delay = c * the
root's children step's units (at least 1) and boot_target = c * n.  It
then replays the head into boot.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import chain, islice
from typing import Iterator, NamedTuple

from .batch_dfs import (
    CLIQUE_COLLECTED,
    TRAVERSAL_ENDED,
    StepEvent,
    TraversalStats,
    step_events,
)
from .graph import Graph, VertexSet
from .kernels import KERNELS, check_factors, children_batch, graph_factors
from .rs_tree import OpCounter, root


CALIBRATION_MARGIN = 2


@dataclass
class DelayConfig:
    """A run's calibration: work units per guaranteed print, boot queue
    target."""

    tau_delay: int
    boot_target: int


class Emission(NamedTuple):
    """One printed clique with its scheduling context."""

    clique: VertexSet
    ordinal: int
    cost_units: int
    queue_size: int
    stack_cliques: int


@dataclass
class StrictRunReport:
    """Observability for one strict-mode run (filled as the run proceeds:
    ``emitted`` and ``queue_peak`` hold at every emission, so a stream
    stopped early reads what it released)."""

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
    indices from the stack; the "rect" kernel's factors
    (:func:`~cliquestream.kernels.graph_factors`) are built
    (and charged) once, with the first batch.  An unknown kernel, a
    capacity below 1, or a "rect" n whose factors
    :func:`~cliquestream.kernels.check_factors` refuses, raises ValueError
    here, before anything is built."""
    if kernel not in KERNELS:
        raise ValueError(f"unknown kernel {kernel!r}")
    cap = capacity if capacity is not None else g.n * g.n
    if cap < 1:
        raise ValueError("batch capacity must be at least 1")
    if kernel == "rect":
        check_factors(g.n)
    counter = OpCounter()
    factors = None

    def children_fn(cliques: list[VertexSet], indices: list[int]):
        nonlocal factors
        if kernel == "rect" and factors is None:
            factors = graph_factors(g, counter)
        return children_batch(
            g, cliques, kernel=kernel, counter=counter, indices=indices, factors=factors
        )

    root_clique = root(g, counter)
    return step_events(g, root_clique, children_fn, cap, stats=stats, counter=counter)


def calibrate(
    g: Graph, events: Iterator[StepEvent]
) -> tuple[DelayConfig, list[StepEvent]]:
    """Derive a DelayConfig from the head of ``events``: the root's
    clique-collected event and its batch-completed event.

    Returns the config and those two events, for the caller to replay.
    With c = :data:`CALIBRATION_MARGIN`, tau_delay = c * max(1, the root's
    children step's units) and boot_target = c * n.
    """
    head = list(islice(events, 2))
    tau = CALIBRATION_MARGIN * max(1, head[1].cost)
    return DelayConfig(tau_delay=tau, boot_target=CALIBRATION_MARGIN * g.n), head


def boot(events: Iterator[StepEvent], q: deque[VertexSet], boot_target: int) -> bool:
    """Bank cliques into ``q`` until a batch completes with at least
    ``boot_target`` of them banked.  Prints nothing.  Returns True when the
    traversal or the stream ended first (the queue then holds every
    clique).
    """
    for event in events:
        if event.kind == CLIQUE_COLLECTED:
            q.append(event.clique)
        elif event.kind == TRAVERSAL_ENDED:
            return True
        elif len(q) >= boot_target:  # a batch completed
            return False
    return True


def run_strict(
    g: Graph,
    kernel: str = "bitset",
    capacity: int | None = None,
    report: StrictRunReport | None = None,
) -> Iterator[Emission]:
    """Boot, then print one queued clique per tau_delay work units.

    Yields every maximal clique exactly once, in queue-insertion (i.e.
    collection) order.  The queue never exceeds boot_target + n^2 + 1
    entries thanks to the forced-drain guard, and nothing is printed
    before boot returns.  The stream's own head calibrates the run;
    ``report.config`` is set before the first emission.  What
    :func:`list_mc` refuses raises ``ValueError`` at this call.
    """
    if report is None:
        report = StrictRunReport()
    events = list_mc(g, kernel=kernel, capacity=capacity, stats=report.stats)
    return _paced(g, events, report)


def _paced(g: Graph, events, report: StrictRunReport) -> Iterator[Emission]:
    """``run_strict``'s pacing loop over an opened event stream."""
    stats = report.stats
    cfg, head = calibrate(g, events)
    report.config = cfg
    events = chain(head, events)
    q: deque[VertexSet] = deque()
    report.boot_exhausted = boot(events, q, cfg.boot_target)
    report.boot_collected = report.queue_peak = peak = len(q)
    overflow = cfg.boot_target + g.n * g.n
    counter = 0
    ordinal = 0
    # after an exhausting boot the stream is spent and this loop is empty
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
            report.emitted, report.queue_peak = ordinal, peak
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
        report.emitted, report.queue_peak = ordinal, peak
        yield Emission(clique, ordinal, counter, len(q), stats.stack_cliques)
        counter = 0
