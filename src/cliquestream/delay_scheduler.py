"""Bounded-delay emission on top of the batch traversal.

``list_mc`` drives the traversal with the batched children kernel and
yields the raw step-event stream.  ``run_strict`` replays that stream
through a FIFO queue of clique masks, each print wrapping one
``VertexSet``: a bootstrapping phase first banks ``boot_target`` cliques
without printing anything, then the listing phase dequeues one clique
whenever at least ``tau_delay`` work units accrued since the last print
(or the queue passes its hold, see :func:`run_strict`), and a final drain
empties the queue once the traversal ends.  ``list_mc`` is a listing's one gate:
``run_strict`` and the CLI open their streams through it, so all three
refuse bad arguments with ``ValueError`` at the call.

Work units are the operation counts charged to the listing's one counter:
the root's construction, every pop's completion and every children
invocation's word ops and multiply-adds.  ``run_strict`` calibrates from
its own boot (:func:`calibrate`), turning boot's amortized cost per clique
into a per-print budget: the first batch is always the root alone,
boot_target = 1 + the root's children count, and with c =
:data:`CALIBRATION_MARGIN`, tau_delay = c * the units charged after the
root batch // the cliques banked after the root (at least 1).

Both kernels read each clique's ``N(C)`` and outside set from the walk
its pop made.  A "bitset" listing decides each clique with
:func:`~cliquestream.kernels.filter_children` right after its event, in
plain and strict mode alike, so a gap is one pop and one parent's test.
"rect" hands the traversal a lazy stream of child masks,
:func:`~cliquestream.kernels.children_rect`, which stacks a slice's
candidate pairs once and then decides them chunk by chunk.  A
plain stream reads it as the stack reaches each parent, so a "rect" gap is
one pop and the chunks up to the next parent with children.
``run_strict``'s paced stream (a :class:`~cliquestream.batch_dfs.Pace`,
built for "rect" alone) runs each "rect" step at its batch end, where boot
reads it, and after boot yields a children-work event once the units its
next print waits for are charged: a gap passes tau_delay by less than one
pop, one "bitset" parent's test or one "rect" chunk's charge, so it stays
within tau_delay + the largest event while the queue never starves, which
is measured (``starved_checks``), not proven.
:func:`~cliquestream.kernels.children_batch`, a whole step's specs as a
list, stays importable here for callers that wrap it by name.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple

from . import kernels
from .batch_dfs import (
    BATCH_COMPLETED,
    CLIQUE_COLLECTED,
    TRAVERSAL_ENDED,
    Pace,
    StepEvent,
    TraversalStats,
    _new,
    _set_bits,
    _tuple_new,
    step_events,
)
from .graph import Graph, VertexSet
from .kernels import KERNELS, check_factors, graph_factors
from .kernels import children_batch  # noqa: F401  (callers wrap it by name)
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
    ``emitted``, ``queue_peak`` and ``drained`` hold at every emission, so
    a stream stopped early reads what it released).  ``first_output_units``
    is the listing's ``total_cost`` at the first emission and
    ``first_output_s`` the wall time from the :func:`run_strict` call to
    it; ``max_gap_units`` is the largest ``cost_units`` of any emission, the
    drain's included; ``max_event_cost`` is the largest event cost after
    boot, the term of the gap bound ``tau_delay + max_event_cost`` (boot's
    events, the root's children step and "rect"'s factors' charge on it
    among them, are not counted); ``drained`` counts the cliques released
    by the final drain.  A wall time is no part of the run's outcome, so
    equality skips ``first_output_s``."""

    config: DelayConfig | None = None
    stats: TraversalStats = field(default_factory=TraversalStats)
    boot_exhausted: bool = False
    boot_collected: int = 0
    queue_peak: int = 0
    max_event_cost: int = 0
    starved_checks: int = 0
    emitted: int = 0
    first_output_units: int = 0
    first_output_s: float = field(default=0.0, compare=False)
    max_gap_units: int = 0
    drained: int = 0


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
    return _listing(g, kernel, capacity, stats, None)


def _listing(g: Graph, kernel: str, capacity, stats, pace: Pace | None) -> Iterator[StepEvent]:
    """:func:`list_mc`'s stream, paced by ``pace``.  The kernel alone picks
    the children step: ``step_events``'s per-parent ``decide``, the
    :func:`~cliquestream.kernels.filter_children` found in ``kernels`` when
    the listing opens, or its lazy ``children_fn``,
    :func:`~cliquestream.kernels.children_rect`, whose factors are built
    with the first batch; both are handed each pop's ``N(C)`` and outside
    set."""
    if kernel not in KERNELS:
        raise ValueError(f"unknown kernel {kernel!r}")
    cap = capacity if capacity is not None else g.n * g.n
    if cap < 1:
        raise ValueError("batch capacity must be at least 1")
    if kernel == "rect":
        check_factors(g.n)
    counter = OpCounter()
    root_clique = root(g, counter)
    if kernel == "bitset":
        decide = kernels.filter_children
        return step_events(g, root_clique, None, cap, stats, counter, pace, decide)
    factors = None

    def children_fn(masks: tuple, indices: tuple, nears: tuple, outsides: tuple):
        nonlocal factors
        if factors is None:
            factors = graph_factors(g, counter)
        return kernels.children_rect(g, masks, indices, factors, counter, nears, outsides)

    return step_events(g, root_clique, children_fn, cap, stats, counter, pace, None)


def calibrate(
    events: Iterator[StepEvent], q: deque[int], stats: TraversalStats
) -> tuple[DelayConfig, bool]:
    """Boot the run into ``q`` (clique masks) and derive its DelayConfig
    from what boot banked; ``stats`` is the stream's.  Returns the config
    and whether the traversal ended during boot.

    The first batch is the root alone, and boot_target = 1 + the root's
    children count.  With c = :data:`CALIBRATION_MARGIN`, tau_delay = c *
    the units charged after the root batch // max(1, the cliques banked
    after the root), and at least 1.
    """
    exhausted = boot(events, q, 1)
    root_units = stats.total_cost
    target = 1 + stats.stack_cliques
    if not exhausted:
        exhausted = boot(events, q, target)
    units = stats.total_cost - root_units
    tau = CALIBRATION_MARGIN * units // max(1, len(q) - 1)
    return DelayConfig(tau_delay=max(1, tau), boot_target=target), exhausted


def boot(events: Iterator[StepEvent], q: deque[int], boot_target: int) -> bool:
    """Bank clique masks into ``q`` until a batch completes with at least
    ``boot_target`` of them banked.  Prints nothing.  Returns True when the
    traversal or the stream ended first (the queue then holds every
    clique).
    """
    for event in events:
        if event.kind == CLIQUE_COLLECTED:
            q.append(event.clique.bits)
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
    collection) order.  A print is forced past a hold of c * boot_target
    masks (c = :data:`CALIBRATION_MARGIN`), or on "rect" of its open batch's
    cliques if more, which its children step prints from: the queue holds
    at most max(boot_collected, c * boot_target, a batch) + 1, and a batch
    at most ``capacity`` and ``stats.max_stack_cliques``.  Nothing is printed
    before boot returns.  The run's own boot calibrates it;
    ``report.config`` is set before the first emission.  What
    :func:`list_mc` refuses raises ``ValueError`` at this call.
    """
    start = time.perf_counter()
    if report is None:
        report = StrictRunReport()
    pace = Pace() if kernel == "rect" else None  # a "bitset" step reads no pace
    events = _listing(g, kernel, capacity, report.stats, pace)
    return _paced(events, pace, report, start)


def _paced(events, pace: Pace | None, report, start: float) -> Iterator[Emission]:
    """``run_strict``'s pacing loop over an opened event stream, which the
    call opened at ``perf_counter`` reading ``start``."""
    q: deque[int] = deque()
    cfg, report.boot_exhausted = calibrate(events, q, report.stats)
    report.config = cfg
    report.boot_collected = report.queue_peak = peak = len(q)
    tau = cfg.tau_delay
    reserve = CALIBRATION_MARGIN * cfg.boot_target
    counter = top = banked = 0
    if pace is not None:
        pace.quantum = tau  # children-work events from here on
    # after an exhausting boot the stream is spent and this loop is empty
    for kind, clique, cost in events:
        counter += cost
        if cost > top:
            top = report.max_event_cost = cost
        if kind == CLIQUE_COLLECTED:
            q.append(clique.bits)
            if len(q) > peak:
                peak = len(q)
            if pace is not None:
                banked += 1
        elif kind == BATCH_COMPLETED:
            banked = 0
        if (counter >= tau and q) or (len(q) > reserve and len(q) > banked):
            report.queue_peak = peak
            yield _release(report, q, counter, start)
            counter = 0
        elif counter >= tau and kind != TRAVERSAL_ENDED:  # the queue is empty
            report.starved_checks += 1
        if pace is not None:
            pace.quantum = tau - counter  # the units the next print waits for
    report.queue_peak = peak
    while q:  # final drain; the first drained clique inherits the residual counter
        report.drained += 1
        yield _release(report, q, counter, start)
        counter = 0


def _release(report: StrictRunReport, q: deque[int], units: int, start: float) -> Emission:
    """Release the queue's head as the run's next emission, ``units`` charged
    since the previous one, and record it on ``report``."""
    ordinal = report.emitted = report.emitted + 1
    if ordinal == 1:
        report.first_output_units = report.stats.total_cost
        report.first_output_s = time.perf_counter() - start
    if units > report.max_gap_units:
        report.max_gap_units = units
    clique = _new(VertexSet)  # as step_events wraps a clique: no constructor check
    _set_bits(clique, q.popleft())
    return _tuple_new(Emission, (clique, ordinal, units, len(q), report.stats.stack_cliques))
