"""Per-layer spans for the traced run.

The program is not instrumented.  Instead, for the duration of a traced
run, the public functions of each module are replaced *at the name the
caller looks up* (modules import each other's functions by name, so
``kernels.clique_index`` is what ``filter_children`` calls, not
``rs_tree.clique_index``).  Each wrapper records one span: name, start,
end and the enclosing span.  Spans stay in memory until the run ends;
self time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import time
from array import array
from collections import defaultdict
from contextlib import contextmanager


class PassLog:
    """Spans and counts of one traced pass over the workload's graphs."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.counts: dict[str, float] = defaultdict(float)
        self.stats: list = []  # TraversalStats created inside cli.run

    def totals(self):
        """Per span name: (calls, inclusive seconds, self seconds), plus the
        summed duration of top-level spans."""
        n = len(self.names)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        top = 0.0
        for i in range(n):
            dur = self.end[i] - self.start[i]
            row = out[self.names[i]]
            row[0] += 1
            row[1] += dur
            row[2] += dur - child[i]
            if self.parent[i] < 0:
                top += dur
        return dict(out), top


class Recorder:
    """Holds the span stack; ``log`` is the pass being recorded."""

    def __init__(self) -> None:
        self.log = PassLog()
        self._stack: list[int] = []
        self.stream_ended = False

    def begin_pass(self) -> PassLog:
        self.log = PassLog()
        return self.log

    def enter(self, name: str) -> int:
        log = self.log
        idx = len(log.names)
        log.names.append(name)
        log.start.append(time.perf_counter())
        log.end.append(0.0)
        log.parent.append(self._stack[-1] if self._stack else -1)
        self._stack.append(idx)
        return idx

    def exit(self, idx: int) -> None:
        self.log.end[idx] = time.perf_counter()
        self._stack.pop()


def _counter_of(args, kwargs, pos: int):
    if "counter" in kwargs:
        return kwargs["counter"]
    return args[pos] if len(args) > pos else None


def spanned(rec: Recorder, name: str, fn, counter_pos: int | None = None, after=None):
    """``fn`` wrapped in a span.  With ``counter_pos``, the work units the
    call charges to its OpCounter argument are added to count ``name.units``;
    ``after(log, args, result)`` records further counts."""

    def wrapper(*args, **kwargs):
        counter = _counter_of(args, kwargs, counter_pos) if counter_pos is not None else None
        before = counter.ops if counter is not None else 0
        idx = rec.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.exit(idx)
        if counter is not None:
            rec.log.counts[name + ".units"] += counter.ops - before
        if after is not None:
            after(rec.log, args, result)
        return result

    return wrapper


def _good_cells(log, args, result) -> None:
    g, cliques = args[0], args[1]
    log.counts["good_cells"] += len(cliques) * g.n * g.n


def _children(log, args, result) -> None:
    log.counts["children"] += sum(len(spec.indices) for spec in result)


def _cells(log, args, result) -> None:
    log.counts["cells"] += result.size


def targets(lib, rec: Recorder):
    """(owner, attribute, replacement) for every wrapped name."""
    ds = lib["delay_scheduler"]
    kernels = lib["kernels"]
    matmul = lib["matmul"]
    stack_cls = lib["batch_dfs"].BacktrackStack
    cli = lib["cli"]
    ended_kind = lib["batch_dfs"].TRAVERSAL_ENDED

    def step_events(*args, **kwargs):
        rec.stream_ended = False
        for event in ds_step_events(*args, **kwargs):
            if event.kind == ended_kind:
                rec.stream_ended = True
            yield event

    ds_step_events = ds.step_events
    stats_cls = cli.TraversalStats

    def traversal_stats(*args, **kwargs):
        stats = stats_cls(*args, **kwargs)
        rec.log.stats.append(stats)
        return stats

    def s(owner, attr, name, **kw):
        return owner, attr, spanned(rec, name, getattr(owner, attr), **kw)

    return [
        s(ds, "root", "root"),
        s(ds, "children_batch", "children_batch", counter_pos=3, after=_children),
        s(ds, "calibrate", "calibrate"),
        s(ds, "boot", "boot"),
        (ds, "step_events", step_events),
        s(kernels, "good_table_bitset", "good_table_bitset", after=_good_cells),
        s(kernels, "good_table_rectangular", "good_table_rectangular", after=_good_cells),
        s(kernels, "build_batch_matrices", "build_batch_matrices"),
        s(kernels, "filter_children", "filter_children"),
        s(kernels, "clique_index", "clique_index"),
        s(matmul, "multiply_boolean_threshold", "multiply_boolean_threshold", after=_cells),
        s(stack_cls, "pop", "pop", counter_pos=2),
        s(cli, "load_graph", "load_graph"),
        s(cli, "_format_clique", "format_clique"),
        s(cli, "_verify", "verify"),
        (cli, "TraversalStats", traversal_stats),
    ]


@contextmanager
def wrapped(lib, rec: Recorder):
    """Install the wrappers; restore every original name on exit."""
    saved = []
    try:
        for owner, attr, replacement in targets(lib, rec):
            saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, replacement)
        yield rec
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
