"""Workloads, correctness gate and timed runners of the benchmark.

Every listing goes through one of three runners that call the public API
the way a user does: ``delay_scheduler.list_mc`` (plain library stream),
``delay_scheduler.run_strict`` (bounded-delay stream) and ``cli.run``
(DIMACS file in, text lines out).  One consumer pulls the stream as fast as
it can (closed loop, one thread).  Each output is handed to a *sink*, which
by default feeds a :class:`StreamCheck`; outputs are never stored.
"""

from __future__ import annotations

import hashlib
import importlib
import io
import random
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

PACKAGE = "cliquestream"
MODULES = (
    "graph",
    "rs_tree",
    "kernels",
    "matmul",
    "batch_dfs",
    "delay_scheduler",
    "oracle",
    "cli",
)

# Graph recipes: ("gnp", n, p) | ("moon-moser", n).  Each recipe fixes one
# graph (gnp graphs from BASE_SEED); ``--seed`` picks a vertex relabeling of
# it.  A relabeling keeps the clique set's structure but changes the
# lexicographic order, so the reverse-search tree, the batches, the emission
# order and every cost change with the seed.  Fresh gnp graphs per seed
# spread the max-gap work units of dense-plain by 0.21 (interquartile range
# / median over 8 seeds); relabelings of fixed graphs by 0.08.
# Runner: "plain" (list_mc, bitset, capacity n^2), "strict" (run_strict with
# default calibration) or "cli" (cli.run with --kernel rect --batch 64
# --trace, and --verify where listed).
BASE_SEED = 2015

WORKLOADS = {
    "dense-plain": {
        "runner": "plain",
        "graphs": [("gnp", 40, 0.5), ("gnp", 48, 0.4), ("gnp", 64, 0.25)],
    },
    "moon-moser-plain": {
        "runner": "plain",
        "graphs": [("moon-moser", 21), ("moon-moser", 24)],
    },
    "sparse-strict": {
        "runner": "strict",
        "graphs": [("gnp", 100, 0.07), ("gnp", 100, 0.07)],
    },
    "cli-rect": {
        "runner": "cli",
        "graphs": [("gnp", 56, 0.4), ("moon-moser", 18)],
        "verify": [False, True],  # --verify, per graph
    },
}

# Same shapes at a size that lists in well under a second; used by the
# smoke test.
TINY = {
    "dense-plain": {**WORKLOADS["dense-plain"], "graphs": [("gnp", 14, 0.5), ("gnp", 16, 0.4)]},
    "moon-moser-plain": {**WORKLOADS["moon-moser-plain"], "graphs": [("moon-moser", 9)]},
    "sparse-strict": {**WORKLOADS["sparse-strict"], "graphs": [("gnp", 30, 0.1), ("gnp", 30, 0.1)]},
    "cli-rect": {**WORKLOADS["cli-rect"], "graphs": [("gnp", 14, 0.4), ("moon-moser", 9)]},
}

CLI_KERNEL = "rect"
CLI_BATCH = 64

# A plain stream's first output (the root) comes after tens of microseconds,
# too short for one sample per listing to be steady.  Each plain listing is
# followed by this many fresh starts that stop at the first output, and the
# listing reports the median of all the samples.
FIRST_OUTPUT_STARTS = 10


class Yardstick:
    """Fixed pure-Python workload that measures how fast the machine is
    right now.

    A shared host can change speed by tens of percent from one minute to
    the next; on a 2-core virtual machine, CPU time varied as much as wall
    time, so neither can be compared across runs as it is.  Each timing is
    therefore divided by the yardstick's time measured next to it,
    and multiplied by the nominal yardstick time ``NOMINAL_S``.  The result
    is in reference seconds: seconds on a machine where the yardstick takes
    ``NOMINAL_S``.  The yardstick is a pivoted Bron-Kerbosch count on a
    fixed G(64, 0.3).  It is the benchmark's own code, so no change to the
    program moves it, and it does the same kind of work as the program
    (big-int masks, Python loops and recursion).
    """

    NOMINAL_S = 0.015
    REPS = 8

    def __init__(self, n: int = 64, p: float = 0.3, seed: int = 20150603) -> None:
        rng = random.Random(seed)
        adj = [0] * n
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < p:
                    adj[u] |= 1 << v
                    adj[v] |= 1 << u
        self.adj = adj
        self.full = (1 << n) - 1

    def _count(self, p: int, x: int) -> int:
        if p == 0:
            return x == 0
        adj = self.adj
        pool = p | x
        pivot = max(_bits(pool), key=lambda u: (p & adj[u]).bit_count())
        total = 0
        for v in _bits(p & ~adj[pivot]):
            total += self._count(p & adj[v], x & adj[v])
            p &= ~(1 << v)
            x |= 1 << v
        return total

    def seconds(self) -> float:
        t0 = time.perf_counter()
        for _ in range(self.REPS):
            self._count(self.full, 0)
        return time.perf_counter() - t0


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def sub_seed(seed: int, index: int) -> int:
    """Independent, reproducible seed for the index-th graph of a workload."""
    digest = hashlib.blake2b(f"{seed}:{index}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def clique_hash(bits: int) -> int:
    """64-bit BLAKE2b digest of one clique's vertex mask."""
    raw = bits.to_bytes(bits.bit_length() // 8 + 1, "little")
    return int.from_bytes(hashlib.blake2b(raw, digest_size=8).digest(), "little")


class StreamCheck:
    """Order-free check of one listing against the reference clique set.

    Keeps a count and the sum (mod 2^64) of per-clique digests.  A stream
    matches when both equal the reference; a missing, extra or repeated
    clique changes the sum unless a 64-bit digest collides.
    """

    __slots__ = ("want_count", "want_sum", "count", "sum", "violations")

    def __init__(self, want_count: int, want_sum: int) -> None:
        self.want_count = want_count
        self.want_sum = want_sum
        self.count = 0
        self.sum = 0
        self.violations = 0

    def add(self, bits: int) -> None:
        self.count += 1
        self.sum = (self.sum + clique_hash(bits)) & 0xFFFFFFFFFFFFFFFF

    def ok(self) -> bool:
        return (
            self.violations == 0
            and self.count == self.want_count
            and self.sum == self.want_sum
        )


Sink = Callable[[int], None]
Tap = Callable[[StreamCheck], Sink]


def default_tap(check: StreamCheck) -> Sink:
    return check.add


@dataclass
class Job:
    """One workload graph, its reference answer and how to run it."""

    label: str
    graph: object
    runner: str
    verify: bool = False
    dimacs: Path | None = None
    ref_count: int = 0
    ref_sum: int = 0

    def check(self) -> StreamCheck:
        return StreamCheck(self.ref_count, self.ref_sum)


@dataclass
class Listing:
    """Measurements of one listing of one job."""

    cliques: int
    wall_s: float
    delay_max_s: float
    first_output_s: float
    first_output_units: int
    units: int
    ok: bool
    tail_s: float = 0.0
    detail: dict = field(default_factory=dict)


def import_package(src: Path):
    """Import the package from ``src`` afresh; returns its modules by name."""
    for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    importlib.invalidate_caches()
    pkg = importlib.import_module(PACKAGE)
    origin = Path(pkg.__file__).resolve()
    if src.resolve() not in origin.parents:
        raise ImportError(f"{PACKAGE} imported from {origin}, not from {src}")
    return {m: importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES}


def make_graph(lib, recipe, seed: int, index: int):
    graph_cls = lib["graph"].Graph
    if recipe[0] == "gnp":
        _, n, p = recipe
        g, label = graph_cls.gnp(n, p, seed=BASE_SEED + index), f"gnp({n},{p})"
    else:
        _, n = recipe
        g, label = graph_cls.complete_multipartite_triples(n), f"moon-moser({n})"
    perm = list(range(1, n + 1))
    random.Random(sub_seed(seed, index)).shuffle(perm)
    edges = [(perm[u - 1], perm[v - 1]) for u, v in g.edges()]
    return graph_cls.from_edges(n, edges), label


def build_jobs(lib, spec: dict, seed: int, workdir: Path) -> tuple[list[Job], float]:
    """Generate the workload's graphs and write DIMACS files for the CLI;
    also returns the time spent generating graphs."""
    jobs = []
    gen = 0.0
    verify = spec.get("verify", [False] * len(spec["graphs"]))
    for index, recipe in enumerate(spec["graphs"]):
        t0 = time.perf_counter()
        g, label = make_graph(lib, recipe, seed, index)
        gen += time.perf_counter() - t0
        job = Job(label=label, graph=g, runner=spec["runner"], verify=verify[index])
        if job.runner == "cli":
            job.dimacs = workdir / f"graph{index}.dimacs"
            job.dimacs.write_text(lib["cli"].to_dimacs(g), encoding="utf-8")
        jobs.append(job)
    return jobs, gen


def reference(lib, job: Job) -> float:
    """Fill the job's reference count and digest sum from Bron-Kerbosch;
    returns the oracle's wall time."""
    t0 = time.perf_counter()
    cliques = lib["oracle"].all_maximal_cliques(job.graph, limit=job.graph.n)
    wall = time.perf_counter() - t0
    job.ref_count = len(cliques)
    job.ref_sum = sum(clique_hash(c.bits) for c in cliques) & 0xFFFFFFFFFFFFFFFF
    return wall


def run_plain(lib, job: Job, tap: Tap = default_tap) -> Listing:
    ds = lib["delay_scheduler"]
    collected = lib["batch_dfs"].CLIQUE_COLLECTED
    stats = lib["batch_dfs"].TraversalStats()
    check = job.check()
    sink = tap(check)
    clock = time.perf_counter
    first = None
    first_units = 0
    gap = 0.0
    t0 = clock()
    last = t0
    for event in ds.list_mc(job.graph, stats=stats):
        if event.kind == collected:
            now = clock()
            if now - last > gap:
                gap = now - last
            last = now
            if first is None:
                first = now - t0
                first_units = stats.total_cost
            sink(event.clique.bits)
    end = clock()
    gap = max(gap, end - last)
    firsts = [first if first is not None else end - t0]
    for _ in range(FIRST_OUTPUT_STARTS):
        t1 = clock()
        for event in ds.list_mc(job.graph):
            if event.kind == collected:
                firsts.append(clock() - t1)
                break
    return Listing(
        cliques=check.count,
        wall_s=end - t0,
        delay_max_s=gap,
        first_output_s=statistics.median(firsts),
        first_output_units=first_units,
        units=stats.total_cost,
        ok=check.ok(),
        detail={"stats": stats},
    )


def run_strict(lib, job: Job, tap: Tap = default_tap, on_emit=None) -> Listing:
    ds = lib["delay_scheduler"]
    g = job.graph
    report = ds.StrictRunReport()
    check = job.check()
    sink = tap(check)
    clock = time.perf_counter
    first = None
    first_units = 0
    gap = 0.0
    t0 = clock()
    last = t0
    for em in ds.run_strict(g, report=report):
        now = clock()
        if now - last > gap:
            gap = now - last
        last = now
        if first is None:
            first = now - t0
            first_units = report.stats.total_cost
        if em.queue_size > report.config.boot_target + g.n * g.n + 1:
            check.violations += 1
        if on_emit is not None:
            on_emit()
        sink(em.clique.bits)
    end = clock()
    gap = max(gap, end - last)
    return Listing(
        cliques=check.count,
        wall_s=end - t0,
        delay_max_s=gap,
        first_output_s=first if first is not None else end - t0,
        first_output_units=first_units,
        units=report.stats.total_cost,
        ok=check.ok(),
        detail={"stats": report.stats, "report": report},
    )


class LineSink(io.TextIOBase):
    """Text stream for ``cli.run``'s output: parses each line as it
    completes, feeds the clique to ``sink`` and stamps the time."""

    def __init__(self, sink: Sink, clock=time.perf_counter) -> None:
        self._sink = sink
        self._clock = clock
        self.partial = ""
        self.lines = 0
        self.bad_lines = 0
        self.first = None
        self.last = None
        self.gap = 0.0
        self.t0 = 0.0

    def writable(self) -> bool:
        return True

    def write(self, text: str) -> int:
        buf = self.partial + text
        *done, self.partial = buf.split("\n")
        for line in done:
            now = self._clock()
            prev = self.last if self.last is not None else self.t0
            if now - prev > self.gap:
                self.gap = now - prev
            self.last = now
            if self.first is None:
                self.first = now
            self.lines += 1
            bits = 0
            try:
                for v in line.split():
                    bits |= 1 << (int(v) - 1)
            except ValueError:
                self.bad_lines += 1
                continue
            self._sink(bits)
        return len(text)


def run_cli(lib, job: Job, trace_path: Path, tap: Tap = default_tap) -> Listing:
    cli = lib["cli"]
    cfg = cli.RunConfig(
        input=str(job.dimacs),
        fmt="dimacs",
        kernel=CLI_KERNEL,
        capacity=CLI_BATCH,
        verify=job.verify,
        trace=str(trace_path),
    )
    trace_path.unlink(missing_ok=True)
    check = job.check()
    out = LineSink(tap(check))
    err = io.StringIO()
    clock = time.perf_counter
    out.t0 = t0 = clock()
    status = cli.run(cfg, out=out, err=err)
    end = clock()
    last = out.last if out.last is not None else t0
    costs = read_trace_costs(trace_path) if trace_path.exists() else []
    ok = (
        status == 0
        and out.bad_lines == 0
        and out.partial == ""
        and len(costs) == out.lines
        and (not cfg.verify or "VERIFY PASS" in err.getvalue())
    )
    return Listing(
        cliques=check.count,
        wall_s=end - t0,
        delay_max_s=max(out.gap, end - last),
        first_output_s=(out.first if out.first is not None else end) - t0,
        first_output_units=costs[0] if costs else 0,
        units=sum(costs),
        ok=ok and check.ok(),
        tail_s=end - last,
        detail={"status": status, "lines": out.lines},
    )


def read_trace_costs(path: Path) -> list[int]:
    """cost_units column of a ``cli --trace`` CSV."""
    costs = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("#") or line.startswith("print_ordinal"):
                continue
            costs.append(int(line.split(",")[1]))
    return costs


def run_job(lib, job: Job, workdir: Path, tap: Tap = default_tap, on_emit=None) -> Listing:
    """One checked listing.  ``on_emit`` is called at each strict-mode
    emission (the traced run counts drained emissions with it)."""
    if job.runner == "plain":
        return run_plain(lib, job, tap)
    if job.runner == "strict":
        return run_strict(lib, job, tap, on_emit)
    return run_cli(lib, job, workdir / "trace.csv", tap)
