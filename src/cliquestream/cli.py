"""Command-line driver: ingestion, enumeration modes, verification, traces.

Graphs come from edge-list files (``u v`` per line, optional ``n N``
header, ``#`` comments), DIMACS files (``p edge N M`` then ``e u v``
lines), or generator specs passed straight to ``--input``:
``gnp:N:P`` (seeded by ``--seed``), ``moon-moser:N``, ``complete:N``, with
``N >= 1`` and ``P`` in [0, 1].

Cliques stream to stdout one per line as ascending 1-based vertex ids;
diagnostics go to stderr.  A reader that closes stdout early (``| head``)
stops the listing quietly with exit status 0.  Emission order is
deterministic given (graph, kernel, capacity, mode).  ``--trace`` writes
one CSV row per clique as it is printed: print_ordinal, cost_units,
queue_size, stack_cliques.  Memory grows with the traversal stack, not
with the output; ``--verify`` alone keeps the printed cliques' bitmasks.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, field

from . import delay_scheduler, oracle, rs_tree
from .batch_dfs import CLIQUE_COLLECTED, TraversalStats
from .graph import Graph, VertexSet
from .kernels import KERNELS, check_graph_matrix

TRACE_SCHEMA = "# cliquestream trace v1"
TRACE_HEADER = "print_ordinal,cost_units,queue_size,stack_cliques"


class ParseError(ValueError):
    """Malformed graph input; message carries the offending line number."""


@dataclass
class IngestReport:
    self_loops_dropped: int = 0
    duplicates_dropped: int = 0
    warnings: list[str] = field(default_factory=list)


def _finish_edges(
    pairs: list[tuple[int, int]], n: int, report: IngestReport | None
) -> Graph:
    g = Graph.from_edges(n, pairs)
    if report is not None:
        loops = sum(1 for u, v in pairs if u == v)
        report.self_loops_dropped += loops
        report.duplicates_dropped += len(pairs) - loops - g.m
    return g


def parse_edge_list(text: str, report: IngestReport | None = None) -> Graph:
    """Parse ``u v`` lines; an optional ``n N`` header declares the vertex
    count (otherwise the largest id wins).  Self-loops and duplicates are
    dropped and counted."""
    declared = None
    pairs: list[tuple[int, int]] = []
    max_id = 0
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "n":
            if declared is not None:
                raise ParseError(f"line {lineno}: duplicate 'n' header")
            if len(parts) != 2:
                raise ParseError(f"line {lineno}: expected 'n <count>'")
            try:
                declared = int(parts[1])
            except ValueError:
                raise ParseError(f"line {lineno}: bad vertex count {parts[1]!r}") from None
            if declared < 1:
                raise ParseError(f"line {lineno}: vertex count must be positive")
            if max_id > declared:
                raise ParseError(
                    f"line {lineno}: declared count {declared} is below vertex id {max_id}"
                )
            continue
        if len(parts) != 2:
            raise ParseError(f"line {lineno}: expected 'u v', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"line {lineno}: non-integer vertex id in {line!r}") from None
        if u < 1 or v < 1:
            raise ParseError(f"line {lineno}: vertex ids must be >= 1")
        if declared is not None and (u > declared or v > declared):
            raise ParseError(
                f"line {lineno}: vertex id exceeds declared count {declared}"
            )
        pairs.append((u, v))
        max_id = max(max_id, u, v)
    n = declared if declared is not None else max_id
    if n == 0:
        raise ParseError("no vertices: empty input without an 'n' header")
    return _finish_edges(pairs, n, report)


def parse_dimacs(text: str, report: IngestReport | None = None) -> Graph:
    """Parse DIMACS: one ``p edge N M`` header, then ``e u v`` lines.

    ``c`` comment lines are skipped.  A mismatch between declared and seen
    edge counts is a warning, not an error; a missing header is fatal.
    """
    n = None
    declared_m = 0
    seen_m = 0
    pairs: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if n is not None:
                raise ParseError(f"line {lineno}: duplicate problem header")
            if len(parts) != 4 or parts[1] != "edge":
                raise ParseError(f"line {lineno}: expected 'p edge N M'")
            try:
                n, declared_m = int(parts[2]), int(parts[3])
            except ValueError:
                raise ParseError(f"line {lineno}: bad header numbers") from None
            if n < 1:
                raise ParseError(f"line {lineno}: vertex count must be positive")
            continue
        if parts[0] == "e":
            if n is None:
                raise ParseError(f"line {lineno}: edge before 'p edge' header")
            if len(parts) != 3:
                raise ParseError(f"line {lineno}: expected 'e u v'")
            try:
                u, v = int(parts[1]), int(parts[2])
            except ValueError:
                raise ParseError(f"line {lineno}: non-integer vertex id") from None
            if not (1 <= u <= n and 1 <= v <= n):
                raise ParseError(f"line {lineno}: vertex id outside 1..{n}")
            pairs.append((u, v))
            seen_m += 1
            continue
        raise ParseError(f"line {lineno}: unrecognized line {line!r}")
    if n is None:
        raise ParseError("missing 'p edge N M' header")
    if seen_m != declared_m:
        msg = f"header declares {declared_m} edges but {seen_m} were found"
        if report is not None:
            report.warnings.append(msg)
    return _finish_edges(pairs, n, report)


def to_edge_list(g: Graph) -> str:
    lines = [f"n {g.n}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def to_dimacs(g: Graph) -> str:
    lines = [f"p edge {g.n} {g.m}"]
    lines.extend(f"e {u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


@dataclass
class RunConfig:
    input: str
    fmt: str = "edges"
    kernel: str = "bitset"
    capacity: int | None = None
    mode: str = "plain"
    first: int | None = None
    verify: bool = False
    trace: str | None = None
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.first is not None and self.first < 1:
            raise ValueError("--first must be at least 1")
        if self.capacity is not None and self.capacity < 1:
            raise ValueError("--batch must be at least 1")


GENERATORS = {"gnp": "N:P", "moon-moser": "N", "complete": "N"}


def generator_graph(spec: str, seed: int | None) -> Graph | None:
    """Graph of a generator spec such as ``gnp:N:P`` (shapes in
    :data:`GENERATORS`); ``None`` when ``spec`` names no generator.  Every
    generator refuses ``N < 1`` and ``P`` outside [0, 1] with ``ValueError``.
    """
    name, sep, rest = spec.partition(":")
    if name not in GENERATORS or not sep:
        return None
    shape = GENERATORS[name]
    fields = rest.split(":")
    usage = f"generator spec must be {name}:{shape}, got {spec!r}"
    if len(fields) != len(shape.split(":")):
        raise ValueError(usage)
    try:
        n = int(fields[0])
        probs = [float(f) for f in fields[1:]]
    except ValueError:
        raise ValueError(usage) from None
    if n < 1:
        raise ValueError(f"{spec}: vertex count must be at least 1")
    if not all(0.0 <= p <= 1.0 for p in probs):
        raise ValueError(f"{spec}: edge probability must be in [0, 1]")
    if name == "gnp":
        return Graph.gnp(n, probs[0], seed=seed)
    if name == "moon-moser":
        return Graph.complete_multipartite_triples(n)
    return Graph.complete(n)


def load_graph(cfg: RunConfig, report: IngestReport) -> Graph:
    """Read the input path, or build a generator graph from a spec string."""
    g = generator_graph(cfg.input, cfg.seed)
    if g is not None:
        return g
    with open(cfg.input, "r", encoding="utf-8") as fh:
        text = fh.read()
    if cfg.fmt == "dimacs":
        return parse_dimacs(text, report)
    return parse_edge_list(text, report)


def _format_clique(c: VertexSet) -> str:
    return " ".join(map(str, c))


def _plain_emissions(g: Graph, cfg: RunConfig, stats: TraversalStats):
    """(clique, cost-since-last-print, queue_size, stack) tuples for plain mode."""
    cost = 0
    for event in delay_scheduler.list_mc(
        g, kernel=cfg.kernel, capacity=cfg.capacity, stats=stats
    ):
        cost += event.cost
        if event.kind == CLIQUE_COLLECTED:
            yield event.clique, cost, 0, stats.stack_cliques
            cost = 0


def _strict_emissions(g: Graph, cfg: RunConfig, stats: TraversalStats):
    report = delay_scheduler.StrictRunReport(stats=stats)
    for em in delay_scheduler.run_strict(
        g, kernel=cfg.kernel, capacity=cfg.capacity, report=report
    ):
        yield em.clique, em.cost_units, em.queue_size, em.stack_cliques


def _verify(g: Graph, emitted: set[int], count: int, prefix_only: bool, err) -> bool:
    """Check the ``count`` printed cliques, whose distinct bitmasks are
    ``emitted``, against the oracle."""
    ref_set = {c.bits for c in oracle.all_maximal_cliques(g, limit=g.n)}
    duplicates = count - len(emitted)
    # every oracle clique is maximal, so only the extra ones need the test
    extras = emitted - ref_set
    not_maximal = sum(
        1 for bits in extras if not rs_tree.is_maximal_clique(g, VertexSet(bits))
    )
    extra = len(extras)
    missing = 0 if prefix_only else len(ref_set - emitted)
    ok = duplicates == 0 and not_maximal == 0 and extra == 0 and missing == 0
    scope = f"first {count}" if prefix_only else f"all {len(ref_set)}"
    if ok:
        print(f"VERIFY PASS: {scope} cliques match the oracle", file=err)
    else:
        print(
            "VERIFY FAIL: "
            f"missing={missing} extra={extra} duplicates={duplicates} "
            f"non_maximal={not_maximal}",
            file=err,
        )
    return ok


def run(cfg: RunConfig, out=None, err=None) -> int:
    """Execute one configured run.  Returns a process exit status."""
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    report = IngestReport()
    try:
        g = load_graph(cfg, report)
        if cfg.kernel == "rect":
            check_graph_matrix(g.n)
        # opened before listing, so a bad path is refused before anything prints
        trace = open(cfg.trace, "w", encoding="utf-8") if cfg.trace else None
    except (ParseError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=err)
        return 2
    stats = TraversalStats()
    emit = _plain_emissions if cfg.mode == "plain" else _strict_emissions
    emitted: set[int] = set()  # filled only under --verify
    count = 0
    try:
        if trace is not None:
            trace.write(f"{TRACE_SCHEMA}\n{TRACE_HEADER}\n")
        for warning in report.warnings:
            print(f"warning: {warning}", file=err)
        if report.self_loops_dropped or report.duplicates_dropped:
            print(
                f"normalized input: dropped {report.self_loops_dropped} self-loops, "
                f"{report.duplicates_dropped} duplicate edges",
                file=err,
            )
        for clique, cost, queue_size, stack_cliques in emit(g, cfg, stats):
            out.write(_format_clique(clique) + "\n")
            count += 1
            if cfg.verify:
                emitted.add(clique.bits)
            if trace is not None:
                trace.write(f"{count},{cost},{queue_size},{stack_cliques}\n")
            if cfg.first is not None and count >= cfg.first:
                break
    finally:
        if trace is not None:
            trace.close()
    if cfg.verify and not _verify(g, emitted, count, cfg.first is not None, err):
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="cliquestream",
        description="List all maximal cliques of a graph, optionally with a "
        "strict bounded-delay output schedule.",
    )
    p.add_argument(
        "--input",
        required=True,
        help="graph file path, or generator spec gnp:N:P | moon-moser:N | complete:N",
    )
    p.add_argument("--format", dest="fmt", choices=["edges", "dimacs"], default="edges")
    p.add_argument("--kernel", choices=KERNELS, default="bitset")
    p.add_argument(
        "--batch",
        dest="capacity",
        metavar="N",
        type=int,
        default=None,
        help="batch capacity (default n^2)",
    )
    p.add_argument("--mode", choices=["plain", "strict"], default="plain")
    p.add_argument("--first", type=int, default=None, help="stop after X cliques")
    p.add_argument(
        "--verify",
        action="store_true",
        help="check the output against the brute-force oracle",
    )
    p.add_argument("--trace", default=None, help="write a CSV trace to this path")
    p.add_argument("--seed", type=int, default=None, help="seed for gnp generation")
    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = RunConfig(**vars(args))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        status = run(cfg)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout (``| head``): stop listing without a
        # traceback, and point stdout at devnull so the interpreter's final
        # flush does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    return status


if __name__ == "__main__":
    sys.exit(main())
