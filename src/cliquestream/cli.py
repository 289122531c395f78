"""Command-line driver: ingestion, enumeration modes, verification, traces.

Graphs come from edge-list files (``u v`` per line, optional ``n N``
header, ``#`` comments), DIMACS files (``p edge N M`` then ``e u v``
lines, ``c`` comments), or generator specs passed straight to ``--input``:
``gnp:N:P`` (seeded by ``--seed``), ``moon-moser:N``, ``complete:N``.  A
vertex count or edge probability the :class:`Graph` constructors refuse
is refused with their message (after the line number, for files).  Each
format has one grammar, its line-by-line rules, which name the first line
of a refused file.  A plain-ASCII file is read in bulk: the text is checked
and its ASCII decimal ids read in a few bytes and numpy calls; any other
file, and any the bulk reader does not take, is read by the line rules.
:class:`Graph`'s pairs builder packs the adjacency a block of rows at a
time.  A leading UTF-8 byte-order mark is dropped.

Cliques stream to stdout one per line as ascending 1-based vertex ids;
diagnostics go to stderr.  A reader that closes stdout early (``| head``)
stops the listing quietly with exit status 0.  Emission order is
deterministic given (graph, kernel, capacity, mode).  ``--trace`` writes
one CSV row per clique as it is printed: print_ordinal, cost_units,
queue_size, stack_cliques (the cliques on the stack: "bitset" stacks a
batch's child masks at its end, and a plain "rect" listing a parent's
children when the stack reaches it).  Memory follows the traversal stack,
not the output, in every mode.  ``--mode strict`` also queues the collected
cliques not yet printed, at one deque slot and one int mask each (48 bytes
at n = 100), and forces a print past 2 boot_target of them ("rect": or its
batch's cliques, if more).  ``--verify`` draws the oracle's masks one per
printed line and the rest after the last, and keeps only fingerprints of
both sides, no mask but a ``--first`` prefix's.
Bad input, ``--first`` below 1, what the listing refuses at the call and
an unopenable ``--trace`` path all exit 2 with nothing on stdout.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from array import array
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from . import delay_scheduler, oracle, rs_tree
from .batch_dfs import CLIQUE_COLLECTED, TraversalStats
from .graph import Graph, VertexSet, check_vertex_count
from .kernels import KERNELS

TRACE_SCHEMA = "# cliquestream trace v1"
TRACE_HEADER = "print_ordinal,cost_units,queue_size,stack_cliques"


class ParseError(ValueError):
    """Malformed graph input; message carries the offending line number."""


@dataclass
class IngestReport:
    self_loops_dropped: int = 0
    duplicates_dropped: int = 0
    warnings: list[str] = field(default_factory=list)


# The bulk readers take plain ASCII alone and split tokens on b" " and lines
# on b"\n": tab becomes a space and each ASCII break of str.splitlines a
# newline ("\r\n" two, one more blank line), so a comment ends where its
# line does.  No b"\r" is left, so it marks where a DIMACS "e " was.  Past
# comments, headers and DIMACS's "e", any byte but digits and separators, a
# "+" included, leaves the text to the line rules.
_BREAKS = bytes.maketrans(b"\t\r\x0b\x0c\x1c\x1d\x1e", b" " + b"\n" * 6)
_DIGITS = b" \n\r0123456789"
_INDENT = re.compile(rb"\n +")
_EDGE_COMMENT = re.compile(rb"#[^\n]*")
_DIMACS_COMMENT = re.compile(rb"\nc[^\n]*")


def _check_count(n: int, lineno: int) -> None:
    """:func:`check_vertex_count` as a ParseError that names the line."""
    try:
        check_vertex_count(n)
    except ValueError as exc:
        raise ParseError(f"line {lineno}: {exc}") from None


def _integer(token: str) -> int:
    """A header number or vertex id: ``int`` of ASCII decimal only, so
    ``1_0`` and other scripts' digits, which ``int`` reads, are refused."""
    if not token.isascii() or "_" in token:
        raise ValueError(f"not an ASCII decimal: {token!r}")
    return int(token)


def _normalized(text: str) -> bytes | None:
    """Plain ASCII ``text`` between two newlines as bytes whose only breaks
    are b"\\n", no line indented, split into the lines of ``str.splitlines``
    (a ``\\r\\n`` break leaves one more blank line); None for other text."""
    if not text.isascii():
        return None
    data = ("\n" + text + "\n").encode().translate(_BREAKS)
    return _INDENT.sub(b"\n", data) if b"\n " in data else data


def _pairs(data: bytes, head: int):
    """The ids of normalized ``data``, only digits and separators, as int64
    pairs, when each line holds two ids or none and every id is at least 1,
    else None; an id past int64 reads as its largest.  A line's first id
    follows the byte ``head``, its second a space."""
    a = np.frombuffer(data, np.uint8)
    gap = a <= 32
    before = a[np.flatnonzero(gap[:-1] > gap[1:])]  # the byte before each id
    lines = len(before) // 2
    if len(before) % 2 or (before[0::2] != head).any() or (before[1::2] != 32).any():
        return None
    # np.fromstring reads blank text as one 0
    ids = np.fromstring(data, np.int64, sep=" ") if lines else np.zeros(0, np.int64)
    return ids.reshape(-1, 2) if len(ids) == 2 * lines and ids.min(initial=1) >= 1 else None


def _graph(n: int, pairs, report: IngestReport | None) -> Graph:
    """The graph of the int64 id pairs ``pairs``, its self-loops and repeats in ``report``."""
    loop = pairs[:, 0] == pairs[:, 1]
    loops = int(np.count_nonzero(loop))
    g = Graph._from_pairs(n, pairs[~loop] if loops else pairs)
    if report is not None:
        report.self_loops_dropped += loops
        report.duplicates_dropped += len(pairs) - loops - g.m
    return g


def parse_edge_list(text: str, report: IngestReport | None = None) -> Graph:
    """Parse ``u v`` lines; an optional ``n N`` header declares the vertex
    count (otherwise the largest id wins).  Ids are ASCII decimal, leading
    zeros and a ``+`` allowed.  Self-loops and duplicates are dropped and
    counted.  A count the graph cannot hold is refused at its line, before
    the rows are built."""
    return _graph(*(_read_edge_list(text) or _edge_list_lines(text)), report)


def _read_edge_list(text: str):
    """``(n, id pairs)`` of a plain-ASCII edge list the line rules accept,
    read in bulk, or None."""
    data = _normalized(text)
    if data is None:
        return None
    if b"#" in data:
        data = _EDGE_COMMENT.sub(b"", data)
    n = None
    at = data.find(b"n")
    if at >= 0:  # the header, the one line a letter may be on
        end = data.index(b"\n", at)
        word, *count = data[at:end].split()
        if data[at - 1] != 10 or word != b"n" or len(count) != 1 or not count[0].isdigit():
            return None
        n = count[0]
        data = data[:at] + data[end:]
    pairs = None if data.translate(None, _DIGITS) else _pairs(data, 10)
    if pairs is None:
        return None
    top = int(pairs.max(initial=0))
    try:  # int refuses a count of over 4,300 digits
        n = top if n is None else int(n)
        check_vertex_count(n)
    except ValueError:
        return None
    return (n, pairs) if top <= n else None


def _edge_list_lines(text: str):
    """``(n, id pairs)`` of an edge list read line by line, or the
    ParseError that names its first refused line."""
    declared = None
    max_id = 0
    pairs = array("q")
    for lineno, raw in enumerate(text.splitlines(), 1):
        parts = raw.split("#", 1)[0].split()
        if not parts:
            continue
        if parts[0] == "n":
            if declared is not None:
                raise ParseError(f"line {lineno}: duplicate 'n' header")
            if len(parts) != 2:
                raise ParseError(f"line {lineno}: expected 'n <count>'")
            try:
                declared = _integer(parts[1])
            except ValueError:
                raise ParseError(f"line {lineno}: bad vertex count {parts[1]!r}") from None
            _check_count(declared, lineno)
            if max_id > declared:
                raise ParseError(
                    f"line {lineno}: declared count {declared} is below vertex id {max_id}"
                )
            continue
        if len(parts) != 2:
            line = raw.split("#", 1)[0].strip()
            raise ParseError(f"line {lineno}: expected 'u v', got {line!r}")
        try:
            u, v = _integer(parts[0]), _integer(parts[1])
        except ValueError:
            line = raw.split("#", 1)[0].strip()
            raise ParseError(f"line {lineno}: non-integer vertex id in {line!r}") from None
        if u < 1 or v < 1:
            raise ParseError(f"line {lineno}: vertex ids must be >= 1")
        if declared is not None and (u > declared or v > declared):
            raise ParseError(
                f"line {lineno}: vertex id exceeds declared count {declared}"
            )
        max_id = max(max_id, u, v)
        if declared is None:
            _check_count(max_id, lineno)
        pairs.extend((u, v))
    if declared is None and max_id == 0:
        raise ParseError("no vertices: empty input without an 'n' header")
    return declared or max_id, np.frombuffer(pairs, np.int64).reshape(-1, 2)


def parse_dimacs(text: str, report: IngestReport | None = None) -> Graph:
    """Parse DIMACS: one ``p edge N M`` header, then ``e u v`` lines.

    ``c`` comment lines are skipped.  Ids are ASCII decimal, leading zeros
    and a ``+`` allowed.  A mismatch between declared and seen edge counts
    is a warning, not an error; a missing header, a negative ``M``, or an
    ``N`` the graph cannot hold is fatal, the last before the rows are built.
    """
    n, declared_m, pairs = _read_dimacs(text) or _dimacs_lines(text)
    if len(pairs) != declared_m and report is not None:
        report.warnings.append(f"header declares {declared_m} edges but {len(pairs)} were found")
    return _graph(n, pairs, report)


def _read_dimacs(text: str):
    """``(n, declared edge count, id pairs)`` of a plain-ASCII DIMACS text
    the line rules accept, read in bulk, or None."""
    data = _normalized(text)
    if data is None:
        return None
    if b"\nc" in data:
        data = _DIMACS_COMMENT.sub(b"", data)
    head, _, body = data.lstrip(b"\n").partition(b"\n")
    head = head.split()
    if len(head) != 4 or head[:2] != [b"p", b"edge"] or not (head[2] + head[3]).isdigit():
        return None
    try:  # int refuses a number of over 4,300 digits
        n, declared_m = int(head[2]), int(head[3])
        check_vertex_count(n)
    except ValueError:
        return None
    body = b"\n" + body
    ids = body.replace(b"\ne ", b"\r")  # 'e u v' reads as '\ru v', 2 bytes shorter; 'u v' is refused
    pairs = None if ids.translate(None, _DIGITS) else _pairs(ids, 13)
    if pairs is None or 2 * len(pairs) != len(body) - len(ids) or pairs.max(initial=1) > n:
        return None
    return n, declared_m, pairs


def _dimacs_lines(text: str):
    """``(n, declared edge count, id pairs)`` of a DIMACS text read line by
    line, or the ParseError that names its first refused line."""
    n = None
    pairs = array("q")
    for lineno, raw in enumerate(text.splitlines(), 1):
        parts = raw.split()
        if len(parts) == 3 and parts[0] == "e" and n is not None:
            try:
                u, v = _integer(parts[1]), _integer(parts[2])
            except ValueError:
                raise ParseError(f"line {lineno}: non-integer vertex id") from None
            if not (1 <= u <= n and 1 <= v <= n):
                raise ParseError(f"line {lineno}: vertex id outside 1..{n}")
            pairs.extend((u, v))
            continue
        if not parts or parts[0][0] == "c":
            continue
        if parts[0] == "e":  # one the branch above refused to take
            if n is None:
                raise ParseError(f"line {lineno}: edge before 'p edge' header")
            raise ParseError(f"line {lineno}: expected 'e u v'")
        if parts[0] == "p":
            if n is not None:
                raise ParseError(f"line {lineno}: duplicate problem header")
            if len(parts) != 4 or parts[1] != "edge":
                raise ParseError(f"line {lineno}: expected 'p edge N M'")
            try:
                n, declared_m = _integer(parts[2]), _integer(parts[3])
            except ValueError:
                raise ParseError(f"line {lineno}: bad header numbers") from None
            _check_count(n, lineno)
            if declared_m < 0:
                raise ParseError(f"line {lineno}: edge count must be non-negative")
            continue
        raise ParseError(f"line {lineno}: unrecognized line {raw.strip()!r}")
    if n is None:
        raise ParseError("missing 'p edge N M' header")
    return n, declared_m, np.frombuffer(pairs, np.int64).reshape(-1, 2)


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


GENERATORS = {"gnp": "N:P", "moon-moser": "N", "complete": "N"}


def generator_graph(spec: str, seed: int | None) -> Graph | None:
    """Graph of a generator spec such as ``gnp:N:P`` (shapes in
    :data:`GENERATORS`); ``None`` when ``spec`` names no generator.  A spec
    of the wrong shape or number syntax raises ``ValueError`` here, a count
    or probability the generator cannot build raises it in :class:`Graph`.
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
    # a leading byte-order mark is dropped, as the utf-8-sig codec would drop
    # it, without importing that codec (22 KB) on the first file read
    with open(cfg.input, "r", encoding="utf-8") as fh:
        text = fh.read().removeprefix("\ufeff")
    if cfg.fmt == "dimacs":
        return parse_dimacs(text, report)
    return parse_edge_list(text, report)


def _format_clique(c: VertexSet, labels: list[str]) -> str:
    """Ascending vertex ids, ``labels[v]`` for vertex ``v``; a lowest-bit
    loop, cheaper than the set's iterator."""
    bits = c.bits
    ids = []
    while bits:
        low = bits & -bits
        ids.append(labels[low.bit_length()])
        bits ^= low
    return " ".join(ids)


def _emissions(g: Graph, cfg: RunConfig, stats: TraversalStats):
    """(clique, cost-since-last-print, queue_size, stack) tuples of the run,
    whose listing is opened (or refused) at this call."""
    kw = {"kernel": cfg.kernel, "capacity": cfg.capacity}
    if cfg.mode == "strict":
        report = delay_scheduler.StrictRunReport(stats=stats)
        strict = delay_scheduler.run_strict(g, report=report, **kw)
        return ((e.clique, e.cost_units, e.queue_size, e.stack_cliques) for e in strict)
    events = delay_scheduler.list_mc(g, stats=stats, **kw)

    def plain():
        cost = 0
        for event in events:
            cost += event.cost
            if event.kind == CLIQUE_COLLECTED:
                yield event.clique, cost, 0, stats.stack_cliques
                cost = 0

    return plain()


def _fold(n: int):
    """``fold(fp, mask) = fp (r - e(mask)) mod P``, r random: over N masks an order-free
    fingerprint, shared by another multiset of N with chance <= N/P (Clarke et al. 2003).
    e is the mask for n <= 126, else its keyed 16-byte BLAKE2b digest (collisions: N^2 2^-128)."""
    p = 2**127 - 1  # a Mersenne prime
    r, key = int.from_bytes(os.urandom(16), "little") % p, os.urandom(16)
    if n <= 126:
        return lambda fp, bits: fp * (r - bits) % p
    from hashlib import blake2b  # not at the top: loading OpenSSL costs every start 2 ms
    digest = lambda bits: blake2b(b"%x" % bits, digest_size=16, key=key).digest()  # noqa: E731
    return lambda fp, bits: fp * (r - int.from_bytes(digest(bits), "little")) % p


def _verify(g: Graph, cfg: RunConfig, emitted: set[int] | None, count: int, err) -> bool:
    """Print the sets' verdict on ``count`` printed cliques, the distinct masks
    ``emitted`` (None: a whole run's, listed again), against the oracle's."""
    if emitted is None:
        emitted = {clique.bits for clique, *_ in _emissions(g, cfg, TraversalStats())}
    extras, drawn = set(emitted), 0
    for drawn, bits in enumerate(oracle.maximal_clique_masks(g, limit=g.n), 1):
        extras.discard(bits)
        if cfg.first and not extras:  # a prefix is settled once every mask is matched
            break
    duplicates = count - len(emitted)
    missing = 0 if cfg.first else drawn - len(emitted) + len(extras)
    # every oracle clique is maximal, so only the extra ones need the test
    not_maximal = sum(not rs_tree.is_maximal_clique(g, VertexSet(b)) for b in extras)
    ok = duplicates == not_maximal == len(extras) == missing == 0
    scope = f"first {count}" if cfg.first else f"all {drawn}"
    if ok:
        print(f"VERIFY PASS: {scope} cliques match the oracle", file=err)
    else:
        counts = f"missing={missing} extra={len(extras)} duplicates={duplicates}"
        print(f"VERIFY FAIL: {counts} non_maximal={not_maximal}", file=err)
    return ok


def run(cfg: RunConfig, out=None, err=None) -> int:
    """Execute one configured run.  Returns a process exit status."""
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    report = IngestReport()
    stats = TraversalStats()
    try:
        if cfg.first is not None and cfg.first < 1:
            raise ValueError("--first must be at least 1")
        g = load_graph(cfg, report)
        emissions = _emissions(g, cfg, stats)
        # opened last, so no refusal leaves a trace file behind
        trace = open(cfg.trace, "wb") if cfg.trace else None
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=err)
        return 2
    # --verify: a whole run folds its masks, and the oracle's, one drawn a line,
    # as ascending (count, fingerprint) pairs; a --first prefix keeps its masks
    fold = _fold(g.n) if cfg.verify and not cfg.first else None
    if fold is not None:
        reference = enumerate(accumulate(oracle.maximal_clique_masks(g, g.n), fold, initial=1))
        printed_fp, drawn = 1, next(reference)
    emitted, count = (set() if cfg.verify and cfg.first else None), 0
    try:
        if trace is not None:
            trace.write(f"{TRACE_SCHEMA}\n{TRACE_HEADER}\n".encode())
        for warning in report.warnings:
            print(f"warning: {warning}", file=err)
        if report.self_loops_dropped or report.duplicates_dropped:
            print(
                f"normalized input: dropped {report.self_loops_dropped} self-loops, "
                f"{report.duplicates_dropped} duplicate edges",
                file=err,
            )
        labels = list(map(str, range(g.n + 1)))
        for clique, cost, queue_size, stack_cliques in emissions:
            out.write(_format_clique(clique, labels) + "\n")
            count += 1
            if fold is not None:
                printed_fp = fold(printed_fp, clique.bits)
                drawn = next(reference, drawn)  # one oracle mask per line
            elif emitted is not None:
                emitted.add(clique.bits)
            if trace is not None:
                trace.write(b"%d,%d,%d,%d\n" % (count, cost, queue_size, stack_cliques))
            if cfg.first is not None and count >= cfg.first:
                break
    finally:
        if trace is not None:
            trace.close()
    if fold is not None and max(reference, default=drawn) == (count, printed_fp):  # last pair
        print(f"VERIFY PASS: all {count} cliques match the oracle", file=err)
        return 0
    return 0 if not cfg.verify or _verify(g, cfg, emitted, count, err) else 1


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
    cfg = RunConfig(**vars(build_parser().parse_args(argv)))
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
