"""Brute-force references for differential testing.

Everything here recomputes results from definitions: the pivoted
enumeration of :func:`cliquestream.oracle.all_maximal_cliques` is
cross-checked by exhaustive subset scan, completions pick the lexicographic
maximum over the enumerated clique set, indices re-run the definitional
descending scan, good pairs evaluate the literal existential quantifier,
the lexicographic sort reverses bit strings, the ``--verify`` verdict
compares whole sets, and edge lists and graph files are read one pair or
line at a time.  Nothing
is shared with the production code paths beyond the graph type, the
``ChildSpec`` record and the CLI's ingestion records, so agreement is
meaningful evidence.
"""

from __future__ import annotations

from cliquestream.cli import IngestReport, ParseError
from cliquestream.graph import (
    Graph,
    VertexSet,
    below_mask,
    check_vertex_count,
    iter_bits,
    sort_lex_descending,
)
from cliquestream.kernels import ChildSpec
from cliquestream.oracle import ORACLE_LIMIT, _check_limit, all_maximal_cliques


def lex_compare(a: VertexSet, b: VertexSet) -> int:
    """Three-way lexicographic comparison of vertex sets.

    ``a`` is lexicographically greater than ``b`` exactly when the smallest
    vertex of their symmetric difference belongs to ``a``.  Returns 1, 0 or
    -1 for greater, equal, smaller.
    """
    diff = a.bits ^ b.bits
    if diff == 0:
        return 0
    return 1 if a.bits & (diff & -diff) else -1


def to_edge_list(g: Graph) -> str:
    """``g`` in the CLI's edge-list format: an ``n N`` line, then one
    ``u v`` line per edge."""
    lines = [f"n {g.n}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def from_edges(n: int, edges) -> Graph:
    """``Graph.from_edges`` one pair at a time: each pair's bits set in
    both rows, self-loops skipped, the rows validated by ``Graph``."""
    check_vertex_count(n)
    adj = [0] * n
    for u, v in edges:
        if not (1 <= u <= n and 1 <= v <= n):
            raise ValueError(f"edge ({u}, {v}) outside vertex range 1..{n}")
        if u == v:
            continue
        adj[u - 1] |= 1 << (v - 1)
        adj[v - 1] |= 1 << (u - 1)
    return Graph(n, tuple(adj))


def _check_count(n: int, lineno: int) -> None:
    try:
        check_vertex_count(n)
    except ValueError as exc:
        raise ParseError(f"line {lineno}: {exc}") from None


def _finish(n: int, adj: list[int], loops: int, duplicates: int, report) -> Graph:
    if report is not None:
        report.self_loops_dropped += loops
        report.duplicates_dropped += duplicates
    return Graph(n, tuple(adj))


def parse_edge_list(text: str, report: IngestReport | None = None, integer=int) -> Graph:
    """The CLI's edge-list reader, one line at a time: ``u v`` lines, an
    optional ``n N`` header, ``#`` comments, ids read by ``integer``, self-loops
    and repeats counted as they come, the rows built as the lines are read."""
    declared = None
    adj: list[int] = []  # grown to the largest id, or the header's count, once checked
    loops = duplicates = 0
    max_id = 0
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
                declared = integer(parts[1])
            except ValueError:
                raise ParseError(f"line {lineno}: bad vertex count {parts[1]!r}") from None
            _check_count(declared, lineno)
            if max_id > declared:
                raise ParseError(
                    f"line {lineno}: declared count {declared} is below vertex id {max_id}"
                )
            adj += [0] * (declared - len(adj))
            continue
        if len(parts) != 2:
            line = raw.split("#", 1)[0].strip()
            raise ParseError(f"line {lineno}: expected 'u v', got {line!r}")
        try:
            u, v = integer(parts[0]), integer(parts[1])
        except ValueError:
            line = raw.split("#", 1)[0].strip()
            raise ParseError(f"line {lineno}: non-integer vertex id in {line!r}") from None
        if u < 1 or v < 1:
            raise ParseError(f"line {lineno}: vertex ids must be >= 1")
        if declared is not None and (u > declared or v > declared):
            raise ParseError(f"line {lineno}: vertex id exceeds declared count {declared}")
        if u > max_id or v > max_id:
            max_id = max(u, v)
            if declared is None:
                _check_count(max_id, lineno)
                adj += [0] * (max_id - len(adj))
        if u == v:
            loops += 1
        elif adj[u - 1] >> (v - 1) & 1:
            duplicates += 1
        else:
            adj[u - 1] |= 1 << (v - 1)
            adj[v - 1] |= 1 << (u - 1)
    n = declared if declared is not None else max_id
    if n == 0:
        raise ParseError("no vertices: empty input without an 'n' header")
    return _finish(n, adj, loops, duplicates, report)


def parse_dimacs(text: str, report: IngestReport | None = None, integer=int) -> Graph:
    """The CLI's DIMACS reader, one line at a time: ``c`` comments, one
    ``p edge N M`` header, then ``e u v`` lines with ids read by ``integer``;
    an edge count other than ``M`` is a warning."""
    n = None
    declared_m = 0
    seen_m = 0
    adj: list[int] = []
    loops = duplicates = 0
    for lineno, raw in enumerate(text.splitlines(), 1):
        parts = raw.split()
        if len(parts) == 3 and parts[0] == "e" and n is not None:
            try:
                u, v = integer(parts[1]), integer(parts[2])
            except ValueError:
                raise ParseError(f"line {lineno}: non-integer vertex id") from None
            if not (1 <= u <= n and 1 <= v <= n):
                raise ParseError(f"line {lineno}: vertex id outside 1..{n}")
            seen_m += 1
            if u == v:
                loops += 1
            elif adj[u - 1] >> (v - 1) & 1:
                duplicates += 1
            else:
                adj[u - 1] |= 1 << (v - 1)
                adj[v - 1] |= 1 << (u - 1)
            continue
        if not parts or parts[0][0] == "c":
            continue
        if parts[0] == "e":
            if n is None:
                raise ParseError(f"line {lineno}: edge before 'p edge' header")
            raise ParseError(f"line {lineno}: expected 'e u v'")
        if parts[0] == "p":
            if n is not None:
                raise ParseError(f"line {lineno}: duplicate problem header")
            if len(parts) != 4 or parts[1] != "edge":
                raise ParseError(f"line {lineno}: expected 'p edge N M'")
            try:
                n, declared_m = integer(parts[2]), integer(parts[3])
            except ValueError:
                raise ParseError(f"line {lineno}: bad header numbers") from None
            _check_count(n, lineno)
            if declared_m < 0:
                raise ParseError(f"line {lineno}: edge count must be non-negative")
            adj = [0] * n
            continue
        raise ParseError(f"line {lineno}: unrecognized line {raw.strip()!r}")
    if n is None:
        raise ParseError("missing 'p edge N M' header")
    if seen_m != declared_m and report is not None:
        report.warnings.append(f"header declares {declared_m} edges but {seen_m} were found")
    return _finish(n, adj, loops, duplicates, report)


def maximal_cliques_subset_scan(g: Graph, limit: int = 20) -> list[VertexSet]:
    """Second, dumber enumeration: test all 2^n subsets for maximality."""
    _check_limit(g, limit)
    adj = g.adj
    full = g.full_mask
    found = []
    for mask in range(1, full + 1):
        rest = mask
        ok = True
        common = full
        while rest:
            low = rest & -rest
            rest ^= low
            row = adj[low.bit_length() - 1]
            if (mask & ~low) & ~row:
                ok = False
                break
            common &= row
        if ok and common & ~mask == 0:
            found.append(VertexSet(mask))
    return sort_lex_descending(found)


def lex_completion_brute(
    g: Graph, k: VertexSet, cliques: list[VertexSet] | None = None
) -> VertexSet:
    """Lexicographic maximum over all enumerated maximal cliques containing
    ``k`` (the clique list is already sorted greatest-first)."""
    if cliques is None:
        cliques = all_maximal_cliques(g)
    for c in cliques:
        if k.bits & ~c.bits == 0:
            return c
    raise ValueError("input is not contained in any maximal clique")


def clique_index_brute(
    g: Graph, c: VertexSet, cliques: list[VertexSet] | None = None
) -> int | None:
    """Greatest i whose prefix does not complete back to ``c``; None for
    the root."""
    if cliques is None:
        cliques = all_maximal_cliques(g)
    for i in range(g.n, 0, -1):
        prefix = VertexSet(c.bits & below_mask(i))
        if lex_completion_brute(g, prefix, cliques) != c:
            return i
    return None


def parent_brute(
    g: Graph, c: VertexSet, cliques: list[VertexSet] | None = None
) -> VertexSet:
    if cliques is None:
        cliques = all_maximal_cliques(g)
    idx = clique_index_brute(g, c, cliques)
    if idx is None:
        raise ValueError("the root clique has no parent")
    return lex_completion_brute(g, VertexSet(c.bits & below_mask(idx)), cliques)


def good_pair_oracle(g: Graph, p: VertexSet, i: int, j: int) -> bool:
    """Literal quantifier scan: does some member of ``P_{<i} & N(i)`` miss
    the edge to ``j``?"""
    for u in iter_bits(p.bits & below_mask(i) & g.adj[i - 1]):
        if not g.adj[u - 1] >> (j - 1) & 1:
            return True
    return False


def filter_children_ascending(
    g: Graph, p: int, index: int, counter=None, near: int | None = None, outside: int = 0,
) -> int:
    """``kernels.filter_children`` scanning its candidates ascending, each
    ``A_i`` cut from the row ``adj[i-1]``, ``N(P)`` and the outside set
    (when not given) and the root's far children read off the rows one
    member or vertex at a time: the scan-order reference for its mask and
    its charge, 3|P| + 4 words, 6 per candidate, 1 per fold of the common
    neighborhood (ascending over ``P & A_i``, stopping once no ``j`` is
    left) and 1 for a root with candidates outside ``N(P)``."""
    adj, w = g.adj, (g.n + 63) // 64
    if near is None:
        near, adjacent = 0, g.full_mask
        for u in iter_bits(p):
            near |= adj[u - 1]
            adjacent &= adj[u - 1] | below_mask(u + 1)
        outside = adjacent & ~p
    cand = near & ~p & -(1 << index)
    children, units = 0, 3 * p.bit_count() + 4 + 6 * cand.bit_count()
    if index == 0:
        far = g.full_mask & ~(p | near)
        units += far != 0
        children = sum(1 << (v - 1) for v in iter_bits(far) if not adj[v - 1] & below_mask(v))
    for i in iter_bits(cand):
        ai = adj[i - 1] & below_mask(i)
        pig = p & ai
        bad = (ai ^ pig) | outside
        for u in iter_bits(pig):
            if not bad:
                break
            bad &= adj[u - 1]
            units += 1
        if bad == 0:
            children |= 1 << (i - 1)
    if counter is not None:
        counter.ops += units * w
    return children


def children_oracle(
    g: Graph,
    p: VertexSet,
    cliques: list[VertexSet] | None = None,
    limit: int = ORACLE_LIMIT,
) -> ChildSpec:
    """Children of ``p`` found the slow way: enumerate every maximal clique,
    keep the ones whose parent is ``p``, report their indices as one mask."""
    if cliques is None:
        cliques = all_maximal_cliques(g, limit)
    children = 0
    for c in cliques:
        if c == p:
            continue
        idx = clique_index_brute(g, c, cliques)
        if idx is None:
            continue
        if parent_brute(g, c, cliques) == p:
            children |= 1 << (idx - 1)
    return ChildSpec(parent=p.bits, children=children)


def sort_lex_descending_by_strings(sets: list[VertexSet]) -> list[VertexSet]:
    """Lexicographically greatest first, by the mask's binary string padded
    to the widest member's bit length and reversed, read as a number."""
    width = max((s.bits.bit_length() for s in sets), default=0)
    return sorted(sets, key=lambda s: int(f"{s.bits:0{width}b}"[::-1], 2), reverse=True)


def is_maximal_clique_brute(g: Graph, bits: int) -> bool:
    """Every pair of members adjacent, and no outside vertex adjacent to all."""
    members = list(iter_bits(bits))
    if any(not g.adj[u - 1] >> (v - 1) & 1 for u in members for v in members if u != v):
        return False
    return not any(
        all(g.adj[w - 1] >> (u - 1) & 1 for u in members)
        for w in range(1, g.n + 1)
        if not bits >> (w - 1) & 1
    )


def verify_line(g: Graph, printed: list[int], prefix_only: bool, reference: list[int]) -> str:
    """The ``--verify`` stderr line for the masks ``printed``, in print order,
    against the oracle's masks ``reference``, compared as whole sets: a
    duplicate is a repeated print, an extra a printed mask outside the
    reference (tested for maximality), a missing one a reference mask never
    printed, counted only when the whole listing was printed."""
    emitted, ref_set = set(printed), set(reference)
    duplicates = len(printed) - len(emitted)
    extras = emitted - ref_set
    not_maximal = sum(1 for bits in extras if not is_maximal_clique_brute(g, bits))
    missing = 0 if prefix_only else len(ref_set - emitted)
    if duplicates == not_maximal == len(extras) == missing == 0:
        scope = f"first {len(printed)}" if prefix_only else f"all {len(ref_set)}"
        return f"VERIFY PASS: {scope} cliques match the oracle\n"
    return (
        f"VERIFY FAIL: missing={missing} extra={len(extras)} "
        f"duplicates={duplicates} non_maximal={not_maximal}\n"
    )
