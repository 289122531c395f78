"""Brute-force references for differential testing.

Everything here recomputes results from definitions: the pivoted
enumeration of :func:`cliquestream.oracle.all_maximal_cliques` is
cross-checked by exhaustive subset scan, completions pick the lexicographic
maximum over the enumerated clique set, indices re-run the definitional
descending scan, good pairs evaluate the literal existential quantifier,
the lexicographic sort reverses bit strings, and the ``--verify`` verdict
compares whole sets.  Nothing is shared with the production code paths
beyond the graph type and the ``ChildSpec`` record, so agreement is
meaningful evidence.
"""

from __future__ import annotations

from cliquestream.graph import Graph, VertexSet, below_mask, iter_bits, sort_lex_descending
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


def children_oracle(
    g: Graph,
    p: VertexSet,
    cliques: list[VertexSet] | None = None,
    limit: int = ORACLE_LIMIT,
) -> ChildSpec:
    """Children of ``p`` found the slow way: enumerate every maximal clique,
    keep the ones whose parent is ``p``, report their indices."""
    if cliques is None:
        cliques = all_maximal_cliques(g, limit)
    indices = []
    for c in cliques:
        if c == p:
            continue
        idx = clique_index_brute(g, c, cliques)
        if idx is None:
            continue
        if parent_brute(g, c, cliques) == p:
            indices.append(idx)
    return ChildSpec(parent=p.bits, indices=tuple(sorted(indices)))


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
