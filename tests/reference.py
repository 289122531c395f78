"""Brute-force references for differential testing.

Everything here recomputes results from definitions: the pivoted
enumeration of :func:`cliquestream.oracle.all_maximal_cliques` is
cross-checked by exhaustive subset scan, completions pick the lexicographic
maximum over the enumerated clique set, indices re-run the definitional
descending scan, and good pairs evaluate the literal existential
quantifier.  Nothing is shared with the production code paths beyond the
graph type and the ``ChildSpec`` record, so agreement is meaningful
evidence.
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
