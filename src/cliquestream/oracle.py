"""Independent brute-force references for differential testing.

Everything here recomputes results from definitions: maximal cliques come
from a pivoted branch-and-bound (cross-checked by exhaustive subset scan),
completions pick the lexicographic maximum over the enumerated clique set,
indices re-run the definitional descending scan, and good pairs evaluate
the literal existential quantifier.  Nothing is shared with the production
code paths beyond the graph type, so agreement is meaningful evidence.

A vertex-count limit guards against accidental exponential blowups; runs
above it are refused explicitly.
"""

from __future__ import annotations

from .graph import (
    Graph,
    VertexSet,
    below_mask,
    iter_bits,
    sort_lex_descending,
)
from .kernels import ChildSpec

ORACLE_LIMIT = 24


class OracleLimitError(RuntimeError):
    """Raised instead of attempting an oversized exhaustive enumeration."""


def _check_limit(g: Graph, limit: int) -> None:
    if g.n > limit:
        raise OracleLimitError(
            f"oracle refuses graphs with n={g.n} > limit {limit}"
        )


def _pivot_branches(adj, p: int, x: int) -> int:
    """The vertices of ``p`` outside the neighborhood of the pivot, the
    vertex of ``p | x`` with the most neighbors in ``p``."""
    pivot = -1
    best = -1
    for u in iter_bits(p | x):
        score = (p & adj[u - 1]).bit_count()
        if score > best:
            best = score
            pivot = u
    return p & ~adj[pivot - 1]


def _bron_kerbosch(adj, full: int, out: list[int]) -> None:
    """Pivoted Bron-Kerbosch from ``P = full``, appending each maximal clique
    to ``out``.  An explicit stack of ``[R, P, X, branches left]`` frames
    replaces recursion, whose depth (the largest clique) would pass
    Python's recursion limit near n = 1000."""
    frames = [[0, full, 0, _pivot_branches(adj, full, 0)]]
    while frames:
        top = frames[-1]
        r, p, x, todo = top
        if not todo:
            frames.pop()
            continue
        low = todo & -todo
        top[1] = p ^ low
        top[2] = x | low
        top[3] = todo ^ low
        av = adj[low.bit_length() - 1]
        p, x = p & av, x & av
        if p == 0 and x == 0:
            out.append(r | low)
        elif p:  # with P empty and X not, nothing below is maximal
            frames.append([r | low, p, x, _pivot_branches(adj, p, x)])


def all_maximal_cliques(g: Graph, limit: int = ORACLE_LIMIT) -> list[VertexSet]:
    """Every maximal clique, sorted lexicographically descending (the
    lexicographically greatest clique first)."""
    _check_limit(g, limit)
    found: list[int] = []
    _bron_kerbosch(g.adj, g.full_mask, found)
    return sort_lex_descending(VertexSet(b) for b in found)


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
        if not g.has_edge(u, j):
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
    return ChildSpec(parent=p, indices=tuple(sorted(indices)))
