"""The reference enumeration behind ``--verify`` and the benchmark's yardstick.

:func:`maximal_clique_masks` streams every maximal clique's bitmask by pivoted
Bron-Kerbosch, independent of the reverse-search tree and its children kernels,
and :func:`all_maximal_cliques` sorts that stream.  Nothing is shared with the
production code paths beyond the graph type, so agreement is meaningful evidence.

A vertex-count limit guards against accidental exponential blowups; runs
above it are refused explicitly.
"""

from __future__ import annotations

from typing import Iterator

from .graph import Graph, VertexSet, iter_bits, sort_lex_descending

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


def maximal_clique_masks(g: Graph, limit: int = ORACLE_LIMIT) -> Iterator[int]:
    """Every maximal clique's bitmask in pivoted Bron-Kerbosch order, refusing
    ``n > limit`` at this call.  An explicit stack of ``[R, P, X, branches
    left]`` frames replaces recursion, whose depth (the largest clique) would
    pass Python's recursion limit near n = 1000."""
    _check_limit(g, limit)

    def masks(adj, full: int) -> Iterator[int]:
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
                yield r | low
            elif p:  # with P empty and X not, nothing below is maximal
                frames.append([r | low, p, x, _pivot_branches(adj, p, x)])
    return masks(g.adj, g.full_mask)


def all_maximal_cliques(g: Graph, limit: int = ORACLE_LIMIT) -> list[VertexSet]:
    """Every maximal clique, sorted lexicographically descending (the
    lexicographically greatest clique first)."""
    return sort_lex_descending(VertexSet(b) for b in maximal_clique_masks(g, limit))
