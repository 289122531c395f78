"""Reverse-search tree primitives over the maximal cliques of a graph.

The tree is rooted at the lexicographically greatest maximal clique.  Every
other maximal clique ``C`` has an *index* ``i(C)`` (the greatest vertex ``i``
such that completing the prefix ``C_{<i}`` does not give back ``C``) and a
*parent* (the completion of that prefix), which is always lexicographically
greater than ``C``.  Children are reconstructed from a parent ``P`` and an
index ``i`` as the completion of ``(P_{<i} & N(i)) | {i}``.

All operations are pure functions of ``(Graph, inputs)`` and safe to call
concurrently.  Functions accept an optional :class:`OpCounter` that gets
charged with a word-level operation count; the model charges ``words(n)``
per n-bit mask operation, matching a packed bit-vector machine.  Completing
a clique ``K`` by ``t`` vertices costs ``t + (t + |K|) * words(n)``: one
mask intersection per member of ``K`` for the common neighbourhood, and per
inserted vertex one lowest-bit extraction plus one intersection.  Vertices
that cannot join are never visited, so the cost does not grow with the
degree of ``K``'s members.
"""

from __future__ import annotations

from .graph import Graph, VertexSet, below_mask, vbit


class OpCounter:
    """Accumulator for abstract work units (word ops + multiply-adds)."""

    __slots__ = ("ops",)

    def __init__(self) -> None:
        self.ops = 0


def words(n: int) -> int:
    """Machine words needed for an n-bit mask (64-bit words)."""
    return (n + 63) // 64


def is_clique(g: Graph, s: VertexSet) -> bool:
    adj = g.adj
    bits = rest = s.bits
    while rest:
        low = rest & -rest
        rest ^= low
        if bits & ~low & ~adj[low.bit_length() - 1]:
            return False
    return True


def common_neighbors(g: Graph, bits: int) -> int:
    """Mask of vertices adjacent to every member of ``bits``."""
    adj = g.adj
    cand = g.full_mask
    while bits:
        low = bits & -bits
        bits ^= low
        cand &= adj[low.bit_length() - 1]
    return cand


def is_maximal_clique(g: Graph, s: VertexSet) -> bool:
    if not is_clique(g, s):
        return False
    return common_neighbors(g, s.bits) & ~s.bits == 0


def _lc_bits(g: Graph, kbits: int, counter: OpCounter | None = None) -> int:
    """Greedy ascending completion of the clique mask ``kbits``: repeatedly
    add the least vertex adjacent to every member so far.  ``cand`` holds
    exactly those vertices, so the loop runs once per inserted vertex.
    Every pop runs this, so :func:`common_neighbors` is inlined."""
    adj = g.adj
    cand = g.full_mask & ~kbits
    rest = kbits
    while rest:
        low = rest & -rest
        rest ^= low
        cand &= adj[low.bit_length() - 1]
    s = kbits
    inserted = 0
    while cand:
        low = cand & -cand
        s |= low
        cand &= adj[low.bit_length() - 1]
        inserted += 1
    if counter is not None:
        counter.ops += inserted + (inserted + kbits.bit_count()) * ((g.n + 63) >> 6)
    return s


def lex_completion(g: Graph, k: VertexSet, counter: OpCounter | None = None) -> VertexSet:
    """Lexicographically greatest maximal clique containing clique ``k``.

    ``k`` may be empty, in which case the result is the overall
    lexicographically greatest maximal clique.
    """
    if not is_clique(g, k):
        raise ValueError("input must be a clique")
    return VertexSet(_lc_bits(g, k.bits, counter))


def root(g: Graph, counter: OpCounter | None = None) -> VertexSet:
    """The lexicographically greatest maximal clique (tree root)."""
    return VertexSet(_lc_bits(g, 0, counter))


def prefix_masks(g: Graph, p: int) -> tuple[int, int]:
    """Two masks from one pass over the members of the mask ``P``: the
    vertices j adjacent to every member of ``P_{<j}``, and ``N(P)``, the
    vertices adjacent to some member."""
    adj = g.adj
    adjacent, near = g.full_mask, 0
    rest = p
    while rest:
        low = rest & -rest
        rest ^= low
        nu = adj[low.bit_length() - 1]
        near |= nu
        # j > u misses u when it is not a neighbor of u
        adjacent &= nu | ((low << 1) - 1)
    return adjacent, near


def _child_walk(g: Graph, parent: int, low: int, counter: OpCounter | None = None) -> tuple:
    """The child ``C`` of the mask ``parent`` at the index ``i`` whose bit
    is ``low`` (:func:`_lc_bits` of ``(P_{<i} & N(i)) | {i}``, charged the
    same), ``i``, ``N(C)`` and the outside set (the non-members adjacent to
    every member below them), from one walk over the members.  That set
    lies below ``i`` (a ``j`` above it would join the completion of
    ``C_{<j}``, which is ``C``), so the walk tracks it over the base alone."""
    adj = g.adj
    i = low.bit_length()
    cand = near = adj[i - 1]
    adjacent = low - 1
    rest = base = parent & g.lower[i - 1]
    while rest:  # from the top: the masks below only AND and OR
        v = rest.bit_length() - 1
        u = 1 << v
        rest ^= u
        nu = adj[v]
        cand &= nu
        near |= nu
        adjacent &= nu | ((u << 1) - 1)
    s = base | low
    inserted = 0
    while cand:
        v = cand & -cand
        s |= v
        nv = adj[v.bit_length() - 1]
        cand &= nv
        near |= nv
        inserted += 1
    if counter is not None:
        counter.ops += inserted + (inserted + base.bit_count() + 1) * ((g.n + 63) >> 6)
    # every base member stays in adjacent, so this leaves the non-members
    return s, i, near, adjacent ^ base


def clique_index(g: Graph, c: VertexSet, counter: OpCounter | None = None) -> int | None:
    """Index of the maximal clique ``c``: the greatest ``i`` whose prefix
    ``C_{<i}`` does not complete back to ``C``; ``None`` for the root.  The
    completions are charged to ``counter``."""
    if not is_maximal_clique(g, c):
        raise ValueError("input must be a maximal clique")
    for i in range(g.n, 0, -1):
        if _lc_bits(g, c.bits & below_mask(i), counter) != c.bits:
            return i
    return None


def parent(g: Graph, c: VertexSet, counter: OpCounter | None = None) -> VertexSet:
    """Parent of a non-root maximal clique; raises on the root."""
    idx = clique_index(g, c, counter)
    if idx is None:
        raise ValueError("the root clique has no parent")
    return VertexSet(_lc_bits(g, c.bits & below_mask(idx), counter))


def child(g: Graph, p: VertexSet, i: int, counter: OpCounter | None = None) -> VertexSet:
    """Completion of ``(P_{<i} & N(i)) | {i}``.

    Always a maximal clique containing ``i``; it is an actual child of
    ``p`` only when the caller has verified ``i`` is a good index.
    """
    if i in p:
        raise ValueError("child index must not belong to the parent")
    base = (p.bits & below_mask(i) & g.adj[i - 1]) | vbit(i)
    return VertexSet(_lc_bits(g, base, counter))
