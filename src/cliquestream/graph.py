"""Immutable graphs and bitmask-backed vertex sets.

Vertices are 1-based integers ``1..n``.  A vertex set is an int bitmask
where bit ``v-1`` stands for vertex ``v``, so the smallest member of a set
is its lowest set bit.  Hot loops elsewhere in the package work on these
raw masks; :class:`VertexSet` is the thin immutable wrapper used at API
boundaries.

A :class:`Graph` is frozen after construction and safe to share between
threads; vertex sets are plain values.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterable, Iterator


def vbit(v: int) -> int:
    """Bitmask holding only vertex ``v``."""
    return 1 << (v - 1)


def below_mask(i: int) -> int:
    """Bitmask of all vertices strictly smaller than ``i``."""
    return (1 << (i - 1)) - 1


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the vertices of a bitmask in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length()
        mask ^= low


def mask_of(vertices: Iterable[int]) -> int:
    bits = 0
    for v in vertices:
        bits |= 1 << (v - 1)
    return bits


class VertexSet:
    """Immutable set of vertices backed by an int bitmask.

    Iterates in ascending vertex order.  Supports ``&``, ``|``, ``-`` with
    other vertex sets, membership tests and ``len``.
    """

    __slots__ = ("bits",)

    def __init__(self, bits: int = 0):
        assert bits >= 0
        object.__setattr__(self, "bits", bits)

    def __setattr__(self, name, value):
        raise AttributeError("VertexSet is immutable")

    @classmethod
    def of(cls, *vertices: int) -> "VertexSet":
        return cls(mask_of(vertices))

    def __iter__(self) -> Iterator[int]:
        return iter_bits(self.bits)

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __contains__(self, v: int) -> bool:
        return v >= 1 and (self.bits >> (v - 1)) & 1 == 1

    def __bool__(self) -> bool:
        return self.bits != 0

    def __eq__(self, other) -> bool:
        return isinstance(other, VertexSet) and self.bits == other.bits

    def __hash__(self) -> int:
        return hash(self.bits)

    def __and__(self, other: "VertexSet") -> "VertexSet":
        return VertexSet(self.bits & other.bits)

    def __or__(self, other: "VertexSet") -> "VertexSet":
        return VertexSet(self.bits | other.bits)

    def __sub__(self, other: "VertexSet") -> "VertexSet":
        return VertexSet(self.bits & ~other.bits)

    def __le__(self, other: "VertexSet") -> bool:
        """Subset test."""
        return self.bits & ~other.bits == 0

    def min(self) -> int:
        if not self.bits:
            raise ValueError("empty vertex set has no minimum")
        return (self.bits & -self.bits).bit_length()

    def max(self) -> int:
        if not self.bits:
            raise ValueError("empty vertex set has no maximum")
        return self.bits.bit_length()

    def to_tuple(self) -> tuple[int, ...]:
        return tuple(iter_bits(self.bits))

    def __repr__(self) -> str:
        return f"VertexSet{{{', '.join(map(str, self))}}}"


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


def lex_sort_key(s: VertexSet) -> tuple:
    """Sort key that orders vertex sets lexicographically descending.

    On ascending member tuples the set order "first differing vertex wins"
    is plain tuple order, except that a superset must beat its own prefix;
    the trailing infinity sentinel handles that case.
    """
    return s.to_tuple() + (float("inf"),)


def sort_lex_descending(sets: Iterable[VertexSet]) -> list[VertexSet]:
    """Sort vertex sets with the lexicographically greatest first."""
    return sorted(sets, key=lex_sort_key)


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph on vertices ``1..n``.

    ``adj[v-1]`` is the neighborhood bitmask of vertex ``v``.  The adjacency
    is symmetric, has no self-loops, and ``m`` counts edges.
    """

    n: int
    adj: tuple[int, ...]
    m: int
    full_mask: int = field(repr=False, default=0)

    def __post_init__(self) -> None:
        if self.full_mask == 0:
            object.__setattr__(self, "full_mask", (1 << self.n) - 1)

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """Build a graph, normalizing away self-loops, duplicates and flips.

        Construction is idempotent under duplicated or orientation-flipped
        edges.  Vertices outside ``1..n`` raise ``ValueError``.
        """
        if n < 1:
            raise ValueError("graph needs at least one vertex")
        adj = [0] * n
        for u, v in edges:
            if not (1 <= u <= n and 1 <= v <= n):
                raise ValueError(f"edge ({u}, {v}) outside vertex range 1..{n}")
            if u == v:
                continue
            adj[u - 1] |= 1 << (v - 1)
            adj[v - 1] |= 1 << (u - 1)
        m = sum(a.bit_count() for a in adj) // 2
        return cls(n=n, adj=tuple(adj), m=m, full_mask=(1 << n) - 1)

    @classmethod
    def complete(cls, n: int) -> "Graph":
        full = (1 << n) - 1
        return cls.from_edges(n, []) if n == 1 else cls(
            n=n,
            adj=tuple(full & ~(1 << v) for v in range(n)),
            m=n * (n - 1) // 2,
            full_mask=full,
        )

    @classmethod
    def edgeless(cls, n: int) -> "Graph":
        return cls.from_edges(n, [])

    @classmethod
    def gnp(cls, n: int, p: float, seed: int | None = None) -> "Graph":
        """Erdos-Renyi G(n, p) with a deterministic seed."""
        rng = random.Random(seed)
        edges = [
            (u, v)
            for u in range(1, n + 1)
            for v in range(u + 1, n + 1)
            if rng.random() < p
        ]
        return cls.from_edges(n, edges)

    @classmethod
    def complete_multipartite_triples(cls, n: int) -> "Graph":
        """Complete 3-partite-style graph: parts of size 3, all cross edges.

        For ``n`` divisible by 3 this family attains the ``3**(n/3)``
        maximum number of maximal cliques (one vertex per part each).
        Parts are the consecutive triples {1,2,3}, {4,5,6}, ...
        """
        if n % 3 != 0:
            raise ValueError("vertex count must be divisible by 3")
        edges = [
            (u, v)
            for u in range(1, n + 1)
            for v in range(u + 1, n + 1)
            if (u - 1) // 3 != (v - 1) // 3
        ]
        return cls.from_edges(n, edges)

    def has_edge(self, u: int, v: int) -> bool:
        return (self.adj[u - 1] >> (v - 1)) & 1 == 1

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(1, self.n + 1):
            rest = self.adj[u - 1] & ~below_mask(u + 1)
            for v in iter_bits(rest):
                yield (u, v)

    def validate(self) -> None:
        """Debug check of the structural invariants."""
        assert len(self.adj) == self.n
        for v in range(1, self.n + 1):
            row = self.adj[v - 1]
            assert row & ~self.full_mask == 0, "bits beyond n must stay zero"
            assert (row >> (v - 1)) & 1 == 0, "no self-loops"
            for u in iter_bits(row):
                assert (self.adj[u - 1] >> (v - 1)) & 1, "adjacency must be symmetric"
        assert self.m == sum(a.bit_count() for a in self.adj) // 2

