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

    Iterates in ascending vertex order.  Supports membership tests,
    ``len``, ``min`` and ``max``; set algebra works on ``bits``.
    """

    __slots__ = ("bits",)

    def __init__(self, bits: int = 0):
        if bits < 0:
            raise ValueError("a vertex set mask cannot be negative")
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

    def min(self) -> int:
        if not self.bits:
            raise ValueError("empty vertex set has no minimum")
        return (self.bits & -self.bits).bit_length()

    def max(self) -> int:
        if not self.bits:
            raise ValueError("empty vertex set has no maximum")
        return self.bits.bit_length()

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


def sort_lex_descending(sets: Iterable[VertexSet]) -> list[VertexSet]:
    """Sort vertex sets with the lexicographically greatest first.

    Reversing each mask's bits, padded to the widest member, makes the
    smallest differing vertex the highest differing bit, so the order is
    plain descending order of the reversed masks; a superset of its own
    prefix has the extra bits and comes first.
    """
    sets = list(sets)
    width = max((s.bits.bit_length() for s in sets), default=0)

    def reversed_bits(s: VertexSet) -> int:
        return int(f"{s.bits:0{width}b}"[::-1], 2)

    return sorted(sets, key=reversed_bits, reverse=True)


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph on vertices ``1..n``.

    ``adj[v-1]`` is the neighborhood bitmask of vertex ``v``.  The adjacency
    is symmetric, has no self-loops, and ``m`` counts edges; the constructor
    refuses rows that break this (:meth:`validate`).  The classmethods build
    rows that hold it by construction and skip that pass.
    """

    n: int
    adj: tuple[int, ...]
    m: int
    full_mask: int = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._set_full_mask()
        self.validate()

    def _set_full_mask(self) -> None:
        if self.n < 1:
            raise ValueError("graph needs at least one vertex")
        object.__setattr__(self, "full_mask", (1 << self.n) - 1)

    @classmethod
    def _normalized(cls, n: int, adj: tuple[int, ...], m: int) -> "Graph":
        """Graph from rows valid by construction, without :meth:`validate`,
        whose O(n + m) pass would otherwise delay a loaded file's listing."""
        g = object.__new__(cls)
        for name, value in (("n", n), ("adj", adj), ("m", m)):
            object.__setattr__(g, name, value)
        g._set_full_mask()
        return g

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """Build a graph, normalizing away self-loops, duplicates and flips.

        Construction is idempotent under duplicated or orientation-flipped
        edges.  Vertices outside ``1..n`` raise ``ValueError``.
        """
        adj = [0] * n
        for u, v in edges:
            if not (1 <= u <= n and 1 <= v <= n):
                raise ValueError(f"edge ({u}, {v}) outside vertex range 1..{n}")
            if u == v:
                continue
            adj[u - 1] |= 1 << (v - 1)
            adj[v - 1] |= 1 << (u - 1)
        m = sum(a.bit_count() for a in adj) // 2
        return cls._normalized(n, tuple(adj), m)

    @classmethod
    def complete(cls, n: int) -> "Graph":
        adj = tuple((1 << n) - 1 - (1 << v) for v in range(n))
        return cls._normalized(n, adj, n * (n - 1) // 2)

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
        edges = [
            (u, v)
            for u in range(1, n + 1)
            for v in range(u + 1, n + 1)
            if (u - 1) // 3 != (v - 1) // 3
        ]
        g = cls.from_edges(n, edges)  # n < 1 gets the common refusal
        if n % 3 != 0:
            raise ValueError("vertex count must be divisible by 3")
        return g

    def has_edge(self, u: int, v: int) -> bool:
        return (self.adj[u - 1] >> (v - 1)) & 1 == 1

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(1, self.n + 1):
            rest = self.adj[u - 1] & ~below_mask(u + 1)
            for v in iter_bits(rest):
                yield (u, v)

    def validate(self) -> None:
        """Refuse, with ``ValueError``, rows that break the invariants above:
        a row count other than ``n``, bits beyond ``n``, a self-loop, an
        asymmetric pair or a wrong ``m``.  O(n + m) mask operations."""
        n, adj = self.n, self.adj
        if len(adj) != n:
            raise ValueError(f"adjacency has {len(adj)} rows for n = {n}")
        upper = 0  # entries above the diagonal, each checked for its mirror
        for v, row in enumerate(adj, 1):
            bit = 1 << (v - 1)
            if row & ~self.full_mask:
                raise ValueError(f"vertex {v} has neighbors beyond n = {n}")
            if row & bit:
                raise ValueError(f"vertex {v} has a self-loop")
            rest = row & -(bit << 1)
            while rest:
                low = rest & -rest
                rest ^= low
                u = low.bit_length()
                if not adj[u - 1] & bit:
                    raise ValueError(
                        f"adjacency is not symmetric: {u} is in the row of {v}, "
                        f"not {v} in the row of {u}"
                    )
                upper += 1
        # every entry above the diagonal is mirrored, so any further one is not
        if sum(row.bit_count() for row in adj) != 2 * upper:
            raise ValueError("adjacency is not symmetric")
        if self.m != upper:
            raise ValueError(f"m = {self.m} but the rows hold {upper} edges")
