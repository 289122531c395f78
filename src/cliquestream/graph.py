"""Immutable graphs and bitmask-backed vertex sets.

Vertices are 1-based integers ``1..n``.  A vertex set is an int bitmask
where bit ``v-1`` stands for vertex ``v``, so the smallest member of a set
is its lowest set bit.  The traversal, the children kernels and the strict
queue carry raw masks; :class:`VertexSet`, the thin immutable wrapper, is
built where a clique leaves the library (``StepEvent.clique``,
``Emission.clique``) and taken by the tree primitives of ``rs_tree``.

A :class:`Graph` derives its edge count and lower rows from its rows, owns
the rules on its parameters (``n >= 1``, ``p`` in [0, 1]), and is frozen after
construction and safe to share between threads; vertex sets are plain values.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from itertools import chain
from operator import index
from typing import Iterable, Iterator

import numpy as np

# bytes one graph-sized allocation may take; a larger one is refused before
# it is made: the adjacency rows (n^2 bits, n <= 92,681; their lower halves,
# Graph.lower, take n^2/2 bits more beside them), and in kernels "rect"'s
# factors and the reference's M_G
BUDGET_BYTES = 1 << 30
_REVERSED_BYTE = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))  # bits 0-7 as 7-0
_BLOCK_BITS = 1 << 16  # bool cells of one block of rows before it is packed


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


def check_vertex_count(n: int) -> None:
    """Refuse, with ``ValueError``, an ``n`` below 1 or one whose adjacency
    rows would pass :data:`BUDGET_BYTES`.  Nothing is allocated.  The budget
    covers the rows alone: ``Graph.lower`` adds up to half of them again."""
    if n < 1:
        raise ValueError("vertex count must be at least 1")
    if n * n > 8 * BUDGET_BYTES:
        raise ValueError(
            f"{n} vertices are more than {math.isqrt(8 * BUDGET_BYTES)}, the most "
            f"whose adjacency rows fit {BUDGET_BYTES >> 30} GiB"
        )


class VertexSet:
    """Immutable set of vertices backed by an int bitmask.

    Iterates in ascending vertex order, so the builtins ``min`` and ``max``
    work on it.  Supports membership tests and ``len``; set algebra works
    on ``bits``.
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
        bits = 0
        for v in vertices:
            bits |= 1 << (v - 1)
        return cls(bits)

    def __iter__(self) -> Iterator[int]:
        return iter_bits(self.bits)

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __contains__(self, v: int) -> bool:
        return v >= 1 and (self.bits >> (v - 1)) & 1 == 1

    def __eq__(self, other) -> bool:
        return isinstance(other, VertexSet) and self.bits == other.bits

    def __hash__(self) -> int:
        return hash(self.bits)

    def __repr__(self) -> str:
        return f"VertexSet{{{', '.join(map(str, self))}}}"


def sort_lex_descending(sets: Iterable[VertexSet]) -> list[VertexSet]:
    """Sort vertex sets with the lexicographically greatest first.

    Reversing each mask's bits, padded to the widest member's bytes (byte by
    byte through a table, read back big-endian), makes the smallest differing
    vertex the highest differing bit, so the order is plain descending order
    of the reversed masks; a superset of its own prefix comes first.
    """
    sets = list(sets)
    width = (max((s.bits.bit_length() for s in sets), default=0) + 7) // 8

    def reversed_bits(s: VertexSet) -> int:
        return int.from_bytes(s.bits.to_bytes(width, "little").translate(_REVERSED_BYTE), "big")

    return sorted(sets, key=reversed_bits, reverse=True)


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph on vertices ``1..n``.

    ``adj[v-1]`` is the neighborhood bitmask of vertex ``v``.  The adjacency
    is symmetric and has no self-loops; the constructor refuses rows that
    break this (:meth:`validate`).  The classmethods build rows that hold it
    by construction and skip that pass.  The edge count ``m``, ``full_mask``,
    ``lower`` (``lower[v-1]``, the row of ``v`` below ``v``: ``A_v``) and
    ``no_lower``, the vertices whose ``lower`` row is 0, are derived from
    the rows.  Every constructor refuses an ``n`` that
    :func:`check_vertex_count` refuses before it allocates.
    """

    n: int
    adj: tuple[int, ...]
    m: int = field(init=False)
    full_mask: int = field(init=False, repr=False)
    lower: tuple[int, ...] = field(init=False, repr=False, compare=False)
    no_lower: int = field(init=False, repr=False)

    def __post_init__(self) -> None:
        check_vertex_count(self.n)
        self._derive()
        self.validate()

    def _derive(self) -> None:
        lower = tuple(row & (1 << v) - 1 for v, row in enumerate(self.adj))
        object.__setattr__(self, "m", sum(a.bit_count() for a in lower))  # each edge once
        object.__setattr__(self, "full_mask", (1 << self.n) - 1)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "no_lower", sum(1 << v for v, a in enumerate(lower) if not a))

    @classmethod
    def _normalized(cls, n: int, adj: tuple[int, ...]) -> "Graph":
        """Graph from rows valid by construction, without :meth:`validate`,
        whose O(n + m) pass would otherwise delay a loaded file's listing."""
        g = object.__new__(cls)
        object.__setattr__(g, "n", n)
        object.__setattr__(g, "adj", adj)
        g._derive()
        return g

    @classmethod
    def _from_pairs(cls, n: int, pairs: np.ndarray) -> "Graph":
        """Graph on ``1..n`` of the int64 id pairs ``pairs``, ids in range and
        no self-loop (not checked again).  The rows are packed a block of
        rows, at most :data:`_BLOCK_BITS` cells, at a time, and only the
        blocks that hold an edge are made, so no n x n or n x n/8 buffer is."""
        width = -(-n // 8) * 8
        rows = max(1, _BLOCK_BITS // width)  # per block
        # cell u * width + v of the packed rows for each pair (u, v), and v * width + u
        cells = (pairs @ np.array([[width, 1], [1, width]])).ravel() - (width + 1)
        if n > rows:  # more than one block: sorted, each block's cells are a run
            cells.sort()
        adj = [0] * n
        step = width // 8
        lo = 0
        while lo < len(cells):  # the cells of the next block of rows that holds an edge
            first = int(cells[lo]) // width // rows * rows
            hi = int(cells.searchsorted((first + rows) * width)) if n > rows else len(cells)
            bits = np.zeros(min(rows, n - first) * width, bool)
            bits[cells[lo:hi] - first * width] = True
            packed = np.packbits(bits, bitorder="little").tobytes()
            adj[first : first + len(packed) // step] = [
                int.from_bytes(packed[i : i + step], "little") for i in range(0, len(packed), step)
            ]
            lo = hi
        return cls._normalized(n, tuple(adj))

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """Build a graph, normalizing away self-loops, duplicates and flips.

        Construction is idempotent under duplicated or orientation-flipped
        edges.  Ids outside ``1..n`` raise ``ValueError``, non-integer ids ``TypeError``.
        """
        check_vertex_count(n)
        if isinstance(edges, np.ndarray):  # Python ints, not one numpy scalar per id
            edges = edges.tolist()
        ids = [i for u, v in edges for i in (index(u), index(v))]
        if ids and not (min(ids) >= 1 and max(ids) <= n):
            k = next(k for k, i in enumerate(ids) if not 1 <= i <= n) & -2
            raise ValueError(f"edge ({ids[k]}, {ids[k + 1]}) outside vertex range 1..{n}")
        pairs = np.array(ids, np.int64).reshape(-1, 2)
        return cls._from_pairs(n, pairs[pairs[:, 0] != pairs[:, 1]])

    @classmethod
    def complete(cls, n: int) -> "Graph":
        check_vertex_count(n)
        adj = tuple((1 << n) - 1 - (1 << v) for v in range(n))
        return cls._normalized(n, adj)

    @classmethod
    def gnp(cls, n: int, p: float, seed: int | None = None) -> "Graph":
        """Erdos-Renyi G(n, p) with a deterministic seed; a ``p`` outside
        [0, 1], or NaN, raises ``ValueError``."""
        check_vertex_count(n)
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"edge probability must be in [0, 1], got {p}")
        rng = random.Random(seed)
        edges = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1) if rng.random() < p]
        return cls._from_pairs(n, np.fromiter(chain.from_iterable(edges), np.int64).reshape(-1, 2))

    @classmethod
    def complete_multipartite_triples(cls, n: int) -> "Graph":
        """Complete 3-partite-style graph: parts of size 3, all cross edges.

        For ``n`` divisible by 3 this family attains the ``3**(n/3)``
        maximum number of maximal cliques (one vertex per part each).
        Parts are the consecutive triples {1,2,3}, {4,5,6}, ...
        """
        check_vertex_count(n)
        if n % 3 != 0:
            raise ValueError("vertex count must be divisible by 3")
        full = (1 << n) - 1
        # 0-based vertex v is adjacent to everything outside its own triple
        adj = tuple(full & ~(0b111 << (v - v % 3)) for v in range(n))
        return cls._normalized(n, adj)

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(1, self.n + 1):
            rest = self.adj[u - 1] & ~below_mask(u + 1)
            for v in iter_bits(rest):
                yield (u, v)

    def validate(self) -> None:
        """Refuse, with ``ValueError``, rows that break the invariants above:
        a row count other than ``n``, bits beyond ``n``, a self-loop or an
        asymmetric pair.  O(n + m) mask operations."""
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
