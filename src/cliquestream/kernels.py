"""Children generation for batches of maximal cliques, each an int mask.

A pair ``(i, j)`` is *good* for a parent ``P`` when some vertex of
``P_{<i} & N(i)`` is a non-neighbor of ``j``.  A parent's good row for
``i`` is a bitmask over ``j``, and it has one formula: the complement of
the common neighborhood of ``P_{<i} & N(i)``.  The paper's reduction reads
a batch's rows off one rectangular Boolean product: stack the parents'
characteristic vectors into ``M_B`` (|B| x n), put the characteristic
vector of ``A_i \\ N(j)`` with ``A_i = V_{<i} & N(i)`` into column
``(i, j)`` of ``M_G`` (n x n^2), and test entries of ``M_B @ M_G`` for
positivity.  :func:`build_batch_matrices` (n <= 598) and the good tables
are the reduction as the paper states it, an uncharged reference on the
graph and batch alone: :func:`good_table_rectangular` reads its rows off
``M_B @ M_G``.  ``M_G`` takes n^3 bytes, but it factors: with ``Nc`` the
n x n matrix whose row j is the characteristic vector of ``V \\ N(j)``,
column block i of ``M_G`` is ``diag(A_i) @ Nc.T``, so block i of the
product is ``(M_B & A_i) @ Nc.T`` (``A_i`` masking every row of ``M_B``),
the same multiply-adds.  A traversal builds the two factors once
(:func:`graph_factors`, after :func:`check_factors` has refused an n past
:data:`BUDGET_BYTES`), never ``M_G``, and ``Nc.T`` is the right operand of
every product it makes.

"rect" decides a batch's children in numpy as a lazy stream
(:func:`children_rect`), in slices that fit :data:`RECT_ROWS_BYTES`
(memory follows n, not the batch capacity): the candidate pairs (parent,
i) inside ``N(P)`` are stacked as rows ``P & A_i`` and multiplied by
``Nc.T`` in chunks of at least :data:`CHUNK_ROWS` rows, more if
:data:`BLOCK_BYTES` allows, and the test of :func:`filter_children` runs
on the bool blocks.  A chunk is decided only when the stream's reader
needs a parent it covers, and each parent's child mask leaves as soon as
its last chunk is decided.  "bitset" runs :func:`filter_children` per
parent, folding the common neighborhood only as far as each candidate
needs.  Both read each parent's ``N(P)`` and outside set (the non-members
adjacent to every member below them) from its pop's walk in a listing, and
from :func:`prefix_masks` for an arbitrary batch.  A child set is one int
mask either way, bit i - 1 for index i: what :func:`filter_children`
returns and :func:`children_rect` yields, and what :func:`children_batch`
wraps in a :class:`ChildSpec` beside its parent.  ``children_naive``
re-derives the test with direct completion calls, one parent at a time, as
the differential reference.  Only indices above the parent's own index are
candidates.  The traversal knows that index (a child popped from ``(P,
i)`` has index ``i``, the root 0) and passes it in; :func:`children_batch`
recomputes it for arbitrary batches.  Both kernels test only neighbors
``N(P)``, the root's too, so cost follows degree; one helper,
:func:`root_far_children`, adds the root's children outside ``N(root)`` in
one mask operation, charged words(n) when any candidate lies there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, pairwise, repeat
from typing import Iterator

import numpy as np

from . import matmul
from .graph import BUDGET_BYTES, Graph, VertexSet, below_mask, vbit
from .rs_tree import (
    OpCounter,
    clique_index,
    common_neighbors,
    is_maximal_clique,
    lex_completion,
    prefix_masks,
    words,
)

KERNELS = ("rect", "bitset")

# bytes a product chunk may hold per row: float32 input and output, and up to
# four bool rows beside them
BLOCK_BYTES = 1 << 16
# rows a product chunk holds at least: every sgemm call streams the whole
# 4 n^2-byte float32 Nc.T, so a thinner chunk pays that stream for few rows
CHUNK_ROWS = 64
# bytes one slice of a "rect" batch may take, at most 16 n per parent: its
# member, outside and candidate rows, its side bytes, and the coordinates of
# its candidate pairs (at most n, 8 bytes each before they narrow to 2 or 4)
RECT_ROWS_BYTES = 1 << 24

Factors = tuple[np.ndarray, matmul.BinaryOperand]


@dataclass(frozen=True, slots=True)
class ChildSpec:
    """A parent clique's mask and its good child indices as one mask, bit
    i - 1 for index i; ``indices`` lists them ascending."""

    parent: int
    children: int

    @property
    def indices(self) -> tuple[int, ...]:
        return tuple(VertexSet(self.children))

    def __len__(self) -> int:
        return self.children.bit_count()


def _mask_rows(masks, n: int) -> np.ndarray:
    """Bool matrix whose row k is the characteristic vector of masks[k]."""
    width = (n + 7) // 8
    joined = b"".join(map(int.to_bytes, masks, repeat(width), repeat("little")))
    raw = np.frombuffer(joined, np.uint8)
    bits = np.unpackbits(raw.reshape(-1, width), axis=1, count=n, bitorder="little")
    return bits.view(bool)


def _check_batch(cliques) -> None:
    if not cliques:
        raise ValueError("batch must be non-empty")
    # a sorted copy, 8 bytes per mask, puts any repeat beside its twin
    if any(a == b for a, b in pairwise(sorted(cliques))):
        raise ValueError("batch elements must be distinct")


def check_factors(n: int) -> None:
    """Refuse an n whose :func:`graph_factors` (6 n^2 bytes: ``A`` and
    ``Nc`` as bool, ``Nc.T`` as float32) would pass :data:`BUDGET_BYTES`
    (n >= 13,378).  Nothing is allocated."""
    if 6 * n * n > BUDGET_BYTES:
        raise ValueError(
            f"rect's graph factors at n = {n} pass {BUDGET_BYTES >> 30} GiB "
            f"(n <= {math.isqrt(BUDGET_BYTES // 6)}): use --kernel bitset"
        )


def _graph_rows(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """The bool n x n ``A`` and ``Nc``: rows ``A_i`` (``g.lower``) and ``V \\ N(j)``."""
    return _mask_rows(g.lower, g.n), _mask_rows((g.full_mask & ~a for a in g.adj), g.n)


def graph_factors(g: Graph, counter: OpCounter | None = None) -> Factors:
    """``A``, whose row i is the characteristic vector of ``A_i``, and
    ``Nc.T``, whose column j is that of ``V \\ N(j)``, converted once for
    the product, so the peak is 6 n^2 bytes.  Refused by
    :func:`check_factors` before anything is allocated.  Charged ``n * n *
    2 * words(n)``."""
    n = g.n
    check_factors(n)
    a_rows, non_adj = _graph_rows(g)
    if counter is not None:
        counter.ops += n * n * 2 * words(n)
    return a_rows, matmul.BinaryOperand(non_adj.T)


def build_batch_matrices(g: Graph, cliques) -> tuple[np.ndarray, np.ndarray]:
    """Characteristic matrices (M_B, M_G) of the rectangular reduction.

    ``M_B`` is |B| x n with row k the characteristic vector of the k-th
    parent.  ``M_G`` is n x n^2 (n^3 bytes): the column for the pair
    ``(i, j)`` sits at flat position ``(i-1)*n + (j-1)`` (row-major, i
    outermost) and holds the characteristic vector of ``A_i \\ N(j)``.
    Refused, before anything is allocated, where ``M_G`` and the float32 copy
    a product makes of it (5 n^3 bytes) pass :data:`BUDGET_BYTES` (n >= 599).
    """
    _check_batch(cliques)
    if 5 * g.n**3 > BUDGET_BYTES:
        raise ValueError(
            f"M_G at n = {g.n} and its float32 copy take 5 n^3 bytes, "
            f"past {BUDGET_BYTES >> 30} GiB"
        )
    a_rows, non_adj = _graph_rows(g)
    # entry [v, i, j] = a_rows[i, v] & non_adj[j, v], allocated in C order
    cube = np.bitwise_and(a_rows.T[:, :, None], non_adj.T[:, None, :], order="C")
    return _mask_rows(cliques, g.n), cube.reshape(g.n, g.n * g.n)


def good_table_rectangular(g: Graph, cliques) -> list[list[int]]:
    """Good rows read off the thresholded |B| x n by n x n^2 Boolean product
    ``M_B @ M_G`` (:func:`build_batch_matrices`): row i of parent k is
    column block i of product row k, read out as a Python int."""
    product = matmul.multiply_boolean_threshold(*build_batch_matrices(g, cliques))
    packed = np.packbits(product.reshape(len(cliques), g.n, g.n), axis=2, bitorder="little")
    return [[int.from_bytes(r.tobytes(), "little") for r in rows] for rows in packed]


def good_table_bitset(g: Graph, cliques) -> list[list[int]]:
    """Good rows by the direct formula: row i of ``P`` is the complement of
    the common neighborhood of ``P_{<i} & N(i)``."""
    _check_batch(cliques)
    rows = []
    for c in cliques:
        row = []
        for i in range(1, g.n + 1):
            pig = c & below_mask(i) & g.adj[i - 1]
            row.append(g.full_mask & ~common_neighbors(g, pig))
        rows.append(row)
    return rows


def root_far_children(g: Graph, p: int, near: int, counter: OpCounter | None = None) -> int:
    """The root ``p``'s children outside ``near``, its ``N(P)``, as one mask.
    Such an ``i`` has an empty ``P & A_i`` and the root no outside set, so it
    is a child iff it has no lower neighbor: one mask operation with
    ``g.no_lower``, charged words(n) when any candidate lies outside."""
    far = g.full_mask & ~(p | near)
    if far and counter is not None:
        counter.ops += words(g.n)
    return far & g.no_lower


def filter_children(
    g: Graph, p: int, index: int, counter: OpCounter | None = None,
    near: int | None = None, outside: int = 0,
) -> int:
    """The mask of the candidate indices that no ``j`` disqualifies (bit
    i - 1 for index i).

    Candidates are the non-members of ``p`` above ``index``, the parent's
    own index (0 for the root), and the loop tests only its neighbors
    ``N(P)``, at most |P| times the maximum degree.  The cut is exact:
    ``P`` completes ``P_{<i}`` for ``i`` above its index, so when ``P_{<i}
    & N(i)`` is empty (as for every ``i`` outside ``N(P)``), the backward
    check completes it to the root and fails unless ``P`` is the root,
    whose children there :func:`root_far_children` adds.  ``i`` is rejected
    when some ``j < i`` outside the good row of ``i`` is a neighbor of ``i``
    outside ``P`` or a non-member adjacent to its own prefix of ``P``
    (child- or parent-side reconstruction breaks); those non-members lie
    below ``index``.  The row's complement is folded lazily as the common
    neighborhood of ``P_{<i} & N(i)`` until no ``j`` is left.  ``near`` and
    ``outside`` are ``N(P)`` and those non-members from a listing's pop,
    else from :func:`prefix_masks`.  Charge in words: ``3|P|`` for those
    masks, 4 for the masks, 6 per candidate inside ``N(P)``, 1 per fold, and
    1 for the root's far step if any candidate lies outside ``N(root)``.
    """
    adj, lower = g.adj, g.lower
    notp = ~p
    if near is None:
        adjacent, near = prefix_masks(g, p)
        outside = adjacent & notp
    cand = near & notp & -(1 << index)
    children = 0 if index else root_far_children(g, p, near, counter)
    scanned = cand.bit_count()
    folds = 0
    while cand:  # from the top: each decision and its folds are order-free
        v = cand.bit_length() - 1
        top = 1 << v
        cand ^= top
        ai = lower[v]  # A_i, i = v + 1
        pig = p & ai
        bad = (ai ^ pig) | outside
        while bad and pig:  # ascending: the early stop sets the folds charged
            u = pig & -pig
            pig ^= u
            bad &= adj[u.bit_length() - 1]
            folds += 1
        if bad == 0:
            children |= top
    if counter is not None:
        # (g.n + 63) >> 6 is words(g.n), inlined on this per-parent path
        counter.ops += (3 * p.bit_count() + 4 + scanned * 6 + folds) * ((g.n + 63) >> 6)
    return children


def _rect_slice(g: Graph, part, index, near, outside):
    """The batch-level work of one slice, from its parents' masks, indices,
    ``N(P)`` and outside sets: the rows of ``M_B`` and ``outside_P`` in one
    byte a vertex, 1 for a member and 2 for a vertex outside ``P``, and the
    flat pairs ``k * n + i - 1`` of the non-members inside ``N(P)`` above
    the index, 2 bytes each where they fit (4 otherwise).  A suspended
    stream keeps both, n bytes a parent."""
    n, m = g.n, len(part)
    cand = (c & ~p & -(1 << i) for p, i, c in zip(part, index, near))
    rows = _mask_rows(chain(part, outside, cand), n)  # the three row blocks from one byte join
    pairs = np.flatnonzero(rows[2 * m :]).astype(np.uint16 if m * n <= 1 << 16 else np.uint32)
    return rows[:m].view(np.uint8) | rows[m : 2 * m].view(np.uint8) << 1, pairs


def _decide(pairs: np.ndarray, n: int, factors: Factors, sides: np.ndarray) -> list[int]:
    """The pairs of one chunk that are accepted, ascending: ``bad = (A_i &
    ~P | outside_P & V_{<i})`` minus the good row, read off the product of
    the rows ``P & A_i`` with ``Nc.T``, must be empty.  ``sides`` is
    :func:`_rect_slice`'s byte rows."""
    a_rows, non_adj_t = factors
    p, i = np.divmod(pairs, n, dtype=np.intp)
    side = np.take(sides, p, axis=0)  # np.take gathers rows faster than sides[p]
    left = np.take(a_rows, i, axis=0)
    left &= side == 1  # P & A_i
    good = matmul.multiply_boolean_threshold(left, non_adj_t)
    bad = np.take(a_rows, i, axis=0)
    bad ^= left  # A_i & ~P, which lies below i
    bad |= side > 1
    bad &= np.invert(good, out=good)
    return pairs[~bad.any(axis=1)].tolist()


def children_rect(
    g: Graph, masks, indices, factors: Factors, counter: OpCounter | None = None,
    nears=None, outsides=None,
) -> Iterator[int]:
    """Lazy "rect" children stream: one child mask per parent of ``masks``
    (``indices[k]`` their indices, both sequences), in the order handed in,
    each read once.  ``nears`` and ``outsides`` are their ``N(P)`` and
    outside sets from a listing's pops, else from :func:`prefix_masks`.
    Each slice of ``RECT_ROWS_BYTES // (16 n)`` parents does its batch-level
    work once (:func:`_rect_slice`) and starts each root row's mask with its
    far children (:func:`root_far_children`, charged with the slice), then
    decides its pairs in chunks of :data:`CHUNK_ROWS` rows, more if
    :data:`BLOCK_BYTES` allows (:func:`_decide`), only as the stream is
    read, ORing each accepted pair into its parent's mask, so between reads
    it keeps one int a parent not yet released (a released slot holds 0)
    beside the slice's rows and pairs.  After the
    batch-level work and after each chunk, the parents with no pair left
    undecided are released in bulk, and that step is charged in words(n): 6
    per candidate it decided, and ``5 + n^2 + 3|P|`` per parent it released.
    A batch thus costs :func:`filter_children`'s units without folds plus
    the full product, whatever its slices and chunks."""
    n = g.n
    w = words(n)
    if nears is None:
        found = [prefix_masks(g, p) for p in masks]
        nears = [near for _, near in found]
        outsides = [adjacent & ~p for p, (adjacent, _) in zip(masks, found)]
    step = max(CHUNK_ROWS, BLOCK_BYTES // (12 * n))
    size = max(1, RECT_ROWS_BYTES // (16 * n))
    for lo in range(0, len(masks), size):
        hi = lo + size
        part, index, near = masks[lo:hi], indices[lo:hi], nears[lo:hi]
        sides, pairs = _rect_slice(g, part, index, near, outsides[lo:hi])
        children = [  # one child mask per parent, bit i - 1 for index i
            0 if i else root_far_children(g, p, c, counter) for p, i, c in zip(part, index, near)
        ]
        total, done, released, scanned = len(pairs), 0, 0, 0
        while True:
            if done < total:  # every parent below the next undecided pair's is decided
                last = int(pairs[done]) // n
            else:  # a suspended stream keeps only what is left to release
                last, sides, pairs = len(part), None, None
            if counter is not None:
                members = sum(map(int.bit_count, part[released:last]))
                counter.ops += ((5 + n * n) * (last - released) + 3 * members + 6 * scanned) * w
            yield from children[released:last]
            children[released:last] = repeat(0, last - released)  # never read again
            released = last
            if released == len(part):
                break
            for f in _decide(pairs[done : done + step], n, factors, sides):
                children[f // n] |= 1 << f % n  # f = k * n + i - 1
            scanned = min(step, total - done)
            done += scanned


def children_naive(g: Graph, p: int, index: int) -> ChildSpec:
    """Child indices of ``p`` by direct completion calls.

    For each candidate ``i`` above the parent's index (``index``, 0 for the
    root), checks both reconstructability equations with explicit
    lexicographic completions.  Slow but independent of the good-row
    machinery; the differential reference for both kernels.  Each distinct
    backward completion (most often the root's) is computed once per call.
    """
    if not is_maximal_clique(g, VertexSet(p)):
        raise ValueError("parent must be a maximal clique")
    children = 0
    backs: dict[int, int] = {}
    for i in range(index + 1, g.n + 1):
        if (p >> (i - 1)) & 1:
            continue
        bel = below_mask(i)
        pig = p & bel & g.adj[i - 1]
        if pig not in backs:
            backs[pig] = lex_completion(g, VertexSet(pig)).bits
        if backs[pig] & bel != p & bel:
            continue
        forward = lex_completion(g, VertexSet(pig | vbit(i)))
        if forward.bits & bel == pig:
            children |= vbit(i)
    return ChildSpec(p, children)


def children_batch(
    g: Graph,
    cliques,
    kernel: str = "bitset",
    counter: OpCounter | None = None,
    indices=None,
) -> list[ChildSpec]:
    """One ChildSpec per batch element, in batch order.

    ``kernel`` picks how good pairs are decided: "rect" goes through the
    Boolean product, "bitset" through the lazy candidate test of
    :func:`filter_children`.  Both agree extensionally with
    :func:`children_naive`.  ``indices`` holds each clique's own index (0
    for the root) when the caller knows it, one per clique (a list of
    another length is refused); without it, each index is recomputed with
    :func:`clique_index`.  "rect" builds (and charges) :func:`graph_factors`
    and reads :func:`children_rect` to its end.
    """
    _check_batch(cliques)
    if indices is None:
        indices = [clique_index(g, VertexSet(p), counter) or 0 for p in cliques]
    elif len(indices) != len(cliques):
        raise ValueError(f"{len(indices)} indices for a batch of {len(cliques)}")
    if kernel == "bitset":
        masks = [filter_children(g, p, i, counter) for p, i in zip(cliques, indices)]
    elif kernel == "rect":
        masks = children_rect(g, cliques, indices, graph_factors(g, counter), counter)
    else:
        raise ValueError(f"unknown kernel {kernel!r}")
    return list(map(ChildSpec, cliques, masks))
