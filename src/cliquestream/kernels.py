"""Children generation for batches of maximal cliques.

A pair ``(i, j)`` is *good* for a parent ``P`` when some vertex of
``P_{<i} & N(i)`` is a non-neighbor of ``j``.  A parent's good row for
``i`` is a bitmask over ``j``, and it has one formula: the complement of
the common neighborhood of ``P_{<i} & N(i)``.  The paper's reduction reads
a batch's rows off one rectangular Boolean product: stack the parents'
characteristic vectors into ``M_B`` (|B| x n), put the characteristic
vector of ``A_i \\ N(j)`` with ``A_i = V_{<i} & N(i)`` into column
``(i, j)`` of ``M_G`` (n x n^2), and test entries of ``M_B @ M_G`` for
positivity.  ``M_G`` takes n^3 bytes, but it factors: with ``Nc`` the
n x n matrix whose row j is the characteristic vector of ``V \\ N(j)``,
column block i of ``M_G`` is ``diag(A_i) @ Nc.T``, so block i of the
product is ``(M_B & A_i) @ Nc.T`` (``A_i`` masking every row of ``M_B``),
the same multiply-adds.  A traversal builds the two n x n factors once
(:func:`graph_factors`, ``Nc.T`` converted to float32 there, after
:func:`check_factors` has refused an n past :data:`FACTOR_BYTES`) and
never ``M_G``; :func:`build_batch_matrices` builds ``M_B`` and ``M_G``
themselves, the reduction as the paper states it, from the same factors.
:func:`good_table_rectangular` stacks the needed (parent, row) pairs
``P & A_i`` into one tall operand, multiplies it by ``Nc.T`` in chunks of
rows whose float32 input and output fit :data:`BLOCK_BYTES` (at least one
row), and packs the result straight to 64-bit words.
:func:`children_batch` feeds it slices of the batch whose packed rows fit
:data:`RECT_ROWS_BYTES` (at least one parent), so memory follows n, not
the batch capacity, and asks only for the rows each parent tests inside
N(P) (a non-member above its index); the charge prices the full product.
:func:`good_table_bitset` materializes the rows from
:func:`~cliquestream.rs_tree.common_neighbors`; :func:`filter_children`
never does, and folds the same common neighborhood only as far as each
candidate needs.

From its good rows, an index ``i`` yields a child of ``P`` exactly when no
``j < i`` witnesses a violation of either reconstructability direction;
``filter_children`` encodes that test.  Two kernels drive it for a batch:
"rect" (rows from the product) and "bitset" (lazy rows).
``children_naive`` re-derives the test from first principles with direct
completion calls, one parent at a time, as the differential reference.
Only indices above the parent's own index are candidates.  The traversal
knows that index (a child popped from spec ``(P, i)`` has index ``i``, the
root 0) and passes it in; :func:`children_batch` recomputes it with
:func:`clique_index` for callers that hand in arbitrary batches.  A
non-root parent tests only its neighbors ``N(P)``, so cost follows degree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import matmul
from .graph import Graph, VertexSet, below_mask, vbit
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

# float32 bytes a product chunk's tall input and its output may hold together
BLOCK_BYTES = 1 << 16
# packed good rows one slice of a "rect" batch may hold; read out as Python
# ints, the rows take several times this
RECT_ROWS_BYTES = 1 << 24
# bytes "rect"'s graph factors may take: A and Nc as bool, Nc.T as float32
# (6 n^2, n <= 13,377)
FACTOR_BYTES = 1 << 30


@dataclass(frozen=True, slots=True)
class ChildSpec:
    """A parent clique and the ascending list of its good child indices."""

    parent: VertexSet
    indices: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.indices)


_new = object.__new__
_set_parent = ChildSpec.parent.__set__
_set_indices = ChildSpec.indices.__set__


def _mask_rows(masks, n: int) -> np.ndarray:
    """Bool matrix whose row k is the characteristic vector of masks[k]."""
    width = (n + 7) // 8
    raw = np.frombuffer(b"".join(m.to_bytes(width, "little") for m in masks), np.uint8)
    bits = np.unpackbits(raw.reshape(-1, width), axis=1, count=n, bitorder="little")
    return bits.view(bool)


def _check_batch(cliques) -> None:
    if not cliques:
        raise ValueError("batch must be non-empty")
    if len({c.bits for c in cliques}) != len(cliques):
        raise ValueError("batch elements must be distinct")


def check_factors(n: int) -> None:
    """Refuse an n whose :func:`graph_factors` (6 n^2 bytes) would pass
    :data:`FACTOR_BYTES`.  Nothing is allocated."""
    if 6 * n * n > FACTOR_BYTES:
        raise ValueError(
            f"rect's graph factors at n = {n} pass {FACTOR_BYTES >> 30} GiB "
            f"(n <= {math.isqrt(FACTOR_BYTES // 6)}): use --kernel bitset"
        )


def graph_factors(
    g: Graph, counter: OpCounter | None = None
) -> tuple[np.ndarray, matmul.BinaryOperand]:
    """The two n x n Boolean factors of ``M_G``: ``A``, whose row i is the
    characteristic vector of ``A_i``, and ``Nc.T``, whose column j is that
    of ``V \\ N(j)``, converted once for the product.  Refused by
    :func:`check_factors` before anything is allocated.  Charged
    ``n * n * 2 * words(n)``."""
    n = g.n
    check_factors(n)
    a_rows = _mask_rows((g.adj[i - 1] & below_mask(i) for i in range(1, n + 1)), n)
    non_adj = _mask_rows((g.full_mask & ~a for a in g.adj), n)
    if counter is not None:
        counter.ops += n * n * 2 * words(n)
    return a_rows, matmul.BinaryOperand(non_adj.T)


def build_batch_matrices(g: Graph, cliques) -> tuple[np.ndarray, np.ndarray]:
    """Characteristic matrices (M_B, M_G) of the rectangular reduction.

    ``M_B`` is |B| x n with row k the characteristic vector of the k-th
    parent.  ``M_G`` is n x n^2 (n^3 bytes): the column for the pair
    ``(i, j)`` sits at flat position ``(i-1)*n + (j-1)`` (row-major, i
    outermost) and holds the characteristic vector of ``A_i \\ N(j)``.
    """
    _check_batch(cliques)
    a_rows, nc_t = graph_factors(g)
    non_adj_t = nc_t.matrix.astype(bool)
    # entry [v, i, j] = a_rows[i, v] & non_adj_t[v, j], allocated in C order
    cube = np.bitwise_and(a_rows.T[:, :, None], non_adj_t[:, None, :], order="C")
    return _mask_rows((c.bits for c in cliques), g.n), cube.reshape(g.n, g.n * g.n)


def good_table_rectangular(
    g: Graph,
    cliques,
    counter: OpCounter | None = None,
    factors: tuple[np.ndarray, matmul.BinaryOperand] | None = None,
    need=None,
) -> list[list[int]]:
    """Good rows of the |B| x n by n x n^2 Boolean product, computed from
    the factors of ``M_G``: row i of parent ``P`` is ``(P & A_i) @ Nc.T``
    thresholded.  ``factors`` is :func:`graph_factors` of ``g``; without
    it, the factors are built and charged here.  ``need`` holds one mask
    per parent of the rows ``i`` the caller reads (bit ``i-1``; ``None``
    for all).  Only those (parent, row) pairs are stacked into the tall
    operand, in chunks whose float32 input and output fit
    :data:`BLOCK_BYTES`, packed along ``j`` into 64-bit words and read out
    as Python ints; the other rows stay 0.  The charge prices the full
    product either way."""
    _check_batch(cliques)
    n = g.n
    a_rows, non_adj_t = graph_factors(g, counter) if factors is None else factors
    b = len(cliques)
    w = words(n)
    mb = _mask_rows((c.bits for c in cliques), n)
    wanted = _mask_rows([g.full_mask] * b if need is None else need, n)
    parents, rows_i = np.nonzero(wanted)
    packed = np.zeros((len(parents), 8 * w), dtype=np.uint8)
    step = max(1, BLOCK_BYTES // (8 * n))
    width = (n + 7) // 8
    for first in range(0, len(parents), step):
        p, i = parents[first : first + step], rows_i[first : first + step]
        block = matmul.multiply_boolean_threshold(mb[p] & a_rows[i], non_adj_t)
        packed[first : first + step, :width] = np.packbits(
            block, axis=1, bitorder="little"
        )
    if counter is not None:
        counter.ops += b * w + b * n * n * w
    # Python ints for the multiplied pairs only, scattered into rows of 0s
    word_cols = packed.view("<u8")
    found = word_cols[:, 0].astype(object)
    for k in range(1, w):
        found |= word_cols[:, k].astype(object) << (64 * k)
    rows = np.zeros((b, n), dtype=object)
    rows[parents, rows_i] = found
    return rows.tolist()


def good_table_bitset(
    g: Graph, cliques, counter: OpCounter | None = None
) -> list[list[int]]:
    """Good rows by the direct formula: row i of ``P`` is the complement of
    the common neighborhood of ``P_{<i} & N(i)``.  Charge in words: ``n``,
    ``2n`` per parent and one per member of each ``P_{<i} & N(i)``."""
    _check_batch(cliques)
    n = g.n
    adj = g.adj
    full = g.full_mask
    rows: list[list[int]] = []
    members = 0
    for c in cliques:
        pb = c.bits
        row = []
        for i in range(1, n + 1):
            pig = pb & below_mask(i) & adj[i - 1]
            members += pig.bit_count()
            row.append(full & ~common_neighbors(g, pig))
        rows.append(row)
    if counter is not None:
        w = words(n)
        counter.ops += (n + len(cliques) * n * 2 + members) * w
    return rows


def filter_children(
    g: Graph,
    p: VertexSet,
    index: int,
    good_row: list[int] | None = None,
    counter: OpCounter | None = None,
    masks: tuple[int, int] | None = None,
) -> ChildSpec:
    """Accept the candidate indices that no ``j`` disqualifies.

    Candidates are the non-members of ``p`` above ``index``, the parent's
    own index (0 for the root), and for a non-root parent only its
    neighbors ``N(P)``, at most |P| times the maximum degree.  The cut is
    exact: ``P`` completes ``P_{<i}`` for ``i`` above its index, so when
    ``P_{<i} & N(i)`` is empty (as for every ``i`` outside ``N(P)``), the
    backward check completes it to the root and fails unless ``P`` is the
    root.  ``i`` is rejected when some ``j < i`` outside the good row
    of ``i`` is a neighbor of ``i`` outside ``P`` or a non-member adjacent
    to its own prefix of ``P`` (child- or parent-side reconstruction
    breaks).  Without ``good_row``, the parent's slice of a good table, the
    row's complement is folded lazily as the common neighborhood of
    ``P_{<i} & N(i)`` until no ``j`` is left.  ``masks`` is
    :func:`prefix_masks` of ``p`` when the caller has it already.  Charge
    in words: ``3|P|`` for :func:`prefix_masks`, 4 for the masks, 6 per
    candidate, 1 per fold.
    """
    adj = g.adj
    pb = p.bits
    notp = ~pb
    adjacent, near = masks if masks is not None else prefix_masks(g, p)
    outside = adjacent & notp
    cand = (near if index else g.full_mask) & notp & -(1 << index)
    scanned = cand.bit_count()
    indices = []
    folds = 0
    while cand:
        low = cand & -cand
        cand ^= low
        i = low.bit_length()
        bel = low - 1
        ai = adj[i - 1]
        bad = ((ai & notp) | outside) & bel
        if good_row is not None:
            bad &= ~good_row[i - 1]
        else:
            pig = pb & bel & ai
            while bad and pig:
                u = pig & -pig
                pig ^= u
                bad &= adj[u.bit_length() - 1]
                folds += 1
        if bad == 0:
            indices.append(i)
    if counter is not None:
        # (g.n + 63) >> 6 is words(g.n), inlined on this per-parent path
        counter.ops += (3 * pb.bit_count() + 4 + scanned * 6 + folds) * ((g.n + 63) >> 6)
    spec = _new(ChildSpec)  # ChildSpec(parent=p, indices=...) without its keyword call
    _set_parent(spec, p)
    _set_indices(spec, tuple(indices))
    return spec


def children_naive(g: Graph, p: VertexSet, index: int) -> ChildSpec:
    """Child indices of ``p`` by direct completion calls.

    For each candidate ``i`` above the parent's index (``index``, 0 for the
    root), checks both reconstructability equations with explicit
    lexicographic completions.  Slow but independent of the good-row
    machinery; the differential reference for both kernels.  Each distinct
    backward completion (most often the root's) is computed once per call.
    """
    if not is_maximal_clique(g, p):
        raise ValueError("parent must be a maximal clique")
    n = g.n
    pb = p.bits
    indices = []
    backs: dict[int, int] = {}
    for i in range(index + 1, n + 1):
        if (pb >> (i - 1)) & 1:
            continue
        bel = below_mask(i)
        pig = pb & bel & g.adj[i - 1]
        if pig not in backs:
            backs[pig] = lex_completion(g, VertexSet(pig)).bits
        if backs[pig] & bel != pb & bel:
            continue
        forward = lex_completion(g, VertexSet(pig | vbit(i)))
        if forward.bits & bel == pig:
            indices.append(i)
    return ChildSpec(parent=p, indices=tuple(indices))


def children_batch(
    g: Graph,
    cliques,
    kernel: str = "bitset",
    counter: OpCounter | None = None,
    indices=None,
    factors: tuple[np.ndarray, matmul.BinaryOperand] | None = None,
) -> list[ChildSpec]:
    """One ChildSpec per batch element, in batch order.

    ``kernel`` picks how good pairs are decided: "rect" goes through the
    Boolean product, "bitset" through the lazy candidate test of
    :func:`filter_children`.  Both agree extensionally with
    :func:`children_naive`.  ``indices`` holds each clique's own
    index (0 for the root) when the caller knows it; without it, each index
    is recomputed with :func:`clique_index`.  "rect" builds (and charges)
    :func:`graph_factors` unless ``factors`` passes them in, and takes the
    batch in slices of ``RECT_ROWS_BYTES // (8 n words(n))`` parents (at
    least one), each parent's :func:`prefix_masks` serving its needed rows
    and its filter.
    """
    _check_batch(cliques)
    if indices is None:
        indices = [clique_index(g, p, counter) or 0 for p in cliques]
    if kernel == "bitset":
        return [filter_children(g, p, i, None, counter) for p, i in zip(cliques, indices)]
    if kernel != "rect":
        raise ValueError(f"unknown kernel {kernel!r}")
    if factors is None:
        factors = graph_factors(g, counter)
    size = max(1, RECT_ROWS_BYTES // (8 * g.n * words(g.n)))
    specs = []
    for first in range(0, len(cliques), size):
        part, part_indices = cliques[first : first + size], indices[first : first + size]
        masks = [prefix_masks(g, p) for p in part]
        # candidates in N(P); a row outside N(P) is 0 (P_{<i} & N(i) is empty)
        need = [
            near & ~p.bits & -(1 << i) for p, i, (_, near) in zip(part, part_indices, masks)
        ]
        rows = good_table_rectangular(g, part, counter, factors, need)
        specs += [
            filter_children(g, p, i, row, counter, pm)
            for p, i, row, pm in zip(part, part_indices, rows, masks)
        ]
    return specs
