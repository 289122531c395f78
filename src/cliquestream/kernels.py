"""Children generation for batches of maximal cliques.

A pair ``(i, j)`` is *good* for a parent ``P`` when some vertex of
``P_{<i} & N(i)`` is a non-neighbor of ``j``.  A parent's good row for
``i`` is a bitmask over ``j``, and it has one formula: the complement of
the common neighborhood of ``P_{<i} & N(i)``.  The paper's reduction reads
a batch's rows off one rectangular Boolean product: stack the parents'
characteristic vectors into ``M_B`` (|B| x n), put the characteristic
vector of ``A_i \\ N(j)`` with ``A_i = V_{<i} & N(i)`` into column
``(i, j)`` of ``M_G`` (n x n^2), and test entries of ``M_B @ M_G`` for
positivity.  ``M_G`` depends only on the graph and takes n^3 bytes, so a
traversal builds it once, after :func:`check_graph_matrix` has refused an n
past :data:`GRAPH_MATRIX_BYTES`.  :func:`good_table_rectangular` multiplies
it in column blocks of whole rows within :data:`BLOCK_BYTES` (at least one
row, so a large batch's float32 tile can pass it), packed straight to
64-bit words.  :func:`children_batch` feeds it slices of the batch whose
packed rows fit :data:`RECT_ROWS_BYTES`, so memory follows n, not the batch
capacity, and multiplies only the blocks that hold a row some parent of the
slice tests inside N(P) (a non-member above its index); the charge prices
the full product.  :func:`good_table_bitset` materializes the rows from
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

# float32 bytes that each of a product block's input and output may hold
BLOCK_BYTES = 1 << 16
# packed good rows one slice of a "rect" batch may hold; read out as Python
# ints, the rows take several times this
RECT_ROWS_BYTES = 1 << 24
# bytes of the n^3 graph matrix M_G that "rect" may build (n <= 1024)
GRAPH_MATRIX_BYTES = 1 << 30


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


def check_graph_matrix(n: int) -> None:
    """Refuse an n whose n^3-byte ``M_G`` would pass
    :data:`GRAPH_MATRIX_BYTES`.  Nothing is allocated."""
    if n**3 > GRAPH_MATRIX_BYTES:
        raise ValueError(
            f"rect's graph matrix at n = {n} needs {n**3 / 2**30:.1f} GiB, over "
            f"{GRAPH_MATRIX_BYTES >> 30} GiB: use --kernel bitset"
        )


def graph_matrix(g: Graph, counter: OpCounter | None = None) -> np.ndarray:
    """``M_G`` (n x n^2): the column for the pair ``(i, j)`` sits at flat
    position ``(i-1)*n + (j-1)`` (row-major, i outermost) and holds the
    characteristic vector of ``A_i \\ N(j)``."""
    n = g.n
    check_graph_matrix(n)
    a_rows = _mask_rows((g.adj[i - 1] & below_mask(i) for i in range(1, n + 1)), n)
    non_adj = _mask_rows((g.full_mask & ~a for a in g.adj), n)
    if counter is not None:
        counter.ops += n * n * 2 * words(n)
    # entry [v, i, j] = a_rows[i, v] & non_adj[j, v], allocated in C order
    cube = np.bitwise_and(a_rows.T[:, :, None], non_adj.T[:, None, :], order="C")
    return cube.reshape(n, n * n)


def build_batch_matrices(
    g: Graph, cliques, mg: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Characteristic matrices (M_B, M_G) for the rectangular reduction.

    ``M_B`` is |B| x n with row k the characteristic vector of the k-th
    parent.  ``M_G`` is :func:`graph_matrix`, built here unless ``mg``
    passes in one already built for ``g``.
    """
    _check_batch(cliques)
    mb = _mask_rows((c.bits for c in cliques), g.n)
    return mb, graph_matrix(g) if mg is None else mg


def good_table_rectangular(
    g: Graph,
    cliques,
    counter: OpCounter | None = None,
    mg: np.ndarray | None = None,
    need: int = -1,
) -> list[list[int]]:
    """Good rows via the |B| x n by n x n^2 Boolean product.  ``mg`` is a
    prebuilt :func:`graph_matrix` of ``g``; without it, ``M_G`` is built and
    charged here.  Each block of ``M_G`` holds whole rows ``i`` (``n``
    columns each), as many as keep its float32 input and output within
    :data:`BLOCK_BYTES`, and is packed along ``j`` into 64-bit words.
    ``need`` masks the rows ``i`` the caller reads (bit ``i-1``; -1 for
    all); blocks that hold none of them are not multiplied and their rows
    stay 0.  The charge prices the full product either way."""
    n = g.n
    if mg is None:
        mg = graph_matrix(g, counter)
    mb, mg = build_batch_matrices(g, cliques, mg)
    b = len(cliques)
    w = words(n)
    packed = np.zeros((b, n, 8 * w), dtype=np.uint8)
    step = max(1, BLOCK_BYTES // (4 * n * (n + b)))
    for first in range(0, n, step):
        last = min(n, first + step)
        if not need >> first & ((1 << (last - first)) - 1):
            continue
        block = matmul.multiply_boolean_threshold(mb, mg[:, first * n : last * n])
        packed[:, first:last, : (n + 7) // 8] = np.packbits(
            block.reshape(b, last - first, n), axis=2, bitorder="little"
        )
    if counter is not None:
        counter.ops += b * w + b * n * n * w
    word_cols = packed.view("<u8")
    rows = word_cols[:, :, 0].tolist()
    for k in range(1, w):
        shift = 64 * k
        rows = [
            [lo | hi << shift for lo, hi in zip(row, high)]
            for row, high in zip(rows, word_cols[:, :, k].tolist())
        ]
    return rows


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
    mg: np.ndarray | None = None,
) -> list[ChildSpec]:
    """One ChildSpec per batch element, in batch order.

    ``kernel`` picks how good pairs are decided: "rect" goes through the
    Boolean product, "bitset" through the lazy candidate test of
    :func:`filter_children`.  Both agree extensionally with
    :func:`children_naive`.  ``indices`` holds each clique's own
    index (0 for the root) when the caller knows it; without it, each index
    is recomputed with :func:`clique_index`.  "rect" builds (and charges)
    ``M_G`` unless ``mg`` passes it in, and takes the batch in slices of at
    most ``RECT_ROWS_BYTES // (8 n words(n))`` parents, each parent's
    :func:`prefix_masks` serving the slice's needed rows and its filter.
    """
    _check_batch(cliques)
    if indices is None:
        indices = [clique_index(g, p, counter) or 0 for p in cliques]
    if kernel == "bitset":
        return [filter_children(g, p, i, None, counter) for p, i in zip(cliques, indices)]
    if kernel != "rect":
        raise ValueError(f"unknown kernel {kernel!r}")
    if mg is None:
        mg = graph_matrix(g, counter)
    size = RECT_ROWS_BYTES // (8 * g.n * words(g.n))
    specs = []
    for first in range(0, len(cliques), size):
        part, part_indices = cliques[first : first + size], indices[first : first + size]
        masks = [prefix_masks(g, p) for p in part]
        need = 0
        for p, i, (_, near) in zip(part, part_indices, masks):
            # candidates in N(P); a row outside N(P) is 0 (P_{<i} & N(i) is empty)
            need |= near & ~p.bits & -(1 << i)
        rows = good_table_rectangular(g, part, counter=counter, mg=mg, need=need)
        specs += [
            filter_children(g, p, i, row, counter, pm)
            for p, i, row, pm in zip(part, part_indices, rows, masks)
        ]
    return specs
