"""Children generation for batches of maximal cliques.

A pair ``(i, j)`` is *good* for a parent ``P`` when some vertex of
``P_{<i} & N(i)`` is a non-neighbor of ``j``.  A parent's good row for
``i`` is a bitmask over ``j``, and a batch's good rows can be computed two
ways.  The paper's reduction reads them off one rectangular Boolean
product: stack the parents' characteristic vectors into ``M_B`` (|B| x n),
put the characteristic vector of ``A_i \\ N(j)`` with
``A_i = V_{<i} & N(i)`` into column ``(i, j)`` of ``M_G`` (n x n^2), and
test entries of ``M_B @ M_G`` for positivity.  ``M_G`` depends only on the
graph, so a traversal builds it once and hands it to every batch.  The
bitset kernel uses the direct formula: row ``i`` is the union of
``V \\ N(u)`` over the members ``u`` of ``P_{<i} & N(i)``.
:func:`good_table_bitset` materializes those rows; :func:`filter_children`
never does, and tests each candidate against the complement of the row
(the common neighborhood of ``P_{<i} & N(i)``) only as far as it needs to.

From its good rows, an index ``i`` yields a child of ``P`` exactly when no
``j < i`` witnesses a violation of either reconstructability direction;
``filter_children`` encodes that test, and ``children_naive`` re-derives it
from first principles with direct completion calls for differential
testing.  Only indices above the parent's own index are candidates.  The
traversal knows that index (a child popped from spec ``(P, i)`` has index
``i``, the root 0) and passes it in; :func:`children_batch` recomputes it
with :func:`clique_index` for callers that hand in arbitrary batches.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import matmul
from .graph import Graph, VertexSet, below_mask, vbit
from .rs_tree import (
    OpCounter,
    adjacent_to_own_prefix,
    clique_index,
    is_maximal_clique,
    lex_completion,
    words,
)

KERNELS = ("naive", "rect", "bitset")


@dataclass(frozen=True)
class ChildSpec:
    """A parent clique and the ascending list of its good child indices."""

    parent: VertexSet
    indices: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.indices)


def _mask_to_row(mask: int, n: int) -> np.ndarray:
    raw = np.frombuffer(mask.to_bytes((n + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(raw, bitorder="little")[:n]


def _assert_batch(g: Graph, cliques) -> None:
    assert len(cliques) >= 1, "batch must be non-empty"
    assert len({c.bits for c in cliques}) == len(cliques), "batch elements must be distinct"


def graph_matrix(g: Graph, counter: OpCounter | None = None) -> np.ndarray:
    """``M_G`` (n x n^2): the column for the pair ``(i, j)`` sits at flat
    position ``(i-1)*n + (j-1)`` (row-major, i outermost) and holds the
    characteristic vector of ``A_i \\ N(j)``."""
    n = g.n
    a_rows = np.stack(
        [_mask_to_row(g.adj[i - 1] & below_mask(i), n) for i in range(1, n + 1)]
    )
    non_adj = np.stack(
        [1 - _mask_to_row(g.adj[j - 1], n) for j in range(1, n + 1)]
    ).astype(np.uint8)
    cols = np.einsum("iv,jv->ijv", a_rows, non_adj)
    if counter is not None:
        counter.add(n * n * 2 * words(n))
    return cols.reshape(n * n, n).T.copy()


def build_batch_matrices(
    g: Graph, cliques, mg: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Characteristic matrices (M_B, M_G) for the rectangular reduction.

    ``M_B`` is |B| x n with row k the characteristic vector of the k-th
    parent.  ``M_G`` is :func:`graph_matrix`, built here unless ``mg``
    passes in one already built for ``g``.
    """
    _assert_batch(g, cliques)
    mb = np.stack([_mask_to_row(c.bits, g.n) for c in cliques])
    return mb, graph_matrix(g) if mg is None else mg


def _pack_good_rows(thresh: np.ndarray, batch_size: int, n: int) -> list[list[int]]:
    cube = thresh.reshape(batch_size, n, n)
    packed = np.packbits(cube, axis=2, bitorder="little")
    rows: list[list[int]] = []
    for k in range(batch_size):
        rows.append([int.from_bytes(packed[k, i].tobytes(), "little") for i in range(n)])
    return rows


def good_table_rectangular(
    g: Graph, cliques, counter: OpCounter | None = None, mg: np.ndarray | None = None
) -> list[list[int]]:
    """Good rows via the |B| x n by n x n^2 Boolean product.  ``mg`` is a
    prebuilt :func:`graph_matrix` of ``g``; without it, ``M_G`` is built and
    charged here."""
    n = g.n
    if mg is None:
        mg = graph_matrix(g, counter)
    mb, mg = build_batch_matrices(g, cliques, mg)
    thresh = matmul.multiply_boolean_threshold(mb, mg)
    if counter is not None:
        w = words(n)
        counter.add(len(cliques) * w + len(cliques) * n * n * w)
    return _pack_good_rows(thresh, len(cliques), n)


def good_table_bitset(
    g: Graph, cliques, counter: OpCounter | None = None
) -> list[list[int]]:
    """Good rows by the direct formula: row i of ``P`` is the union of
    ``V \\ N(u)`` over the members u of ``P_{<i} & N(i)``."""
    _assert_batch(g, cliques)
    n = g.n
    adj = g.adj
    non_adj = [g.full_mask & ~a for a in adj]
    rows: list[list[int]] = []
    unions = 0
    for c in cliques:
        pb = c.bits
        row = []
        for i in range(1, n + 1):
            witnesses = pb & below_mask(i) & adj[i - 1]
            mask = 0
            while witnesses:
                low = witnesses & -witnesses
                mask |= non_adj[low.bit_length() - 1]
                witnesses ^= low
                unions += 1
            row.append(mask)
        rows.append(row)
    if counter is not None:
        w = words(n)
        counter.add((n + len(cliques) * n * 2 + unions) * w)
    return rows


def filter_children(
    g: Graph,
    p: VertexSet,
    index: int,
    good_row: list[int] | None = None,
    counter: OpCounter | None = None,
) -> ChildSpec:
    """Accept the candidate indices that no ``j`` disqualifies.

    Candidates are the non-members of ``p`` above ``index``, the parent's
    own index (0 for the root).  An index ``i`` is rejected when some
    ``j < i`` outside the good row of ``i`` is either a neighbor of ``i``
    outside ``P`` (child-side reconstruction breaks) or a non-member
    adjacent to its own prefix of ``P`` (parent-side reconstruction
    breaks).  ``good_row`` is the parent's slice of a good table; without
    it, the complement of row ``i`` is folded lazily as the common
    neighborhood of ``P_{<i} & N(i)``, stopping once no ``j`` is left.
    """
    n = g.n
    adj = g.adj
    pb = p.bits
    outside = adjacent_to_own_prefix(g, p) & ~pb
    cand = g.full_mask & ~pb & ~below_mask(index + 1)
    indices = []
    scanned = 0
    folds = 0
    while cand:
        low = cand & -cand
        cand ^= low
        i = low.bit_length()
        scanned += 1
        bel = low - 1
        ai = adj[i - 1]
        bad = ((ai & ~pb) | outside) & bel
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
        counter.add((n * 2 + scanned * 6 + folds) * words(n))
    return ChildSpec(parent=p, indices=tuple(indices))


def children_naive(
    g: Graph, p: VertexSet, index: int, counter: OpCounter | None = None
) -> ChildSpec:
    """Child indices of ``p`` by direct completion calls.

    For each candidate ``i`` above the parent's index (``index``, 0 for the
    root), checks both reconstructability equations with explicit
    lexicographic completions.  Slow but independent of the good-row
    machinery.
    """
    assert is_maximal_clique(g, p), "parent must be a maximal clique"
    n = g.n
    pb = p.bits
    indices = []
    for i in range(index + 1, n + 1):
        if (pb >> (i - 1)) & 1:
            continue
        bel = below_mask(i)
        pig = pb & bel & g.adj[i - 1]
        back = lex_completion(g, VertexSet(pig), counter)
        if back.bits & bel != pb & bel:
            continue
        forward = lex_completion(g, VertexSet(pig | vbit(i)), counter)
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
    :func:`filter_children`, "naive" through per-parent completion calls.
    All three agree extensionally.  ``indices`` holds each clique's own
    index (0 for the root) when the caller knows it; without it, each index
    is recomputed with :func:`clique_index`.  ``mg`` is a prebuilt
    :func:`graph_matrix` of ``g`` for "rect".
    """
    _assert_batch(g, cliques)
    if indices is None:
        indices = [clique_index(g, p, counter) or 0 for p in cliques]
    if kernel == "naive":
        return [children_naive(g, p, i, counter) for p, i in zip(cliques, indices)]
    if kernel == "rect":
        rows = good_table_rectangular(g, cliques, counter=counter, mg=mg)
    elif kernel == "bitset":
        rows = [None] * len(cliques)
    else:
        raise ValueError(f"unknown kernel {kernel!r}")
    return [
        filter_children(g, p, i, row, counter)
        for p, row, i in zip(cliques, rows, indices)
    ]
