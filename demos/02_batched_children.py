"""Generating children for a whole batch of cliques in one shot.

Shows the two batch kernels side by side: the rectangular Boolean product
over the characteristic matrices, and the direct bitset formula for each
good row.  Both decide the same "good pair" predicate for a whole batch of
parents at once.  The kernels take a batch as raw int masks (bit v-1 for
vertex v), the form the traversal carries; a VertexSet wraps a mask only
where a clique is shown.
"""

import cliquestream as cs
from cliquestream import kernels, matmul, oracle, rs_tree

g = cs.Graph.gnp(12, 0.5, seed=20)
cliques = oracle.all_maximal_cliques(g)
batch = [c.bits for c in cliques]
print(f"graph: n={g.n}, m={g.m}, batch of {len(batch)} maximal cliques")

# The reduction: M_B rows are the parents' characteristic vectors, and the
# (i, j) column of M_G is the characteristic vector of A_i \ N(j) with
# A_i = V_{<i} & N(i).  Entry [k, (i, j)] of the product counts the
# witnesses that make (i, j) good for parent k; only positivity matters.
mb, mg = kernels.build_batch_matrices(g, batch)
print(f"M_B: {mb.shape}, M_G: {mg.shape}")
counts = matmul.multiply(mb, mg)
print(f"naive product: {counts.shape}, max witness count = {counts.max()}")

# The kernel needs only positivity: it thresholds a float32 BLAS product
# (exact, as no count can pass the inner dimension n), which agrees
# entrywise with the thresholded naive reference.
positive = matmul.multiply_boolean_threshold(mb, mg)
assert (positive == (counts > 0)).all()
print("Boolean product == naive product > 0")

# M_G takes n^3 bytes, but it factors: column block i is diag(A_i) @ Nc.T,
# where row j of Nc is the characteristic vector of V \ N(j).  So block i
# of the product is (M_B & A_i) @ Nc.T, the same multiply-adds from two
# n x n matrices.  good_table_rectangular reads its rows straight off the
# thresholded M_B @ M_G above, as the paper states it; the listing never
# builds M_G: it stacks the rows P & A_i that each parent tests into one
# tall operand and multiplies it by Nc.T (converted to float32 once per
# listing) in chunks.  Each parent's candidates are the non-members of its
# neighbourhood N(P) above its index; a listing reads N(P) off the walk
# that popped the parent, and the children step below derives it itself.
a_rows, nc_t = kernels.graph_factors(g)
non_adj_t = nc_t.matrix.astype(bool)
n = g.n
for i in range(n):
    assert (mg[:, i * n : (i + 1) * n] == (a_rows[i][:, None] & non_adj_t)).all()
print(f"M_G == its {n} column blocks diag(A_i) @ Nc.T")

rows_rect = kernels.good_table_rectangular(g, batch)
rows_bits = kernels.good_table_bitset(g, batch)
assert rows_rect == rows_bits
print("rectangular == bitset rows")
good = sum(mask.bit_count() for row in rows_rect for mask in row)
print(f"good fraction: {good / positive.size:.3f}")

# The children step decides every (parent, candidate) pair of the batch on
# the product's bool blocks and yields one (parent, child mask) spec per
# batch element; per-parent completion calls (children_naive) are the
# cross-check.
specs = kernels.children_batch(g, batch, kernel="rect")
naive = [kernels.children_naive(g, c.bits, rs_tree.clique_index(g, c) or 0) for c in cliques]
assert specs == naive
total = sum(len(s) for s in specs)
print(f"children found: {total} across {len(batch)} parents")
widest = max(specs, key=len)
print(f"busiest parent: {cs.VertexSet(widest.parent)} -> indices {widest.indices}")

# Work accounting: kernels charge word-level operation counts to a counter.
counter = cs.OpCounter()
kernels.children_batch(g, batch, kernel="bitset", counter=counter)
print(f"bitset kernel charged {counter.ops} work units "
      f"(~{counter.ops // len(batch)} per parent)")
