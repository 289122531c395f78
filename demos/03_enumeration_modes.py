"""Batch depth-first enumeration under different batch capacities.

The traversal pops up to `capacity` cliques off the backtracking stack,
prints them and stacks their children at the batch end: "rect" decides a
batch's children in one product, "bitset" tests each parent right after it
is printed and keeps its children as one int mask.  Capacity changes the emission order and the batching
statistics but never the emitted set.
"""

import cliquestream as cs
from cliquestream import kernels, oracle, rs_tree

g = cs.Graph.gnp(14, 0.6, seed=33)
reference = {c.bits for c in oracle.all_maximal_cliques(g)}
print(f"graph: n={g.n}, m={g.m}, {len(reference)} maximal cliques\n")

print(f"{'capacity':>8} {'kernel':>7} {'batches':>8} {'undersized':>11} "
      f"{'max stack':>10} {'work units':>11} ok")
for capacity in (1, 2, g.n, g.n * g.n):
    for kernel in ("rect", "bitset"):
        stats = cs.TraversalStats()
        emitted = [
            e.clique.bits
            for e in cs.list_mc(g, kernel=kernel, capacity=capacity, stats=stats)
            if e.kind == cs.CLIQUE_COLLECTED
        ]
        ok = set(emitted) == reference and len(emitted) == len(reference)
        print(f"{capacity:>8} {kernel:>7} {stats.batches_total:>8} "
              f"{stats.batches_undersized:>11} {stats.max_stack_cliques:>10} "
              f"{stats.total_cost:>11} {ok}")

# The pending-clique stack stays within n^2 * capacity and the number of
# undersized batches (stack drained mid-collection) stays within n.
stats = cs.TraversalStats()
list(cs.list_mc(g, capacity=2, stats=stats))
print(f"\nbounds at capacity 2: stack {stats.max_stack_cliques} <= "
      f"{g.n * g.n * 2}, undersized {stats.batches_undersized} <= {g.n}")

# step_events is the traversal itself: any children decision can drive it.
# Each event costs what the shared counter gained since the previous event.
# decide(g, mask, index, counter, near, outside) gets each popped clique as a
# raw int mask, the form the kernels take, with its reverse-search index (0
# for the root) right after the clique's event, and the N(C) and outside set
# its pop found on the same walk over the members; it returns the child
# indices as one mask (bit i-1 for index i).  Only the events wrap a
# VertexSet.
seen = []
counter = cs.OpCounter()
root_clique = rs_tree.root(g, counter)
events = cs.step_events(
    g, root_clique, None, g.n * g.n, counter=counter, decide=kernels.filter_children
)
for event in events:
    if event.kind == cs.CLIQUE_COLLECTED:
        seen.append(event.clique)
print(f"step_events delivered {len(seen)} cliques, root first: {seen[0]}")
