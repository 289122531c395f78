"""Batch depth-first enumeration under different batch capacities.

The traversal pops up to `capacity` cliques off the backtracking stack,
prints them, then computes all their children in one batch.  Capacity
changes the emission order and the batching statistics but never the
emitted set.
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

# step_events is the traversal itself: any children step can drive it.  Each
# event costs what the shared counter gained since the previous event.
seen = []
counter = cs.OpCounter()


def children_fn(masks, indices):
    # masks[k] is a popped clique's raw int mask, the form the kernels take,
    # and indices[k] its reverse-search index (0 for the root), returned by
    # the stack pop that expanded it; only the events wrap a VertexSet
    return kernels.children_batch(g, masks, counter=counter, indices=indices)


root_clique = rs_tree.root(g, counter)
for event in cs.step_events(g, root_clique, children_fn, g.n * g.n, counter=counter):
    if event.kind == cs.CLIQUE_COLLECTED:
        seen.append(event.clique)
print(f"step_events delivered {len(seen)} cliques, root first: {seen[0]}")
