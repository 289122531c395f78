"""Batch depth-first enumeration under different batch capacities.

The traversal pops up to `capacity` cliques off the backtracking stack,
prints them, then hands all of them to one children step: "rect" decides
their children in one product, "bitset" tests each parent when the stack
reaches it.  Capacity changes the emission order and the batching
statistics but never the emitted set.
"""

from itertools import repeat

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
    # a batch's popped cliques as raw int masks, the form the kernels take,
    # with their reverse-search indices (0 for the root), returned by the
    # stack pops that expanded them; only the events wrap a VertexSet.
    # Without a pace they come as iterators, last parent first, and a lazy
    # result is drawn one spec at a time, when the stack reaches that parent
    return map(kernels.filter_children, repeat(g), masks, indices, repeat(counter))


root_clique = rs_tree.root(g, counter)
for event in cs.step_events(g, root_clique, children_fn, g.n * g.n, counter=counter):
    if event.kind == cs.CLIQUE_COLLECTED:
        seen.append(event.clique)
print(f"step_events delivered {len(seen)} cliques, root first: {seen[0]}")
