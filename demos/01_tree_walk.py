"""Walking the clique tree by hand.

Builds the small workhorse graph (a K5 glued to a triangle by three bridge
edges) and pokes at the primitives one at a time: lexicographic completion,
clique indices, parents, and children.
"""

import cliquestream as cs

edges = [(u, v) for u in range(1, 6) for v in range(u + 1, 6)]
edges += [(6, 7), (6, 8), (7, 8), (1, 6), (2, 7), (5, 8)]
g = cs.Graph.from_edges(8, edges)
print(f"graph: n={g.n}, m={g.m}")

# The root of the tree is the lexicographically greatest maximal clique,
# i.e. the completion of the empty clique.
root = cs.root(g)
print("root:", root)

# Completing a sub-clique always lands on the lex-greatest maximal clique
# that contains it.
for seed in [cs.VertexSet.of(6), cs.VertexSet.of(7), cs.VertexSet.of(6, 7)]:
    print(f"lex_completion({seed}) = {cs.lex_completion(g, seed)}")

# Every non-root maximal clique has an index: the greatest vertex whose
# prefix does not complete back to the clique itself.  Index None marks the
# root.  The parent is the completion of the prefix below the index.
print("\nclique -> index, parent")
for c in cs.sort_lex_descending(
    [cs.VertexSet.of(1, 2, 3, 4, 5), cs.VertexSet.of(1, 6), cs.VertexSet.of(2, 7),
     cs.VertexSet.of(5, 8), cs.VertexSet.of(6, 7, 8)]
):
    idx = cs.clique_index(g, c)
    par = cs.parent(g, c) if idx is not None else "-"
    print(f"  {str(c):24} i={idx}  parent={par}")

# Children go the other way: an index i is good for a parent P when the
# completion of (P_{<i} & N(i)) | {i} is a child of P with index i.
print("\nparent -> accepted child indices -> children")


def show_children(p: cs.VertexSet) -> None:
    spec = cs.children_naive(g, p, cs.clique_index(g, p) or 0)  # root: 0
    kids = [cs.child(g, p, i) for i in spec.indices]
    print(f"  {str(p):24} {spec.indices} -> {kids}")


show_children(root)
show_children(cs.VertexSet.of(1, 6))
show_children(cs.VertexSet.of(6, 7, 8))
