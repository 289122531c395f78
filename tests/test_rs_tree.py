import pytest

import cliquestream as cs
from cliquestream import oracle
from cliquestream.graph import below_mask, vbit
from cliquestream.rs_tree import common_neighbors, words

import reference
from conftest import (
    BRIDGE_16,
    BRIDGE_58,
    K5_SIDE,
    TRIANGLE,
    all_cliques,
    random_graphs,
    small_family,
)


class TestLexCompletion:
    def test_empty_gives_root(self, bridged):
        assert cs.rs_tree.lex_completion(bridged, cs.VertexSet()) == K5_SIDE

    def test_vertex_6(self, bridged):
        # brute force picks the lex-greatest of the maximal cliques containing 6
        assert reference.lex_completion_brute(bridged, cs.VertexSet.of(6)) == BRIDGE_16
        assert cs.rs_tree.lex_completion(bridged, cs.VertexSet.of(6)) == BRIDGE_16

    def test_already_maximal_is_fixed_point(self, bridged):
        assert cs.rs_tree.lex_completion(bridged, TRIANGLE) == TRIANGLE

    def test_result_contains_input_is_maximal_and_not_lex_smaller(self):
        for g in random_graphs(25, seed0=400):
            for k in all_cliques(g)[::3]:
                out = cs.rs_tree.lex_completion(g, k)
                assert k.bits & ~out.bits == 0
                assert cs.rs_tree.is_maximal_clique(g, out)
                assert reference.lex_compare(out, k) >= 0

    def test_charge_counts_inserted_vertices_not_the_neighbourhood(self):
        # completing the hub of a star inserts one leaf; the other n - 2
        # leaves are never visited, so they cost nothing
        n = 40
        star = cs.Graph.from_edges(n, [(1, v) for v in range(2, n + 1)])
        counter = cs.OpCounter()
        completed = cs.rs_tree.lex_completion(star, cs.VertexSet.of(1), counter)
        assert completed == cs.VertexSet.of(1, 2)
        assert counter.ops == 1 + 2 * words(n)

    def test_agrees_with_brute_force(self):
        for g in random_graphs(12, seed0=500, n_hi=12):
            cliques = oracle.all_maximal_cliques(g)
            for k in all_cliques(g):
                assert cs.rs_tree.lex_completion(g, k) == reference.lex_completion_brute(
                    g, k, cliques
                )


class TestRoot:
    def test_bridged(self, bridged):
        assert cs.rs_tree.root(bridged) == K5_SIDE

    def test_edgeless(self):
        assert cs.rs_tree.root(cs.Graph.from_edges(3, [])) == cs.VertexSet.of(1)

    def test_complete(self):
        assert cs.rs_tree.root(cs.Graph.complete(4)) == cs.VertexSet.of(1, 2, 3, 4)


class TestCliqueIndex:
    def test_bridged_values(self, bridged):
        assert cs.rs_tree.clique_index(bridged, TRIANGLE) == 7
        assert cs.rs_tree.clique_index(bridged, BRIDGE_16) == 6
        assert cs.rs_tree.clique_index(bridged, K5_SIDE) is None

    def test_returns_none_only_for_root(self):
        for g in random_graphs(20, seed0=600):
            cliques = oracle.all_maximal_cliques(g)
            for c in cliques:
                idx = cs.rs_tree.clique_index(g, c)
                assert (idx is None) == (c == cliques[0])

    def test_agreement_with_scan_and_brute(self):
        # clique_index is the definitional scan over completions; the oracle
        # scans over completions found by brute force
        for g in small_family():
            cliques = oracle.all_maximal_cliques(g)
            for c in cliques:
                want = reference.clique_index_brute(g, c, cliques)
                assert cs.rs_tree.clique_index(g, c) == want

    def test_index_equal_to_min_member(self):
        # isolated vertex: the descending scan bottoms out at the clique's
        # own minimum and must still report it
        g = cs.Graph.from_edges(3, [(1, 2)])
        assert cs.rs_tree.clique_index(g, cs.VertexSet.of(3)) == 3


class TestParent:
    def test_bridged_edges(self, bridged):
        assert cs.rs_tree.parent(bridged, TRIANGLE) == BRIDGE_16
        assert cs.rs_tree.parent(bridged, BRIDGE_58) == K5_SIDE
        assert cs.rs_tree.parent(bridged, BRIDGE_16) == K5_SIDE

    def test_root_raises(self, bridged):
        with pytest.raises(ValueError):
            cs.rs_tree.parent(bridged, K5_SIDE)

    def test_parent_is_lex_greater_and_chain_reaches_root(self):
        for g in random_graphs(25, seed0=700):
            cliques = oracle.all_maximal_cliques(g)
            root = cliques[0]
            for c in cliques:
                if c == root:
                    continue
                p = cs.rs_tree.parent(g, c)
                assert cs.rs_tree.is_maximal_clique(g, p)
                assert reference.lex_compare(p, c) == 1
                cur, steps = c, 0
                while cs.rs_tree.clique_index(g, cur) is not None:
                    cur = cs.rs_tree.parent(g, cur)
                    steps += 1
                    assert steps <= g.n
                assert cur == root


class TestChild:
    def test_bridged_children(self, bridged):
        assert cs.rs_tree.child(bridged, K5_SIDE, 6) == BRIDGE_16
        assert cs.rs_tree.child(bridged, BRIDGE_16, 7) == TRIANGLE
        assert cs.rs_tree.child(bridged, K5_SIDE, 8) == BRIDGE_58

    def test_always_maximal_containing_i(self):
        for g in random_graphs(15, seed0=800):
            for p in oracle.all_maximal_cliques(g):
                for i in range(1, g.n + 1):
                    if i in p:
                        continue
                    c = cs.rs_tree.child(g, p, i)
                    assert cs.rs_tree.is_maximal_clique(g, c)
                    assert i in c

    def test_member_index_rejected(self, bridged):
        with pytest.raises(ValueError, match="must not belong"):
            cs.rs_tree.child(bridged, K5_SIDE, 3)


class TestStructuralProperties:
    def test_completion_monotone_under_inclusion(self):
        for g in small_family():
            for big in all_cliques(g):
                sub = big.bits
                while True:
                    small = cs.VertexSet(sub)
                    lc_small = cs.rs_tree.lex_completion(g, small)
                    lc_big = cs.rs_tree.lex_completion(g, big)
                    assert reference.lex_compare(lc_small, lc_big) >= 0
                    if sub == 0:
                        break
                    sub = (sub - 1) & big.bits

    def test_membership_characterization(self):
        # each vertex is either in the completion or blocked by a non-neighbor
        # among the input or the smaller completion members
        for g in small_family():
            for k in all_cliques(g):
                lc = cs.rs_tree.lex_completion(g, k)
                for v in range(1, g.n + 1):
                    blockers = k.bits | (lc.bits & below_mask(v))
                    blocked = bool(blockers & ~g.adj[v - 1] & ~vbit(v))
                    assert (v in lc) != blocked

    def test_completion_idempotent_over_prefixes(self):
        for g in small_family():
            for k in all_cliques(g):
                for a in range(g.n + 1):
                    ka = cs.VertexSet(k.bits & below_mask(a + 1))
                    la = cs.rs_tree.lex_completion(g, ka)
                    for b in range(a, g.n + 1):
                        lab = cs.VertexSet(la.bits & below_mask(b + 1))
                        assert cs.rs_tree.lex_completion(g, lab) == la

    def test_prefix_reconstructability(self):
        for g in small_family():
            cliques = oracle.all_maximal_cliques(g)
            for c in cliques[1:]:
                i = cs.rs_tree.clique_index(g, c)
                p = cs.rs_tree.parent(g, c)
                lhs = c.bits & below_mask(i)
                rhs = p.bits & below_mask(i) & g.adj[i - 1]
                assert lhs == rhs

    def test_common_neighbors_helper(self, bridged):
        assert common_neighbors(bridged, cs.VertexSet.of(6, 7).bits) == cs.VertexSet.of(8).bits
