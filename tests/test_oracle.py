import pytest

import cliquestream as cs
from cliquestream import oracle

import reference
from conftest import (
    BRIDGE_16,
    BRIDGE_27,
    BRIDGED_CLIQUES,
    K5_SIDE,
    random_graphs,
)


class TestEnumeration:
    def test_bridged_clique_set_in_lex_order(self, bridged):
        assert oracle.all_maximal_cliques(bridged) == BRIDGED_CLIQUES

    def test_moon_moser_counts(self):
        for n, expect in [(6, 9), (9, 27)]:
            g = cs.Graph.complete_multipartite_triples(n)
            assert len(oracle.all_maximal_cliques(g)) == expect

    def test_edgeless_singletons(self):
        got = oracle.all_maximal_cliques(cs.Graph.from_edges(4, []))
        assert got == [cs.VertexSet.of(v) for v in (1, 2, 3, 4)]

    def test_two_methods_agree(self):
        for g in random_graphs(20, seed0=2600, n_hi=14):
            assert oracle.all_maximal_cliques(g) == reference.maximal_cliques_subset_scan(g)

    def test_limit_refusal(self):
        g = cs.Graph.from_edges(25, [])
        with pytest.raises(oracle.OracleLimitError):
            oracle.all_maximal_cliques(g)

    def test_stream_refuses_at_the_call(self):
        g = cs.Graph.from_edges(25, [])
        with pytest.raises(oracle.OracleLimitError):
            oracle.maximal_clique_masks(g)  # refused before any draw
        assert sorted(oracle.maximal_clique_masks(g, limit=25)) == [1 << v for v in range(25)]

    def test_every_member_is_maximal_no_duplicates(self):
        for g in random_graphs(10, seed0=2700):
            got = oracle.all_maximal_cliques(g)
            assert len({c.bits for c in got}) == len(got)
            assert all(cs.rs_tree.is_maximal_clique(g, c) for c in got)


class TestGoodPairOracle:
    def test_bridged_entries(self, bridged):
        assert reference.good_pair_oracle(bridged, K5_SIDE, 6, 7) is True
        assert reference.good_pair_oracle(bridged, K5_SIDE, 6, 2) is False

    def test_i_equals_one_always_false(self):
        for g in random_graphs(5, seed0=2800, n_hi=10):
            for p in oracle.all_maximal_cliques(g):
                assert all(
                    not reference.good_pair_oracle(g, p, 1, j) for j in range(1, g.n + 1)
                )


class TestChildrenOracle:
    def test_bridged(self, bridged):
        assert reference.children_oracle(bridged, K5_SIDE).indices == (6, 7, 8)
        assert reference.children_oracle(bridged, BRIDGE_27).indices == ()
        assert reference.children_oracle(bridged, BRIDGE_16).indices == (7,)

    def test_tree_property(self):
        # every non-root clique hangs below the root through parents
        for g in random_graphs(10, seed0=2900, n_hi=12):
            cliques = oracle.all_maximal_cliques(g)
            root = cliques[0]
            for c in cliques[1:]:
                p = reference.parent_brute(g, c, cliques)
                assert p in cliques
                assert reference.lex_compare(p, c) == 1
                cur, hops = c, 0
                while cur != root:
                    cur = reference.parent_brute(g, cur, cliques)
                    hops += 1
                    assert hops <= g.n

    def test_root_has_no_parent(self, bridged):
        with pytest.raises(ValueError):
            reference.parent_brute(bridged, K5_SIDE)
