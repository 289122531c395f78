import random

import pytest

import cliquestream as cs
from cliquestream.graph import below_mask, iter_bits

from conftest import BRIDGED_CLIQUES, K5_SIDE, random_graphs


def ref_lex_compare(a: cs.VertexSet, b: cs.VertexSet) -> int:
    """Sort-based reference: the smaller vertex of the symmetric difference
    decides, and it wins for the set that contains it."""
    sa, sb = set(a), set(b)
    diff = sorted(sa ^ sb)
    if not diff:
        return 0
    return 1 if diff[0] in sa else -1


def prefix(g: cs.Graph, v: int) -> cs.VertexSet:
    """Neighbors of ``v`` below ``v``."""
    return cs.VertexSet(g.adj[v - 1] & below_mask(v))


class TestNeighborhood:
    def test_bridged_vertex_6(self, bridged):
        assert cs.VertexSet(bridged.adj[5]) == cs.VertexSet.of(1, 7, 8)

    def test_single_vertex(self):
        g = cs.Graph.edgeless(1)
        assert g.adj == (0,)

    def test_complete_graph(self):
        g = cs.Graph.complete(4)
        assert cs.VertexSet(g.adj[1]) == cs.VertexSet.of(1, 3, 4)


class TestPrefixNeighbors:
    def test_bridged_vertex_6(self, bridged):
        assert prefix(bridged, 6) == cs.VertexSet.of(1)

    def test_vertex_1_always_empty(self, bridged):
        assert prefix(bridged, 1) == cs.VertexSet()
        assert prefix(cs.Graph.complete(5), 1) == cs.VertexSet()

    def test_bridged_vertex_8(self, bridged):
        assert prefix(bridged, 8) == cs.VertexSet.of(5, 6, 7)

    def test_subset_of_neighborhood_and_below(self):
        for g in random_graphs(30, seed0=100):
            for v in range(1, g.n + 1):
                pre = prefix(g, v)
                assert pre.bits & ~g.adj[v - 1] == 0
                assert all(u < v for u in pre)


class TestRestrictBelow:
    def test_prefix(self):
        assert K5_SIDE.bits & below_mask(4) == cs.VertexSet.of(1, 2, 3).bits

    def test_below_one_is_empty(self):
        assert cs.VertexSet.of(3, 9).bits & below_mask(1) == 0

    def test_mid_prefix(self):
        assert cs.VertexSet.of(6, 7, 8).bits & below_mask(7) == cs.VertexSet.of(6).bits


class TestLexCompare:
    def test_k5_beats_bridge(self):
        assert cs.lex_compare(K5_SIDE, cs.VertexSet.of(1, 6)) == 1

    def test_bridge_beats_triangle(self):
        assert cs.lex_compare(cs.VertexSet.of(5, 8), cs.VertexSet.of(6, 7, 8)) == 1

    def test_equal(self):
        s = cs.VertexSet.of(2, 4, 6)
        assert cs.lex_compare(s, s) == 0

    def test_matches_reference_and_is_total_order(self):
        rng = random.Random(42)
        sets = [
            cs.VertexSet(rng.getrandbits(16)) for _ in range(120)
        ]
        for a in sets[:40]:
            for b in sets[:40]:
                got = cs.lex_compare(a, b)
                assert got == ref_lex_compare(a, b)
                assert got == -cs.lex_compare(b, a)
        for _ in range(300):
            a, b, c = rng.sample(sets, 3)
            if cs.lex_compare(a, b) == 1 and cs.lex_compare(b, c) == 1:
                assert cs.lex_compare(a, c) == 1

    def test_sort_descending_puts_greatest_first(self):
        rng = random.Random(7)
        shuffled = BRIDGED_CLIQUES[:]
        rng.shuffle(shuffled)
        assert cs.sort_lex_descending(shuffled) == BRIDGED_CLIQUES


class TestConstruction:
    def test_idempotent_under_noise(self):
        rng = random.Random(5)
        for g in random_graphs(20, seed0=200):
            edges = list(g.edges())
            noisy = []
            for u, v in edges:
                noisy.append((u, v))
                if rng.random() < 0.5:
                    noisy.append((v, u))
                if rng.random() < 0.3:
                    noisy.append((u, v))
            noisy.append((1, 1))
            rng.shuffle(noisy)
            again = cs.Graph.from_edges(g.n, noisy)
            assert again == g

    def test_invariants_hold(self):
        for g in random_graphs(20, seed0=300):
            g.validate()

    def test_isolated_vertices_accepted(self):
        g = cs.Graph.from_edges(5, [(1, 2)])
        g.validate()
        assert g.n == 5 and g.m == 1
        assert g.adj[3] == 0

    def test_out_of_range_edge_rejected(self):
        with pytest.raises(ValueError):
            cs.Graph.from_edges(3, [(1, 4)])


class TestVertexSet:
    def test_iteration_ascending(self):
        assert list(cs.VertexSet.of(9, 2, 5)) == [2, 5, 9]

    def test_len_contains_minmax(self):
        s = cs.VertexSet.of(3, 8)
        assert len(s) == 2 and 3 in s and 4 not in s
        assert s.min() == 3 and s.max() == 8

    def test_immutable(self):
        s = cs.VertexSet.of(1)
        with pytest.raises(AttributeError):
            s.bits = 3

    def test_bit_helpers(self):
        assert below_mask(1) == 0
        assert list(iter_bits(0b1011)) == [1, 2, 4]
