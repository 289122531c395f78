import random
import re
import tracemalloc

import numpy as np
import pytest

import cliquestream as cs
from cliquestream.graph import below_mask, iter_bits

import reference
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


def builds_on_every_path(n: int) -> list[cs.Graph]:
    """One graph on ``n`` vertices from each constructor and file reader, a
    third of the vertices isolated.  Items 0-2 and the two files' are one
    graph (item 1 is ``from_edges`` on repeated pairs, flipped and not);
    item 3 is edgeless, item 6 gnp at p = 1 and item 7 complete."""
    rng = random.Random(n)
    live = rng.sample(range(1, n + 1), 2 * n // 3)
    edges = [tuple(rng.sample(live, 2)) for _ in range(2 * n)] if len(live) > 1 else []
    listed = cs.Graph.from_edges(n, edges + edges[::-2])
    builds = [
        cs.Graph(n, listed.adj),
        listed,
        cs.Graph.from_edges(n, np.array(edges, np.int64).reshape(-1, 2)),
        *(cs.Graph.gnp(n, p, seed=n) for p in (0, min(1, 10 / n), 0.5, 1)),
        cs.Graph.complete(n),
        cs.Graph.complete_multipartite_triples(3 * max(1, n // 3)),
        cs.cli.parse_dimacs(cs.cli.to_dimacs(listed)),
        cs.cli.parse_edge_list(reference.to_edge_list(listed)),
    ]
    assert builds[0] == listed == builds[2] == builds[-2] == builds[-1]
    return builds


class TestNeighborhood:
    def test_bridged_vertex_6(self, bridged):
        assert cs.VertexSet(bridged.adj[5]) == cs.VertexSet.of(1, 7, 8)

    def test_single_vertex(self):
        g = cs.Graph.from_edges(1, [])
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
        assert reference.lex_compare(K5_SIDE, cs.VertexSet.of(1, 6)) == 1

    def test_bridge_beats_triangle(self):
        assert reference.lex_compare(cs.VertexSet.of(5, 8), cs.VertexSet.of(6, 7, 8)) == 1

    def test_equal(self):
        s = cs.VertexSet.of(2, 4, 6)
        assert reference.lex_compare(s, s) == 0

    def test_matches_reference_and_is_total_order(self):
        rng = random.Random(42)
        sets = [
            cs.VertexSet(rng.getrandbits(16)) for _ in range(120)
        ]
        for a in sets[:40]:
            for b in sets[:40]:
                got = reference.lex_compare(a, b)
                assert got == ref_lex_compare(a, b)
                assert got == -reference.lex_compare(b, a)
        for _ in range(300):
            a, b, c = rng.sample(sets, 3)
            if reference.lex_compare(a, b) == 1 and reference.lex_compare(b, c) == 1:
                assert reference.lex_compare(a, c) == 1

    def test_sort_descending_puts_greatest_first(self):
        rng = random.Random(7)
        shuffled = BRIDGED_CLIQUES[:]
        rng.shuffle(shuffled)
        assert cs.graph.sort_lex_descending(shuffled) == BRIDGED_CLIQUES

    def test_sort_matches_the_string_reversal_order(self):
        rng = random.Random(29)
        for _ in range(2000):
            width = rng.randint(1, 200)
            sets = [
                cs.VertexSet(rng.getrandbits(rng.randint(0, width)) if rng.random() < 0.9 else 0)
                for _ in range(rng.randint(0, 12))
            ]
            got = [s.bits for s in cs.graph.sort_lex_descending(sets)]
            assert got == [s.bits for s in reference.sort_lex_descending_by_strings(sets)]


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

    def test_numpy_ids_build_the_graph_of_list_ids(self):
        # numpy ids were once shifted as numpy ints: vertex 1's row came out
        # empty, 70's held np.int64(1), m read 1 and validate() overflowed
        pairs = [(1, 70), (2, 3), (70, 99), (5, 5), (3, 2)]
        want = reference.from_edges(100, pairs)
        assert want.m == 3 and cs.Graph.from_edges(100, pairs) == want
        for edges in (
            np.array(pairs),
            np.array(pairs, np.int32),
            np.array(pairs, np.uint64),
            [(np.int64(u), np.int16(v)) for u, v in pairs],
        ):
            g = cs.Graph.from_edges(100, edges)
            assert g == want and all(type(row) is int for row in g.adj)
            g.validate()

    @pytest.mark.parametrize("bad", [2.0, 2.5, np.float64(2.0), "2", None])
    def test_non_integer_ids_refused(self, bad):
        # never truncated, never parsed
        for edges in ([(1, 3), (bad, 3)], [(1, 3), (3, bad)]):
            with pytest.raises(TypeError):
                cs.Graph.from_edges(3, edges)
        with pytest.raises(TypeError):
            cs.Graph.from_edges(3, np.array([(1.0, 2.0)]))

    @pytest.mark.parametrize(
        "edges, shown",
        [
            ([(1, 2), (3, 4), (0, 1)], "(3, 4)"),
            (np.array([[1, 2], [0, 3]]), "(0, 3)"),
            ([(2, 1), (1, 2**70)], f"(1, {2**70})"),
            ([(-(2**63) - 1, 1)], f"({-(2**63) - 1}, 1)"),
        ],
    )
    def test_out_of_range_message(self, edges, shown):
        message = f"edge {shown} outside vertex range 1..3"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            cs.Graph.from_edges(3, edges)

    def test_pairs_of_another_length_refused(self):
        for edges in ([(1, 2, 3)], [(1, 2), (3,)], [(1, 2, 3), (1,)]):
            with pytest.raises(ValueError):
                cs.Graph.from_edges(3, edges)

    @pytest.mark.parametrize("n", [0, -2])
    def test_every_constructor_refuses_no_vertices(self, n):
        builds = [
            lambda: cs.Graph(n=n, adj=()),
            lambda: cs.Graph.from_edges(n, []),
            lambda: cs.Graph.complete(n),
            lambda: cs.Graph.gnp(n, 0.5, seed=1),
            lambda: cs.Graph.complete_multipartite_triples(n),
        ]
        for build in builds:
            with pytest.raises(ValueError, match="^vertex count must be at least 1$"):
                build()

    @pytest.mark.parametrize("n", [92_682, 100_000_000])
    def test_every_constructor_refuses_rows_over_the_budget(self, n):
        # n^2 / 8 bytes of rows over 1 GiB; each refusal comes before the
        # rows (or an edge list) are allocated
        builds = [
            lambda: cs.Graph(n=n, adj=()),
            lambda: cs.Graph.from_edges(n, []),
            lambda: cs.Graph.complete(n),
            lambda: cs.Graph.gnp(n, 0.5, seed=1),
            lambda: cs.Graph.complete_multipartite_triples(n),
        ]
        for build in builds:
            tracemalloc.start()
            try:
                with pytest.raises(ValueError, match=f"^{n} vertices are more than 92681,"):
                    build()
                assert tracemalloc.get_traced_memory()[1] < 1 << 16
            finally:
                tracemalloc.stop()
        assert cs.Graph.from_edges(92_681, []).n == 92_681

    def test_moon_moser_rows_match_its_edges(self):
        for n in (3, 6, 18, 66):
            pairs = [
                (u, v)
                for u in range(1, n + 1)
                for v in range(u + 1, n + 1)
                if (u - 1) // 3 != (v - 1) // 3
            ]
            g = cs.Graph.complete_multipartite_triples(n)
            assert g == cs.Graph.from_edges(n, pairs)
            g.validate()

    @pytest.mark.parametrize(
        "adj, message",
        [
            ((0b11, 0b01), "vertex 1 has a self-loop"),
            ((0b10, 0), "not symmetric: 2 is in the row of 1"),
            # 2 lists 1 but 1 does not list 2: only the rows' edge count shows it
            ((0, 0b01), "^adjacency is not symmetric$"),
            ((0b10,), "1 rows for n = 2"),
            ((0b110, 0b001), "vertex 1 has neighbors beyond n = 2"),
        ],
        ids=["self-loop", "asymmetric", "asymmetric-below", "row-count", "beyond-n"],
    )
    def test_malformed_rows_refused(self, adj, message):
        # the self-loop and asymmetric rows were once accepted, and the
        # asymmetric one listed a root that is_maximal_clique rejects
        with pytest.raises(ValueError, match=message):
            cs.Graph(n=2, adj=adj)

    def test_complete_matches_all_pairs(self):
        for n in range(1, 7):
            pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
            assert cs.Graph.complete(n) == cs.Graph.from_edges(n, pairs)

    def test_full_mask_is_derived(self):
        assert cs.Graph.from_edges(3, []).full_mask == 0b111
        with pytest.raises(TypeError):
            cs.Graph(n=2, adj=(0, 0), full_mask=3)
        with pytest.raises(TypeError):
            cs.Graph(n=2, adj=(0, 0), m=0)
        builds = [
            cs.Graph(n=3, adj=(0b010, 0b101, 0b010)),
            cs.Graph.from_edges(5, [(1, 2), (2, 1), (3, 3), (4, 5)]),
            cs.Graph.complete(7),
            cs.Graph.complete_multipartite_triples(9),
            cs.Graph.gnp(20, 0.3, seed=4),
        ]
        for g in builds:
            assert g.m == len(list(g.edges()))
        assert [g.m for g in builds[:4]] == [2, 2, 21, 27]

    @pytest.mark.parametrize("n", [1, 63, 64, 65, 130])
    def test_no_lower_is_derived_on_every_path(self, n):
        # no_lower holds the vertices with no lower neighbor, whichever
        # constructor built the rows; a third of the vertices stay isolated
        builds = builds_on_every_path(n)
        assert n == 1 or 0 in builds[1].adj
        for g in builds:
            lone = [v for v in range(1, g.n + 1) if g.adj[v - 1] & below_mask(v) == 0]
            assert list(iter_bits(g.no_lower)) == lone
        # edgeless: every vertex; gnp at p = 1 and complete: vertex 1 alone
        assert builds[3].no_lower == g.full_mask and builds[6].no_lower == builds[7].no_lower == 1

    @pytest.mark.parametrize("n", [1, 63, 64, 65, 130, 300])
    def test_lower_is_derived_on_every_path(self, n):
        # lower[v-1] is A_v, the row of v below v, whichever constructor built
        # the rows, and it is rect's A factor; m is counted from it on every
        # path (n = 300 packs several blocks of rows)
        for g in builds_on_every_path(n):
            assert g.lower == tuple(g.adj[v - 1] & below_mask(v) for v in range(1, g.n + 1))
            assert (cs.kernels._graph_rows(g)[0] == cs.kernels._mask_rows(g.lower, g.n)).all()
            assert g.m == len(list(g.edges()))


class TestVertexSet:
    def test_iteration_ascending(self):
        assert list(cs.VertexSet.of(9, 2, 5)) == [2, 5, 9]

    def test_len_contains_minmax(self):
        s = cs.VertexSet.of(3, 8)
        assert len(s) == 2 and 3 in s and 4 not in s
        assert min(s) == 3 and max(s) == 8

    def test_immutable(self):
        s = cs.VertexSet.of(1)
        with pytest.raises(AttributeError):
            s.bits = 3

    def test_negative_mask_refused(self):
        # a raise, not an assert: under -O a negative mask would iterate forever
        with pytest.raises(ValueError):
            cs.VertexSet(-1)

    def test_bit_helpers(self):
        assert below_mask(1) == 0
        assert list(iter_bits(0b1011)) == [1, 2, 4]
