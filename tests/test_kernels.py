import random

import pytest

import cliquestream as cs
from cliquestream import matmul, oracle
from cliquestream.graph import below_mask
from cliquestream.rs_tree import prefix_masks

from conftest import (
    BRIDGE_16,
    BRIDGE_27,
    BRIDGE_58,
    BRIDGED_CLIQUES,
    K5_SIDE,
    TRIANGLE,
    random_graphs,
)


def col(i: int, j: int, n: int) -> int:
    """Flat M_G column index for the pair (i, j), i outermost."""
    return (i - 1) * n + (j - 1)


def is_good(rows: list[list[int]], k: int, i: int, j: int) -> bool:
    """Good-table entry for batch position ``k`` and vertices ``i, j``."""
    return (rows[k][i - 1] >> (j - 1)) & 1 == 1


class TestChildrenNaive:
    def test_root_children(self, bridged):
        assert cs.children_naive(bridged, K5_SIDE, 0).indices == (6, 7, 8)

    def test_triangle_is_leaf(self, bridged):
        assert cs.children_naive(bridged, TRIANGLE, 7).indices == ()

    def test_bridge_16(self, bridged):
        assert cs.children_naive(bridged, BRIDGE_16, 6).indices == (7,)


class TestBatchMatrices:
    def test_shapes_and_root_row(self, bridged):
        mb, mg = cs.build_batch_matrices(bridged, [K5_SIDE])
        assert mb.shape == (1, 8) and mg.shape == (8, 64)
        assert mb[0].tolist() == [1, 1, 1, 1, 1, 0, 0, 0]

    def test_column_6_7(self, bridged):
        # A_6 = {1}, N(7) = {2,6,8}, so the (6,7) column is x({1})
        _, mg = cs.build_batch_matrices(bridged, [K5_SIDE])
        assert mg[:, col(6, 7, 8)].tolist() == [1, 0, 0, 0, 0, 0, 0, 0]

    def test_column_i_equals_1_is_zero(self):
        for g in random_graphs(5, seed0=900, n_hi=10):
            some = oracle.all_maximal_cliques(g)[:1]
            _, mg = cs.build_batch_matrices(g, some)
            for j in range(1, g.n + 1):
                assert not mg[:, col(1, j, g.n)].any()

    def test_count_matrix_entries_are_exact_intersections(self):
        for g in random_graphs(6, seed0=950, n_hi=10):
            batch = oracle.all_maximal_cliques(g)
            mb, mg = cs.build_batch_matrices(g, batch)
            prod = matmul.multiply(mb, mg)
            for k, p in enumerate(batch):
                for i in range(1, g.n + 1):
                    a_i = g.adj[i - 1] & below_mask(i)
                    for j in range(1, g.n + 1):
                        expect = (p.bits & a_i & ~g.adj[j - 1]).bit_count()
                        assert prod[k, col(i, j, g.n)] == expect


class TestGoodTables:
    def test_bridged_entries(self, bridged):
        rows = cs.good_table_rectangular(bridged, [K5_SIDE])
        assert is_good(rows, 0, 6, 7) is True
        assert is_good(rows, 0, 6, 2) is False
        assert is_good(rows, 0, 8, 1) is False
        assert all(not is_good(rows, 0, 1, j) for j in range(1, 9))
        tri = cs.good_table_bitset(bridged, [TRIANGLE])
        assert is_good(tri, 0, 8, 1) is True

    def test_row_i_equals_1_always_false(self):
        for g in random_graphs(5, seed0=1000, n_hi=10):
            batch = oracle.all_maximal_cliques(g)
            for rows in (
                cs.good_table_rectangular(g, batch),
                cs.good_table_bitset(g, batch),
            ):
                for k in range(len(batch)):
                    assert rows[k][0] == 0

    def test_kernels_and_oracle_agree(self):
        for g in random_graphs(12, seed0=1100, n_hi=12):
            batch = oracle.all_maximal_cliques(g)
            rect = cs.good_table_rectangular(g, batch)
            bitset = cs.good_table_bitset(g, batch)
            assert rect == bitset
            for k, p in enumerate(batch):
                for i in range(1, g.n + 1):
                    for j in range(1, g.n + 1):
                        assert is_good(rect, k, i, j) == oracle.good_pair_oracle(
                            g, p, i, j
                        )


class TestRectBlocks:
    """Rows past one 64-bit word and product blocks that split the rows
    unevenly; every other good-table test has n <= 14."""

    @pytest.mark.parametrize("n", [63, 64, 65, 130])
    def test_rect_equals_bitset(self, n, monkeypatch):
        g = cs.Graph.gnp(n, 6 / n, seed=n)
        cliques = oracle.all_maximal_cliques(g, limit=n)
        mg = cs.kernels.graph_matrix(g)
        # the default budget, one row per block, and all of M_G in one block
        for budget in (cs.kernels.BLOCK_BYTES, 1, 1 << 30):
            monkeypatch.setattr(cs.kernels, "BLOCK_BYTES", budget)
            for size in (1, 7, 64):
                batch = cliques[:size]
                assert cs.good_table_rectangular(g, batch, mg=mg) == (
                    cs.good_table_bitset(g, batch)
                )
                assert cs.children_batch(g, batch, kernel="rect", mg=mg) == (
                    cs.children_batch(g, batch, kernel="bitset")
                )

    def test_only_needed_rows_are_multiplied(self, monkeypatch):
        g = cs.Graph.gnp(70, 0.1, seed=3)
        batch = oracle.all_maximal_cliques(g, limit=70)[:9]
        mg = cs.kernels.graph_matrix(g)
        full = cs.good_table_rectangular(g, batch, mg=mg)
        products = []
        real = cs.matmul.multiply_boolean_threshold

        def counted(a, b):
            products.append(b.shape[1])
            return real(a, b)

        monkeypatch.setattr(cs.matmul, "multiply_boolean_threshold", counted)
        monkeypatch.setattr(cs.kernels, "BLOCK_BYTES", 1)  # one row per block
        rng = random.Random(4)
        for need in (0, 1, 1 << 69, rng.getrandbits(70), g.full_mask):
            counter, full_counter = cs.OpCounter(), cs.OpCounter()
            cs.good_table_rectangular(g, batch, full_counter, mg)
            products.clear()
            rows = cs.good_table_rectangular(g, batch, counter, mg, need=need)
            assert len(products) == need.bit_count()
            assert counter.ops == full_counter.ops  # the full product is priced
            for got, want in zip(rows, full):
                for i in range(1, g.n + 1):
                    assert got[i - 1] == (want[i - 1] if need >> (i - 1) & 1 else 0)

    def test_listing_past_two_words_matches_oracle(self):
        g = cs.Graph.gnp(130, 0.06, seed=7)
        events = cs.list_mc(g, kernel="rect", capacity=64)
        listed = [e.clique.bits for e in events if e.kind == cs.CLIQUE_COLLECTED]
        assert len(listed) == len(set(listed))
        assert set(listed) == {c.bits for c in oracle.all_maximal_cliques(g, limit=130)}

    @pytest.mark.parametrize("parents", [1, 3])
    def test_slices_match_one_product(self, parents, monkeypatch):
        g = cs.Graph.gnp(70, 0.1, seed=5)
        batch = oracle.all_maximal_cliques(g, limit=70)[:10]
        whole = cs.OpCounter()
        want = cs.children_batch(g, batch, kernel="rect", counter=whole)
        rows_per_parent = 8 * g.n * cs.rs_tree.words(g.n)
        monkeypatch.setattr(cs.kernels, "RECT_ROWS_BYTES", parents * rows_per_parent)
        calls = []
        real = cs.kernels.good_table_rectangular

        def counted(g, cliques, *args, **kwargs):
            calls.append(len(cliques))
            return real(g, cliques, *args, **kwargs)

        monkeypatch.setattr(cs.kernels, "good_table_rectangular", counted)
        sliced = cs.OpCounter()
        assert cs.children_batch(g, batch, kernel="rect", counter=sliced) == want
        assert sliced.ops == whole.ops
        assert max(calls) == parents and sum(calls) == len(batch)

    def test_default_capacity_past_old_row_budget(self):
        # n^2 parents of n = 110 have rows past RECT_ROWS_BYTES
        g = cs.Graph.gnp(110, 0.1, seed=2)
        rect, bitset = (
            [e.clique.bits for e in cs.list_mc(g, kernel=k) if e.kind == cs.CLIQUE_COLLECTED]
            for k in ("rect", "bitset")
        )
        assert rect == bitset
        assert set(rect) == {c.bits for c in oracle.all_maximal_cliques(g, limit=110)}

    def test_oversized_graph_matrix_refused_before_listing(self, monkeypatch):
        def not_built(*args, **kwargs):
            raise AssertionError("built before the graph matrix check")

        monkeypatch.setattr(cs.delay_scheduler, "root", not_built)
        monkeypatch.setattr(cs.delay_scheduler, "graph_matrix", not_built)
        monkeypatch.setattr(cs.kernels, "graph_matrix", not_built)
        with pytest.raises(ValueError, match="--kernel bitset"):
            cs.list_mc(cs.Graph.edgeless(1100), kernel="rect", capacity=1)
        with pytest.raises(ValueError, match="over 1 GiB"):
            cs.kernels.check_graph_matrix(1025)
        cs.kernels.check_graph_matrix(1024)


class TestAdjacentToOwnPrefix:
    def test_matches_definition(self):
        rng = random.Random(1700)
        for g in random_graphs(30, seed0=1700, n_hi=14):
            sets = oracle.all_maximal_cliques(g)
            sets += [cs.VertexSet(rng.getrandbits(g.n)) for _ in range(10)]
            for p in sets:
                expect = near = 0
                for j in range(1, g.n + 1):
                    members_below = [u for u in range(1, j) if u in p]
                    if all(g.has_edge(u, j) for u in members_below):
                        expect |= 1 << (j - 1)
                    if any(g.has_edge(u, j) for u in p):
                        near |= 1 << (j - 1)
                assert prefix_masks(g, p) == (expect, near)


class TestFilterChildren:
    def test_bridged_root_and_leaf(self, bridged):
        rows = cs.good_table_bitset(bridged, [K5_SIDE, TRIANGLE])
        assert cs.filter_children(bridged, K5_SIDE, 0, rows[0]).indices == (6, 7, 8)
        assert cs.filter_children(bridged, TRIANGLE, 7, rows[1]).indices == ()

    def test_matches_children_naive(self):
        for g in random_graphs(20, seed0=1200, n_hi=12):
            batch = oracle.all_maximal_cliques(g)
            rows = cs.good_table_bitset(g, batch)
            for k, p in enumerate(batch):
                index = cs.clique_index(g, p) or 0
                got = cs.filter_children(g, p, index, rows[k])
                assert got == cs.children_naive(g, p, index)

    def test_lazy_rows_with_given_index_match_rows_and_naive(self):
        rng = random.Random(1250)
        for g in random_graphs(40, seed0=1250, n_hi=14):
            cliques = oracle.all_maximal_cliques(g)
            batch = rng.sample(cliques, rng.randint(1, len(cliques)))
            rows = cs.good_table_bitset(g, batch)
            for k, p in enumerate(batch):
                index = cs.clique_index(g, p) or 0
                lazy = cs.filter_children(g, p, index)
                assert lazy == cs.filter_children(g, p, index, rows[k])
                assert lazy == cs.children_naive(g, p, index)

    def test_lazy_rows_never_read_more_than_the_table(self):
        counter_lazy, counter_rows = cs.OpCounter(), cs.OpCounter()
        for g in random_graphs(10, seed0=1270, n_hi=14):
            batch = oracle.all_maximal_cliques(g)
            rows = cs.good_table_bitset(g, batch, counter=counter_rows)
            for k, p in enumerate(batch):
                index = cs.clique_index(g, p) or 0
                cs.filter_children(g, p, index, None, counter_lazy)
                cs.filter_children(g, p, index, rows[k], counter_rows)
        assert 0 < counter_lazy.ops < counter_rows.ops


def carried_pairs(g, monkeypatch):
    """(clique, index) for every clique a bitset ``list_mc`` of ``g`` pops,
    with the index the traversal carries for it."""
    pairs = []
    real = cs.delay_scheduler.children_batch

    def record(g, cliques, **kwargs):
        pairs.extend(zip(cliques, kwargs["indices"]))
        return real(g, cliques, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(cs.delay_scheduler, "children_batch", record)
        for _ in cs.list_mc(g):
            pass
    return pairs


class TestCandidateCut:
    """A non-root parent P has no child at i unless ``P_{<i} & N(i)`` is
    non-empty, so ``filter_children`` scans only the neighbors of P."""

    def test_naive_children_have_a_neighbor_below(self):
        graphs = list(random_graphs(60, seed0=1800, n_hi=14))
        graphs.append(cs.Graph.complete_multipartite_triples(9))
        cut = accepted = 0
        for g in graphs:
            for p in oracle.all_maximal_cliques(g)[1:]:
                index = cs.clique_index(g, p)
                children = cs.children_naive(g, p, index).indices
                for i in range(index + 1, g.n + 1):
                    if i not in p and p.bits & below_mask(i) & g.adj[i - 1] == 0:
                        assert i not in children
                        cut += 1
                accepted += len(children)
        assert cut > 0 and accepted > 0

    @pytest.mark.parametrize("n", [60, 150, 300])
    @pytest.mark.parametrize("c", [3, 8])
    def test_matches_children_naive_on_sparse_listings(self, n, c, monkeypatch):
        g = cs.Graph.gnp(n, c / n, seed=n + c)
        pairs = carried_pairs(g, monkeypatch)
        assert len(pairs) == len(oracle.all_maximal_cliques(g, limit=n))
        for p, index in pairs:
            assert cs.filter_children(g, p, index) == cs.children_naive(g, p, index)

    def test_units_per_clique_do_not_grow_with_n(self):
        # deterministic work units, not wall time: before the cut, every
        # parent paid for all n candidates and this ratio was 7.7
        per_word = []
        for n in (250, 2000):
            g = cs.Graph.gnp(n, 8 / n, seed=n)
            units = cliques = 0
            for event in cs.list_mc(g):
                units += event.cost
                cliques += event.kind == cs.CLIQUE_COLLECTED
            per_word.append(units / cliques / cs.rs_tree.words(n))
        assert per_word[1] <= 1.25 * per_word[0]


class TestChildrenBatch:
    def test_bridged_batches(self, bridged):
        specs = cs.children_batch(
            bridged, [K5_SIDE, BRIDGE_16, BRIDGE_27, BRIDGE_58], kernel="rect"
        )
        assert [s.indices for s in specs] == [(6, 7, 8), (7,), (), ()]
        assert cs.children_batch(bridged, [TRIANGLE])[0].indices == ()

    def test_edgeless_root_children(self):
        g = cs.Graph.edgeless(3)
        specs = cs.children_batch(g, [cs.root(g)])
        assert specs[0].indices == (2, 3)

    def test_kernel_extensional_equality(self):
        for g in random_graphs(200, seed0=1300):
            batch = oracle.all_maximal_cliques(g)
            naive = [cs.children_naive(g, p, cs.clique_index(g, p) or 0) for p in batch]
            for kernel in ("rect", "bitset"):
                assert cs.children_batch(g, batch, kernel=kernel) == naive

    def test_matches_children_oracle(self):
        for g in random_graphs(10, seed0=1400, n_hi=11):
            cliques = oracle.all_maximal_cliques(g)
            specs = cs.children_batch(g, cliques, kernel="bitset")
            for p, spec in zip(cliques, specs):
                assert spec == oracle.children_oracle(g, p, cliques)

    def test_child_parent_round_trip(self):
        for g in random_graphs(20, seed0=1500):
            cliques = oracle.all_maximal_cliques(g)
            for spec in cs.children_batch(g, cliques):
                for i in spec.indices:
                    c = cs.child(g, spec.parent, i)
                    assert cs.clique_index(g, c) == i
                    assert cs.parent(g, c) == spec.parent

    def test_completeness(self):
        # root plus all accepted children cover the clique set exactly
        for g in random_graphs(20, seed0=1600, n_hi=12):
            cliques = oracle.all_maximal_cliques(g)
            reached = {cliques[0].bits}
            for spec in cs.children_batch(g, cliques):
                for i in spec.indices:
                    reached.add(cs.child(g, spec.parent, i).bits)
            assert reached == {c.bits for c in cliques}

    def test_rejects_bad_input(self, bridged):
        with pytest.raises(AssertionError):
            cs.children_batch(bridged, [])
        with pytest.raises(AssertionError):
            cs.children_batch(bridged, [K5_SIDE, K5_SIDE])
        with pytest.raises(ValueError):
            cs.children_batch(bridged, [K5_SIDE], kernel="fft")

    def test_given_indices_match_recomputed(self):
        for g in random_graphs(30, seed0=1650, n_hi=12):
            batch = oracle.all_maximal_cliques(g)
            indices = [cs.clique_index(g, p) or 0 for p in batch]
            for kernel in ("rect", "bitset"):
                assert cs.children_batch(
                    g, batch, kernel=kernel, indices=indices
                ) == cs.children_batch(g, batch, kernel=kernel)

    def test_prebuilt_graph_matrix_matches(self):
        for g in random_graphs(10, seed0=1660, n_hi=12):
            batch = oracle.all_maximal_cliques(g)
            mg = cs.kernels.graph_matrix(g)
            assert cs.children_batch(g, batch, kernel="rect", mg=mg) == (
                cs.children_batch(g, batch, kernel="rect")
            )
            c_built, c_given = cs.OpCounter(), cs.OpCounter()
            cs.good_table_rectangular(g, batch, c_built)
            cs.good_table_rectangular(g, batch, c_given, mg=mg)
            graph_units = cs.OpCounter()
            cs.kernels.graph_matrix(g, graph_units)
            assert c_built.ops == c_given.ops + graph_units.ops

    def test_counter_charges_work(self, bridged):
        counter = cs.OpCounter()
        cs.children_batch(bridged, BRIDGED_CLIQUES, kernel="bitset", counter=counter)
        assert counter.ops > 0
