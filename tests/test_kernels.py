import dataclasses
import gc
import inspect
import math
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cliquestream as cs
from cliquestream import matmul, oracle
from cliquestream.graph import below_mask
from cliquestream.rs_tree import prefix_masks

import reference
from conftest import (
    BRIDGE_16,
    BRIDGE_27,
    BRIDGE_58,
    BRIDGED_CLIQUES,
    K5_SIDE,
    TRIANGLE,
    collect_plain,
    index_of,
    oracle_masks,
    random_graphs,
    sparse_with_isolated,
    watch_children_steps,
)

# the fixture cliques as the kernels take them
K5, B16, B27, B58, TRI = (c.bits for c in (K5_SIDE, BRIDGE_16, BRIDGE_27, BRIDGE_58, TRIANGLE))


def col(i: int, j: int, n: int) -> int:
    """Flat M_G column index for the pair (i, j), i outermost."""
    return (i - 1) * n + (j - 1)


def is_good(rows: list[list[int]], k: int, i: int, j: int) -> bool:
    """Good-table entry for batch position ``k`` and vertices ``i, j``."""
    return (rows[k][i - 1] >> (j - 1)) & 1 == 1


class TestChildrenNaive:
    def test_root_children(self, bridged):
        assert cs.kernels.children_naive(bridged, K5, 0).indices == (6, 7, 8)

    def test_triangle_is_leaf(self, bridged):
        assert cs.kernels.children_naive(bridged, TRI, 7).indices == ()

    def test_bridge_16(self, bridged):
        assert cs.kernels.children_naive(bridged, B16, 6).indices == (7,)


class TestBatchMatrices:
    def test_shapes_and_root_row(self, bridged):
        mb, mg = cs.kernels.build_batch_matrices(bridged, [K5])
        assert mb.shape == (1, 8) and mg.shape == (8, 64)
        assert mb[0].tolist() == [1, 1, 1, 1, 1, 0, 0, 0]

    def test_column_6_7(self, bridged):
        # A_6 = {1}, N(7) = {2,6,8}, so the (6,7) column is x({1})
        _, mg = cs.kernels.build_batch_matrices(bridged, [K5])
        assert mg[:, col(6, 7, 8)].tolist() == [1, 0, 0, 0, 0, 0, 0, 0]

    def test_column_i_equals_1_is_zero(self):
        for g in random_graphs(5, seed0=900, n_hi=10):
            some = oracle_masks(g)[:1]
            _, mg = cs.kernels.build_batch_matrices(g, some)
            for j in range(1, g.n + 1):
                assert not mg[:, col(1, j, g.n)].any()

    def test_count_matrix_entries_are_exact_intersections(self):
        for g in random_graphs(6, seed0=950, n_hi=10):
            batch = oracle_masks(g)
            mb, mg = cs.kernels.build_batch_matrices(g, batch)
            prod = matmul.multiply(mb, mg)
            for k, p in enumerate(batch):
                for i in range(1, g.n + 1):
                    a_i = g.adj[i - 1] & below_mask(i)
                    for j in range(1, g.n + 1):
                        expect = (p & a_i & ~g.adj[j - 1]).bit_count()
                        assert prod[k, col(i, j, g.n)] == expect

    def test_graph_matrix_over_the_budget_refused_before_allocating(self):
        # M_G and its float32 copy take 5 n^3 bytes: 5 * 598^3 fits 1 GiB,
        # 5 * 599^3 passes it
        g = cs.Graph.from_edges(599, [])
        for build in (cs.kernels.build_batch_matrices, cs.kernels.good_table_rectangular):
            tracemalloc.start()
            try:
                with pytest.raises(ValueError, match="past 1 GiB"):
                    build(g, [0b1])
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1 << 16


class TestGoodTables:
    def test_bridged_entries(self, bridged):
        rows = cs.kernels.good_table_rectangular(bridged, [K5])
        assert is_good(rows, 0, 6, 7) is True
        assert is_good(rows, 0, 6, 2) is False
        assert is_good(rows, 0, 8, 1) is False
        assert all(not is_good(rows, 0, 1, j) for j in range(1, 9))
        tri = cs.kernels.good_table_bitset(bridged, [TRI])
        assert is_good(tri, 0, 8, 1) is True

    def test_row_i_equals_1_always_false(self):
        for g in random_graphs(5, seed0=1000, n_hi=10):
            batch = oracle_masks(g)
            for rows in (
                cs.kernels.good_table_rectangular(g, batch),
                cs.kernels.good_table_bitset(g, batch),
            ):
                for k in range(len(batch)):
                    assert rows[k][0] == 0

    def test_kernels_and_oracle_agree(self):
        for g in random_graphs(12, seed0=1100, n_hi=12):
            cliques = oracle.all_maximal_cliques(g)
            batch = [c.bits for c in cliques]
            rect = cs.kernels.good_table_rectangular(g, batch)
            bitset = cs.kernels.good_table_bitset(g, batch)
            assert rect == bitset
            for k, p in enumerate(cliques):
                for i in range(1, g.n + 1):
                    for j in range(1, g.n + 1):
                        assert is_good(rect, k, i, j) == reference.good_pair_oracle(
                            g, p, i, j
                        )

    def test_rectangular_peak_is_the_graph_matrix(self):
        # M_G's n^3 bytes and the float32 copy its product makes, beside the
        # |B| x n^2 product
        n = 100
        g = cs.Graph.gnp(n, 0.1, seed=4)
        batch = oracle_masks(g, limit=n)[:4]
        assert len(batch) == 4
        tracemalloc.start()
        try:
            cs.kernels.good_table_rectangular(g, batch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 5 * n**3 <= peak < 5 * n**3 + (1 << 18)


def rect_charge(g, cliques, indices) -> int:
    """What "rect" charges for a batch: ``(3|P| + 4 + 6 * candidates)``
    words per parent for its candidates inside ``N(P)``, and one more for a
    root with candidates outside ``N(root)``, as ``filter_children`` with
    good rows does, plus the full product's ``1 + n^2`` words per parent."""
    units = 0
    for p, index in zip(cliques, indices):
        _, near = prefix_masks(g, p)
        cand = near & ~p & -(1 << index)
        far = index == 0 and (g.full_mask & ~(p | near)) != 0
        units += 3 * p.bit_count() + 4 + 6 * cand.bit_count() + far + 1 + g.n * g.n
    return units * cs.rs_tree.words(g.n)


class TestRectBlocks:
    """Rows past one 64-bit word and product chunks that split the needed
    rows unevenly; every other good-table test has n <= 14."""

    def test_factored_rows_match_explicit_product(self):
        # column block i of M_G is diag(A_i) @ Nc.T, the identity behind the
        # listing's product of the rows P & A_i with Nc.T
        rng = random.Random(1500)
        for n in (5, 17, 64, 65, 130):
            g = cs.Graph.gnp(n, rng.uniform(0.05, 0.5), seed=n)
            cliques = oracle_masks(g, limit=n)
            batch = rng.sample(cliques, min(len(cliques), 9))
            mb, mg = cs.kernels.build_batch_matrices(g, batch)
            a_rows, nc_t = cs.kernels.graph_factors(g)
            non_adj_t = nc_t.matrix.astype(bool)
            product = matmul.multiply_boolean_threshold(mb, mg)
            for i in range(n):
                block = slice(i * n, (i + 1) * n)
                assert (mg[:, block] == (a_rows[i][:, None] & non_adj_t)).all()
                # so block i of M_B @ M_G is (M_B & A_i) @ Nc.T
                left = mb & a_rows[i]
                assert (product[:, block] == matmul.multiply_boolean_threshold(left, nc_t)).all()

    @pytest.mark.parametrize("n", [63, 64, 65, 130])
    def test_rect_equals_bitset(self, n, monkeypatch):
        g = cs.Graph.gnp(n, 6 / n, seed=n)
        cliques = oracle_masks(g, limit=n)
        factors = cs.kernels.graph_factors(g)
        # the default chunk, one row per chunk, and every row in one chunk
        floor = cs.kernels.CHUNK_ROWS
        for budget, rows in ((cs.kernels.BLOCK_BYTES, floor), (1, 1), (1 << 30, floor)):
            monkeypatch.setattr(cs.kernels, "BLOCK_BYTES", budget)
            monkeypatch.setattr(cs.kernels, "CHUNK_ROWS", rows)
            for size in (1, 7, 64):
                batch = cliques[:size]
                assert cs.kernels.good_table_rectangular(g, batch) == (
                    cs.kernels.good_table_bitset(g, batch)
                )
                indices = [index_of(g, p) for p in batch]
                rect = list(cs.kernels.children_rect(g, batch, indices, factors))
                bitset = cs.kernels.children_batch(g, batch, kernel="bitset")
                assert rect == [spec.children for spec in bitset]

    def test_only_needed_rows_are_multiplied(self, monkeypatch):
        # a parent's rows are multiplied only for its candidates inside N(P)
        g = cs.Graph.gnp(70, 0.1, seed=3)
        batch = oracle_masks(g, limit=70)[:9]
        indices = [index_of(g, p) for p in batch]
        factors = cs.kernels.graph_factors(g)
        want = [s.children for s in cs.kernels.children_batch(g, batch, "bitset", None, indices)]
        need = 0
        for p, index in zip(batch, indices):
            _, near = prefix_masks(g, p)
            need += (near & ~p & -(1 << index)).bit_count()
        products = []
        real = cs.matmul.multiply_boolean_threshold

        def counted(a, b):
            if b is factors[1]:
                products.append(a.shape[0])
            return real(a, b)

        monkeypatch.setattr(cs.matmul, "multiply_boolean_threshold", counted)
        monkeypatch.setattr(cs.kernels, "BLOCK_BYTES", 1)
        for rows in (1, cs.kernels.CHUNK_ROWS):  # one row per chunk, and the floor
            monkeypatch.setattr(cs.kernels, "CHUNK_ROWS", rows)
            products.clear()
            counter = cs.OpCounter()
            got = list(cs.kernels.children_rect(g, batch, indices, factors, counter))
            assert sum(products) == need < len(batch) * g.n
            assert max(products) <= rows
            assert counter.ops == rect_charge(g, batch, indices)  # the full product is priced
            assert got == want

    def test_root_multiplies_only_its_neighbourhood(self, monkeypatch):
        # a row i outside N(root) is 0, since root_{<i} & N(i) is empty; the
        # rows passed to the product with Nc.T are counted, whatever the chunks
        g = cs.Graph.gnp(200, 0.05, seed=13)
        r = cs.rs_tree.root(g).bits
        factors = cs.kernels.graph_factors(g)
        want = [cs.kernels.children_naive(g, r, 0).children]
        rows = []
        real = cs.matmul.multiply_boolean_threshold

        def counted(a, b):
            if b is factors[1]:
                rows.append(a.shape[0])
            return real(a, b)

        monkeypatch.setattr(cs.matmul, "multiply_boolean_threshold", counted)
        counter = cs.OpCounter()
        got = list(cs.kernels.children_rect(g, [r], [0], factors, counter))
        _, near = prefix_masks(g, r)
        assert sum(rows) == (near & ~r).bit_count() < g.n - r.bit_count()
        assert got == want and counter.ops == rect_charge(g, [r], [0])

    def test_listing_past_two_words_matches_oracle(self):
        g = cs.Graph.gnp(130, 0.06, seed=7)
        events = cs.list_mc(g, kernel="rect", capacity=64)
        listed = [e.clique.bits for e in events if e.kind == cs.CLIQUE_COLLECTED]
        assert len(listed) == len(set(listed))
        assert set(listed) == {c.bits for c in oracle.all_maximal_cliques(g, limit=130)}

    # 0: one parent's 16 n bytes pass the budget, so every slice holds one
    # parent
    @pytest.mark.parametrize("parents", [0, 1, 3])
    def test_slices_match_one_product(self, parents, monkeypatch):
        # slices change neither the specs nor their charge, and the one
        # product of a "rect" listing is that of the rows P & A_i with Nc.T
        g = cs.Graph.gnp(70, 0.1, seed=5)
        batch = oracle_masks(g, limit=70)[:10]
        factors = cs.kernels.graph_factors(g)
        indices = [index_of(g, p) for p in batch]
        whole = cs.OpCounter()
        want = list(cs.kernels.children_rect(g, batch, indices, factors, whole))
        monkeypatch.setattr(cs.kernels, "RECT_ROWS_BYTES", parents * 16 * g.n)
        slices, rights, built = [], [], []
        real_slice, real_product = cs.kernels._rect_slice, cs.matmul.multiply_boolean_threshold
        real_factors = cs.delay_scheduler.graph_factors

        def sliced_rows(g, part, *masks):
            slices.append(len(part))
            return real_slice(g, part, *masks)

        def product(a, b):
            rights.append(b)
            return real_product(a, b)

        def graph_factors(g, counter):
            built.append(real_factors(g, counter))
            return built[-1]

        monkeypatch.setattr(cs.kernels, "_rect_slice", sliced_rows)
        monkeypatch.setattr(cs.matmul, "multiply_boolean_threshold", product)
        monkeypatch.setattr(cs.delay_scheduler, "graph_factors", graph_factors)
        sliced = cs.OpCounter()
        assert list(cs.kernels.children_rect(g, batch, indices, factors, sliced)) == want
        assert sliced.ops == whole.ops
        assert max(slices) == max(1, parents) and sum(slices) == len(batch)
        assert rights and all(b is factors[1] for b in rights)
        for capacity in (7, g.n * g.n):
            rights.clear()
            built.clear()
            listed = [c.bits for c in collect_plain(g, kernel="rect", capacity=capacity)]
            assert set(listed) == set(oracle_masks(g, limit=70))
            assert len(built) == 1 and rights and all(b is built[0][1] for b in rights)

    def test_default_capacity_past_old_row_budget(self):
        # n^2 parents of n = 110 have rows past RECT_ROWS_BYTES
        g = cs.Graph.gnp(110, 0.1, seed=2)
        rect, bitset = (
            [e.clique.bits for e in cs.list_mc(g, kernel=k) if e.kind == cs.CLIQUE_COLLECTED]
            for k in ("rect", "bitset")
        )
        assert rect == bitset
        assert set(rect) == {c.bits for c in oracle.all_maximal_cliques(g, limit=110)}

    def test_lists_past_the_size_of_an_n_cubed_graph_matrix(self, monkeypatch):
        # at n = 1100 an explicit M_G would take 1.2 GiB; the listing builds
        # only its two n x n factors
        def not_built(*args, **kwargs):
            raise AssertionError("the explicit graph matrix was built")

        monkeypatch.setattr(cs.kernels, "build_batch_matrices", not_built)
        g = cs.Graph.from_edges(1100, [(2 * k - 1, 2 * k) for k in range(1, 551)])
        rect, bitset = (
            [e.clique.bits for e in cs.list_mc(g, kernel=k) if e.kind == cs.CLIQUE_COLLECTED]
            for k in ("rect", "bitset")
        )
        assert rect == bitset
        assert set(rect) == {0b11 << (2 * k) for k in range(550)}


def listing_batches(g, capacity, monkeypatch):
    """(cliques, indices) of every children step of a bitset ``list_mc`` of
    ``g`` at ``capacity``."""
    batches = []

    def record(g, cliques, indices):
        batches.append((list(cliques), list(indices)))

    with monkeypatch.context() as m:
        watch_children_steps(m, record)
        for _ in cs.list_mc(g, capacity=capacity):
            pass
    return batches


def step_graphs(n):
    """Seeded graphs on n vertices.  The edgeless one and the sparse gnp are
    disconnected, with isolated vertices, so the root has children outside
    N(root)."""
    return [
        cs.Graph.from_edges(n, []),
        cs.Graph.gnp(n, min(1.0, 1.5 / n), seed=n),
        cs.Graph.gnp(n, min(0.5, 6 / n), seed=n + 1),
    ]


class TestBatchStep:
    """``rect``'s numpy children step on every batch of real listings."""

    @pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 130])
    def test_rect_equals_bitset_equals_naive(self, n, monkeypatch):
        outside_root = 0
        for g in step_graphs(n):
            factors = cs.kernels.graph_factors(g)
            naive = {}
            for capacity in (1, 7, n * n):
                for batch, indices in listing_batches(g, capacity, monkeypatch):
                    for p, index in zip(batch, indices):
                        if p not in naive:
                            naive[p] = cs.kernels.children_naive(g, p, index).children
                    bitset = cs.kernels.children_batch(g, batch, "bitset", None, indices)
                    counter = cs.OpCounter()
                    rect = list(cs.kernels.children_rect(g, batch, indices, factors, counter))
                    assert rect == [s.children for s in bitset] == [naive[p] for p in batch]
                    assert counter.ops == rect_charge(g, batch, indices)
                    sliced = cs.OpCounter()
                    with monkeypatch.context() as m:
                        m.setattr(cs.kernels, "RECT_ROWS_BYTES", 16 * n)  # one parent each
                        assert rect == list(
                            cs.kernels.children_rect(g, batch, indices, factors, sliced)
                        )
                    assert sliced.ops == counter.ops
                    if indices[0] == 0:
                        _, near = prefix_masks(g, batch[0])
                        root_children = cs.VertexSet(rect[0])
                        outside_root += sum(not near >> (i - 1) & 1 for i in root_children)
        assert outside_root > 0 or n == 1

    def test_step_peak_stays_in_its_budgets(self, monkeypatch):
        n = 300
        g = cs.Graph.gnp(n, 0.05, seed=4)
        batches = listing_batches(g, 64, monkeypatch)
        batch, indices = next((b, i) for b, i in batches if len(b) == 64 and i[0])
        factors = cs.kernels.graph_factors(g)
        tracemalloc.start()
        try:
            list(cs.kernels.children_rect(g, batch, indices, factors))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        rows = max(cs.kernels.CHUNK_ROWS, cs.kernels.BLOCK_BYTES // (12 * n))
        # a chunk's 12 n bytes per row beside the slice's 16 n per parent
        assert peak < 12 * n * rows + 16 * n * len(batch)


class TestRectStream:
    """``children_rect``, the lazy step a "rect" listing stacks: the child
    masks of ``children_batch`` and ``children_naive`` in the order handed in, a
    batch's charge split over its releases, and chunks decided only as
    parents are read."""

    @staticmethod
    def read(g, masks, indices, factors):
        """The stream's child masks, and the counter's growth at each of them."""
        counter = cs.OpCounter()
        specs, charges = [], []
        stream = cs.kernels.children_rect(g, masks, indices, factors, counter)
        while True:
            before = counter.ops
            children = next(stream, None)
            if children is None:
                assert counter.ops == before  # nothing is charged after the last mask
                return specs, charges
            specs.append(children)
            charges.append(counter.ops - before)

    @pytest.mark.parametrize("n", [1, 2, 30, 65])
    def test_stream_equals_batch_and_naive(self, n, monkeypatch):
        graphs = step_graphs(n) + [cs.Graph.gnp(n, 0.5, seed=n + 2)]
        for g in graphs:
            factors = cs.kernels.graph_factors(g)
            naive = {}
            for capacity in sorted({1, 7, 64, n * n}):
                for batch, indices in listing_batches(g, capacity, monkeypatch):
                    for p, index in zip(batch, indices):
                        if p not in naive:
                            naive[p] = cs.kernels.children_naive(g, p, index).children
                    want = [naive[p] for p in batch]
                    charge = rect_charge(g, batch, indices)
                    listed = cs.kernels.children_batch(g, batch, "rect", None, indices)
                    assert [(s.parent, s.children) for s in listed] == list(zip(batch, want))
                    # strict mode hands lists in batch order
                    specs, charges = self.read(g, batch, indices, factors)
                    assert specs == want and sum(charges) == charge
                    # plain mode hands tuples last parent first
                    last_first = tuple(batch[::-1]), tuple(indices[::-1])
                    specs, charges = self.read(g, *last_first, factors)
                    assert specs == want[::-1] and sum(charges) == charge
                    # three parents a slice
                    with monkeypatch.context() as m:
                        m.setattr(cs.kernels, "RECT_ROWS_BYTES", 3 * 16 * n)
                        specs, charges = self.read(g, batch, indices, factors)
                    assert specs == want and sum(charges) == charge

    @pytest.mark.parametrize(
        "g", [cs.Graph.gnp(60, 0.3, seed=1), cs.Graph.gnp(40, 0.5, seed=1)], ids=["gnp60", "gnp40"]
    )
    def test_released_slots_are_zeroed(self, g):
        # a released parent's child mask is never read again, so the stream
        # holds none: after each read, every slot below `released` is 0
        masks = [c.bits for c in collect_plain(g)[:300]]
        indices = [cs.rs_tree.clique_index(g, cs.VertexSet(p)) or 0 for p in masks]
        stream = cs.kernels.children_rect(g, masks, indices, cs.kernels.graph_factors(g))
        reads = 0
        for reads, _ in enumerate(stream, 1):
            held = stream.gi_frame.f_locals
            assert not any(held["children"][: held["released"]]), reads
            # one slice, built at the first read: the prefix_masks fallback is dropped too
            assert held["found"] is held["nears"] is held["outsides"] is None
        assert reads == len(masks) == 300

    @pytest.mark.parametrize("parents", [None, 3], ids=["one-slice", "three-a-slice"])
    @pytest.mark.parametrize("paced", [False, True], ids=["plain", "paced"])
    @pytest.mark.parametrize(
        "g, capacity",
        [(cs.Graph.complete_multipartite_triples(15), 7), (cs.Graph.gnp(60, 0.3, seed=1), 64)],
        ids=["moon-moser15", "gnp60"],
    )
    def test_built_steps_drop_their_near_and_outside_sets(
        self, g, capacity, paced, parents, monkeypatch
    ):
        # once a step's last slice is built, no generator (the step's own, the
        # traversal's) refers to the N(P) and outside tuples it was handed,
        # directly or through a tuple such as the traversal's step
        if parents is not None:
            monkeypatch.setattr(cs.kernels, "RECT_ROWS_BYTES", parents * 16 * g.n)
        size = max(1, cs.kernels.RECT_ROWS_BYTES // (16 * g.n))
        real = cs.kernels.children_rect
        steps = []  # per step: its nears and outsides, the reads that build its last slice, reads

        def counted(stream, step):
            for children in stream:
                step[3] += 1
                yield children

        def recorded(g, masks, indices, factors, counter, nears, outsides):
            step = [nears, outsides, (len(masks) - 1) // size * size + 1, 0]
            steps.append(step)
            return counted(real(g, masks, indices, factors, counter, nears, outsides), step)

        monkeypatch.setattr(cs.kernels, "children_rect", recorded)
        checked, kind = 0, None
        for event in cs.delay_scheduler._listing(g, "rect", capacity, None, paced):
            previous, kind = kind, event.kind
            if cs.BATCH_COMPLETED not in (previous, kind):  # a batch's end and the event after it
                continue
            built = [t for step in steps if step[3] >= step[2] for t in step[:2]]
            ours = {id(step) for step in steps}
            referrers = [r for r in gc.get_referrers(*built) if id(r) not in ours]
            holders = referrers + gc.get_referrers(*(r for r in referrers if type(r) is tuple))
            assert not [r for r in holders if inspect.isgenerator(r) or inspect.isframe(r)]
            checked += len(built) // 2
        assert all(step[3] >= step[2] for step in steps) and checked > len(steps)

    @pytest.mark.parametrize("n", [30, 65, 130])
    def test_popped_masks_match_the_fallback_and_naive(self, n, monkeypatch):
        # a listing hands each step the N(P) and outside sets its pops found;
        # the stream must equal the one that derives them with prefix_masks,
        # mask for mask and unit for unit
        g = sparse_with_isolated(n)
        factors = cs.kernels.graph_factors(g)
        real = cs.kernels.children_rect
        steps, naive = [], {}

        def recorded(g, masks, indices, factors, counter, nears, outsides):
            steps.append((masks, indices, nears, outsides))
            return real(g, masks, indices, factors, counter, nears, outsides)

        monkeypatch.setattr(cs.kernels, "children_rect", recorded)
        for capacity in (1, 7, n * n):
            steps.clear()
            collect_plain(g, kernel="rect", capacity=capacity)
            assert steps[0][:2] == ((cs.rs_tree.root(g).bits,), (0,))  # the root's step
            for masks, indices, nears, outsides in steps:
                for p, index in zip(masks, indices):
                    if p not in naive:
                        naive[p] = cs.kernels.children_naive(g, p, index).children
                popped, fallback = cs.OpCounter(), cs.OpCounter()
                specs = list(real(g, masks, indices, factors, popped, nears, outsides))
                assert specs == list(real(g, masks, indices, factors, fallback))
                assert specs == [naive[p] for p in masks]
                assert popped.ops == fallback.ops == rect_charge(g, masks, indices)

    def test_root_batches_and_slices(self, monkeypatch):
        # roots beside other parents, in every slice, with children outside N(root)
        g = cs.Graph.gnp(40, 0.08, seed=6)
        r = cs.rs_tree.root(g).bits
        others = [p for p in oracle_masks(g, limit=40) if p != r][:8]
        batch = [r, *others[:4], r, *others[4:]]  # the stream takes what it is handed
        indices = [0 if p == r else index_of(g, p) for p in batch]
        want = [cs.kernels.children_naive(g, p, i).children for p, i in zip(batch, indices)]
        _, near = prefix_masks(g, r)
        assert any(not near >> (i - 1) & 1 for i in cs.VertexSet(want[0]))
        factors = cs.kernels.graph_factors(g)
        for parents in (1, 2, 3, len(batch)):
            monkeypatch.setattr(cs.kernels, "RECT_ROWS_BYTES", parents * 16 * g.n)
            for rows in (1, cs.kernels.CHUNK_ROWS):
                monkeypatch.setattr(cs.kernels, "CHUNK_ROWS", rows)
                monkeypatch.setattr(cs.kernels, "BLOCK_BYTES", 1)
                specs, charges = self.read(g, batch, indices, factors)
                assert specs == want and sum(charges) == rect_charge(g, batch, indices)

    def test_chunks_are_decided_as_parents_are_read(self, monkeypatch):
        # one pair a chunk: reading parent k's spec decides exactly the pairs
        # of the parents up to k, and each release charges its own chunk
        g = cs.Graph.gnp(50, 0.3, seed=9)
        cliques = oracle_masks(g, limit=50)
        indices = [index_of(g, p) for p in cliques]
        none = [p for p, i in zip(cliques, indices) if not prefix_masks(g, p)[1] & ~p & -(1 << i)]
        some = [p for p, i in zip(cliques, indices) if i and p not in none]  # no root
        # parents without pairs first, between others, twice in a row and last
        batch = [none[0], some[0], none[1], some[1], some[2], none[2], none[3], some[3], none[4]]
        indices = [index_of(g, p) for p in batch]
        factors = cs.kernels.graph_factors(g)
        monkeypatch.setattr(cs.kernels, "CHUNK_ROWS", 1)
        monkeypatch.setattr(cs.kernels, "BLOCK_BYTES", 1)
        rows = []
        real = cs.matmul.multiply_boolean_threshold

        def counted(a, b):
            if b is factors[1]:
                rows.append(a.shape[0])
            return real(a, b)

        monkeypatch.setattr(cs.matmul, "multiply_boolean_threshold", counted)
        near = [prefix_masks(g, p)[1] for p in batch]
        pairs = [(m & ~p & -(1 << i)).bit_count() for m, p, i in zip(near, batch, indices)]
        w = cs.rs_tree.words(g.n)
        shares = [(5 + g.n * g.n + 3 * p.bit_count() + 6 * k) * w for p, k in zip(batch, pairs)]
        counter = cs.OpCounter()
        stream = cs.kernels.children_rect(g, batch, indices, factors, counter)
        for k in range(len(batch)):
            next(stream)
            assert sum(rows) == sum(pairs[: k + 1]) and max(rows, default=1) == 1
            # the parents without pairs after k leave with k's last chunk
            end = k + 1
            while end < len(batch) and pairs[end] == 0:
                end += 1
            assert counter.ops == sum(shares[:end])
        assert next(stream, None) is None


# graphs whose root has candidates outside N(root) on more than half the
# vertices, on fewer (dense-64: 21 of 64) or none (star), and the folds
# bitset makes at their root
ROOT_GRAPHS = [
    pytest.param(lambda: cs.Graph.gnp(130, 0), 0, id="edgeless"),
    pytest.param(lambda: cs.Graph.gnp(64, 0.25, seed=3), 49, id="dense-64"),
    pytest.param(lambda: cs.Graph.from_edges(40, [(1, v) for v in range(2, 41)]), 0, id="star"),
    pytest.param(lambda: sparse_with_isolated(65), 1, id="sparse-65"),
    pytest.param(lambda: sparse_with_isolated(130), 0, id="sparse-130"),
]


class TestRootRule:
    """The root's children outside N(root) come from one helper that both
    kernels call: the far vertices with no lower neighbor, one mask
    operation.  Each kernel's own test sees only N(root)."""

    @pytest.mark.parametrize("build, folds", ROOT_GRAPHS)
    def test_root_children_and_units_on_both_kernels(self, build, folds):
        g = build()
        r = cs.rs_tree.root(g).bits
        want = cs.kernels.children_naive(g, r, 0)
        _, near = prefix_masks(g, r)
        lone = [v for v in range(1, g.n + 1) if not g.adj[v - 1] & below_mask(v)]
        far = [v for v in want.indices if not near >> (v - 1) & 1]
        assert far == [v for v in lone if not (r | near) >> (v - 1) & 1]
        w = cs.rs_tree.words(g.n)
        # 6 words for each candidate inside N(root), and one for the far
        # step when some candidate lies outside it
        outside = g.n - (r | near).bit_count()
        priced = (3 * r.bit_count() + 4 + 6 * (near & ~r).bit_count() + (outside > 0)) * w
        bitset = cs.OpCounter()
        assert cs.kernels.children_batch(g, [r], "bitset", bitset, [0]) == [want]
        assert bitset.ops == priced + folds * w
        # as a listing's pop hands the root over: its N(root), no outside set
        assert cs.kernels.filter_children(g, r, 0, None, near, 0) == want.children
        rect = cs.OpCounter()
        factors = cs.kernels.graph_factors(g)
        assert list(cs.kernels.children_rect(g, [r], [0], factors, rect)) == [want.children]
        assert rect.ops == priced + (1 + g.n * g.n) * w == rect_charge(g, [r], [0])

    @pytest.mark.parametrize("build, folds", ROOT_GRAPHS)
    def test_root_inside_an_arbitrary_rect_batch(self, build, folds, monkeypatch):
        g = build()
        r = cs.rs_tree.root(g).bits
        others = [p for p in oracle_masks(g, limit=g.n) if p != r]
        random.Random(g.n).shuffle(others)
        batch = [*others[:5], r, *others[5:9]]
        want = [cs.kernels.children_naive(g, p, index_of(g, p)) for p in batch]
        assert cs.kernels.children_batch(g, batch, kernel="rect") == want
        # one parent a slice and one pair a chunk: the root's far children
        # join its spec whichever release carries it
        monkeypatch.setattr(cs.kernels, "RECT_ROWS_BYTES", 16 * g.n)
        monkeypatch.setattr(cs.kernels, "CHUNK_ROWS", 1)
        monkeypatch.setattr(cs.kernels, "BLOCK_BYTES", 1)
        assert cs.kernels.children_batch(g, batch, kernel="rect") == want

    def test_bitset_reads_only_the_rows_of_near_candidates(self):
        # the root's test reads its members' rows and those of its candidates
        # inside N(root), and no row for a candidate outside it
        class Rows(tuple):
            read: list[int] = []

            def __getitem__(self, k):
                Rows.read.append(k)
                return tuple.__getitem__(self, k)

            def __iter__(self):  # a pass over the rows reads every one
                Rows.read.extend(range(len(self)))
                return tuple.__iter__(self)

        for built in (cs.Graph.gnp(130, 0), sparse_with_isolated(130)):
            g = cs.Graph._normalized(130, Rows(built.adj))
            object.__setattr__(g, "lower", Rows(g.lower))  # the candidates' A_i are read here
            r = cs.rs_tree.root(g).bits
            _, near = prefix_masks(g, r)
            want = cs.kernels.children_naive(g, r, 0).children
            Rows.read.clear()  # the rows read to build the graph and to find the answer
            assert cs.kernels.filter_children(g, r, 0) == want
            far = g.full_mask & ~(r | near)
            assert far.bit_count() > g.n // 2
            assert Rows.read and not any(far >> k & 1 for k in Rows.read)
            assert all((r | near) >> k & 1 for k in Rows.read)


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
                    if all(g.adj[u - 1] >> (j - 1) & 1 for u in members_below):
                        expect |= 1 << (j - 1)
                    if any(g.adj[u - 1] >> (j - 1) & 1 for u in p):
                        near |= 1 << (j - 1)
                assert prefix_masks(g, p.bits) == (expect, near)


class TestFilterChildren:
    def test_bridged_root_and_leaf(self, bridged):
        specs = cs.kernels.children_batch(
            bridged, [K5, TRI], kernel="rect", indices=[0, 7]
        )
        assert specs[0].indices == (6, 7, 8)
        assert specs[1].indices == ()

    def test_matches_children_naive(self):
        for g in random_graphs(20, seed0=1200, n_hi=12):
            batch = oracle_masks(g)
            indices = [index_of(g, p) for p in batch]
            rect = cs.kernels.children_batch(g, batch, kernel="rect", indices=indices)
            for p, index, got in zip(batch, indices, rect):
                assert got == cs.kernels.children_naive(g, p, index)

    def test_lazy_rows_with_given_index_match_rows_and_naive(self):
        rng = random.Random(1250)
        for g in random_graphs(40, seed0=1250, n_hi=14):
            cliques = oracle_masks(g)
            batch = rng.sample(cliques, rng.randint(1, len(cliques)))
            indices = [index_of(g, p) for p in batch]
            rect = cs.kernels.children_batch(g, batch, kernel="rect", indices=indices)
            for p, index, spec in zip(batch, indices, rect):
                lazy = cs.kernels.filter_children(g, p, index)
                assert lazy == spec.children
                assert lazy == cs.kernels.children_naive(g, p, index).children

    def test_lazy_rows_never_read_more_than_the_table(self):
        # per parent, bitset's folds cost less than rect's full product
        counter_lazy, counter_rows = cs.OpCounter(), cs.OpCounter()
        for g in random_graphs(10, seed0=1270, n_hi=14):
            factors = cs.kernels.graph_factors(g)
            for p in oracle_masks(g):
                index = index_of(g, p)
                lazy, rows = counter_lazy.ops, counter_rows.ops
                cs.kernels.children_batch(g, [p], "bitset", counter_lazy, [index])
                list(cs.kernels.children_rect(g, [p], [index], factors, counter_rows))
                assert 0 < counter_lazy.ops - lazy < counter_rows.ops - rows
        assert 0 < counter_lazy.ops < counter_rows.ops

    @settings(max_examples=120, deadline=None)
    @given(
        n=st.sampled_from([1, 2, 63, 64, 65, 130]),
        degree=st.floats(0, 24),
        seed=st.integers(0, 2**32),
        pick=st.integers(0, 2**32),
        given_masks=st.booleans(),
    )
    def test_top_down_scan_matches_the_ascending_loop(self, n, degree, seed, pick, given_masks):
        # the candidates are scanned from the top bit and each A_i read from
        # Graph.lower; the mask and the charge are those of the ascending loop
        rng = random.Random(seed)
        live = rng.sample(range(1, n + 1), n - n // 4)  # a quarter stay isolated
        p = min(1.0, degree / n)
        edges = [(u, v) for u in live for v in live if u < v and rng.random() < p]
        g = cs.Graph.from_edges(n, edges)
        cliques = oracle_masks(g, limit=n)
        parents = [cliques[0], cliques[pick % len(cliques)]]  # the root, and any clique
        for parent in parents:
            index = index_of(g, parent)
            kw = {}
            if given_masks:  # as a listing's pop hands them over
                adjacent, near = prefix_masks(g, parent)
                kw = {"near": near, "outside": adjacent & ~parent}
            got, want = cs.OpCounter(), cs.OpCounter()
            assert cs.kernels.filter_children(g, parent, index, got, **kw) == (
                reference.filter_children_ascending(g, parent, index, want, **kw)
            )
            assert got.ops == want.ops

    def test_spec_behaves_like_a_constructed_one(self, bridged):
        # each kernel decides a parent as one child mask, which children_batch
        # and children_naive wrap; every spec's parent is the raw mask the
        # kernel was given
        made = cs.kernels.ChildSpec(parent=K5, children=0b11100000)
        assert made.indices == (6, 7, 8)
        assert cs.kernels.filter_children(bridged, K5, 0) == made.children
        for got in (
            cs.kernels.children_batch(bridged, [K5], kernel="rect")[0],
            cs.kernels.children_batch(bridged, [K5], kernel="bitset")[0],
            cs.kernels.children_naive(bridged, K5, 0),
        ):
            assert type(got.parent) is int
            assert got == made and hash(got) == hash(made) and len(got) == 3
            assert {got: 1}[made] == 1
            with pytest.raises(dataclasses.FrozenInstanceError):
                got.children = 0
            assert not hasattr(got, "__dict__")


def carried_pairs(g, monkeypatch):
    """(clique, index) for every clique a bitset ``list_mc`` of ``g`` pops,
    with the index the traversal carries for it."""
    pairs = []

    def record(g, cliques, indices):
        pairs.extend(zip(cliques, indices))

    with monkeypatch.context() as m:
        watch_children_steps(m, record)
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
                index = cs.rs_tree.clique_index(g, p)
                children = cs.kernels.children_naive(g, p.bits, index).indices
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
            assert cs.kernels.filter_children(g, p, index) == (
                cs.kernels.children_naive(g, p, index).children
            )
            # the outside set lies below the index, so no candidate cuts it
            outside = prefix_masks(g, p)[0] & ~p
            assert outside < 1 << (index - 1) if index else outside == 0

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
        specs = cs.kernels.children_batch(
            bridged, [K5, B16, B27, B58], kernel="rect"
        )
        assert [s.indices for s in specs] == [(6, 7, 8), (7,), (), ()]
        assert cs.kernels.children_batch(bridged, [TRI])[0].indices == ()

    def test_edgeless_root_children(self):
        g = cs.Graph.from_edges(3, [])
        specs = cs.kernels.children_batch(g, [cs.rs_tree.root(g).bits])
        assert specs[0].indices == (2, 3)

    def test_kernel_extensional_equality(self):
        for g in random_graphs(200, seed0=1300):
            batch = oracle_masks(g)
            naive = [cs.kernels.children_naive(g, p, index_of(g, p)) for p in batch]
            for kernel in ("rect", "bitset"):
                assert cs.kernels.children_batch(g, batch, kernel=kernel) == naive

    def test_matches_children_oracle(self):
        for g in random_graphs(10, seed0=1400, n_hi=11):
            cliques = oracle.all_maximal_cliques(g)
            specs = cs.kernels.children_batch(g, [c.bits for c in cliques], kernel="bitset")
            for p, spec in zip(cliques, specs):
                assert spec == reference.children_oracle(g, p, cliques)

    def test_child_parent_round_trip(self):
        for g in random_graphs(20, seed0=1500):
            for spec in cs.kernels.children_batch(g, oracle_masks(g)):
                parent = cs.VertexSet(spec.parent)
                for i in spec.indices:
                    c = cs.rs_tree.child(g, parent, i)
                    assert cs.rs_tree.clique_index(g, c) == i
                    assert cs.rs_tree.parent(g, c) == parent

    def test_completeness(self):
        # root plus all accepted children cover the clique set exactly
        for g in random_graphs(20, seed0=1600, n_hi=12):
            cliques = oracle_masks(g)
            reached = {cliques[0]}
            for spec in cs.kernels.children_batch(g, cliques):
                for i in spec.indices:
                    reached.add(cs.rs_tree.child(g, cs.VertexSet(spec.parent), i).bits)
            assert reached == set(cliques)

    def test_rejects_bad_input(self, bridged):
        with pytest.raises(ValueError, match="non-empty"):
            cs.kernels.children_batch(bridged, [])
        with pytest.raises(ValueError, match="distinct"):
            cs.kernels.children_batch(bridged, [K5, K5])
        with pytest.raises(ValueError, match="distinct"):
            cs.kernels.children_batch(bridged, [B16, K5, B27, K5])
        with pytest.raises(ValueError):
            cs.kernels.children_batch(bridged, [K5], kernel="fft")

    @pytest.mark.parametrize("kernel", ["bitset", "rect"])
    @pytest.mark.parametrize("indices", [[0, 2], [0, 2, 1, 5]], ids=["short", "long"])
    def test_rejects_indices_of_another_length(self, bridged, kernel, indices):
        # one index per batch element, never zipped down to the shorter list
        with pytest.raises(ValueError, match="indices for a batch of 3"):
            cs.kernels.children_batch(
                bridged, [K5, B16, B27], kernel=kernel, indices=indices
            )

    def test_preconditions_hold_under_python_O(self):
        # the public preconditions raise ValueError, which -O does not strip
        script = """
import cliquestream as cs
from cliquestream import kernels
g = cs.Graph.from_edges(4, [(1, 2), (3, 4)])
r = cs.rs_tree.root(g)
checks = [
    lambda: kernels.children_batch(g, []),
    lambda: kernels.children_batch(g, [r.bits, r.bits]),
    lambda: kernels.children_naive(g, 0b1, 0),
    lambda: cs.rs_tree.lex_completion(g, cs.VertexSet.of(1, 3)),
    lambda: cs.rs_tree.clique_index(g, cs.VertexSet.of(1)),
    lambda: cs.rs_tree.child(g, r, 1),
]
refused = 0
for check in checks:
    try:
        check()
    except ValueError:
        refused += 1
print(__debug__, refused)
"""
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(src), os.environ.get("PYTHONPATH")])
        ))
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False 6\n"

    def test_given_indices_match_recomputed(self):
        for g in random_graphs(30, seed0=1650, n_hi=12):
            batch = oracle_masks(g)
            indices = [index_of(g, p) for p in batch]
            for kernel in ("rect", "bitset"):
                assert cs.kernels.children_batch(
                    g, batch, kernel=kernel, indices=indices
                ) == cs.kernels.children_batch(g, batch, kernel=kernel)

    def test_factor_budget_is_their_peak(self):
        n = 300
        g = cs.Graph.gnp(n, 0.1, seed=4)
        tracemalloc.start()
        try:
            cs.kernels.graph_factors(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 6 * n * n <= peak < 6 * n * n + (1 << 16)

    def test_factors_over_the_budget_refused_before_listing(self, monkeypatch):
        def no_root(*args, **kwargs):
            raise AssertionError("root built")

        monkeypatch.setattr(cs.delay_scheduler, "root", no_root)
        largest = math.isqrt(cs.graph.BUDGET_BYTES // 6)
        assert largest == 13377
        with pytest.raises(AssertionError, match="root built"):
            cs.list_mc(cs.Graph.from_edges(largest, []), kernel="rect")
        g = cs.Graph.from_edges(largest + 1, [])
        with pytest.raises(ValueError, match="--kernel bitset"):
            cs.list_mc(g, kernel="rect")
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="--kernel bitset"):
                cs.kernels.graph_factors(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16

    def test_prebuilt_graph_matrix_matches(self):
        # the graph matrix is passed in factored form
        for g in random_graphs(10, seed0=1660, n_hi=12):
            batch = oracle_masks(g)
            factors = cs.kernels.graph_factors(g)
            indices = [index_of(g, p) for p in batch]
            assert list(cs.kernels.children_rect(g, batch, indices, factors)) == [
                spec.children for spec in cs.kernels.children_batch(g, batch, kernel="rect")
            ]
            graph_units = cs.OpCounter()
            cs.kernels.graph_factors(g, graph_units)
            assert graph_units.ops == g.n * g.n * 2 * cs.rs_tree.words(g.n)

    def test_counter_charges_work(self, bridged):
        counter = cs.OpCounter()
        cs.kernels.children_batch(
            bridged, [c.bits for c in BRIDGED_CLIQUES], kernel="bitset", counter=counter
        )
        assert counter.ops > 0
