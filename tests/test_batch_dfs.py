import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cliquestream as cs
from cliquestream import delay_scheduler, oracle
from cliquestream.batch_dfs import BacktrackStack
from cliquestream.graph import mask_of
from cliquestream.kernels import ChildSpec

from conftest import (
    BRIDGE_16,
    BRIDGE_27,
    BRIDGE_58,
    K5_SIDE,
    TRIANGLE,
    bridged_cliques_graph,
    collect_plain,
    oracle_bits,
    random_graphs,
)

# Hand-traced emission orders for the bridged fixture (LIFO stack, ascending
# index consumption, child specs pushed in batch order):
#   capacity 1: each batch is one clique, so the K5 side comes first, then its
#     first child {1,6}, whose own child {6,7,8} is explored before the
#     remaining root children {2,7} and {5,8}.
#   capacity 2: the second batch drains both {1,6} and {2,7} before their
#     children are computed, so {6,7,8} follows {2,7}.
ORDER_CAP1 = [K5_SIDE, BRIDGE_16, TRIANGLE, BRIDGE_27, BRIDGE_58]
ORDER_CAP2 = [K5_SIDE, BRIDGE_16, BRIDGE_27, TRIANGLE, BRIDGE_58]


class TestPopFromTop:
    def test_consumes_first_index_and_keeps_spec(self, bridged):
        stack = BacktrackStack()
        stack.push(ChildSpec(parent=K5_SIDE, indices=(6, 7, 8)))
        assert stack.pop(bridged) == (BRIDGE_16, 6)
        assert stack.pending == 2
        assert len(stack) == 1

    def test_removes_spec_when_list_empties(self, bridged):
        stack = BacktrackStack()
        stack.push(ChildSpec(parent=BRIDGE_16, indices=(7,)))
        assert stack.pop(bridged) == (TRIANGLE, 7)
        assert not stack and stack.pending == 0

    def test_seeded_root_pops_to_empty(self, bridged):
        stack = BacktrackStack()
        stack.seed(K5_SIDE)
        assert stack.pop(bridged) == (K5_SIDE, 0)
        assert not stack

    def test_empty_stack_raises(self, bridged):
        with pytest.raises(IndexError):
            BacktrackStack().pop(bridged)

    def test_empty_specs_are_not_pushed(self):
        stack = BacktrackStack()
        stack.push(ChildSpec(parent=K5_SIDE, indices=()))
        assert not stack


class TestEmissionOrder:
    def test_capacity_one(self, bridged):
        assert collect_plain(bridged, capacity=1) == ORDER_CAP1

    def test_capacity_two(self, bridged):
        assert collect_plain(bridged, capacity=2) == ORDER_CAP2

    def test_capacity_one_multiset(self, bridged):
        got = collect_plain(bridged, capacity=1)
        assert len(got) == 5
        assert {c.bits for c in got} == oracle_bits(bridged)

    def test_complete_graph_single_emission(self):
        g = cs.Graph.complete(4)
        assert collect_plain(g) == [cs.VertexSet.of(1, 2, 3, 4)]

    def test_order_deterministic(self, bridged):
        for kernel in ("rect", "bitset"):
            assert collect_plain(bridged, kernel=kernel, capacity=2) == ORDER_CAP2


class TestExactlyOnce:
    def test_all_capacities_match_oracle(self):
        for g in random_graphs(25, seed0=1700):
            ref = oracle_bits(g)
            for cap in sorted({1, 2, g.n, g.n * g.n}):
                got = [c.bits for c in collect_plain(g, capacity=cap)]
                assert len(got) == len(set(got)), "duplicate emission"
                assert set(got) == ref

    def test_root_emitted_first(self):
        for g in random_graphs(15, seed0=1800):
            first = collect_plain(g)[0]
            assert first == oracle.all_maximal_cliques(g)[0]

    def test_emission_set_independent_of_capacity(self):
        for g in random_graphs(8, seed0=1900):
            sets = {
                frozenset(c.bits for c in collect_plain(g, capacity=cap))
                for cap in (1, 3, g.n * g.n)
            }
            assert len(sets) == 1


class TestBounds:
    def test_stack_and_undersized_bounds(self):
        for g in random_graphs(20, seed0=2000):
            for cap in sorted({1, 2, g.n, g.n * g.n}):
                stats = cs.TraversalStats()
                collect_plain(g, capacity=cap, stats=stats)
                assert stats.max_stack_cliques <= g.n * g.n * cap
                assert stats.batches_undersized <= g.n
                assert stats.cliques_emitted == len(oracle_bits(g))

    def test_capacity_one_never_undersized(self, bridged):
        stats = cs.TraversalStats()
        collect_plain(bridged, capacity=1, stats=stats)
        assert stats.batches_undersized == 0


class TestSinkDriver:
    def test_batch_dfs_delivers_via_sink(self, bridged):
        seen = []

        def children_fn(cliques, indices):
            return cs.children_batch(bridged, cliques, indices=indices)

        stats = cs.TraversalStats()
        for event in cs.step_events(bridged, cs.root(bridged), children_fn, 2, stats):
            if event.kind == cs.CLIQUE_COLLECTED:
                seen.append(event.clique)
        assert seen == ORDER_CAP2
        assert stats.cliques_emitted == 5
        assert stats.batches_total == 3

    def test_capacity_must_be_positive(self, bridged):
        with pytest.raises(ValueError):
            list(cs.step_events(bridged, cs.root(bridged), lambda b, i: [], 0))


class TestCarriedIndex:
    """The traversal hands each popped clique's index to the children step,
    so nothing recomputes it; it must equal the definitional index."""

    @pytest.mark.parametrize("kernel", ["bitset", "rect"])
    def test_popped_index_is_clique_index(self, kernel, monkeypatch):
        seen = []
        real = delay_scheduler.children_batch

        def checked(g, cliques, **kwargs):
            # check before the children step: a wrong index can make the
            # traversal revisit cliques and never end
            for c, i in zip(cliques, kwargs["indices"]):
                assert (cs.clique_index(g, c) or 0) == i
                # the candidate cut keeps every child children_naive finds
                assert cs.filter_children(g, c, i) == cs.children_naive(g, c, i)
                seen.append(c)
            return real(g, cliques, **kwargs)

        monkeypatch.setattr(delay_scheduler, "children_batch", checked)
        graphs = list(random_graphs(6, seed0=2100, n_hi=12))
        graphs += [cs.Graph.complete_multipartite_triples(12), bridged_cliques_graph()]
        runs = [(g, cap) for g in graphs for cap in (1, 7, g.n * g.n)]
        # indices past the oracle's n = 24, checked against the definition
        # alone; one capacity each keeps them cheap
        runs += [
            (cs.Graph.gnp(40, 0.5, seed=40), 7),
            (cs.Graph.gnp(100, 0.07, seed=100), 7),
            (cs.Graph.complete_multipartite_triples(15), 7),
        ]
        for g, cap in runs:
            seen.clear()
            assert collect_plain(g, kernel=kernel, capacity=cap) == seen
            assert cs.clique_index(g, seen[0]) is None

    def test_stack_records_popped_index(self, bridged):
        stack = BacktrackStack()
        stack.seed(K5_SIDE)
        assert stack.pop(bridged) == (K5_SIDE, 0)
        stack.push(ChildSpec(parent=K5_SIDE, indices=(6, 7)))
        assert stack.pop(bridged) == (BRIDGE_16, 6)
        assert stack.pop(bridged) == (BRIDGE_27, 7)


@st.composite
def graphs(draw, max_n=14):
    n = draw(st.integers(1, max_n))
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    picks = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return cs.Graph.from_edges(n, [e for e, keep in zip(pairs, picks) if keep])


class TestOracleProperty:
    @settings(max_examples=60, deadline=None)
    @given(
        g=graphs(),
        kernel=st.sampled_from(cs.kernels.KERNELS),
        capacity=st.integers(1, 200),
    )
    def test_list_mc_yields_the_oracle_set(self, g, kernel, capacity):
        got = [c.bits for c in collect_plain(g, kernel=kernel, capacity=capacity)]
        assert len(got) == len(set(got)), "duplicate emission"
        assert set(got) == oracle_bits(g)


class TestRelabelingProperty:
    """Which candidates a parent tests depends on the labels through its
    index; the clique set must not."""

    @settings(max_examples=60, deadline=None)
    @given(
        g=graphs(),
        kernel=st.sampled_from(cs.kernels.KERNELS),
        capacity=st.integers(1, 200),
        data=st.data(),
    )
    def test_clique_set_survives_relabeling(self, g, kernel, capacity, data):
        perm = data.draw(st.permutations(range(1, g.n + 1)))
        relabeled = cs.Graph.from_edges(
            g.n, [(perm[u - 1], perm[v - 1]) for u, v in g.edges()]
        )
        back = {new: old for old, new in enumerate(perm, 1)}
        got = [
            mask_of(back[v] for v in c)
            for c in collect_plain(relabeled, kernel=kernel, capacity=capacity)
        ]
        assert len(got) == len(set(got)), "duplicate emission"
        want = collect_plain(g, kernel=kernel, capacity=capacity)
        assert set(got) == {c.bits for c in want}
