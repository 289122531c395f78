import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cliquestream as cs
from cliquestream import oracle
from cliquestream.batch_dfs import CHILDREN_WORK, BacktrackStack

from conftest import (
    BRIDGE_16,
    BRIDGE_27,
    BRIDGE_58,
    K5_SIDE,
    TRIANGLE,
    bridged_cliques_graph,
    collect_plain,
    graphs,
    oracle_bits,
    random_graphs,
    sparse_with_isolated,
    watch_children_steps,
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


def assert_empty(stack, g):
    assert stack.pending == 0
    with pytest.raises(IndexError):
        stack.pop(g)


class TestPopFromTop:
    def test_consumes_first_index_and_keeps_spec(self, bridged):
        stack = BacktrackStack()
        stack.push(K5_SIDE.bits, cs.VertexSet.of(6, 7, 8).bits)
        assert stack.pop(bridged)[:2] == (BRIDGE_16.bits, 6)
        assert stack.pending == 2
        assert stack.pop(bridged)[1] == 7

    def test_removes_spec_when_list_empties(self, bridged):
        stack = BacktrackStack()
        stack.push(BRIDGE_16.bits, cs.VertexSet.of(7).bits)
        assert stack.pop(bridged)[:2] == (TRIANGLE.bits, 7)
        assert_empty(stack, bridged)

    def test_seeded_root_pops_to_empty(self, bridged):
        stack = BacktrackStack()
        stack.seed(K5_SIDE.bits)
        # no walk: step_events finds the root's N(C) after its event
        assert stack.pop(bridged) == (K5_SIDE.bits, 0, 0, 0)
        assert_empty(stack, bridged)

    def test_empty_stack_raises(self, bridged):
        with pytest.raises(IndexError):
            BacktrackStack().pop(bridged)

    def test_empty_specs_are_not_pushed(self, bridged):
        stack = BacktrackStack()
        stack.push(K5_SIDE.bits, 0)
        assert_empty(stack, bridged)

    def test_popped_clique_behaves_like_a_constructed_one(self, bridged):
        # step_events wraps each popped mask without VertexSet.__init__
        clique = collect_plain(bridged, capacity=1)[1]
        assert type(clique) is cs.VertexSet
        assert clique == cs.VertexSet(BRIDGE_16.bits) and hash(clique) == hash(BRIDGE_16)
        assert list(clique) == [1, 6] and repr(clique) == "VertexSet{1, 6}"
        with pytest.raises(AttributeError):
            clique.bits = 0


class TestPerCliqueTypes:
    def test_step_event_is_a_named_tuple(self, bridged):
        assert cs.StepEvent._fields == ("kind", "clique", "cost")
        first = next(iter(cs.list_mc(bridged)))
        kind, clique, cost = first
        assert first == cs.StepEvent(kind=kind, clique=clique, cost=cost)
        assert (kind, clique) == (cs.CLIQUE_COLLECTED, K5_SIDE) and cost > 0

    def test_traversal_stats_refuses_unknown_attributes(self):
        stats = cs.TraversalStats()
        stats.cliques_emitted += 1
        with pytest.raises(AttributeError):
            stats.cliques_emmitted = 1
        assert not hasattr(stats, "__dict__")


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

    @pytest.mark.parametrize("kernel", cs.kernels.KERNELS)
    def test_max_stack_covers_every_reading(self, kernel):
        """The running max is never below the stack depth an event reports,
        on plain (lazy for rect) and paced streams."""
        graphs = [cs.Graph.complete_multipartite_triples(12), *random_graphs(6, seed0=2050)]
        for g in graphs:
            for capacity in (1, 7, g.n * g.n):
                for paced in (False, True):
                    stats = cs.TraversalStats()
                    for _ in cs.delay_scheduler._listing(g, kernel, capacity, stats, paced):
                        assert stats.max_stack_cliques >= stats.stack_cliques

    def test_capacity_one_never_undersized(self, bridged):
        stats = cs.TraversalStats()
        collect_plain(bridged, capacity=1, stats=stats)
        assert stats.batches_undersized == 0


class TestSinkDriver:
    def test_batch_dfs_delivers_via_sink(self, bridged):
        seen = []

        def children_fn(cliques, indices, nears, outsides):
            # a plain step hands in its batch as tuples, last parent first
            specs = cs.kernels.children_batch(bridged, list(cliques), indices=list(indices))
            return [spec.children for spec in specs]

        stats = cs.TraversalStats()
        root = cs.rs_tree.root(bridged)
        for event in cs.step_events(bridged, root, children_fn, 2, stats):
            if event.kind == cs.CLIQUE_COLLECTED:
                seen.append(event.clique)
        assert seen == ORDER_CAP2
        assert stats.cliques_emitted == 5
        assert stats.batches_total == 3

    @pytest.mark.parametrize("kernel", cs.kernels.KERNELS)
    def test_children_fn_sees_masks_and_events_carry_vertex_sets(self, kernel):
        # the batch, the stack and the children step carry raw masks; each
        # clique-collected event wraps its clique in one VertexSet
        g = cs.Graph.gnp(20, 0.4, seed=6)
        counter = cs.OpCounter()
        steps, parents = [], []

        def children_fn(masks, indices, nears, outsides):
            masks = list(masks)
            steps.append(masks)
            specs = cs.kernels.children_batch(
                g, masks, kernel=kernel, counter=counter, indices=list(indices)
            )
            parents.extend(spec.parent for spec in specs)
            return [spec.children for spec in specs]

        root = cs.rs_tree.root(g, counter)
        for capacity in (1, 7, g.n * g.n):
            steps.clear()
            parents.clear()
            events = cs.step_events(g, root, children_fn, capacity, counter=counter)
            cliques = [e.clique for e in events if e.kind == cs.CLIQUE_COLLECTED]
            passed = [m for step in steps for m in step]
            assert all(type(m) is int for m in passed + parents)
            assert parents == passed
            assert all(type(c) is cs.VertexSet for c in cliques)
            # each plain step takes its batch in stack order, last parent first
            assert [c.bits for c in cliques] == [m for step in steps for m in step[::-1]]
            assert set(passed) == oracle_bits(g)

    @pytest.mark.parametrize("paced", [False, True])
    @pytest.mark.parametrize("extra", [-1, 1])
    def test_children_step_of_the_wrong_length_raises(self, paced, extra):
        # a step one mask short or one mask long is refused on both schedules,
        # not read as a shorter listing
        g = cs.Graph.gnp(20, 0.4, seed=6)

        def children_fn(masks, indices, nears, outsides):
            specs = cs.kernels.children_batch(g, list(masks), indices=list(indices))
            children = [spec.children for spec in specs]
            return children[:-1] if extra < 0 else children + [0]

        with pytest.raises(ValueError):
            list(cs.step_events(g, cs.rs_tree.root(g), children_fn, 7, paced=paced))

    def test_capacity_must_be_positive(self, bridged):
        with pytest.raises(ValueError):
            list(cs.step_events(bridged, cs.rs_tree.root(bridged), lambda *batch: [], 0))


class TestChildrenWorkEvents:
    """A paced stream runs each children step at its batch end and yields a
    children-work event after each read of the step that charged units; the
    cliques and the total stay those of the plain stream."""

    @staticmethod
    def stream(g, paced, lazy, charged=True):
        counter = cs.OpCounter()
        ledger = counter if charged else None

        def children_fn(cliques, indices, nears, outsides):
            masks = (
                cs.kernels.filter_children(g, p, i, ledger, near, outside)
                for p, i, near, outside in zip(cliques, indices, nears, outsides)
            )
            return masks if lazy else list(masks)

        stats = cs.TraversalStats()
        root = cs.rs_tree.root(g, counter)
        return list(cs.step_events(g, root, children_fn, 7, stats, counter, paced)), stats

    def test_each_read_that_charges_ends_a_work_event(self):
        g = cs.Graph.gnp(40, 0.3, seed=4)
        plain, plain_stats = self.stream(g, False, True)
        paced, stats = self.stream(g, True, True)
        work = [e for e in paced if e.kind == CHILDREN_WORK]
        cliques = [e for e in paced if e.kind == cs.CLIQUE_COLLECTED]
        # every parent's test charges, so each read is its own event and
        # leaves nothing to its batch end
        assert len(work) == len(cliques) and all(e.cost > 0 for e in work)
        assert all(e.cost == 0 for e in paced if e.kind == cs.BATCH_COMPLETED)
        assert [e.clique for e in cliques] == [
            e.clique for e in plain if e.kind == cs.CLIQUE_COLLECTED
        ]
        assert sum(e.cost for e in paced) == stats.total_cost == plain_stats.total_cost

    def test_reads_that_charge_nothing_yield_no_work_event(self):
        g = cs.Graph.gnp(40, 0.3, seed=4)
        events, _ = self.stream(g, True, True, charged=False)
        paced, _ = self.stream(g, True, True)
        assert CHILDREN_WORK not in [e.kind for e in events]
        assert [e.clique for e in events if e.kind == cs.CLIQUE_COLLECTED] == [
            e.clique for e in paced if e.kind == cs.CLIQUE_COLLECTED
        ]

    def test_a_list_step_yields_one_work_event(self):
        # a list step charges all of its units before its first read
        g = cs.Graph.gnp(40, 0.3, seed=4)
        events, stats = self.stream(g, True, False)
        kinds = [e.kind for e in events]
        assert kinds.count(CHILDREN_WORK) == stats.batches_total
        # each children-work event is followed by its batch's completion
        for k, kind in enumerate(kinds):
            if kind == CHILDREN_WORK:
                assert kinds[k + 1] == cs.BATCH_COMPLETED and events[k + 1].cost == 0


class TestCarriedIndex:
    """The traversal hands each popped clique's index to the children step,
    so nothing recomputes it; it must equal the definitional index.  A
    clique's outside set (the non-members adjacent to every member below
    them) lies below that index and is empty for the root, which is what
    lets a "bitset" pop walk only the members below it."""

    @staticmethod
    def runs():
        graphs = list(random_graphs(6, seed0=2100, n_hi=12))
        graphs += [cs.Graph.complete_multipartite_triples(12), bridged_cliques_graph()]
        # past one word, with isolated vertices, so the root has children
        # outside N(root)
        graphs += [sparse_with_isolated(65), sparse_with_isolated(130)]
        graphs.append(cs.Graph.complete_multipartite_triples(15))
        runs = [(g, cap) for g in graphs for cap in (1, 7, g.n * g.n)]
        # indices past the oracle's n = 24, checked against the definition
        # alone; one capacity each keeps them cheap
        runs += [(cs.Graph.gnp(40, 0.5, seed=40), 7), (cs.Graph.gnp(100, 0.07, seed=100), 7)]
        return runs

    @pytest.mark.parametrize("kernel", ["bitset", "rect"])
    def test_popped_index_is_clique_index(self, kernel, monkeypatch):
        seen = []

        def checked(g, cliques, indices):
            # check before the children step: a wrong index can make the
            # traversal revisit cliques and never end
            for c, i in zip(cliques, indices):
                assert (cs.rs_tree.clique_index(g, cs.VertexSet(c)) or 0) == i
                outside = cs.rs_tree.prefix_masks(g, c)[0] & ~c
                assert outside < 1 << (i - 1) if i else outside == 0
                # the candidate cut keeps every child children_naive finds
                assert cs.kernels.filter_children(g, c, i) == (
                    cs.kernels.children_naive(g, c, i).children
                )
            # a plain rect step takes its batch in stack order, last parent
            # first; bitset decides each parent right after its pop
            seen.extend(reversed(cliques) if kernel == "rect" else cliques)

        watch_children_steps(monkeypatch, checked)
        for g, cap in self.runs():
            seen.clear()
            assert [c.bits for c in collect_plain(g, kernel=kernel, capacity=cap)] == seen
            assert cs.rs_tree.clique_index(g, cs.VertexSet(seen[0])) is None

    @pytest.mark.parametrize("kernel", ["bitset", "rect"])
    def test_walk_hands_the_test_its_prefix_masks(self, kernel, monkeypatch):
        # each pop's walk finds N(C) and the outside set that prefix_masks
        # finds over all of C, cut below the carried index, and either
        # kernel's test reads them; the root's test reads prefix_masks'
        # N(C) and no outside set
        real_walk, real_filter = cs.batch_dfs._child_walk, cs.kernels.filter_children
        real_rect = cs.kernels.children_rect
        walked, tested = [], []

        def walk(g, parent, low, counter):
            popped = real_walk(g, parent, low, counter)
            walked.append(popped)
            return popped

        def filter_children(g, p, index, counter, near, outside):
            tested.append((p, index, near, outside))
            return real_filter(g, p, index, counter, near, outside)

        def children_rect(g, masks, indices, factors, counter, nears, outsides):
            # a plain step takes its batch last parent first
            tested.extend(reversed(list(zip(masks, indices, nears, outsides))))
            return real_rect(g, masks, indices, factors, counter, nears, outsides)

        monkeypatch.setattr(cs.batch_dfs, "_child_walk", walk)
        monkeypatch.setattr(cs.kernels, "filter_children", filter_children)
        monkeypatch.setattr(cs.kernels, "children_rect", children_rect)
        for g, cap in self.runs():
            walked.clear()
            tested.clear()
            cliques = [c.bits for c in collect_plain(g, kernel=kernel, capacity=cap)]
            root_near = cs.rs_tree.prefix_masks(g, cliques[0])[1]
            assert tested[0] == (cliques[0], 0, root_near, 0)
            assert tested[1:] == walked and [p for p, *_ in tested] == cliques
            for p, index, near, outside in walked:
                adjacent, want_near = cs.rs_tree.prefix_masks(g, p)
                assert index > 0 and near == want_near
                assert outside == adjacent & ~p & ((1 << (index - 1)) - 1)
                assert outside == adjacent & ~p

    def test_stack_records_popped_index(self, bridged):
        stack = BacktrackStack()
        stack.seed(K5_SIDE.bits)
        assert stack.pop(bridged)[:2] == (K5_SIDE.bits, 0)
        stack.push(K5_SIDE.bits, cs.VertexSet.of(6, 7).bits)
        assert stack.pop(bridged)[:2] == (BRIDGE_16.bits, 6)
        assert stack.pop(bridged)[:2] == (BRIDGE_27.bits, 7)


ON_DEMAND_GRAPHS = {
    "gnp(60,.3)": lambda: cs.Graph.gnp(60, 0.3, seed=1),
    "gnp(200,.05)": lambda: cs.Graph.gnp(200, 0.05, seed=1),
    "moon-moser(15)": lambda: cs.Graph.complete_multipartite_triples(15),
}


class TestOnDemandChildren:
    """A plain "rect" listing decides a parent's children only when the
    stack reaches it, and "bitset" decides each parent right after its
    event, so every event carries the work it waited for."""

    @staticmethod
    def logged(monkeypatch):
        """Log every children test as ("test", child mask, units), every
        pop's walk as ("pop", None, units) and the "rect" factors as
        ("factors", None, units), in the order they run.  A "rect" mask's
        units are those charged while the stream produced it."""
        log = []
        real_filter, real_walk = cs.kernels.filter_children, cs.batch_dfs._child_walk
        real_rect, real_factors = cs.kernels.children_rect, cs.delay_scheduler.graph_factors

        def filter_children(g, p, index, counter, near, outside):
            before = counter.ops
            children = real_filter(g, p, index, counter, near, outside)
            log.append(("test", children, counter.ops - before))
            return children

        def children_rect(g, masks, indices, factors, counter, nears, outsides):
            stream = real_rect(g, masks, indices, factors, counter, nears, outsides)
            while True:
                before = counter.ops
                children = next(stream, None)
                assert children is not None or counter.ops == before
                if children is None:
                    return
                log.append(("test", children, counter.ops - before))
                yield children

        def graph_factors(g, counter):
            before = counter.ops
            factors = real_factors(g, counter)
            log.append(("factors", None, counter.ops - before))
            return factors

        def walk(g, parent, low, counter):
            before = counter.ops
            popped = real_walk(g, parent, low, counter)
            log.append(("pop", None, counter.ops - before))
            return popped

        monkeypatch.setattr(cs.kernels, "filter_children", filter_children)
        monkeypatch.setattr(cs.kernels, "children_rect", children_rect)
        monkeypatch.setattr(cs.delay_scheduler, "graph_factors", graph_factors)
        monkeypatch.setattr(cs.batch_dfs, "_child_walk", walk)
        return log

    @pytest.mark.parametrize("name", ON_DEMAND_GRAPHS)
    def test_each_event_carries_the_tests_it_waited_for(self, name, monkeypatch):
        self.check_events(ON_DEMAND_GRAPHS[name](), "bitset", monkeypatch)

    @pytest.mark.parametrize("name", ON_DEMAND_GRAPHS)
    def test_each_rect_event_carries_the_chunks_it_waited_for(self, name, monkeypatch):
        self.check_events(ON_DEMAND_GRAPHS[name](), "rect", monkeypatch)

    def check_events(self, g, kernel, monkeypatch):
        root_units = cs.OpCounter()
        cs.rs_tree.root(g, root_units)
        log = self.logged(monkeypatch)
        for capacity in (1, 7, g.n * g.n):
            stats = cs.TraversalStats()
            log.clear()
            steps = []  # each event with what ran since the previous one
            for event in cs.list_mc(g, kernel=kernel, capacity=capacity, stats=stats):
                steps.append((event, log[:]))
                log.clear()
            (first, before_first), *rest = steps
            # the root's construction, then its seeded pop, which runs nothing
            assert first.kind == cs.CLIQUE_COLLECTED and before_first == []
            assert first.cost == root_units.ops
            previous = first
            for event, ran in rest:
                tests = [children for kind, children, _ in ran if kind == "test"]
                assert event.cost == sum(units for _, _, units in ran)
                kinds = [kind for kind, _, _ in ran]
                if kernel == "bitset":
                    # each parent's test lands on the next event: a clique
                    # event carries the previous clique's unless it opens a
                    # batch, then its own pop; a batch end its last clique's
                    if event.kind == cs.CLIQUE_COLLECTED:
                        opens = previous.kind == cs.BATCH_COMPLETED
                        assert kinds == (["pop"] if opens else ["test", "pop"])
                    else:
                        assert kinds == (["test"] if event.kind == cs.BATCH_COMPLETED else [])
                    previous = event
                    continue
                # every parent tested before the last one had no children
                assert all(not children for children in tests[:-1])
                if event.kind == cs.CLIQUE_COLLECTED:
                    # the tests the pop waited for, then the pop itself
                    assert [kind for kind, _, _ in ran] == ["test"] * len(tests) + ["pop"]
                else:
                    # nothing runs at a batch end but the "rect" factors, built
                    # with the first step; the last tests, on childless
                    # parents, land on the final event
                    assert all(kind != "pop" for kind, _, _ in ran)
                    assert all(not children for children in tests)
            ended, ran = rest[-1]
            # bitset's last test lands on the last batch end; a "rect" chunk
            # charges the parents it releases on the first of them
            assert ended.kind == cs.TRAVERSAL_ENDED and bool(ran) == (kernel == "rect")
            assert sum(e.cost for e, _ in steps) == stats.total_cost
            entries = sum((ran for _, ran in steps), [])
            assert [kind for kind, _, _ in entries].count("factors") == (kernel == "rect")
            assert len(entries) == 2 * stats.cliques_emitted - 1 + (kernel == "rect")

    @pytest.mark.parametrize("name", ON_DEMAND_GRAPHS)
    @pytest.mark.parametrize("kernel", cs.kernels.KERNELS)
    def test_plain_and_paced_streams_agree(self, name, kernel):
        g = ON_DEMAND_GRAPHS[name]()
        split = 0  # the most children-work events in one paced step
        for capacity in (1, 7, g.n * g.n):
            plain_stats = cs.TraversalStats()
            plain = list(cs.list_mc(g, kernel=kernel, capacity=capacity, stats=plain_stats))
            assert sum(e.cost for e in plain) == plain_stats.total_cost
            stats = cs.TraversalStats()
            paced = list(cs.delay_scheduler._listing(g, kernel, capacity, stats, True))
            assert sum(e.cost for e in paced) == stats.total_cost == plain_stats.total_cost
            work = [e for e in paced if e.kind != CHILDREN_WORK]
            assert [e[:2] for e in work] == [e[:2] for e in plain]
            assert paced == plain or kernel == "rect"
            assert (stats.batches_total, stats.batches_undersized) == (
                plain_stats.batches_total,
                plain_stats.batches_undersized,
            )
            assert all(e.cost > 0 for e in paced if e.kind == CHILDREN_WORK)
            run = 0
            for e in paced:
                run = run + 1 if e.kind == CHILDREN_WORK else 0
                split = max(split, run)
        # rect's steps yield work events between their specs, not only at their
        # end; bitset decides each parent after its pop, paced or not
        assert split > 1 if kernel == "rect" else split == 0


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
            cs.VertexSet.of(*(back[v] for v in c)).bits
            for c in collect_plain(relabeled, kernel=kernel, capacity=capacity)
        ]
        assert len(got) == len(set(got)), "duplicate emission"
        want = collect_plain(g, kernel=kernel, capacity=capacity)
        assert set(got) == {c.bits for c in want}
