import itertools
import time
from collections import deque

import pytest

import cliquestream as cs
from cliquestream import delay_scheduler as ds
from cliquestream.batch_dfs import Pace

from conftest import BRIDGED_CLIQUES, collect_plain, oracle_bits, random_graphs


def strict_run(g, cfg=None, kernel="bitset", capacity=None):
    """A strict run's emissions and report; a given ``cfg`` replaces the
    calibrated config: the run boots to its boot_target and paces at its
    tau_delay."""
    report = ds.StrictRunReport()
    with pytest.MonkeyPatch.context() as mp:
        if cfg is not None:

            def forced(events, q, stats):
                return cfg, ds.boot(events, q, cfg.boot_target)

            mp.setattr(ds, "calibrate", forced)
        emissions = list(ds.run_strict(g, kernel=kernel, capacity=capacity, report=report))
    return emissions, report


class TestListMc:
    def test_bridged_five_events(self, bridged):
        events = list(cs.list_mc(bridged))
        collected = [e.clique for e in events if e.kind == cs.CLIQUE_COLLECTED]
        assert sorted(c.bits for c in collected) == sorted(
            c.bits for c in BRIDGED_CLIQUES
        )
        assert events[-1].kind == cs.TRAVERSAL_ENDED
        kinds = [e.kind for e in events]
        assert kinds.count(cs.TRAVERSAL_ENDED) == 1

    def test_single_vertex(self):
        g = cs.Graph.from_edges(1, [])
        collected = collect_plain(g)
        assert collected == [cs.VertexSet.of(1)]

    def test_moon_moser_9(self):
        g = cs.Graph.complete_multipartite_triples(9)
        assert len(collect_plain(g)) == 27

    def test_costs_are_positive_work(self, bridged):
        events = list(cs.list_mc(bridged))
        assert sum(e.cost for e in events) > 0
        assert all(e.cost >= 0 for e in events)

    @pytest.mark.parametrize("kernel", ["bitset", "rect"])
    def test_one_ledger_puts_the_root_on_the_first_event(self, kernel):
        graphs = [cs.Graph.gnp(30, 0.3, seed=5), cs.Graph.complete_multipartite_triples(9)]
        for g in graphs:
            root_units = cs.OpCounter()
            cs.rs_tree.root(g, root_units)
            stats = cs.TraversalStats()
            events = list(cs.list_mc(g, kernel=kernel, capacity=7, stats=stats))
            # the seeded root's pop charges nothing, so its event is the root's
            assert events[0].cost == root_units.ops > 0
            assert sum(e.cost for e in events) == stats.total_cost
            # numpy counts never leak into the ledger
            assert type(stats.total_cost) is int
            assert all(type(e.cost) is int for e in events)

    @pytest.mark.parametrize(
        "g",
        [cs.Graph.gnp(40, 0.3, seed=27), cs.Graph.complete_multipartite_triples(15)],
        ids=["gnp(40,.3)", "moon-moser(15)"],
    )
    def test_plain_bitset_streams_one_filter_per_clique(self, g, monkeypatch):
        # a listing's batches are distinct by construction, so its bitset
        # step skips children_batch's dispatch and batch checks
        def refused(*args, **kwargs):
            raise AssertionError("children_batch or its batch check on a bitset listing")

        for owner, name in ((cs.kernels, "children_batch"), (ds, "children_batch"),
                            (cs.kernels, "_check_batch")):
            monkeypatch.setattr(owner, name, refused)
        real = cs.kernels.filter_children
        parents = []

        def counted(g, p, index, counter=None, *masks):
            parents.append(p)
            return real(g, p, index, counter, *masks)

        monkeypatch.setattr(cs.kernels, "filter_children", counted)
        for capacity in (1, 7, g.n * g.n):
            parents.clear()
            events = list(ds.list_mc(g, capacity=capacity))
            popped = [e.clique.bits for e in events if e.kind == cs.CLIQUE_COLLECTED]
            # one test per popped clique, in pop order: each parent is tested
            # right after its event
            assert parents == popped and len(set(parents)) == len(parents)
            when = {p: k for k, p in enumerate(parents)}
            batch = []
            for e in events:
                if e.kind == cs.CLIQUE_COLLECTED:
                    batch.append(when[e.clique.bits])
                elif e.kind == cs.BATCH_COMPLETED:
                    assert batch == sorted(batch)
                    batch = []
            # a pace changes nothing on bitset: the paced stream at quantum 0
            # is the plain one, its units on the same events
            paced = list(ds._listing(g, "bitset", capacity, None, Pace()))
            assert events == paced
            assert sum(e.cost for e in events) == sum(e.cost for e in paced)

    def test_unknown_kernel_refused_before_root(self, bridged, monkeypatch):
        def no_root(*args, **kwargs):
            raise AssertionError("root built before the kernel check")

        monkeypatch.setattr(ds, "root", no_root)
        with pytest.raises(ValueError, match="naive"):
            ds.list_mc(bridged, kernel="naive")

    def test_bad_capacity_refused_before_root(self, bridged, monkeypatch):
        def no_root(*args, **kwargs):
            raise AssertionError("root built before the capacity check")

        monkeypatch.setattr(ds, "root", no_root)
        for capacity in (0, -1):
            with pytest.raises(ValueError, match="capacity"):
                ds.list_mc(bridged, capacity=capacity)


class TestBoot:
    def test_banks_at_least_target_without_printing(self, bridged):
        q = deque()
        events = cs.list_mc(bridged)
        exhausted = ds.boot(events, q, 3)
        assert len(q) >= 3
        assert not exhausted

    def test_target_one_fills_after_first_batch(self, bridged):
        q = deque()
        ds.boot(cs.list_mc(bridged), q, 1)
        assert len(q) >= 1

    def test_oversized_target_exhausts_stream(self, bridged):
        q = deque()
        exhausted = ds.boot(cs.list_mc(bridged), q, 10**6)
        assert exhausted
        assert len(q) == 5

    def test_stops_at_batch_boundary(self, bridged):
        # with capacity 1 the queue grows one clique per iteration, so the
        # boundary stop leaves exactly the target amount banked
        q = deque()
        stats = cs.TraversalStats()
        events = cs.list_mc(bridged, capacity=1, stats=stats)
        ds.boot(events, q, 2)
        assert len(q) == 2

    def test_cut_stream_banks_every_clique(self, bridged):
        # a stream that stops before its traversal-ended event also exhausts
        events = list(cs.list_mc(bridged, capacity=1))[:-1]
        assert events[-1].kind == cs.BATCH_COMPLETED
        q = deque()
        assert ds.boot(iter(events), q, 10**6) is True
        assert list(q) == [e.clique.bits for e in events if e.kind == cs.CLIQUE_COLLECTED]


class TestRunStrict:
    def test_bridged_fixed_config(self, bridged):
        cfg = ds.DelayConfig(tau_delay=10, boot_target=2)
        emissions, report = strict_run(bridged, cfg=cfg)
        got = [e.clique.bits for e in emissions]
        assert sorted(got) == sorted(c.bits for c in BRIDGED_CLIQUES)
        assert len(set(got)) == 5
        assert report.emitted == 5

    def test_tau_one_same_set(self, bridged):
        cfg = ds.DelayConfig(tau_delay=1, boot_target=2)
        emissions, _ = strict_run(bridged, cfg=cfg)
        assert {e.clique.bits for e in emissions} == oracle_bits(bridged)

    def test_output_set_invariant_across_configs(self):
        for g in itertools.islice(random_graphs(6, seed0=2100, n_hi=12), 6):
            ref = oracle_bits(g)
            for tau, target in [(1, 1), (10, 2), (1000, 3), (50, 1000)]:
                cfg = ds.DelayConfig(tau_delay=tau, boot_target=target)
                emissions, _ = strict_run(g, cfg=cfg)
                got = [e.clique.bits for e in emissions]
                assert len(got) == len(set(got))
                assert set(got) == ref

    def test_fifo_printed_order_is_collection_order(self):
        for g in random_graphs(10, seed0=2200):
            plain = [c.bits for c in collect_plain(g)]
            emissions, _ = strict_run(g)
            assert [e.clique.bits for e in emissions] == plain

    def test_queue_bound(self):
        for g in random_graphs(10, seed0=2300):
            emissions, report = strict_run(g)
            limit = report.config.boot_target + g.n * g.n + 1
            assert report.queue_peak <= limit
            assert all(e.queue_size <= limit for e in emissions)

    def test_queue_falls_back_to_the_reserve(self):
        # at capacity 7 boot banks the root and a batch of 7 against a
        # reserve of c * boot_target = 4; a tau the run never reaches leaves
        # every print before the drain a forced one, and each batch end takes
        # one off the queue
        g = cs.Graph.complete_multipartite_triples(15)
        cfg = ds.DelayConfig(tau_delay=10**9, boot_target=2)
        emissions, report = strict_run(g, cfg=cfg, capacity=7)
        reserve = ds.CALIBRATION_MARGIN * cfg.boot_target
        assert report.boot_collected == 8 and report.starved_checks == 0
        plain = collect_plain(g, capacity=7)
        assert [e.clique.bits for e in emissions] == [c.bits for c in plain]
        paced = [e.queue_size for e in emissions[: report.emitted - report.drained]]
        assert report.queue_peak == report.boot_collected + 1
        assert all(a >= b for a, b in zip(paced, paced[1:])) and paced[-1] == reserve
        assert report.drained == reserve

    def test_rect_holds_its_batch_for_its_children_step(self):
        # a K2 beside gnp(60, .3) leaves the root four children, a reserve of
        # 10 masks, and a batch at capacity n^2 whose children step costs more
        # than 10 tau: held to the reserve alone, the queue starves there
        base = cs.Graph.gnp(60, 0.3, seed=1)
        g = cs.Graph.from_edges(62, [(1, 2)] + [(u + 2, v + 2) for u, v in base.edges()])
        emissions, report = strict_run(g, kernel="rect")
        cfg = report.config
        reserve = ds.CALIBRATION_MARGIN * cfg.boot_target
        assert cfg.boot_target == 5 and report.starved_checks == 0
        assert reserve + 1 < report.queue_peak <= report.stats.max_stack_cliques + 1
        assert report.max_gap_units <= cfg.tau_delay + report.max_event_cost
        plain = collect_plain(g, kernel="rect")
        assert [e.clique.bits for e in emissions] == [c.bits for c in plain]

    def test_boot_exhaustion_drains_everything(self):
        g = cs.Graph.complete(5)
        cfg = ds.DelayConfig(tau_delay=10, boot_target=50)
        emissions, report = strict_run(g, cfg=cfg)
        assert report.boot_exhausted
        assert [e.clique for e in emissions] == [cs.VertexSet.of(1, 2, 3, 4, 5)]

    @pytest.mark.parametrize(
        "g",
        [cs.Graph.gnp(60, 0.3, seed=1), cs.Graph.complete_multipartite_triples(15)],
        ids=["gnp60", "triples15"],
    )
    @pytest.mark.parametrize("k", [1, 5])
    def test_report_holds_when_stopped_early(self, g, k):
        # --first, `| head` or close() stop the stream before the final drain
        report = ds.StrictRunReport()
        stream = ds.run_strict(g, report=report)
        seen = [e.queue_size for e in itertools.islice(stream, k)]
        assert report.emitted == k
        assert report.queue_peak >= max(seen) and report.queue_peak > 0
        stream.close()
        assert report.emitted == k
        assert report.queue_peak >= max(seen)

    def test_ordinals_sequential(self, bridged):
        emissions, _ = strict_run(bridged)
        assert [e.ordinal for e in emissions] == list(range(1, 6))

    @pytest.mark.parametrize("kernel", ["bitset", "rect"])
    def test_work_events_split_charges_and_never_add(self, kernel):
        graphs = [
            cs.Graph.gnp(60, 0.3, seed=1),
            cs.Graph.gnp(100, 0.07, seed=2015),
            cs.Graph.complete_multipartite_triples(15),
        ]
        for g in graphs:
            for capacity in (1, 7, None):
                plain = cs.TraversalStats()
                order = [c.bits for c in collect_plain(g, kernel, capacity, plain)]
                emissions, report = strict_run(g, kernel=kernel, capacity=capacity)
                assert [e.clique.bits for e in emissions] == order
                assert report.stats.total_cost == plain.total_cost

    @pytest.mark.parametrize("capacity", [1, 7, None])
    def test_report_reads_first_output_and_drain(self, monkeypatch, capacity):
        ended = []

        def flagged(*args, _events=ds.step_events, **kwargs):
            for event in _events(*args, **kwargs):
                if event.kind == cs.TRAVERSAL_ENDED:
                    ended.append(True)
                yield event

        monkeypatch.setattr(ds, "step_events", flagged)
        g = cs.Graph.gnp(60, 0.3, seed=1)
        report = ds.StrictRunReport()
        first_units, drained = None, 0
        for em in ds.run_strict(g, capacity=capacity, report=report):
            if first_units is None:
                first_units = report.stats.total_cost
            drained += bool(ended)
            assert report.drained == drained
        assert report.first_output_units == first_units
        assert 0 < report.drained < report.emitted

    @pytest.mark.parametrize("kernel", ["bitset", "rect"])
    @pytest.mark.parametrize("capacity", [1, 7, None])
    @pytest.mark.parametrize(
        "g",
        [cs.Graph.gnp(60, 0.3, seed=1), cs.Graph.complete(5)],
        ids=["gnp60", "boot-exhausting-K5"],
    )
    def test_report_reads_max_gap_and_first_output_time(self, g, kernel, capacity):
        report = ds.StrictRunReport()
        start = time.perf_counter()
        stream = ds.run_strict(g, kernel=kernel, capacity=capacity, report=report)
        first = next(stream)
        assert 0 < report.first_output_s <= time.perf_counter() - start
        emissions = [first, *stream]
        # one running max over every gap, the drain's included
        assert report.max_gap_units == max(e.cost_units for e in emissions)
        assert report.drained > 0
        # the queue holds masks; each print wraps one VertexSet
        assert all(type(e.clique) is cs.VertexSet for e in emissions)

    @pytest.mark.parametrize("kernel", ["bitset", "rect"])
    def test_default_config_traverses_once(self, kernel, monkeypatch):
        # calibration reads the run's own first batch: one root, and one
        # build of the graph matrix's factors for "rect"
        calls = {"root": 0, "graph_factors": 0}
        for name in calls:
            original = getattr(ds, name)

            def counted(*args, _name=name, _fn=original, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(ds, name, counted)
        g = cs.Graph.complete_multipartite_triples(12)
        emissions, _ = strict_run(g, kernel=kernel, capacity=7)
        assert len(emissions) == 81
        assert calls == {"root": 1, "graph_factors": int(kernel == "rect")}

    @pytest.mark.parametrize(
        "g, kw, message",
        [
            (cs.Graph.complete(3), {"kernel": "naive"}, "unknown kernel"),
            (cs.Graph.complete(3), {"capacity": 0}, "capacity"),
            # rect's graph factors would pass their 1 GiB budget
            (cs.Graph.from_edges(13378, []), {"kernel": "rect"}, "--kernel bitset"),
        ],
    )
    def test_refused_at_the_call(self, monkeypatch, g, kw, message):
        def no_root(*args, **kwargs):
            raise AssertionError("root built for a refused run")

        monkeypatch.setattr(ds, "root", no_root)
        with pytest.raises(ValueError, match=message):
            ds.run_strict(g, **kw)  # the stream is never iterated


class TestCalibration:
    def test_config_valid(self):
        for g in random_graphs(6, seed0=2400):
            stats = cs.TraversalStats()
            q = deque()
            stream = ds._listing(g, "bitset", None, stats, Pace())  # run_strict's stream
            cfg, exhausted = ds.calibrate(stream, q, stats)
            assert cfg.tau_delay >= 1
            assert cfg.boot_target >= 1
            assert q[0] == cs.rs_tree.root(g).bits
            assert exhausted or len(q) >= cfg.boot_target

    @pytest.mark.parametrize("kernel", ["bitset", "rect"])
    def test_formulas_read_the_root_and_its_children_step(self, bridged, kernel):
        # run_strict's paced stream, which tests each batch at its end
        graphs = [
            bridged,
            cs.Graph.from_edges(1, []),
            cs.Graph.complete(5),
            cs.Graph.gnp(30, 0.3, seed=7),
            cs.Graph.complete_multipartite_triples(12),
        ]
        c = ds.CALIBRATION_MARGIN
        for g in graphs:
            root = cs.rs_tree.root(g).bits
            target = 1 + len(cs.kernels.children_naive(g, root, 0))
            for capacity in (1, 7, g.n * g.n):
                events = list(ds._listing(g, kernel, capacity, None, Pace()))
                assert [e.kind for e in events[:2]] == [cs.CLIQUE_COLLECTED, cs.BATCH_COMPLETED]
                # boot stops at the first batch boundary with target banked
                banked = [root]
                for end, e in enumerate(events[2:], start=2):
                    if e.kind == cs.CLIQUE_COLLECTED:
                        banked.append(e.clique.bits)
                    elif e.kind == cs.TRAVERSAL_ENDED or len(banked) >= target:
                        break
                units = sum(e.cost for e in events[2 : end + 1])
                stats = cs.TraversalStats()
                q = deque()
                stream = ds._listing(g, kernel, capacity, stats, Pace())
                cfg, exhausted = ds.calibrate(stream, q, stats)
                assert type(cfg.tau_delay) is int
                assert list(q) == banked
                assert exhausted == (events[end].kind == cs.TRAVERSAL_ENDED)
                assert cfg == ds.DelayConfig(
                    tau_delay=max(1, c * units // max(1, len(banked) - 1)),
                    boot_target=target,
                )

    def test_queue_never_starves_with_calibrated_config(self):
        # clique-rich inputs: boot does not exhaust, and after boot the queue
        # always has something to print when the delay budget elapses
        graphs = [
            cs.Graph.complete_multipartite_triples(12),
            cs.Graph.complete_multipartite_triples(15),
            cs.Graph.gnp(16, 0.8, seed=3),
        ]
        for g in graphs:
            for capacity in (None, 1, 2, g.n):
                emissions, report = strict_run(g, capacity=capacity)
                assert not report.boot_exhausted
                assert report.starved_checks == 0
                assert {e.clique.bits for e in emissions} == oracle_bits(g)

    def test_bounded_gap_with_calibrated_config(self):
        graphs = [cs.Graph.complete_multipartite_triples(12)] + list(
            random_graphs(8, seed0=2500, n_lo=10)
        )
        for g in graphs:
            emissions, report = strict_run(g)
            bound = report.config.tau_delay + report.max_event_cost
            assert all(e.cost_units <= bound for e in emissions)
            # the calibrated default behaves as that config given explicitly
            explicit, explicit_report = strict_run(g, cfg=report.config)
            assert explicit == emissions
            assert explicit_report == report
