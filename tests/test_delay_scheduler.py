import itertools
from collections import deque

import pytest

import cliquestream as cs
from cliquestream import delay_scheduler as ds

from conftest import BRIDGED_CLIQUES, collect_plain, oracle_bits, random_graphs


def strict_run(g, cfg=None, kernel="bitset", capacity=None):
    report = ds.StrictRunReport()
    emissions = list(ds.run_strict(g, cfg=cfg, kernel=kernel, capacity=capacity, report=report))
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
        g = cs.Graph.edgeless(1)
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
            cs.root(g, root_units)
            stats = cs.TraversalStats()
            events = list(cs.list_mc(g, kernel=kernel, capacity=7, stats=stats))
            # the seeded root's pop charges nothing, so its event is the root's
            assert events[0].cost == root_units.ops > 0
            assert sum(e.cost for e in events) == stats.total_cost

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

    def test_boot_exhaustion_drains_everything(self):
        g = cs.Graph.complete(5)
        cfg = ds.DelayConfig(tau_delay=10, boot_target=50)
        emissions, report = strict_run(g, cfg=cfg)
        assert report.boot_exhausted
        assert [e.clique for e in emissions] == [cs.VertexSet.of(1, 2, 3, 4, 5)]

    def test_ordinals_sequential(self, bridged):
        emissions, _ = strict_run(bridged)
        assert [e.ordinal for e in emissions] == list(range(1, 6))

    @pytest.mark.parametrize("kernel", ["bitset", "rect"])
    def test_default_config_traverses_once(self, kernel, monkeypatch):
        # calibration reads the run's own first batch: one root, one M_G
        calls = {"root": 0, "graph_matrix": 0}
        for name in calls:
            original = getattr(ds, name)

            def counted(*args, _name=name, _fn=original, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(ds, name, counted)
        g = cs.Graph.complete_multipartite_triples(12)
        emissions, _ = strict_run(g, kernel=kernel, capacity=7)
        assert len(emissions) == 81
        assert calls == {"root": 1, "graph_matrix": int(kernel == "rect")}


class TestCalibration:
    def test_config_valid(self):
        for g in random_graphs(6, seed0=2400):
            cfg, head = ds.calibrate(g, ds.list_mc(g))
            assert cfg.tau_delay >= 1
            assert cfg.boot_target >= 1
            assert [e.kind for e in head] == [cs.CLIQUE_COLLECTED, cs.BATCH_COMPLETED]
            assert head[0].clique == cs.root(g)

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            ds.DelayConfig(tau_delay=0, boot_target=1)
        with pytest.raises(ValueError):
            ds.DelayConfig(tau_delay=1, boot_target=0)

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
