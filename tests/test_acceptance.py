"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
"""

import random
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import pairwise

import numpy as np
import pytest

import cliquestream as cs
from cliquestream import delay_scheduler as ds
from cliquestream import matmul, oracle
from cliquestream.batch_dfs import CHILDREN_WORK

import reference
from conftest import (
    BRIDGE_16,
    BRIDGE_27,
    BRIDGE_58,
    BRIDGED_CLIQUES,
    K5_SIDE,
    TRIANGLE,
    all_cliques,
    bridged_cliques_graph,
    oracle_bits,
    random_graphs,
    small_family,
)

KERNELS = ("rect", "bitset")


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {num}] {name}: {status}{suffix}")
    assert ok, f"criterion {num} failed: {name} {suffix}"


@dataclass
class RunRecord:
    n: int
    capacity: int
    kernel: str
    mode: str
    set_ok: bool
    duplicate_free: bool
    max_stack: int
    undersized: int
    # strict-only observations
    boot_ok: bool = True
    fifo_ok: bool = True
    queue_ok: bool = True
    gap_ok: bool = True


@pytest.fixture(scope="module")
def run_matrix():
    """All criterion-1 runs, shared with criteria 6 and 7."""
    t0 = time.perf_counter()
    records: list[RunRecord] = []
    for g in random_graphs(200, seed0=5000, n_lo=6, n_hi=16, ps=(0.2, 0.5, 0.8)):
        ref = oracle_bits(g)
        total = len(ref)
        for kernel in KERNELS:
            for cap in sorted({1, 2, g.n, g.n * g.n}):
                stats = cs.TraversalStats()
                plain = [
                    e.clique.bits
                    for e in cs.list_mc(g, kernel=kernel, capacity=cap, stats=stats)
                    if e.kind == cs.CLIQUE_COLLECTED
                ]
                records.append(
                    RunRecord(
                        n=g.n,
                        capacity=cap,
                        kernel=kernel,
                        mode="plain",
                        set_ok=set(plain) == ref,
                        duplicate_free=len(plain) == len(set(plain)),
                        max_stack=stats.max_stack_cliques,
                        undersized=stats.batches_undersized,
                    )
                )
                rep = ds.StrictRunReport()
                emissions = list(
                    ds.run_strict(g, kernel=kernel, capacity=cap, report=rep)
                )
                got = [e.clique.bits for e in emissions]
                cfg = rep.config
                queue_limit = cfg.boot_target + g.n * g.n + 1
                gap_bound = cfg.tau_delay + rep.max_event_cost
                records.append(
                    RunRecord(
                        n=g.n,
                        capacity=cap,
                        kernel=kernel,
                        mode="strict",
                        set_ok=set(got) == ref,
                        duplicate_free=len(got) == len(set(got)),
                        max_stack=rep.stats.max_stack_cliques,
                        undersized=rep.stats.batches_undersized,
                        boot_ok=rep.boot_collected >= min(cfg.boot_target, total),
                        fifo_ok=got == plain,
                        queue_ok=rep.queue_peak <= queue_limit
                        and all(e.queue_size <= queue_limit for e in emissions),
                        gap_ok=all(e.cost_units <= gap_bound for e in emissions),
                    )
                )
    return records, time.perf_counter() - t0


def test_criterion_1_oracle_equivalence(run_matrix):
    records, elapsed = run_matrix
    ok = all(r.set_ok and r.duplicate_free for r in records) and elapsed < 60.0
    report(
        1,
        "oracle equivalence over 200 graphs x 2 kernels x 4 capacities x 2 modes",
        ok,
        f"{len(records)} runs in {elapsed:.1f}s",
    )


def test_criterion_2_running_example_golden():
    g = bridged_cliques_graph()
    emitted = [e.clique for e in cs.list_mc(g) if e.kind == cs.CLIQUE_COLLECTED]
    ok = set(c.bits for c in emitted) == set(c.bits for c in BRIDGED_CLIQUES)
    ok = ok and emitted[0] == K5_SIDE
    indices = [
        cs.rs_tree.clique_index(g, c) for c in (BRIDGE_16, BRIDGE_27, BRIDGE_58, TRIANGLE)
    ]
    ok = ok and indices == [6, 7, 8, 7]
    ok = ok and cs.rs_tree.clique_index(g, K5_SIDE) is None
    report(2, "bridged-cliques golden set with indices 6/7/8/7", ok)


def test_criterion_3_moon_moser_counts():
    t0 = time.perf_counter()
    ok = True
    counts = []
    for n in (6, 9, 12):
        g = cs.Graph.complete_multipartite_triples(n)
        got = sum(
            1 for e in cs.list_mc(g) if e.kind == cs.CLIQUE_COLLECTED
        )
        counts.append(got)
        ok = ok and got == 3 ** (n // 3)
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 5.0
    report(3, "triple-part graphs hit the 3^(n/3) maximum", ok, f"counts {counts}, {elapsed:.2f}s")


def test_criterion_4_good_table_cross_validation():
    checked = 0
    ok = True
    for g in random_graphs(100, seed0=6000, n_lo=6, n_hi=14):
        cliques = oracle.all_maximal_cliques(g)
        batch = [c.bits for c in cliques]
        rect = cs.kernels.good_table_rectangular(g, batch)
        bitset = cs.kernels.good_table_bitset(g, batch)
        ok = ok and rect == bitset
        for k, p in enumerate(cliques):
            for i in range(1, g.n + 1):
                row = rect[k][i - 1]
                for j in range(1, g.n + 1):
                    expect = reference.good_pair_oracle(g, p, i, j)
                    ok = ok and ((row >> (j - 1)) & 1 == 1) == expect
                    checked += 1
        if not ok:
            break
    report(4, "good tables: rectangular = bitset = quantifier oracle", ok, f"{checked} entries")


def test_criterion_5_structural_properties():
    from cliquestream.graph import below_mask, vbit

    family = small_family()
    recon_ok = idem_ok = mono_ok = char_ok = dom_ok = True
    for g in family:
        cliques = oracle.all_maximal_cliques(g)
        every = all_cliques(g)
        # prefix reconstructability of every non-root clique
        for c in cliques[1:]:
            i = cs.rs_tree.clique_index(g, c)
            p = cs.rs_tree.parent(g, c)
            recon_ok = recon_ok and (
                c.bits & below_mask(i) == p.bits & below_mask(i) & g.adj[i - 1]
            )
            dom_ok = dom_ok and reference.lex_compare(p, c) == 1
        for k in every:
            lc = cs.rs_tree.lex_completion(g, k)
            # membership characterization for every vertex
            for v in range(1, g.n + 1):
                blockers = (k.bits | (lc.bits & below_mask(v))) & ~vbit(v)
                blocked = bool(blockers & ~g.adj[v - 1])
                char_ok = char_ok and ((v in lc) != blocked)
            # completion of prefixes is idempotent
            for a in range(g.n + 1):
                la = cs.rs_tree.lex_completion(g, cs.VertexSet(k.bits & below_mask(a + 1)))
                for b in range(a, g.n + 1):
                    lab = cs.VertexSet(la.bits & below_mask(b + 1))
                    idem_ok = idem_ok and cs.rs_tree.lex_completion(g, lab) == la
            # monotone under inclusion, over all subsets of each clique
            sub = k.bits
            while True:
                completed = cs.rs_tree.lex_completion(g, cs.VertexSet(sub))
                mono_ok = mono_ok and reference.lex_compare(completed, lc) >= 0
                if sub == 0:
                    break
                sub = (sub - 1) & k.bits
    ok = recon_ok and idem_ok and mono_ok and char_ok and dom_ok
    detail = (
        f"recon={recon_ok} idem={idem_ok} mono={mono_ok} "
        f"char={char_ok} parent_dom={dom_ok} on {len(family)} graphs"
    )
    report(5, "structural property suite, exhaustive n <= 12", ok, detail)


def test_criterion_6_batch_dfs_bounds(run_matrix):
    records, _ = run_matrix
    ok = all(
        r.max_stack <= r.n * r.n * r.capacity and r.undersized <= r.n for r in records
    )
    report(6, "stack size <= n^2 B and undersized batches <= n on every run", ok)


def test_criterion_7_strict_delay_properties(run_matrix):
    records, _ = run_matrix
    strict = [r for r in records if r.mode == "strict"]
    boot_ok = all(r.boot_ok for r in strict)
    fifo_ok = all(r.fifo_ok for r in strict)
    queue_ok = all(r.queue_ok for r in strict)
    gap_ok = all(r.gap_ok for r in strict)
    ok = boot_ok and fifo_ok and queue_ok and gap_ok
    report(
        7,
        "strict mode: silent boot, FIFO order, queue bound, bounded gap",
        ok,
        f"{len(strict)} strict runs: boot={boot_ok} fifo={fifo_ok} "
        f"queue={queue_ok} gap={gap_ok}",
    )


# the families the calibration was simulated on, with the sparse-strict
# benchmark's two gnp(100, .07) graphs before their relabeling
STRICT_FAMILIES = {
    "gnp(60,.3)": lambda: cs.Graph.gnp(60, 0.3, seed=1),
    "gnp(200,.05)": lambda: cs.Graph.gnp(200, 0.05, seed=1),
    "gnp(2000,10/n)": lambda: cs.Graph.gnp(2000, 10 / 2000, seed=1),
    "moon-moser(12)": lambda: cs.Graph.complete_multipartite_triples(12),
    "moon-moser(15)": lambda: cs.Graph.complete_multipartite_triples(15),
    "moon-moser(21)": lambda: cs.Graph.complete_multipartite_triples(21),
    "gnp(16,.8)": lambda: cs.Graph.gnp(16, 0.8, seed=3),
    "gnp(100,.07) #0": lambda: cs.Graph.gnp(100, 0.07, seed=2015),
    "gnp(100,.07) #1": lambda: cs.Graph.gnp(100, 0.07, seed=2016),
}


@pytest.mark.parametrize("name", list(STRICT_FAMILIES))
def test_strict_delay_bound_is_real(name):
    """Calibrated strict mode on bitset: the queue never starves and holds at
    most max(boot's bank, the reserve c * boot_target) + 1 masks, every gap
    is at most 3 tau, tau is at most 5x the run's mean units per clique, and
    the first print comes within the first half of the work."""
    g = STRICT_FAMILIES[name]()
    ok = True
    gap = tau_share = first_share = 0.0
    for capacity in sorted({1, 2, 7, g.n, g.n * g.n}):
        rep = ds.StrictRunReport()
        emissions = list(ds.run_strict(g, capacity=capacity, report=rep))
        assert rep.max_gap_units == max(e.cost_units for e in emissions)
        tau = rep.config.tau_delay
        total = rep.stats.total_cost
        gap = max(gap, max(e.cost_units for e in emissions) / tau)
        tau_share = max(tau_share, tau * len(emissions) / total)
        first_share = max(first_share, rep.first_output_units / total)
        reserve = ds.CALIBRATION_MARGIN * rep.config.boot_target
        ok = ok and rep.starved_checks == 0
        ok = ok and rep.queue_peak <= max(rep.boot_collected, reserve) + 1
    ok = ok and gap <= 3 and tau_share <= 5 and first_share <= 0.5
    print(
        f"[strict delay] {name}: {'PASS' if ok else 'FAIL'} (max gap {gap:.2f} tau, "
        f"tau {tau_share:.2f}x the mean, first output at {first_share:.2f} of the work)"
    )
    assert ok, f"strict delay bound on {name}"


@pytest.mark.parametrize("name", list(STRICT_FAMILIES))
def test_plain_bitset_gaps_are_bounded(name):
    """Plain bitset at capacities 1, 2, 7, n and n^2: every gap after the
    first output, the tail to the listing's end included, is at most 3x the
    strict tau_delay of the same graph and capacity.  A gap is one pop and
    one parent's test, and the root's test decides its children outside
    N(root) with one mask operation, so no gap scans every row."""
    g = STRICT_FAMILIES[name]()
    worst = 0.0
    for capacity in sorted({1, 2, 7, g.n, g.n * g.n}):
        rep = ds.StrictRunReport()
        for _ in ds.run_strict(g, capacity=capacity, report=rep):
            pass
        marks, units = [], 0  # the units charged up to each output, then to the end
        for e in cs.list_mc(g, kernel="bitset", capacity=capacity):
            units += e.cost
            if e.kind == cs.CLIQUE_COLLECTED:
                marks.append(units)
        gap = max(b - a for a, b in pairwise([*marks, units]))
        worst = max(worst, gap / rep.config.tau_delay)
    ok = worst <= 3
    print(f"[plain gap] {name}: {'PASS' if ok else 'FAIL'} (max gap {worst:.2f} strict tau)")
    assert ok, f"plain bitset gap on {name}"


# strict "rect" builds 6 n^2 bytes of factors, 24 MB at n = 2,000: that graph stays bitset-only
STRICT_RECT_FAMILIES = [name for name in STRICT_FAMILIES if name != "gnp(2000,10/n)"]


@pytest.mark.parametrize("name", STRICT_RECT_FAMILIES)
def test_strict_rect_gaps_follow_its_chunks(name, monkeypatch):
    """Strict mode on rect, at capacities 1, 2, 7, n and the default n^2: every gap is
    at most tau + the largest event after boot, a children-work event costs
    the one chunk charge that ended it (the first also the factors', under tau),
    and the queue holds at most max(boot's bank, the reserve c * boot_target,
    a batch) + 1 masks."""
    g = STRICT_FAMILIES[name]()
    charges = []  # the counter's growth at each rect spec: a chunk's charge on its first
    real_rect = cs.kernels.children_rect

    def children_rect(g, masks, indices, factors, counter, nears, outsides):
        stream = real_rect(g, masks, indices, factors, counter, nears, outsides)
        while True:
            before = counter.ops
            spec = next(stream, None)
            if spec is None:
                return
            charges.append(counter.ops - before)
            yield spec

    works = []  # each children-work event's cost, with the charge of the chunk it followed
    real_steps = ds.step_events

    def step_events(*args):
        for event in real_steps(*args):
            if event.kind == CHILDREN_WORK:
                works.append((event.cost, charges[-1]))
            yield event

    monkeypatch.setattr(cs.kernels, "children_rect", children_rect)
    monkeypatch.setattr(ds, "step_events", step_events)
    for capacity in sorted({1, 2, 7, g.n, g.n * g.n}):
        charges.clear()
        works.clear()
        rep = ds.StrictRunReport()
        emissions = list(ds.run_strict(g, kernel="rect", capacity=capacity, report=rep))
        tau = rep.config.tau_delay
        assert rep.starved_checks == 0 and len(emissions) == rep.stats.cliques_emitted
        assert max(e.cost_units for e in emissions) <= tau + rep.max_event_cost
        assert rep.max_gap_units == max(e.cost_units for e in emissions)
        batch = min(capacity, rep.stats.max_stack_cliques)
        reserve = ds.CALIBRATION_MARGIN * rep.config.boot_target
        assert rep.queue_peak <= max(rep.boot_collected, reserve, batch) + 1, capacity
        # a children-work event follows each read that charged and costs that read alone;
        # the factors are built as the root step starts, so the first also carries theirs
        assert works and all(0 < chunk and cost - chunk < tau for cost, chunk in works)
        assert works[0][0] > works[0][1]
        assert all(0 < chunk == cost for cost, chunk in works[1:])


def test_criterion_8_matmul_differential():
    rng = random.Random(8)
    shapes = [(4, 64, 4096), (64, 64, 4096), (64, 64, 64), (1, 1, 1), (64, 1, 2048)]
    while len(shapes) < 500:
        r = rng.randint(1, 64)
        s = rng.randint(1, 64)
        c = rng.randint(1, max(1, min(4096, 250_000 // (r * s))))
        shapes.append((r, s, c))
    ok = True
    t0 = time.perf_counter()
    for r, s, c in shapes:
        a = (np.frombuffer(rng.randbytes(r * s), dtype=np.uint8) & 1).reshape(r, s)
        b = (np.frombuffer(rng.randbytes(s * c), dtype=np.uint8) & 1).reshape(s, c)
        ref = matmul.multiply(a, b) > 0
        ok = ok and (matmul.multiply_boolean_threshold(a, b) == ref).all()
        if not ok:
            break
    elapsed = time.perf_counter() - t0
    report(
        8,
        "Boolean product equals the thresholded naive reference",
        ok,
        f"{len(shapes)} instances up to 64x4096 in {elapsed:.1f}s",
    )


def test_criterion_9_first_x_work_bound():
    g = cs.Graph.complete_multipartite_triples(12)
    cum = 0
    work_before = []  # cumulative work when the x-th clique appears
    iteration_costs = []
    iter_cost = 0
    iter_size = 0
    first_batch_cum = None
    for e in cs.list_mc(g):
        cum += e.cost
        iter_cost += e.cost
        if e.kind == cs.CLIQUE_COLLECTED:
            work_before.append(cum)
            iter_size += 1
        elif e.kind == cs.BATCH_COMPLETED:
            iteration_costs.append((iter_cost, iter_size))
            if first_batch_cum is None:
                first_batch_cum = cum
            iter_cost = 0
            iter_size = 0
    total = len(work_before)
    ok = total == 81
    amortized = max(Fraction(c, s) for c, s in iteration_costs)
    boot_cost = first_batch_cum
    ok = ok and all(
        Fraction(work_before[x - 1]) <= boot_cost + x * amortized
        for x in range(1, total + 1)
    )
    report(
        9,
        "work before the x-th emission <= boot cost + x * amortized batch cost",
        ok,
        f"boot={boot_cost}, amortized={float(amortized):.0f}, x <= {total}",
    )
