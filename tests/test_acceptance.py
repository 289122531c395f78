"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
"""

import random
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest

import cliquestream as cs
from cliquestream import delay_scheduler as ds
from cliquestream import matmul, oracle

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

KERNELS = ("naive", "rect", "bitset")


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
        "oracle equivalence over 200 graphs x 3 kernels x 4 capacities x 2 modes",
        ok,
        f"{len(records)} runs in {elapsed:.1f}s",
    )


def test_criterion_2_running_example_golden():
    g = bridged_cliques_graph()
    emitted = [
        e.clique
        for e in cs.list_mc(g, kernel="naive")
        if e.kind == cs.CLIQUE_COLLECTED
    ]
    ok = set(c.bits for c in emitted) == set(c.bits for c in BRIDGED_CLIQUES)
    ok = ok and emitted[0] == K5_SIDE
    indices = [
        cs.clique_index(g, c) for c in (BRIDGE_16, BRIDGE_27, BRIDGE_58, TRIANGLE)
    ]
    ok = ok and indices == [6, 7, 8, 7]
    ok = ok and cs.clique_index(g, K5_SIDE) is None
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
        batch = oracle.all_maximal_cliques(g)
        rect = cs.good_table_rectangular(g, batch)
        bitset = cs.good_table_bitset(g, batch)
        ok = ok and rect == bitset
        for k, p in enumerate(batch):
            for i in range(1, g.n + 1):
                row = rect[k][i - 1]
                for j in range(1, g.n + 1):
                    expect = oracle.good_pair_oracle(g, p, i, j)
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
            i = cs.clique_index(g, c)
            p = cs.parent(g, c)
            recon_ok = recon_ok and (
                c.bits & below_mask(i) == p.bits & below_mask(i) & g.adj[i - 1]
            )
            dom_ok = dom_ok and cs.lex_compare(p, c) == 1
        for k in every:
            lc = cs.lex_completion(g, k)
            # membership characterization for every vertex
            for v in range(1, g.n + 1):
                blockers = (k.bits | (lc.bits & below_mask(v))) & ~vbit(v)
                blocked = bool(blockers & ~g.adj[v - 1])
                char_ok = char_ok and ((v in lc) != blocked)
            # completion of prefixes is idempotent
            for a in range(g.n + 1):
                la = cs.lex_completion(g, cs.VertexSet(k.bits & below_mask(a + 1)))
                for b in range(a, g.n + 1):
                    lab = cs.VertexSet(la.bits & below_mask(b + 1))
                    idem_ok = idem_ok and cs.lex_completion(g, lab) == la
            # monotone under inclusion, over all subsets of each clique
            sub = k.bits
            while True:
                mono_ok = mono_ok and (
                    cs.lex_compare(cs.lex_completion(g, cs.VertexSet(sub)), lc) >= 0
                )
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
