"""Seeded, offline benchmark of cliquestream's listing stream.

Usage (from the repository root):

    python3 bench/run.py --workload dense-plain --seed 1 --seconds 12 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
lines before it give every metric with quartiles, sample count and
provenance.  Exit status: 0 when every listing passed the correctness
gate, 1 when one failed, 2 when the program could not be set up.  See
``bench/NOTES.md`` for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import shutil
import statistics
import sys
import time
import tracemalloc
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402
import tracing  # noqa: E402

SETUP_REPS = 5
BK_REPEATS = 5

# name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "cliques_per_s": ("cliques/s", "higher"),
    "delay_max_s": ("s", "lower"),
    "first_output_s": ("s", "lower"),
    "first_output_units": ("units", "lower"),
    "work_units_per_clique": ("units", "lower"),
    "peak_alloc_mb": ("MB", "lower"),
}

PER_LAYER = {
    "kernels.good_rows_s": "s",
    "kernels.children_s": "s",
    "kernels.units": "units",
    "kernels.good_cells": "cells",
    "kernels.child_yield": "ratio",
    "rs_tree.index_s": "s",
    "rs_tree.index_calls": "count",
    "kernels.filter_s": "s",
    "batch_dfs.pop_s": "s",
    "batch_dfs.pops": "count",
    "batch_dfs.pop_units": "units",
    "rs_tree.root_s": "s",
    "batch_dfs.batches": "count",
    "batch_dfs.mean_batch": "cliques",
    "batch_dfs.undersized_batches": "count",
    "batch_dfs.max_stack_cliques": "cliques",
    "matmul.threshold_s": "s",
    "matmul.calls": "count",
    "matmul.cells": "cells",
    "matmul.cells_per_s": "cells/s",
    "kernels.build_matrices_s": "s",
    "delay_scheduler.calibrate_s": "s",
    "delay_scheduler.boot_s": "s",
    "delay_scheduler.boot_collected": "cliques",
    "delay_scheduler.drain_share": "ratio",
    "delay_scheduler.queue_peak": "cliques",
    "delay_scheduler.tau_delay": "units",
    "delay_scheduler.starved_checks": "count",
    "cli.load_s": "s",
    "cli.write_s": "s",
    "cli.lines": "count",
    "cli.tail_s": "s",
    "oracle.bk_s": "s",
    "oracle.slowdown": "ratio",
    "graph.build_s": "s",
    "trace.overhead": "ratio",
}


class Run:
    """Tally of every checked listing in one benchmark run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def listing(self, lib, job, workdir, tap, on_emit=None) -> harness.Listing:
        result = harness.run_job(lib, job, workdir, tap, on_emit)
        self.attempted += 1
        self.failed += not result.ok
        return result

    def one_pass(self, lib, jobs, workdir, tap) -> list:
        return [self.listing(lib, job, workdir, tap) for job in jobs]


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"value": med, "q1": q1, "q3": q3, "n": len(values)}


def end_to_end(listings: list, scale: float = 1.0) -> dict:
    """One pass's end-to-end figures, summed over the workload's graphs.
    Wall times are multiplied by ``scale`` (see ``harness.Yardstick``)."""
    cliques = sum(r.cliques for r in listings)
    wall = sum(r.wall_s for r in listings)
    return {
        "cliques_per_s": cliques / (wall * scale),
        "delay_max_s": sum(r.delay_max_s for r in listings) * scale,
        "first_output_s": sum(r.first_output_s for r in listings) * scale,
        "first_output_units": sum(r.first_output_units for r in listings),
        "work_units_per_clique": sum(r.units for r in listings) / cliques,
    }


def per_layer(log: tracing.PassLog, listings: list, drained: int, bk_s: float, untraced_wall: float) -> dict:
    spans, _ = log.totals()

    def incl(name):
        return spans.get(name, (0, 0.0, 0.0))[1]

    def own(name):
        return spans.get(name, (0, 0.0, 0.0))[2]

    def calls(name):
        return spans.get(name, (0, 0.0, 0.0))[0]

    stats = [r.detail["stats"] for r in listings if "stats" in r.detail] + log.stats
    reports = [r.detail["report"] for r in listings if "report" in r.detail]
    batches = sum(s.batches_total for s in stats)
    emitted = sum(r.emitted for r in reports)
    cells = log.counts["cells"]
    good_cells = log.counts["good_cells"]
    return {
        "kernels.good_rows_s": own("good_table_bitset") + own("good_table_rectangular"),
        "kernels.children_s": incl("children_batch"),
        "kernels.units": log.counts["children_batch.units"],
        "kernels.good_cells": good_cells,
        "kernels.child_yield": log.counts["children"] / good_cells if good_cells else 0.0,
        "rs_tree.index_s": incl("clique_index"),
        "rs_tree.index_calls": calls("clique_index"),
        "kernels.filter_s": own("filter_children"),
        "batch_dfs.pop_s": incl("pop"),
        "batch_dfs.pops": calls("pop"),
        "batch_dfs.pop_units": log.counts["pop.units"],
        "rs_tree.root_s": incl("root"),
        "batch_dfs.batches": batches,
        "batch_dfs.mean_batch": sum(s.cliques_emitted for s in stats) / batches if batches else 0.0,
        "batch_dfs.undersized_batches": sum(s.batches_undersized for s in stats),
        "batch_dfs.max_stack_cliques": max((s.max_stack_cliques for s in stats), default=0),
        "matmul.threshold_s": incl("multiply_boolean_threshold"),
        "matmul.calls": calls("multiply_boolean_threshold"),
        "matmul.cells": cells,
        "matmul.cells_per_s": cells / incl("multiply_boolean_threshold") if cells else 0.0,
        "kernels.build_matrices_s": incl("build_batch_matrices"),
        "delay_scheduler.calibrate_s": incl("calibrate"),
        "delay_scheduler.boot_s": incl("boot"),
        "delay_scheduler.boot_collected": sum(r.boot_collected for r in reports),
        "delay_scheduler.drain_share": drained / emitted if emitted else 0.0,
        "delay_scheduler.queue_peak": max((r.queue_peak for r in reports), default=0),
        "delay_scheduler.tau_delay": max((r.config.tau_delay for r in reports), default=0),
        "delay_scheduler.starved_checks": sum(r.starved_checks for r in reports),
        "cli.load_s": incl("load_graph"),
        "cli.write_s": incl("format_clique"),
        "cli.lines": sum(r.detail.get("lines", 0) for r in listings),
        "cli.tail_s": sum(r.tail_s for r in listings),
        "oracle.bk_s": bk_s,
        "oracle.slowdown": untraced_wall / bk_s,
    }


def self_time_shares(log: tracing.PassLog, listings: list) -> dict:
    """Self time of each wrapped layer as a share of the pass's listing wall
    time; ``(unwrapped)`` is the rest."""
    spans, top = log.totals()
    wall = sum(r.wall_s for r in listings)
    shares = {name: row[2] / wall for name, row in spans.items()}
    shares["(unwrapped)"] = (wall - top) / wall
    return dict(sorted(shares.items(), key=lambda kv: -kv[1]))


def prediction_checks(workload: str, shares: dict, listings: list) -> dict:
    """The layer shares the workload was chosen for, checked on the trace."""
    layers = {k: v for k, v in shares.items() if k != "(unwrapped)"}
    largest = max(layers, key=layers.get) if layers else None
    if workload == "dense-plain":
        return {"good_table_bitset has the largest self time": largest == "good_table_bitset"}
    if workload == "moon-moser-plain":
        part = sum(shares.get(k, 0.0) for k in ("clique_index", "filter_children", "pop"))
        return {f"index + filter + pop >= 1/4 of listing time ({part:.2f})": part >= 0.25}
    if workload == "cli-rect":
        return {"multiply_boolean_threshold has the largest self time": largest == "multiply_boolean_threshold"}
    at = sum(r.first_output_s for r in listings) / sum(r.wall_s for r in listings)
    return {f"first output after >= 90% of the listing ({at:.2f})": at >= 0.9}


def provenance(root: Path, seed: int, lib, jobs) -> dict:
    src = root / "src" / harness.PACKAGE
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "git_sha": git_sha(root),
        "source_sha256": digest.hexdigest(),
        "seed": seed,
        "python": platform.python_version(),
        "numpy": importlib.import_module("numpy").__version__,
        "nproc": os.cpu_count(),
        "graphs": [
            {"graph": j.label, "n": j.graph.n, "m": j.graph.m, "cliques": j.ref_count}
            for j in jobs
        ],
    }


def git_sha(root: Path) -> str | None:
    """HEAD commit read from ``.git`` without running git; None outside a
    git checkout."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def setup(root: Path, spec: dict, seed: int, workdir: Path):
    """Import the package, generate the graphs and write the DIMACS files,
    SETUP_REPS times; returns the last repetition's objects and the
    per-repetition setup and graph-generation times."""
    importlib.import_module("numpy")  # a dependency, imported before timing
    yard = harness.Yardstick()
    setup_s, graph_s = [], []
    before = yard.seconds()
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        lib = harness.import_package(root / "src")
        jobs, gen = harness.build_jobs(lib, spec, seed, workdir)
        wall = time.perf_counter() - t0
        after = yard.seconds()
        setup_s.append(wall * yard.NOMINAL_S / ((before + after) / 2))
        graph_s.append(gen)
        before = after
    return lib, jobs, setup_s, graph_s


def measure(root: Path, workload: str, seed: int, seconds: float, trace: bool,
            spec: dict | None = None, tap=harness.default_tap) -> dict:
    """One benchmark run; returns the full result record."""
    spec = spec if spec is not None else harness.WORKLOADS[workload]
    workdir = root / ".bench_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        lib, jobs, setup_s, graph_s = setup(root, spec, seed, workdir)
        bk = [[harness.reference(lib, job)] for job in jobs]
        run = Run()
        if trace:
            for _ in range(BK_REPEATS - 1):
                for job, times in zip(jobs, bk):
                    times.append(harness.reference(lib, job))
            bk_s = sum(statistics.median(t) for t in bk)
            metrics, notes = traced_passes(lib, jobs, workdir, run, seconds, tap, workload, bk_s)
            metrics["graph.build_s"] = quartiles(graph_s)
            units = PER_LAYER
        else:
            metrics, notes = timed_passes(lib, jobs, workdir, run, seconds, tap)
            metrics["setup_s"] = quartiles(setup_s)
            units = {name: unit for name, (unit, _) in END_TO_END.items()}
        for name, unit in units.items():
            metrics[name]["unit"] = unit
        return {
            "workload": workload,
            "correct": run.failed == 0,
            "attempted": run.attempted,
            "failed": run.failed,
            "failed_share": run.failed / run.attempted,
            "metrics": {name: metrics[name] for name in units},
            "notes": notes,
            "provenance": provenance(root, seed, lib, jobs),
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass


def timed_passes(lib, jobs, workdir, run: Run, seconds: float, tap):
    # Untimed tracemalloc pass first; it also warms the interpreter up.
    peaks = []
    for job in jobs:
        tracemalloc.start()
        try:
            run.listing(lib, job, workdir, tap)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    yard = harness.Yardstick()
    samples, wall, yard_s = [], [], []
    start = time.perf_counter()
    before = yard.seconds()
    while True:
        t0 = time.perf_counter()
        listings = run.one_pass(lib, jobs, workdir, tap)
        after = yard.seconds()
        yard_s.append((before + after) / 2)
        samples.append(end_to_end(listings, yard.NOMINAL_S / yard_s[-1]))
        wall.append(end_to_end(listings))
        before = after
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:
            break
    metrics = {name: quartiles([s[name] for s in samples]) for name in samples[0]}
    metrics["peak_alloc_mb"] = quartiles([sum(peaks) / 2**20])
    notes = {
        "timed_passes": len(samples),
        "measured_s": time.perf_counter() - start,
        "yardstick_s": quartiles(yard_s),
        "wall_clock": {
            name: quartiles([w[name] for w in wall])
            for name in ("cliques_per_s", "delay_max_s", "first_output_s")
        },
        "pass_samples": {name: [s[name] for s in samples] for name in samples[0]},
    }
    return metrics, notes


def traced_passes(lib, jobs, workdir, run: Run, seconds: float, tap, workload: str, bk_s: float):
    """Warm-up pass, then untraced and traced passes in turn."""
    run.one_pass(lib, jobs, workdir, tap)
    rec = tracing.Recorder()
    plain_wall, layer_samples, overhead = [], [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        untraced = run.one_pass(lib, jobs, workdir, tap)
        log = rec.begin_pass()
        with tracing.wrapped(lib, rec):
            drained = [0]

            def on_emit():
                drained[0] += rec.stream_ended

            traced = [run.listing(lib, job, workdir, tap, on_emit) for job in jobs]
        wall = sum(r.wall_s for r in untraced)
        plain_wall.append(wall)
        layer_samples.append((log, traced, drained[0], wall))
        overhead.append(
            end_to_end(traced)["cliques_per_s"] / end_to_end(untraced)["cliques_per_s"]
        )
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:
            break
    rows = [per_layer(log, traced, drained, bk_s, wall)
            for log, traced, drained, wall in layer_samples]
    metrics = {name: quartiles([row[name] for row in rows]) for name in rows[0]}
    metrics["trace.overhead"] = quartiles(overhead)
    log, traced, _, _ = layer_samples[len(layer_samples) // 2]
    shares = self_time_shares(log, traced)
    notes = {
        "traced_passes": len(layer_samples),
        "untraced_listing_s": quartiles(plain_wall),
        "self_time_share": {k: round(v, 4) for k, v in shares.items()},
        "prediction_checks": prediction_checks(workload, shares, traced),
    }
    return metrics, notes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(harness.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / harness.PACKAGE / "__init__.py").is_file():
        print(f"error: no {harness.PACKAGE} sources under {root / 'src'}", file=sys.stderr)
        return 2
    try:
        result = measure(root, args.workload, args.seed, args.seconds, bool(args.trace))
    except ImportError as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return 2
    except Exception:  # a listing raised: report it, print no result
        traceback.print_exc()
        return 1
    report(result)
    return 0 if result["correct"] else 1


def report(result: dict) -> None:
    print(f"workload {result['workload']}: {result['attempted']} listings checked, "
          f"{result['failed']} failed (failed_share {result['failed_share']:.3f})")
    for name, m in result["metrics"].items():
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}  "
              f"(q1 {m['q1']:.6g}, q3 {m['q3']:.6g}, n={m['n']})")
    print(json.dumps({k: v for k, v in result.items() if k != "metrics"} | {"metrics": result["metrics"]}))
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": m["value"], "unit": m["unit"]}
            for name, m in result["metrics"].items()
        },
    }))


if __name__ == "__main__":
    sys.exit(main())
