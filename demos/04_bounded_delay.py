"""Smoothing the output stream with the bounded-delay scheduler.

Plain enumeration reads each children step as the stack reaches its
parents.  "bitset" tests each parent right after its pop, so a gap is one
pop plus one parent's test.  "rect" stacks a batch's candidate pairs once,
then decides them chunk by chunk, so a gap holds one pop and the chunks up
to the next parent with children; on a small graph one chunk covers a
whole batch.  Strict mode banks
cliques in a FIFO queue during a bootstrapping phase and afterwards
releases one clique per tau_delay work units, turning the output into a
steady drip whose worst-case gap holds while the queue never starves.
Past boot a print is also forced once the queue passes a reserve of
CALIBRATION_MARGIN * boot_target masks, so the queue follows the stack.
"""

import cliquestream as cs
from cliquestream import delay_scheduler as ds

# The triple-part family maximizes the clique count, 3^(n/3) for n = 15.
g = cs.Graph.complete_multipartite_triples(15)
print(f"graph: n={g.n}, m={g.m}")

# Plain mode: measure the work-unit gaps between consecutive emissions.
for kernel in ("rect", "bitset"):
    cost, gaps = 0, []
    for e in cs.list_mc(g, kernel=kernel):
        cost += e.cost
        if e.kind == cs.CLIQUE_COLLECTED:
            gaps.append(cost)
            cost = 0
    print(f"plain {kernel}: {len(gaps)} cliques, gap max={max(gaps)}, "
          f"median={sorted(gaps)[len(gaps) // 2]}")

# Strict mode calibrates from its own boot.  The first batch is the root
# alone; boot then banks until a batch completes with 1 + the root's
# children count banked, and tau_delay = 2 * the units charged after the
# root batch // the cliques banked after the root: twice boot's amortized
# cost per clique.  Its stream tests each batch's parents at the batch end,
# so boot reads the root's children count there; the run keeps the config
# in its report.
report = ds.StrictRunReport()
emissions = list(ds.run_strict(g, report=report))
cfg = report.config
print(f"boot banked {report.boot_collected} cliques: "
      f"tau_delay={cfg.tau_delay}, boot_target={cfg.boot_target}")
mean = report.stats.total_cost / len(emissions)
print(f"strict mode: {len(emissions)} cliques, tau_delay = "
      f"{cfg.tau_delay / mean:.2f}x the mean {mean:.0f} units per clique")
print(f"first output after {report.first_output_units} of "
      f"{report.stats.total_cost} units; {report.drained} cliques left "
      f"in the final drain")
# the report keeps the largest gap as one running max, not a list of gaps
print(f"gap max={report.max_gap_units} = {report.max_gap_units / cfg.tau_delay:.2f} "
      f"tau_delay; queue peaked at {report.queue_peak} "
      f"<= max(boot banked, reserve) + 1 = "
      f"{max(report.boot_collected, ds.CALIBRATION_MARGIN * cfg.boot_target) + 1}")
print(f"queue never starved after boot: {report.starved_checks == 0}")

# The printed sequence is exactly the collection order (FIFO fairness).
plain_order = [
    e.clique.bits for e in cs.list_mc(g) if e.kind == cs.CLIQUE_COLLECTED
]
print("FIFO order preserved:", [e.clique.bits for e in emissions] == plain_order)

# The bitset kernel's children step always runs parent by parent; after
# boot the scheduler's pace only adds a children-work event once the next
# print is due, so prints fall inside a batch's children step as well as
# between pops.  A small capacity gives many batches; the drip is the same.
report = ds.StrictRunReport()
emissions = list(ds.run_strict(g, capacity=8, report=report))
cfg = report.config
mean = report.stats.total_cost / len(emissions)
print(f"\ncapacity 8: tau_delay={cfg.tau_delay} "
      f"({cfg.tau_delay / mean:.2f}x the mean), first output after "
      f"{report.first_output_units} units, "
      f"{len(emissions) - report.drained} paced prints + {report.drained} drained")
print("first paced emissions (ordinal, gap, queue size):")
for e in emissions[:8]:
    print(f"  #{e.ordinal:<3} gap={e.cost_units:<6} queue={e.queue_size}")
print(f"max gap {max(e.cost_units for e in emissions)} "
      f"<= 3 tau_delay = {3 * cfg.tau_delay}")

# Strict "rect" paces the same chunks: at the default capacity n^2 a print
# may fall between two chunks of one batch, so a gap passes tau_delay by at
# most one chunk's charge, the largest event, not by a whole batch's.
h = cs.Graph.gnp(60, 0.3, seed=1)
report = ds.StrictRunReport()
emissions = list(ds.run_strict(h, kernel="rect", report=report))
tau = report.config.tau_delay
print(f"\nstrict rect on gnp(60, .3): gap max {report.max_gap_units / tau:.2f} tau_delay "
      f"<= 1 + the largest event, {report.max_event_cost / tau:.2f} tau_delay")
