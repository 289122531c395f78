"""Smoothing the output stream with the bounded-delay scheduler.

Plain enumeration emits cliques in bursts: a whole batch is collected,
then a long children computation runs before the next burst.  Strict mode
banks cliques in a FIFO queue during a bootstrapping phase and afterwards
releases one clique per tau_delay work units, turning the bursts into a
steady drip with a provable worst-case gap.
"""

import cliquestream as cs
from cliquestream import delay_scheduler as ds

# The triple-part family maximizes the clique count, 3^(n/3) for n = 15.
g = cs.Graph.complete_multipartite_triples(15)
print(f"graph: n={g.n}, m={g.m}")

# Plain mode: measure the work-unit gaps between consecutive emissions.
cost, gaps = 0, []
for e in cs.list_mc(g):
    cost += e.cost
    if e.kind == cs.CLIQUE_COLLECTED:
        gaps.append(cost)
        cost = 0
print(f"plain mode: {len(gaps)} cliques, gap max={max(gaps)}, "
      f"median={sorted(gaps)[len(gaps) // 2]}")

# Strict mode: calibrate from the stream's head, then run the queue scheduler.
# The first batch is the root alone, so calibration reads the root and its
# children step: tau_delay = 2 * that step's units, boot_target = 2n.
# run_strict calibrates from its own stream; here the step is shown on a
# separate one, and gives the same config.
cfg, head = ds.calibrate(g, cs.list_mc(g))
print(f"calibrated from {len(head)} events: tau_delay={cfg.tau_delay}, "
      f"boot_target={cfg.boot_target}")

report = ds.StrictRunReport()
emissions = list(ds.run_strict(g, report=report))
assert report.config == cfg
strict_gaps = [e.cost_units for e in emissions]
bound = cfg.tau_delay + report.max_event_cost
print(f"strict mode: {len(emissions)} cliques, gap max={max(strict_gaps)} "
      f"<= bound {bound} (tau + max single event)")
print(f"boot banked {report.boot_collected} cliques silently; "
      f"queue peaked at {report.queue_peak} "
      f"<= {cfg.boot_target + g.n * g.n + 1}")
print(f"queue never starved after boot: {report.starved_checks == 0}")

# The printed sequence is exactly the collection order (FIFO fairness).
plain_order = [
    e.clique.bits for e in cs.list_mc(g) if e.kind == cs.CLIQUE_COLLECTED
]
print("FIFO order preserved:", [e.clique.bits for e in emissions] == plain_order)

# With the default capacity n^2 a desk-scale run finishes in a couple of
# batches and most cliques leave during the final drain.  A small capacity
# shows the steady drip the scheduler is built for: many batches, prints
# spaced close to tau_delay.
report = ds.StrictRunReport()
emissions = list(ds.run_strict(g, capacity=8, report=report))
cfg = report.config
live = [e for e in emissions if e.cost_units > 0]
print(f"\ncapacity 8: tau_delay={cfg.tau_delay}, "
      f"{len(live)} paced prints + {len(emissions) - len(live)} drained")
print("first paced emissions (ordinal, gap, queue size):")
for e in live[:8]:
    print(f"  #{e.ordinal:<3} gap={e.cost_units:<6} queue={e.queue_size}")
bound = cfg.tau_delay + report.max_event_cost
print(f"max gap {max(e.cost_units for e in emissions)} <= bound {bound}")
