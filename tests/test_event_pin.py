"""Pinned digests of the traversal's event stream and strict emissions.

Performance work on the kernels, the stack or the scheduler must leave the
emission order and every charged cost unchanged.  These digests make that a
check: a change that alters order or costs on purpose updates the pins and
says why.
"""

import hashlib

import pytest

import cliquestream as cs

PIN_GRAPHS = {
    "gnp(40,.5)": lambda: cs.Graph.gnp(40, 0.5, seed=1),
    "gnp(90,.1)": lambda: cs.Graph.gnp(90, 0.1, seed=2),
    "moon-moser(12)": lambda: cs.Graph.complete_multipartite_triples(12),
}

# sha256 over "kind,mask,cost;" for every event of list_mc, graphs in the
# order above, then kernels ("bitset", "rect"), then capacities (1, 7, n^2)
EVENTS_SHA256 = "62191b3667db1e251d785c3e900915304e52184ac738f4f264fe57573febac8d"
# sha256 over the calibrated config and every run_strict emission on
# gnp(40,.5) with the bitset kernel and default calibration
STRICT_SHA256 = "60da02b4b4867847328d1657cd1e2fd49781ae81d0e16c3f1c037248ad5daa88"


def events_digest() -> str:
    h = hashlib.sha256()
    for make in PIN_GRAPHS.values():
        g = make()
        for kernel in ("bitset", "rect"):
            for capacity in (1, 7, g.n * g.n):
                for e in cs.list_mc(g, kernel=kernel, capacity=capacity):
                    bits = e.clique.bits if e.clique is not None else -1
                    h.update(f"{e.kind},{bits},{e.cost};".encode())
    return h.hexdigest()


def strict_digest() -> str:
    h = hashlib.sha256()
    report = cs.StrictRunReport()
    for em in cs.run_strict(PIN_GRAPHS["gnp(40,.5)"](), report=report):
        h.update(
            f"{em.clique.bits},{em.ordinal},{em.cost_units},"
            f"{em.queue_size},{em.stack_cliques};".encode()
        )
    h.update(f"{report.config.tau_delay},{report.config.boot_target}".encode())
    return h.hexdigest()


@pytest.mark.parametrize(
    "digest, pinned",
    [(events_digest, EVENTS_SHA256), (strict_digest, STRICT_SHA256)],
    ids=["list_mc-events", "run_strict-emissions"],
)
def test_digest_is_pinned(digest, pinned):
    assert digest() == pinned
