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

# sha256 over every event of list_mc, graphs in the order above, then
# kernels, then capacities (1, 7, n^2): "cost;" per event for one kernel
# each, and "kind,mask;" per event over the kernels ("bitset", "rect")
COST_SHA256 = {
    "bitset": "70c71c3a2d9a8b05d09244141902775621eb28a49dca587e3a531b992e9d0594",
    "rect": "155305821429536dfe4fbc316467ed1f4e5f40e31c12dd0b48f9af18e894f645",
}
ORDER_SHA256 = "1d7672e827f4fd0f821524884ee11baf180e43393fbfe1f64594bba65e450df8"
# sha256 over the calibrated config and every run_strict emission on
# gnp(40,.5) with the bitset kernel and default calibration
STRICT_SHA256 = "e82c5c10a6c9af51b3f061f52ac0062861a07738044b3698b4ab28e91992553b"


def events_digest(kernels, field) -> str:
    h = hashlib.sha256()
    for make in PIN_GRAPHS.values():
        g = make()
        for kernel in kernels:
            for capacity in (1, 7, g.n * g.n):
                for e in cs.list_mc(g, kernel=kernel, capacity=capacity):
                    h.update(field(e).encode())
    return h.hexdigest()


def cost_digest(kernel: str) -> str:
    return events_digest([kernel], lambda e: f"{e.cost};")


def order_digest() -> str:
    def kind_and_mask(e):
        return f"{e.kind},{e.clique.bits if e.clique is not None else -1};"

    return events_digest(["bitset", "rect"], kind_and_mask)


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
    [
        (lambda: cost_digest("bitset"), COST_SHA256["bitset"]),
        (lambda: cost_digest("rect"), COST_SHA256["rect"]),
        (order_digest, ORDER_SHA256),
        (strict_digest, STRICT_SHA256),
    ],
    ids=["list_mc-bitset-costs", "list_mc-rect-costs", "list_mc-order", "run_strict-emissions"],
)
def test_digest_is_pinned(digest, pinned):
    assert digest() == pinned


@pytest.mark.parametrize(
    "make",
    [*PIN_GRAPHS.values(), lambda: cs.Graph.complete_multipartite_triples(21)],
    ids=[*PIN_GRAPHS, "moon-moser(21)"],
)
def test_plain_bitset_events_cost_one_pop_and_one_test(make):
    """A plain bitset listing tests each parent right after its event: a
    clique event costs its own pop plus the previous clique's test unless it
    opens a batch, a batch-completed event its last clique's test.  Both are
    recomputed here from the clique alone."""
    g = make()
    root_units = cs.OpCounter()
    root = cs.rs_tree.root(g, root_units).bits
    pops, tests = {root: root_units.ops}, {}  # the root's event carries its construction
    for c in cs.oracle.all_maximal_cliques(g, limit=g.n):
        units = cs.OpCounter()
        index = cs.rs_tree.clique_index(g, c) or 0
        if c.bits != root:
            parent = cs.rs_tree.parent(g, c)
            assert cs.rs_tree.child(g, parent, index, units) == c  # the pop's completion
            pops[c.bits], units.ops = units.ops, 0
        cs.kernels.filter_children(g, c.bits, index, units)
        tests[c.bits] = units.ops
    for capacity in (1, 7, g.n * g.n):
        last = None  # the clique whose test the next event carries
        for e in cs.list_mc(g, capacity=capacity):
            test = tests[last] if last is not None else 0
            if e.kind == cs.CLIQUE_COLLECTED:
                assert e.cost == pops[e.clique.bits] + test
                last = e.clique.bits
            else:
                assert e.cost == test and (e.kind == cs.BATCH_COMPLETED) == (last is not None)
                last = None
