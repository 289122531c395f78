import pytest
from hypothesis import strategies as st

import cliquestream as cs
from cliquestream import oracle


def bridged_cliques_graph() -> cs.Graph:
    """K5 on 1..5 and a triangle on 6,7,8, joined by bridges 1-6, 2-7, 5-8.

    Its five maximal cliques and their tree structure are known by hand,
    which makes it the workhorse golden fixture.
    """
    edges = [(u, v) for u in range(1, 6) for v in range(u + 1, 6)]
    edges += [(6, 7), (6, 8), (7, 8), (1, 6), (2, 7), (5, 8)]
    return cs.Graph.from_edges(8, edges)


K5_SIDE = cs.VertexSet.of(1, 2, 3, 4, 5)
BRIDGE_16 = cs.VertexSet.of(1, 6)
BRIDGE_27 = cs.VertexSet.of(2, 7)
BRIDGE_58 = cs.VertexSet.of(5, 8)
TRIANGLE = cs.VertexSet.of(6, 7, 8)
BRIDGED_CLIQUES = [K5_SIDE, BRIDGE_16, BRIDGE_27, BRIDGE_58, TRIANGLE]


@pytest.fixture(scope="session")
def bridged() -> cs.Graph:
    return bridged_cliques_graph()


@st.composite
def graphs(draw, max_n=14):
    """Hypothesis strategy: a graph on 1..max_n vertices, each pair an edge
    or not."""
    n = draw(st.integers(1, max_n))
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    picks = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return cs.Graph.from_edges(n, [e for e, keep in zip(pairs, picks) if keep])


def sparse_with_isolated(n: int) -> cs.Graph:
    """gnp(n, 1.5 / n) at seed n, which has isolated vertices for the n
    used here."""
    g = cs.Graph.gnp(n, 1.5 / n, seed=n)
    assert 0 in g.adj
    return g


def path_graph(n: int) -> cs.Graph:
    return cs.Graph.from_edges(n, [(i, i + 1) for i in range(1, n)])


def random_graphs(count: int, seed0: int = 0, n_lo: int = 6, n_hi: int = 16,
                  ps=(0.2, 0.5, 0.8)):
    """Deterministic stream of G(n, p) instances cycling sizes and densities."""
    for k in range(count):
        n = n_lo + (k % (n_hi - n_lo + 1))
        p = ps[k % len(ps)]
        yield cs.Graph.gnp(n, p, seed=seed0 + k)


def small_family() -> list[cs.Graph]:
    """Fixed n <= 12 graphs for the exhaustive structural checks."""
    return [
        bridged_cliques_graph(),
        cs.Graph.complete_multipartite_triples(6),
        cs.Graph.complete_multipartite_triples(9),
        cs.Graph.complete(6),
        cs.Graph.from_edges(5, []),
        path_graph(6),
        cs.Graph.gnp(10, 0.4, seed=11),
        cs.Graph.gnp(12, 0.3, seed=12),
        cs.Graph.gnp(12, 0.6, seed=13),
        cs.Graph.gnp(12, 0.8, seed=14),
        cs.Graph.gnp(9, 0.2, seed=15),
    ]


def all_cliques(g: cs.Graph) -> list[cs.VertexSet]:
    """Every clique of g, the empty one included."""
    found = [0]

    def grow(bits: int, cand: int) -> None:
        while cand:
            low = cand & -cand
            cand ^= low
            nxt = bits | low
            found.append(nxt)
            grow(nxt, cand & g.adj[low.bit_length() - 1])

    grow(0, g.full_mask)
    return [cs.VertexSet(b) for b in found]


def collect_plain(g, kernel="bitset", capacity=None, stats=None):
    """Emission order of a plain traversal."""
    return [
        e.clique
        for e in cs.list_mc(g, kernel=kernel, capacity=capacity, stats=stats)
        if e.kind == cs.CLIQUE_COLLECTED
    ]


def oracle_bits(g) -> frozenset:
    return frozenset(c.bits for c in oracle.all_maximal_cliques(g))


def oracle_masks(g, limit: int = oracle.ORACLE_LIMIT) -> list[int]:
    """Every maximal clique's mask, the lexicographically greatest first:
    a batch as the kernels take it."""
    return [c.bits for c in oracle.all_maximal_cliques(g, limit=limit)]


def index_of(g, p: int) -> int:
    """Reverse-search index of the maximal clique mask ``p``, 0 for the
    root."""
    return cs.rs_tree.clique_index(g, cs.VertexSet(p)) or 0


def watch_children_steps(monkeypatch, watch):
    """Have every listing that ``delay_scheduler`` opens call
    ``watch(g, masks, indices)`` once per batch, with the batch's masks and
    the indices the traversal carries for them, in the order they are
    decided: last parent first in a plain "rect" step, batch order
    otherwise.  It wraps what ``delay_scheduler.step_events`` is handed, so
    it sees both kernels and both modes: the ``children_fn`` of a "rect"
    listing, watched before its step; and the ``decide`` of a "bitset"
    listing, whose parents are watched once the batch's last one is
    decided, before the batch completes (the masks each pop's walk hands
    either kernel pass through unwatched)."""
    real = cs.delay_scheduler.step_events

    def step_events(g, root_clique, children_fn, capacity, stats, counter, pace, decide):
        def watched(masks, indices, nears, outsides):
            watch(g, list(masks), list(indices))
            return children_fn(masks, indices, nears, outsides)

        if decide is None:
            return real(g, root_clique, watched, capacity, stats, counter, pace, None)
        decided = ([], [])

        def watched_decide(g, p, index, counter, near, outside):
            decided[0].append(p)
            decided[1].append(index)
            return decide(g, p, index, counter, near, outside)

        def events():
            for event in real(g, root_clique, None, capacity, stats, counter, pace, watched_decide):
                if event.kind == cs.BATCH_COMPLETED:
                    watch(g, *map(list, decided))
                    decided[0].clear()
                    decided[1].clear()
                yield event

        return events()

    monkeypatch.setattr(cs.delay_scheduler, "step_events", step_events)
