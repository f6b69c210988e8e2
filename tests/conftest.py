import numpy as np
import pytest

from budget_builder.detect import BuilderGraph
from budget_builder.strategies import _bought_rows


def gnp_edges(rng, n, p):
    return [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]


def gnm_edges(rng, n, m):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    idx = rng.permutation(len(pairs))[:m]
    return [pairs[i] for i in idx]


def hub_edges(rng, n, hubs):
    """Edges shaped like a degree-greedy graph: stars from the hub vertices
    0..hubs-1, closing edges between two leaves of one hub, and sometimes
    an edge between two hubs."""
    edges = set()
    for h in range(hubs):
        leaves = [v for v in range(hubs, n) if rng.random() < 0.6]
        edges.update((h, v) for v in leaves)
        for i, a in enumerate(leaves):
            edges.update((a, b) for b in leaves[i + 1:] if rng.random() < 0.3)
        edges.update((other, h) for other in range(h) if rng.random() < 0.5)
    return sorted(edges)


def builder_from(n, edges):
    g = BuilderGraph(n)
    for u, v in edges:
        g.insert_edge(u, v)
    return g


@pytest.fixture
def rng():
    return np.random.default_rng(0xBEEF)


class FakeState:
    """Minimal stand-in for ProcessState when driving strategies by hand:
    the stream's pair codes are all known before the first reveal, as once
    `draw_codes` has run."""

    def __init__(self, n, codes):
        self.clock = 0
        self.purchased = BuilderGraph(n)
        self.codes = codes


def drive(strategy, n, edges, budget):
    """Feed a fixed edge sequence to a strategy's `decide`, which settles
    its purchases from the whole sequence; returns (decisions, state)."""
    from budget_builder.process import Edge, pair_code

    state = FakeState(n, np.array([pair_code(n, u, v) for u, v in edges], dtype=np.int64))
    decisions = []
    for u, v in edges:
        state.clock += 1
        buy = strategy.decide(state, Edge(u, v))
        decisions.append(buy)
        if buy:
            assert state.purchased.edge_count < budget, "budget contract violated"
            state.purchased.insert_edge(u, v)
    return decisions, state


class PerReveal:
    """Forwards decide and stats only: without `buys`, run_strategy asks
    `decide` on every reveal. Around a strategy `build_strategy` returns
    this is the path the benchmark's tracer takes; around a
    `per_reveal.reference_strategy` it runs the hand-written rules."""

    def __init__(self, inner):
        self.name = inner.name
        self.decide = inner.decide
        self.stats = inner.stats


class BuysChecker:
    """A per-reveal run of the reference rules that checks the `buys`
    contract as it goes.

    `settled`, an instance built by `build_strategy`, runs its `buys`
    generator on the same state, read through `strategies._bought_rows` as
    `decide` reads it: resumed at the first reveal after the last row it
    yielded was bought, as the settled loop resumes it, and a block's rows
    reached one by one. The reference `inner` (from `reference_strategy`)
    must buy exactly the rows `buys` yields, and at each of them, rows
    inside a block included, both instances' `stats()` must agree: the
    generator has counted every stat up to its yield's last row, and a
    settled instance's `stats()` counts a block only up to `state.clock`.
    (A reveal the reference refuses may still count a skip; the generator
    counts those between its yields.)
    """

    def __init__(self, inner, settled):
        self.name = inner.name
        self.stats = inner.stats
        self._inner = inner
        self._settled = settled
        self._rows = None
        self._next = -1  # the bought row reached last
        self.skipped = 0

    def decide(self, state, e):
        i = state.clock - 1
        if i > self._next:
            if self._rows is None:
                self._rows = _bought_rows(self._settled.buys(state))
            self._next = next(self._rows, state.config.t)
        bought = self._inner.decide(state, e)
        if i == self._next:
            assert bought, f"buys yielded reveal {i}, the reference refused {e}"
            assert self._inner.stats() == self._settled.stats(), f"stats differ at bought reveal {i}"
        else:
            assert not bought, f"the reference bought reveal {i}, buys skipped it"
            self.skipped += 1
        return bought
