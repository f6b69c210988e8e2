import numpy as np
import pytest

from budget_builder.detect import BuilderGraph


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
    """Minimal stand-in for ProcessState when driving strategies by hand."""

    def __init__(self, n):
        self.clock = 0
        self.purchased = BuilderGraph(n)
        self.codes = []  # pair codes of the reveals so far


def drive(strategy, n, edges, budget):
    """Feed a fixed edge sequence to a strategy; returns (decisions, state)."""
    from budget_builder.process import Edge, pair_code

    state = FakeState(n)
    decisions = []
    for u, v in edges:
        state.clock += 1
        state.codes.append(pair_code(n, u, v))
        buy = strategy.decide(state, Edge(u, v))
        decisions.append(buy)
        if buy:
            assert state.purchased.edge_count < budget, "budget contract violated"
            state.purchased.insert_edge(u, v)
    return decisions, state
