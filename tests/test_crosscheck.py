"""Counting and containment checked against networkx on graphs the
brute-force oracle (16 vertices at most) cannot reach: the final purchased
graphs of the reference cells, run without early stop, and `degree-greedy`
probe graphs at n = 200, 400 and 800.

networkx counts a pattern's copies as its subgraph monomorphisms (embeddings
that need not be induced) divided by the pattern's automorphisms, and finds
a k-fan centre as a vertex whose link graph has a maximum matching of k or
more edges. A copy of the triangle, C4, the diamond or a fan has minimum
degree 2, so networkx searches for those in the graph's 2-core alone.

The containment checks run on prefixes of one fixed shuffle of the graph's
edges: the incremental tracker is replayed over it from the empty graph,
and at its first hit (or on the whole graph when it never hits) networkx
must find the pattern in the prefix that ends there and not in the one
before, and the batch predicates must agree.
"""

import functools

import numpy as np
import pytest

nx = pytest.importorskip("networkx")

from networkx.algorithms.isomorphism import GraphMatcher

from budget_builder.detect import (
    _NO_NBRS,
    C4,
    DIAMOND,
    P3,
    P4,
    PAW,
    TRIANGLE,
    BuilderGraph,
    DiamondTracker,
    FanTracker,
    NullTracker,
    contains_diamond,
    contains_fan,
    count_pattern,
    detector_for,
    fan,
    fan_center_counts,
)
from budget_builder.experiments import cell_from_exponents
from budget_builder.process import ProcessConfig, run_strategy
from budget_builder.strategies import (
    StrategyKind,
    StrategySpec,
    build_strategy,
    select_strategy,
)

from conftest import builder_from, gnm_edges

_GREEDY = StrategySpec(StrategyKind.DEGREE_GREEDY)

# name -> (target, n, t, b, spec or None for the selected one)
_CELLS = {
    "c4": (DIAMOND, 400, 2000, 2560, None),
    "k4m-long": (DIAMOND, 400, 20000, 80, None),
    "c6": (fan(2), 400, 2000, 1638, None),
    "tk-long": (fan(2), 400, 3000, 512, None),
    "c7": (DIAMOND, 800, *cell_from_exponents(800, 1.35, 1.2), None),
    **{f"probe-{n}": (DIAMOND, n, round(n ** 1.3), round(n ** 1.1), _GREEDY)
       for n in (200, 400, 800)},
}
_SEED = 11


@functools.lru_cache(maxsize=None)
def _graph(name):
    """The purchased graph of one trial of the cell, as (BuilderGraph,
    networkx graph on its edges)."""
    target, n, t, b, spec = _CELLS[name]
    spec = spec or select_strategy(target, n, t, b)
    config = ProcessConfig(n, t, b, seed=_SEED)
    detector = NullTracker() if spec is _GREEDY else detector_for(target)
    g = run_strategy(config, build_strategy(spec, config), detector,
                     early_stop=False, keep_graph=True).purchased
    return g, nx.Graph(g.edges())


def _copies(G, pattern) -> int:
    P = nx.Graph(pattern.edge_list())
    automorphisms = sum(1 for _ in GraphMatcher(P, P).isomorphisms_iter())
    embeddings = sum(1 for _ in GraphMatcher(G, P).subgraph_monomorphisms_iter())
    assert embeddings % automorphisms == 0
    return embeddings // automorphisms


def _nx_link_matching(G, v) -> int:
    return len(nx.max_weight_matching(G.subgraph(G[v]), maxcardinality=True))


def _nx_contains(G, pattern) -> bool:
    core = nx.k_core(G, 2)
    if pattern.tag == "fan":
        triangles = nx.triangles(core)
        return any(_nx_link_matching(core, v) >= pattern.k
                   for v in core if triangles[v])
    return GraphMatcher(core, nx.Graph(pattern.edge_list())).subgraph_is_monomorphic()


def test_the_graphs_hold_what_the_checks_need():
    # Triangles, 4-cycles and a few hundred edges on most graphs, so the
    # counts below compare nonzero numbers.
    sizes = {name: _graph(name)[1].number_of_edges() for name in _CELLS}
    assert sum(size >= 150 for size in sizes.values()) >= 6, sizes
    assert sum(count_pattern(_graph(name)[0], C4) > 0 for name in _CELLS) >= 6


@pytest.mark.parametrize("name", sorted(_CELLS))
def test_triangle_and_paw_counts_match_networkx(name):
    g, G = _graph(name)
    assert count_pattern(g, TRIANGLE) == sum(nx.triangles(G).values()) // 3
    assert count_pattern(g, TRIANGLE) == _copies(G, TRIANGLE)
    assert count_pattern(g, PAW) == _copies(G, PAW)


@pytest.mark.parametrize("name", sorted(_CELLS))
def test_c4_count_matches_networkx(name):
    g, G = _graph(name)
    assert count_pattern(g, C4) == _copies(nx.k_core(G, 2), C4)


# P4 embeddings number in the tens of thousands on the larger graphs, so
# they are enumerated only on the graphs of at most 200 edges.
@pytest.mark.parametrize("name", ["k4m-long", "tk-long", "probe-200"])
def test_p4_count_matches_networkx(name):
    g, G = _graph(name)
    assert G.number_of_edges() <= 200
    assert count_pattern(g, P4) == _copies(G, P4)


@pytest.mark.parametrize("name", sorted(_CELLS))
def test_fan_center_counts_match_link_matchings(name):
    g, G = _graph(name)
    triangles = nx.triangles(G)
    sizes = [min(_nx_link_matching(G, v), 3) for v in G if triangles[v]]
    assert fan_center_counts(g, 3) == [sum(s >= k for s in sizes) for k in (1, 2, 3)]


@pytest.mark.parametrize("pattern", [DIAMOND, fan(1), fan(2), fan(3)], ids=str)
@pytest.mark.parametrize("name", sorted(_CELLS))
def test_containment_and_first_hit_match_networkx(name, pattern):
    g, _ = _graph(name)
    edges = sorted(g.edges())
    edges = [edges[i] for i in np.random.default_rng(_SEED).permutation(len(edges))]
    tracker = DiamondTracker() if pattern == DIAMOND else FanTracker(pattern.k)
    replay, hit = builder_from(g.n, []), None
    for m, (u, v) in enumerate(edges, 1):
        replay.insert_edge(u, v)
        if tracker.after_insert(replay, u, v):
            hit = m
            break
    contains = contains_diamond if pattern == DIAMOND else (lambda h: contains_fan(h, pattern.k))
    prefixes = [len(edges)] if hit is None else [hit - 1, hit]
    for m in prefixes:
        expected = _nx_contains(nx.Graph(edges[:m]), pattern)
        assert expected == (m == hit), (m, hit)
        assert contains(builder_from(g.n, edges[:m])) == expected, m


@pytest.mark.parametrize("name", sorted(_CELLS))
def test_closing_edges_are_the_last_edges_of_the_triangles(name):
    # The purchased graph's `closing` list, kept by both insert paths (the
    # short builders' seed blocks and the single rows), is the edges whose
    # ends shared a neighbour when they were bought, in purchase order; so
    # every networkx triangle's last-bought edge is in it.
    g, G = _graph(name)
    replay, expected = nx.empty_graph(g.n), []
    for u, v in g.edges():
        if any(True for _ in nx.common_neighbors(replay, u, v)):
            expected.append((u, v))
        replay.add_edge(u, v)
    assert g.closing == expected
    order = {e: i for i, e in enumerate(g.edges())}
    closing = set(g.closing)
    triangles = {tuple(sorted((u, v, w))) for u, v in G.edges()
                 for w in nx.common_neighbors(G, u, v)}
    assert bool(triangles) == bool(closing)
    for a, b, c in triangles:
        assert max((a, b), (a, c), (b, c), key=order.__getitem__) in closing, (a, b, c)


def test_counts_do_not_depend_on_purchase_order():
    # The edge table reads each triangle off its closing edges, one to
    # three of them by the order the edges were bought, and counts it at
    # the smallest; so every order of one graph gives the counts networkx
    # gives.
    rng = np.random.default_rng(_SEED)
    graphs = [(k, [(u, v) for u in range(k) for v in range(u + 1, k)]) for k in (4, 5)]
    graphs += [(9, gnm_edges(rng, 9, 20)), (12, gnm_edges(rng, 12, 34))]
    closing_per_triangle = set()
    for n, edges in graphs:
        G = nx.Graph(edges)
        triangles = {tuple(sorted((u, v, w))) for u, v in G.edges()
                     for w in nx.common_neighbors(G, u, v)}
        expected = ([len(triangles), _copies(nx.k_core(G, 2), C4), _copies(G, PAW),
                     _copies(G, P3), _copies(G, P4)],
                    [sum(min(_nx_link_matching(G, v), 3) >= k for v in G
                         if nx.triangles(G, v)) for k in (1, 2, 3)])
        for _ in range(8):
            order = [edges[i] for i in rng.permutation(len(edges))]
            g = builder_from(n, order)
            counts = [count_pattern(g, p) for p in (TRIANGLE, C4, PAW, P3, P4)]
            assert (counts, fan_center_counts(g, 3)) == expected, order
            closing = set(g.closing)
            closing_per_triangle |= {((a, b) in closing) + ((a, c) in closing)
                                     + ((b, c) in closing) for a, b, c in triangles}
    assert closing_per_triangle == {1, 2, 3}


def test_insert_edge_reports_a_neighbour_shared_before_the_insert(rng):
    # The flag the trial step asks its tracker on. Random graphs from a few
    # edges to all of K_n, each edge given in either order; the first edge
    # at an edgeless vertex reads the shared empty set.
    flags, first_edges = set(), 0
    for n in (2, 3, 8, 16, 30):
        pairs = n * (n - 1) // 2
        for m in (1, pairs // 8, pairs // 2, pairs):
            g, G = BuilderGraph(n), nx.empty_graph(n)
            for u, v in gnm_edges(rng, n, max(m, 1)):
                if rng.random() < 0.5:
                    u, v = v, u
                first_edges += g.adj[u] is _NO_NBRS or g.adj[v] is _NO_NBRS
                shared = any(True for _ in nx.common_neighbors(G, u, v))
                assert g.insert_edge(u, v) == shared, (n, m, u, v)
                assert (g.closing[-1:] == [(min(u, v), max(u, v))]) == shared
                G.add_edge(u, v)
                flags.add(shared)
    assert flags == {False, True} and first_edges > 0
