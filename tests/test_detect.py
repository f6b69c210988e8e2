import copy
import pickle
import time

import numpy as np
import pytest

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
    Pattern,
    contains_diamond,
    contains_fan,
    contains_pattern,
    _max_matching_edges,
    count_pattern,
    diamond_through_edge,
    fan,
    fan_center_counts,
    read_edge_list,
)
from budget_builder.errors import DuplicateEdgeError, UnsupportedPattern

from conftest import builder_from, gnm_edges, gnp_edges, hub_edges
from oracle import SmallGraph, brute_contains, brute_count, brute_max_matching


def complete_graph(m):
    return builder_from(m, [(u, v) for u in range(m) for v in range(u + 1, m)])


def cycle_graph(m):
    return builder_from(m, [(i, (i + 1) % m) for i in range(m)])


def test_insert_edge_basics():
    g = BuilderGraph(3)
    g.insert_edge(0, 1)
    assert [len(g.adj[v]) for v in range(3)] == [1, 1, 0]
    g.insert_edge(2, 1)
    g.insert_edge(0, 2)
    assert g.edge_count == 3
    with pytest.raises(DuplicateEdgeError):
        g.insert_edge(1, 0)
    for u, v in ((0, 3), (-1, 1), (1, 1)):  # v = n, u < 0, a loop
        with pytest.raises(ValueError, match="bad edge"):
            g.insert_edge(u, v)
    # The refused inserts change nothing; edges() lists each edge as
    # u < v, in purchase order.
    assert g.edge_count == 3
    assert g.edges() == [(0, 1), (1, 2), (0, 2)]
    assert [len(g.adj[v]) for v in range(3)] == [2, 2, 2]


def test_insert_until_triangle_matches_insert_edge_row_by_row(rng):
    # Both graphs start with every vertex on the shared empty set, so each
    # run also gives first edges to `_NO_NBRS` vertices.
    for _ in range(60):
        n = int(rng.integers(3, 31))
        edges = gnm_edges(rng, n, int(rng.integers(1, n * (n - 1) // 2 + 1)))
        one = BuilderGraph(n)
        closing = [pair for pair in edges if one.insert_edge(*pair)]
        block = BuilderGraph(n)
        it = iter(edges)
        stops = list(iter(lambda: block.insert_until_triangle(it), None))
        assert stops == closing
        assert block.closing == one.closing == closing
        assert block._edges == one._edges
        assert all(x is y for x, y in zip(block._edges, edges))  # appended as given
        # A tuple in both lists would pickle as a memo reference, so the
        # graph's pickle would differ from the one `insert_edge` builds.
        kept = set(map(id, block._edges))
        assert not any(id(pair) in kept for pair in block.closing)
        assert pickle.dumps(block) == pickle.dumps(one)
        assert block.adj == one.adj
        assert [a is _NO_NBRS for a in block.adj] == [a is _NO_NBRS for a in one.adj]


def test_insert_edge_and_the_block_insert_build_one_graph(rng):
    # Random edge orders on n <= 12, each edge given to `insert_edge` in a
    # random orientation: one graph built per edge through `insert_edge`,
    # one through `insert_until_triangle`, and plain neighbour sets as the
    # reference. Each refused insert (a duplicate either way round, a loop,
    # an end below 0 or at n) raises and changes nothing.
    for _ in range(150):
        n = int(rng.integers(2, 13))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        order = [pairs[i] for i in rng.permutation(len(pairs))[:int(rng.integers(len(pairs) + 1))]]
        one, block = BuilderGraph(n), BuilderGraph(n)
        nbrs = [set() for _ in range(n)]
        flags, closes = [], []
        for u, v in order:
            flags.append(one.insert_edge(*((v, u) if rng.random() < 0.5 else (u, v))))
            closes.append(not nbrs[u].isdisjoint(nbrs[v]))
            nbrs[u].add(v)
            nbrs[v].add(u)
            for dup in ((u, v), (v, u)):
                with pytest.raises(DuplicateEdgeError):
                    one.insert_edge(*dup)
            for bad in ((u, u), (-1, v), (u, n), (n, v)):
                with pytest.raises(ValueError, match="bad edge"):
                    one.insert_edge(*bad)
        it = iter(order)
        stops = list(iter(lambda: block.insert_until_triangle(it), None))
        assert flags == closes
        assert stops == block.closing == one.closing == [e for e, c in zip(order, closes) if c]
        assert block._edges == one._edges == order
        assert block.adj == one.adj == nbrs
        assert pickle.dumps(block) == pickle.dumps(one)


def test_read_edge_list_builds_the_graph_its_edges_build_one_by_one(rng, tmp_path):
    # `read_edge_list` feeds its checked pairs to the block insert; the
    # graph, pickle included, is the one `insert_edge` builds from the same
    # distinct pairs in the same order, relabelled.
    path = tmp_path / "g.txt"
    for _ in range(30):
        n = int(rng.integers(2, 13))
        ids = sorted(rng.choice(10**6, n, replace=False).tolist())
        lines = [(ids[u], ids[v]) if rng.random() < 0.5 else (ids[v], ids[u])
                 for u, v in gnm_edges(rng, n, int(rng.integers(1, n * (n - 1) // 2 + 1)))]
        path.write_text("".join(f"{a} {b}\n" for a, b in lines))
        edges = set()
        for a, b in lines:
            edges.add((min(a, b), max(a, b)))
        label = {x: i for i, x in enumerate(sorted({x for e in edges for x in e}))}
        one = builder_from(len(label), [(label[a], label[b]) for a, b in edges])
        assert pickle.dumps(read_edge_list(path)) == pickle.dumps(one)


def test_contains_diamond_examples():
    assert contains_diamond(complete_graph(4))
    assert not contains_diamond(cycle_graph(5))


def test_contains_diamond_random_vs_oracle(rng):
    for _ in range(60):
        edges = gnm_edges(rng, 10, 20)
        g = builder_from(10, edges)
        assert contains_diamond(g) == brute_contains(SmallGraph(10, edges), DIAMOND)


def test_diamond_completing_chord_of_c4():
    g = cycle_graph(4)
    assert diamond_through_edge(g, 0, 2)


def test_diamond_completing_paw_closure():
    g = builder_from(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
    assert diamond_through_edge(g, 1, 3)


def test_diamond_completing_matches_oracle_differencing_on_p4():
    p4 = builder_from(4, [(0, 1), (1, 2), (2, 3)])
    for u in range(4):
        for v in range(u + 1, 4):
            if v in p4.adj[u]:
                continue
            grown = brute_contains(SmallGraph(4, p4.edges() + [(u, v)]), DIAMOND)
            assert diamond_through_edge(p4, u, v) == grown


def test_diamond_completing_matches_oracle_differencing(rng):
    # On diamond-free bases, check(e) == oracle(g + e).
    checked = 0
    while checked < 25:
        edges = gnm_edges(rng, 8, int(rng.integers(3, 12)))
        if brute_contains(SmallGraph(8, edges), DIAMOND):
            continue
        checked += 1
        g = builder_from(8, edges)
        for u in range(8):
            for v in range(u + 1, 8):
                if v in g.adj[u]:
                    continue
                grown = brute_contains(SmallGraph(8, edges + [(u, v)]), DIAMOND)
                assert diamond_through_edge(g, u, v) == grown


def _link_matching_size(g, v, cap):
    """The capped maximum matching of v's link graph, the edges of g with
    both ends in N(v), built from adjacency."""
    nbrs = g.adj[v]
    return _max_matching_edges([(x, y) for x in nbrs for y in g.adj[x] & nbrs if y > x], cap)


def test_link_matching_on_two_fan_center():
    g = builder_from(5, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)])
    assert _link_matching_size(g, 0, 5) == 2


def test_link_matching_on_k4_is_one():
    g = complete_graph(4)
    for v in range(4):
        assert _link_matching_size(g, v, 5) == 1


def test_link_matching_random_vs_oracle(rng):
    for p in [0.3] * 40 + [0.6] * 40:  # and a denser G(n, p)
        edges = gnp_edges(rng, 12, p)
        g = builder_from(12, edges)
        nbrs = g.adj[0]
        link = [(u, v) for u, v in edges if u in nbrs and v in nbrs]
        oracle_val = brute_max_matching(SmallGraph(12, link)) if link else 0
        for cap in (1, 2, 3, 5):
            assert _link_matching_size(g, 0, cap) == min(oracle_val, cap)


def test_link_matching_on_a_star_link_stays_shallow():
    # Vertex 0 meets a hub 1 and 2,000 leaves, each leaf also meets the hub:
    # the link of 0 is a star of 2,000 edges, whose matching is 1. A search
    # that recursed once per edge would exceed Python's recursion limit.
    leaves = range(2, 2002)
    g = builder_from(2002, [(0, 1)] + [(0, x) for x in leaves] + [(1, x) for x in leaves])
    assert _link_matching_size(g, 0, 2) == 1


def test_link_matching_on_hub_links_vs_oracle(rng):
    # The link of vertex 0 is a hub graph: stars with more leaves than the
    # greedy matching's cover has vertices, so the kernel drops edges.
    for _ in range(60):
        n = int(rng.integers(6, 14))
        link = [(u + 1, v + 1) for u, v in hub_edges(rng, n - 1, int(rng.integers(1, 4)))]
        g = builder_from(n, [(0, x) for x in range(1, n)] + link)
        oracle_val = brute_max_matching(SmallGraph(n, link)) if link else 0
        for cap in (1, 2, 3, 5):
            assert _link_matching_size(g, 0, cap) == min(oracle_val, cap)


def test_matching_below_its_cap_stays_fast():
    # Below cap, a search over all m edges takes time growing like m^cap;
    # the greedy matching's kernel keeps at most 22 and 5 of these edges.
    double_star = [(0, x) for x in range(2, 202)] + [(1, x) for x in range(202, 402)]
    star = [(0, x) for x in range(1, 3001)]
    for edges, cap, size in ((double_star, 3, 2), (star, 2, 1)):
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            assert _max_matching_edges(edges, cap) == size
            best = min(best, time.perf_counter() - t0)
        assert best < 0.01, (len(edges), cap, best)


def test_contains_fan_friendship_and_k4():
    f2 = builder_from(5, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)])
    assert contains_fan(f2, 2)
    assert not contains_fan(complete_graph(4), 2)


def test_contains_fan_on_a_book_needs_the_matching(monkeypatch):
    import budget_builder.detect as detect

    # Spine 0-1 and wings 2, 3, 4, each joined to 0 and 1. The spine ends
    # have degree 4 and three link edges each, so both pass the 2-fan
    # filters, but every link edge at 0 meets 1 (and at 1 meets 0): three
    # triangles, no two of which share only the centre.
    book = builder_from(5, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (0, 4), (1, 4)])
    # The search recurses with cap 1, so the calls with cap 2 are the
    # centres' link lists.
    calls = []
    real = detect._max_matching_edges
    monkeypatch.setattr(detect, "_max_matching_edges",
                        lambda edges, cap: cap == 2 and calls.append(sorted(edges))
                        or real(edges, cap))
    assert not contains_fan(book, 2)
    assert sorted(calls) == [[(0, 2), (0, 3), (0, 4)], [(1, 2), (1, 3), (1, 4)]]
    assert contains_fan(book, 1)


def test_contains_fan_random_vs_oracle(rng):
    for _ in range(40):
        edges = gnp_edges(rng, 12, float(rng.uniform(0.1, 0.5)))
        g = builder_from(12, edges)
        assert contains_fan(g, 2) == brute_contains(SmallGraph(12, edges), fan(2))
    # Hub graphs, dense in triangles, at k = 1..3.
    outcomes = set()
    for _ in range(40):
        n = int(rng.integers(5, 13))
        edges = hub_edges(rng, n, int(rng.integers(1, 4)))
        g = builder_from(n, edges)
        for k in (1, 2, 3):
            found = contains_fan(g, k)
            assert found == brute_contains(SmallGraph(n, edges), fan(k))
            outcomes.add((k, found))
    assert len(outcomes) == 6  # each k both present and absent


def test_matching_within_examples():
    path5 = [(0, 1), (1, 2), (2, 3), (3, 4)]
    assert _max_matching_edges(path5, 2) == 2
    assert _max_matching_edges(path5, 5) == 2
    # The path's edges inside a vertex set: (2, 3) in {2, 3}, none in {0, 2, 4}.
    for inside, size in (({2, 3}, 1), ({0, 2, 4}, 0)):
        assert _max_matching_edges([e for e in path5 if inside.issuperset(e)], 3) == size


def test_matching_within_random_vs_oracle(rng):
    for _ in range(40):
        edges = gnp_edges(rng, 12, 0.25)
        assert _max_matching_edges(edges, 8) == brute_max_matching(SmallGraph(12, edges))


def _capped_oracle(n, edges, cap):
    return min(cap, brute_max_matching(SmallGraph(n, edges)))


def test_matching_equals_the_oracle_on_small_edge_sets(rng):
    # Every edge set on 5 vertices (so every one on fewer), in a random
    # order, as the greedy matching depends on it; then random edge sets on
    # 6-8 vertices. Both early exits and the kernel search are reached.
    k5 = [(u, v) for u in range(5) for v in range(u + 1, 5)]
    for mask in range(1 << len(k5)):
        edges = [k5[i] for i in rng.permutation(len(k5)) if mask >> i & 1]
        for cap in (1, 2, 3, 4):
            assert _max_matching_edges(edges, cap) == _capped_oracle(5, edges, cap), (edges, cap)
    for _ in range(2000):
        n = int(rng.integers(6, 9))
        edges = gnm_edges(rng, n, int(rng.integers(1, n * (n - 1) // 2 + 1)))
        for cap in (1, 2, 3, 4):
            assert _max_matching_edges(edges, cap) == _capped_oracle(n, edges, cap), (edges, cap)


@pytest.mark.parametrize("edges, size, searched", [
    ([(0, 1), (2, 3), (4, 5)], 3, False),  # the greedy matching uses every edge
    ([(0, 1), (0, 2), (1, 2)], 1, False),  # a triangle: one of its 3 vertices unmatched
    ([(0, 1), (0, 2)], 1, False),  # a 2-edge star: one vertex unmatched
    ([(1, 2), (0, 1), (2, 3)], 2, True),  # the 3-edge path, middle edge first
    ([(0, 1), (0, 2), (0, 3)], 1, True),  # a 3-edge star leaves two unmatched
], ids=["disjoint", "triangle", "cherry", "path-middle-first", "star"])
def test_matching_exits_at_a_provably_maximum_greedy_matching(edges, size, searched,
                                                               monkeypatch):
    import budget_builder.detect as detect

    # The kernel search recurses through the module's name, so a recursive
    # call shows that the greedy matching did not answer.
    calls = []
    real = detect._max_matching_edges
    monkeypatch.setattr(detect, "_max_matching_edges",
                        lambda edges, cap: calls.append(edges) or real(edges, cap))
    assert real(edges, 4) == size
    assert bool(calls) == searched


def test_count_pattern_k4_and_c5():
    k4 = complete_graph(4)
    assert count_pattern(k4, TRIANGLE) == 4
    assert count_pattern(k4, C4) == 3
    assert count_pattern(k4, P3) == 12
    assert count_pattern(k4, PAW) == 12
    c5 = cycle_graph(5)
    assert count_pattern(c5, TRIANGLE) == 0
    assert count_pattern(c5, C4) == 0
    assert count_pattern(c5, P3) == 5
    assert count_pattern(c5, P4) == 5


def test_count_pattern_rejects_unsupported():
    with pytest.raises(UnsupportedPattern):
        count_pattern(complete_graph(4), DIAMOND)
    with pytest.raises(UnsupportedPattern):
        count_pattern(complete_graph(4), fan(2))
    # The containment checks refuse what they cannot decide, and no fan has k < 1.
    with pytest.raises(UnsupportedPattern):
        contains_pattern(complete_graph(4), Pattern("k5"))
    for refuse_k0 in (fan, lambda k: contains_fan(complete_graph(4), k), FanTracker):
        with pytest.raises(UnsupportedPattern, match="fan size must be >= 1, got 0"):
            refuse_k0(0)


# No vertex has two neighbours, so the C4 wedge table is empty.
WEDGE_FREE_GRAPHS = [
    (0, []),
    (1, []),
    (2, [(0, 1)]),
    (7, [(2, 5)]),
    (8, [(0, 1), (2, 3), (4, 5), (6, 7)]),
    (8, [(0, 5), (1, 4), (2, 7), (3, 6)]),
]


def _count_graphs(rng):
    yield from WEDGE_FREE_GRAPHS
    for _ in range(40):
        yield 10, gnp_edges(rng, 10, float(rng.uniform(0.1, 0.7)))
    for _ in range(40):
        n = int(rng.integers(4, 13))
        yield n, hub_edges(rng, n, int(rng.integers(1, 4)))


def test_count_pattern_random_vs_oracle(rng):
    for n, edges in _count_graphs(rng):
        g = builder_from(n, edges)
        sg = SmallGraph(n, edges)
        for pattern in (TRIANGLE, C4, PAW, P3, P4):
            assert count_pattern(g, pattern) == brute_count(sg, pattern)


def test_count_identities_on_complete_graphs():
    from math import comb

    for m in range(3, 7):
        km = complete_graph(m)
        assert count_pattern(km, TRIANGLE) == comb(m, 3)
        assert count_pattern(km, C4) == 3 * comb(m, 4)
        assert count_pattern(km, P3) == m * comb(m - 1, 2)


def _every_count(g):
    return ([count_pattern(g, p) for p in (TRIANGLE, C4, PAW, P3, P4)],
            fan_center_counts(g, 3), [contains_fan(g, k) for k in (1, 2, 3)])


def test_counts_after_an_insert_match_a_fresh_graph(rng):
    # The counts share an edge table cached on the graph; inserts after a
    # count must reach the next one. Vertex 0 centres one triangle and has
    # two more neighbours, 3 and 4, away from a random graph on 5..19.
    edges = [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4)]
    edges += [(u + 5, v + 5) for u, v in gnm_edges(rng, 15, 40)]
    g = builder_from(20, edges)
    before = _every_count(g)
    # (3, 4) closes a new triangle and makes 0 a 2-fan centre.
    new = [(3, 4), (1, 5)]
    for u, v in new:
        g.insert_edge(u, v)
    after = _every_count(g)
    assert after == _every_count(builder_from(20, edges + new))
    assert after[0][0] == before[0][0] + 1
    assert after[1][1] == before[1][1] + 1


def test_a_count_leaves_the_pickled_graph_unchanged(rng):
    g = builder_from(30, gnm_edges(rng, 30, 90))
    before = pickle.dumps(g)
    counts = _every_count(g)
    assert pickle.dumps(g) == before
    assert _every_count(pickle.loads(before)) == counts


def test_round_trips_take_edges_at_edgeless_vertices():
    # Vertices 5..9 have no edge and read one shared empty set. A pickled or
    # deep-copied graph must still give such a vertex its own set at its
    # first edge, and end up as a fresh graph on the same edges would.
    # The triangle-closing edges travel with the graph, and a clone goes on
    # appending to its own list: (0, 9) closes 0-2-9.
    edges = [(0, 1), (1, 2), (0, 2), (3, 4)]
    later = [(5, 7), (2, 9), (0, 9)]
    fresh = builder_from(10, edges + later)
    g = builder_from(10, edges)
    for clone in (pickle.loads(pickle.dumps(g)), copy.deepcopy(g)):
        assert clone.closing == g.closing == [(0, 2)]
        for u, v in later:
            clone.insert_edge(u, v)
        assert clone.adj == fresh.adj and clone.edges() == fresh.edges()
        assert clone.closing == fresh.closing == [(0, 2), (0, 9)]
        assert pickle.dumps(clone) == pickle.dumps(fresh)
    assert g.closing == [(0, 2)]
    assert g.edge_count == len(edges) and not g.adj[5] and not g.adj[9]


def test_monotonicity_under_insertion(rng):
    for _ in range(10):
        edges = gnm_edges(rng, 10, 25)
        g = BuilderGraph(10)
        prev_counts = {p: 0 for p in (TRIANGLE, C4, PAW, P3, P4)}
        prev_contained = False
        for u, v in edges:
            g.insert_edge(u, v)
            for p, old in prev_counts.items():
                new = count_pattern(g, p)
                assert new >= old
                prev_counts[p] = new
            now = contains_diamond(g)
            assert now or not prev_contained
            prev_contained = now


def test_incremental_or_equals_final_containment(rng):
    for _ in range(60):
        edges = gnm_edges(rng, 12, int(rng.integers(5, 40)))
        g = BuilderGraph(12)
        acc = False
        for u, v in edges:
            acc = diamond_through_edge(g, u, v) or acc
            g.insert_edge(u, v)
        assert acc == contains_diamond(g)


def test_fan_tracker_incremental_or_equals_batch(rng):
    for _ in range(100):
        edges = gnm_edges(rng, 11, int(rng.integers(8, 45)))
        for k in (1, 2):
            g = BuilderGraph(11)
            tracker = FanTracker(k)
            fired = False
            for u, v in edges:
                g.insert_edge(u, v)
                fired = tracker.after_insert(g, u, v) or fired
            assert fired == contains_fan(g, k)


def _tracker_graphs(rng):
    for _ in range(40):
        yield 11, gnm_edges(rng, 11, int(rng.integers(8, 45)))
    for _ in range(40):
        n = int(rng.integers(5, 13))
        edges = hub_edges(rng, n, int(rng.integers(1, 4)))
        yield n, [edges[i] for i in rng.permutation(len(edges))]


@pytest.mark.parametrize("new_tracker, contains", [
    (DiamondTracker, contains_diamond),
    (lambda: FanTracker(1), lambda g: contains_fan(g, 1)),
    (lambda: FanTracker(2), lambda g: contains_fan(g, 2)),
    (lambda: FanTracker(3), lambda g: contains_fan(g, 3)),
], ids=["diamond", "fan1", "fan2", "fan3"])
def test_tracker_first_hit_is_the_first_containing_prefix(new_tracker, contains, rng):
    """Called as run_strategy calls it (after every insert, from the empty
    graph, until the first True, with one tracker per graph as
    `detector_for` gives one per trial), a tracker fires at exactly the
    first prefix that contains its pattern."""
    hits = 0
    for n, edges in _tracker_graphs(rng):
        g, tracker = BuilderGraph(n), new_tracker()
        for u, v in edges:
            g.insert_edge(u, v)
            fired = tracker.after_insert(g, u, v)
            assert fired == contains(g), (n, edges, (u, v))
            if fired:
                hits += 1
                break
    assert 10 < hits < 80  # both outcomes occur


def _rebuilt_links(g, x):
    """The link graph of x from adjacency: the edges inside N(x)."""
    nbrs = g.adj[x]
    return {frozenset((a, b)) for a in nbrs for b in g.adj[a] & nbrs}


def _book_edges(rng, n):
    """A book, spine 0-1 and wings 2..n-1, in random order: each link edge
    at a spine end meets the other, so no 2-fan however many pages."""
    edges = [(0, 1)] + [(s, w) for w in range(2, n) for s in (0, 1)]
    return [edges[i] for i in rng.permutation(len(edges))]


@pytest.mark.parametrize("k", [1, 2, 3])
def test_fan_tracker_keeps_the_link_graphs(k, rng):
    """Asked as run_strategy asks it (after each insert that closes a
    triangle, until the first True), the tracker's kept lists are the link
    graphs rebuilt from adjacency, each edge once, and their total stays
    within 4(k-1)m + 3n."""
    graphs = [(11, gnm_edges(rng, 11, int(rng.integers(8, 45)))) for _ in range(25)]
    for _ in range(25):
        n = int(rng.integers(5, 13))
        edges = hub_edges(rng, n, int(rng.integers(1, 4)))
        graphs.append((n, [edges[i] for i in rng.permutation(len(edges))]))
    graphs += [(n, _book_edges(rng, n)) for n in (3, 6, 12)]
    outcomes = set()
    for n, edges in graphs:
        g, tracker = BuilderGraph(n), FanTracker(k)
        fired = False
        for u, v in edges:
            fired = g.insert_edge(u, v) and tracker.after_insert(g, u, v)
            for x in range(n):
                kept = tracker.links.get(x, [])
                assert len(kept) == len(set(map(frozenset, kept))), (n, edges, x)
                assert set(map(frozenset, kept)) == _rebuilt_links(g, x), (n, edges, x)
            total = sum(map(len, tracker.links.values()))
            assert total <= 4 * (k - 1) * g.edge_count + 3 * n, (n, edges)
            if fired:
                break
        assert fired == contains_fan(g, k)
        outcomes.add(fired)
    assert outcomes == {False, True}


def test_fan_tracker_serves_one_graph():
    g = builder_from(4, [(0, 1), (1, 2), (2, 3)])
    h = builder_from(3, [(0, 1), (1, 2)])
    tracker = FanTracker(2)
    g.insert_edge(0, 2)
    assert not tracker.after_insert(g, 0, 2)
    h.insert_edge(0, 2)
    with pytest.raises(ValueError, match="one graph"):
        tracker.after_insert(h, 0, 2)
    # Its own graph is still served: (1, 3) closes 1-2-3, and the two link
    # edges at 2, (0, 1) and (1, 3), share 1.
    g.insert_edge(1, 3)
    assert not tracker.after_insert(g, 1, 3)
    assert set(map(frozenset, tracker.links[2])) == {frozenset((0, 1)), frozenset((1, 3))}


def test_fan_tracker_skips_inserts_that_close_no_triangle(monkeypatch):
    import budget_builder.detect as detect

    calls = []
    real = detect._max_matching_edges
    monkeypatch.setattr(detect, "_max_matching_edges",
                        lambda edges, cap: calls.append(edges) or real(edges, cap))
    # (4, 5) and (5, 6) close no triangle, though 4 and 5 reach degree 2,
    # which passes the degree test of a 1-fan centre.
    g = builder_from(7, [(0, 1), (0, 2), (0, 3), (0, 4), (2, 5)])
    tracker = FanTracker(1)
    for u, v in ((4, 5), (5, 6)):
        g.insert_edge(u, v)
        assert not tracker.after_insert(g, u, v)
    assert calls == []
    g.insert_edge(1, 2)  # closes triangle 0-1-2
    assert tracker.after_insert(g, 1, 2)
    assert calls


@pytest.mark.parametrize("pattern, size", [
    (TRIANGLE, 3), (P3, 3), (P4, 4), (C4, 4), (DIAMOND, 4), (PAW, 4),
    (fan(1), 3), (fan(3), 7),
])
def test_num_vertices(pattern, size):
    assert pattern.num_vertices == size


def test_read_edge_list(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("# a diamond\n0 1\n0 2\n0 3\n1 2\n1 3  # last\n\n")
    g = read_edge_list(path)
    assert g.n == 4
    assert g.edge_count == 5
    assert contains_diamond(g)


def test_read_edge_list_relabels_sparse_ids(tmp_path):
    # Memory follows the lines, not the largest id: two ids near 10^12
    # become vertices 0 and 1.
    path = tmp_path / "far.txt"
    path.write_text("999999999999 1000000000000\n")
    g = read_edge_list(path)
    assert g.n == 2
    assert g.edges() == [(0, 1)]
    # Sorted distinct ids keep their order: a triangle and a pendant edge
    # spread over large ids is still a paw.
    path.write_text("10 7000000\n7000000 90\n90 10\n90 5\n")
    g = read_edge_list(path)
    assert g.n == 4
    assert sorted(g.edges()) == [(0, 2), (1, 2), (1, 3), (2, 3)]  # 5, 10, 90, 7000000
    assert count_pattern(g, PAW) == 1


def test_read_edge_list_rejects_garbage(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("0 1 2\n")
    with pytest.raises(ValueError):
        read_edge_list(path)
