import numpy as np
import pytest

from budget_builder.detect import (
    C4,
    DIAMOND,
    P3,
    P4,
    PAW,
    TRIANGLE,
    BuilderGraph,
    contains_diamond,
    contains_fan,
    count_pattern,
    diamond_completing_check,
    fan,
    link_matching_size,
    matching,
    matching_within,
    read_edge_list,
)
from budget_builder.errors import DuplicateEdgeError, UnsupportedPattern
from budget_builder.oracle import (
    SmallGraph,
    brute_contains,
    brute_count,
    brute_max_matching,
    contains_p3_within,
)

from conftest import builder_from, gnm_edges, gnp_edges


def complete_graph(m):
    return builder_from(m, [(u, v) for u in range(m) for v in range(u + 1, m)])


def cycle_graph(m):
    return builder_from(m, [(i, (i + 1) % m) for i in range(m)])


def test_insert_edge_basics():
    g = BuilderGraph(3)
    g.insert_edge(0, 1)
    assert [g.degree(v) for v in range(3)] == [1, 1, 0]
    g.insert_edge(1, 2)
    g.insert_edge(0, 2)
    assert g.edge_count == 3
    with pytest.raises(DuplicateEdgeError):
        g.insert_edge(1, 0)


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
    assert diamond_completing_check(g, (0, 2))


def test_diamond_completing_paw_closure():
    g = builder_from(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
    assert diamond_completing_check(g, (1, 3))


def test_diamond_completing_rejects_present_edge():
    g = cycle_graph(4)
    with pytest.raises(DuplicateEdgeError):
        diamond_completing_check(g, (0, 1))


def test_diamond_completing_matches_oracle_differencing_on_p4():
    p4 = builder_from(4, [(0, 1), (1, 2), (2, 3)])
    for u in range(4):
        for v in range(u + 1, 4):
            if p4.has_edge(u, v):
                continue
            grown = brute_contains(SmallGraph(4, p4.edges() + [(u, v)]), DIAMOND)
            assert diamond_completing_check(p4, (u, v)) == grown


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
                if g.has_edge(u, v):
                    continue
                grown = brute_contains(SmallGraph(8, edges + [(u, v)]), DIAMOND)
                assert diamond_completing_check(g, (u, v)) == grown


def test_link_matching_on_two_fan_center():
    g = builder_from(5, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)])
    assert link_matching_size(g, 0, 5) == 2


def test_link_matching_on_k4_is_one():
    g = complete_graph(4)
    for v in range(4):
        assert link_matching_size(g, v, 5) == 1


def test_link_matching_random_vs_oracle(rng):
    for _ in range(40):
        edges = gnp_edges(rng, 12, 0.3)
        g = builder_from(12, edges)
        sg = SmallGraph(12, edges)
        nbrs = set(g.neighbors(0))
        link = [(u, v) for u, v in edges if u in nbrs and v in nbrs]
        oracle_val = brute_max_matching(SmallGraph(12, link)) if link else 0
        assert link_matching_size(g, 0, 3) == min(oracle_val, 3)


def test_contains_fan_friendship_and_k4():
    f2 = builder_from(5, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)])
    assert contains_fan(f2, 2)
    assert not contains_fan(complete_graph(4), 2)


def test_contains_fan_random_vs_oracle(rng):
    for _ in range(40):
        edges = gnp_edges(rng, 12, float(rng.uniform(0.1, 0.5)))
        g = builder_from(12, edges)
        assert contains_fan(g, 2) == brute_contains(SmallGraph(12, edges), fan(2))


def test_contains_p3_within_examples():
    g = builder_from(3, [(0, 1), (1, 2)])
    assert contains_p3_within(g, {0, 1, 2})
    m = builder_from(4, [(0, 1), (2, 3)])
    assert not contains_p3_within(m, {0, 1, 2, 3})


def test_contains_p3_within_random_vs_triples(rng):
    for _ in range(30):
        edges = gnp_edges(rng, 12, 0.2)
        g = builder_from(12, edges)
        subset = {int(v) for v in rng.permutation(12)[: rng.integers(2, 10)]}
        sg = SmallGraph(12, edges)
        brute = any(
            sg.has_edge(a, b) and sg.has_edge(b, c)
            for a in subset
            for b in subset
            for c in subset
            if a != b and b != c and a < c
        )
        assert contains_p3_within(g, subset) == brute


def test_matching_within_examples():
    path5 = builder_from(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    assert matching_within(path5, range(5), 2) == 2
    empty = builder_from(4, [(0, 1)])
    assert matching_within(empty, {2, 3}, 3) == 0


def test_matching_within_random_vs_oracle(rng):
    for _ in range(40):
        edges = gnp_edges(rng, 12, 0.25)
        g = builder_from(12, edges)
        assert matching_within(g, range(12), 8) == brute_max_matching(
            SmallGraph(12, edges)
        )


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


def test_count_pattern_random_vs_oracle(rng):
    for _ in range(40):
        edges = gnp_edges(rng, 10, float(rng.uniform(0.1, 0.7)))
        g = builder_from(10, edges)
        sg = SmallGraph(10, edges)
        for pattern in (TRIANGLE, C4, PAW, P3, P4):
            assert count_pattern(g, pattern) == brute_count(sg, pattern)


def test_count_identities_on_complete_graphs():
    from math import comb

    for m in range(3, 7):
        km = complete_graph(m)
        assert count_pattern(km, TRIANGLE) == comb(m, 3)
        assert count_pattern(km, C4) == 3 * comb(m, 4)
        assert count_pattern(km, P3) == m * comb(m - 1, 2)


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
            acc = diamond_completing_check(g, (u, v)) or acc
            g.insert_edge(u, v)
        assert acc == contains_diamond(g)


def test_fan_tracker_incremental_or_equals_batch(rng):
    from budget_builder.detect import FanTracker

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


@pytest.mark.parametrize("pattern, size", [
    (TRIANGLE, 3), (P3, 3), (P4, 4), (C4, 4), (DIAMOND, 4), (PAW, 4),
    (fan(1), 3), (fan(3), 7), (matching(1), 2), (matching(4), 8),
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


def test_read_edge_list_rejects_garbage(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("0 1 2\n")
    with pytest.raises(ValueError):
        read_edge_list(path)
