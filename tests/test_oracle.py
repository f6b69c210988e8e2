import numpy as np
import pytest

from budget_builder.detect import C4, DIAMOND, P4, TRIANGLE, Pattern, fan

from conftest import gnp_edges
from oracle import (
    OracleSizeError,
    SmallGraph,
    brute_contains,
    brute_count,
    brute_max_matching,
)


def complete(m):
    return SmallGraph(m, [(u, v) for u in range(m) for v in range(u + 1, m)])


def test_contains_diamond_in_k4():
    assert brute_contains(complete(4), DIAMOND)


def test_contains_two_fan_in_friendship_graph():
    f2 = SmallGraph(5, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)])
    assert brute_contains(f2, fan(2))
    assert not brute_contains(f2, fan(3))


def test_size_cap_enforced():
    with pytest.raises(OracleSizeError):
        SmallGraph(17)


def test_count_examples():
    assert brute_count(complete(5), TRIANGLE) == 10
    assert brute_count(complete(4), C4) == 3
    c6 = SmallGraph(6, [(i, (i + 1) % 6) for i in range(6)])
    assert brute_count(c6, P4) == 6


def test_matching_examples():
    assert brute_max_matching(complete(4)) == 2
    star = SmallGraph(6, [(0, v) for v in range(1, 6)])
    assert brute_max_matching(star) == 1


def test_matching_pattern_containment():
    path5 = SmallGraph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    assert brute_contains(path5, Pattern("matching", 2))
    assert not brute_contains(path5, Pattern("matching", 3))


def test_count_invariant_under_relabeling():
    rng = np.random.default_rng(42)
    edges = gnp_edges(rng, 9, 0.4)
    base = SmallGraph(9, edges)
    for _ in range(5):
        perm = rng.permutation(9)
        relabeled = SmallGraph(9, [(perm[u], perm[v]) for u, v in edges])
        for pattern in (TRIANGLE, C4, DIAMOND, P4):
            assert brute_count(base, pattern) == brute_count(relabeled, pattern)
