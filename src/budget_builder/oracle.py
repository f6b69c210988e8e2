"""Brute-force ground truth for small graphs (n <= 16).

Used only by tests and calibration. Containment and counting enumerate
vertex subsets and precomputed labeled placements of the pattern, which is
a different route than the codegree formulas and link-matching predicates
in detect.py, so the two can cross-check each other.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, permutations

from .detect import BuilderGraph, Pattern
from .errors import OracleSizeError

MAX_VERTICES = 16


class SmallGraph:
    """Bitmask-backed graph capped at 16 vertices."""

    __slots__ = ("n", "adj_mask", "edges")

    def __init__(self, n: int, edges=()):
        if n > MAX_VERTICES:
            raise OracleSizeError(f"oracle supports n <= {MAX_VERTICES}, got {n}")
        self.n = n
        self.adj_mask = [0] * n
        self.edges: list[tuple[int, int]] = []
        for u, v in edges:
            self.add_edge(u, v)

    def add_edge(self, u: int, v: int) -> None:
        if u > v:
            u, v = v, u
        if self.adj_mask[u] >> v & 1:
            return
        self.adj_mask[u] |= 1 << v
        self.adj_mask[v] |= 1 << u
        self.edges.append((u, v))

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj_mask[u] >> v & 1)


@lru_cache(maxsize=None)
def _placements(pattern: Pattern) -> tuple[frozenset, ...]:
    """Distinct edge sets of the pattern under all labelings of its span.

    Deduplication collapses automorphic relabelings, so each surviving
    placement corresponds to exactly one unlabeled copy on a fixed span.
    """
    m = pattern.num_vertices
    base = pattern.edge_list()
    seen = set()
    for perm in permutations(range(m)):
        img = frozenset(
            (perm[a], perm[b]) if perm[a] < perm[b] else (perm[b], perm[a])
            for a, b in base
        )
        seen.add(img)
    return tuple(seen)


def _span_hits(g: SmallGraph, span: tuple[int, ...], placements) -> int:
    hits = 0
    for placement in placements:
        ok = True
        for a, b in placement:
            if not g.has_edge(span[a], span[b]):
                ok = False
                break
        if ok:
            hits += 1
    return hits


def brute_contains(g: SmallGraph, pattern: Pattern) -> bool:
    """Exhaustive containment check (subgraph, not induced)."""
    if g.n > MAX_VERTICES:
        raise OracleSizeError(f"n={g.n} exceeds oracle cap")
    if pattern.tag == "matching":
        return brute_max_matching(g) >= pattern.k
    if pattern.tag == "fan" and pattern.k >= 3:
        # Enumerating spans of 2k+1 vertices is wasteful; anchor the center
        # and try every 2k-subset of its neighborhood instead.
        return _brute_contains_fan(g, pattern.k)
    m = pattern.num_vertices
    if m > g.n:
        return False
    placements = _placements(pattern)
    for span in combinations(range(g.n), m):
        if _span_hits(g, span, placements):
            return True
    return False


def _brute_contains_fan(g: SmallGraph, k: int) -> bool:
    for center in range(g.n):
        nbrs = [v for v in range(g.n) if g.has_edge(center, v)]
        if len(nbrs) < 2 * k:
            continue
        for subset in combinations(nbrs, 2 * k):
            if _has_perfect_matching(g, subset):
                return True
    return False


def _has_perfect_matching(g: SmallGraph, vertices) -> bool:
    verts = list(vertices)
    if len(verts) % 2:
        return False

    def rec(remaining: list[int]) -> bool:
        if not remaining:
            return True
        first = remaining[0]
        rest = remaining[1:]
        for i, other in enumerate(rest):
            if g.has_edge(first, other):
                if rec(rest[:i] + rest[i + 1 :]):
                    return True
        return False

    return rec(verts)


def brute_count(g: SmallGraph, pattern: Pattern) -> int:
    """Exhaustive unlabeled-copy count.

    Every copy spans exactly the pattern's vertex count (no pattern here has
    isolated vertices), so summing placement hits over spans counts each
    copy once.
    """
    if g.n > MAX_VERTICES:
        raise OracleSizeError(f"n={g.n} exceeds oracle cap")
    m = pattern.num_vertices
    if m > g.n:
        return 0
    placements = _placements(pattern)
    return sum(
        _span_hits(g, span, placements) for span in combinations(range(g.n), m)
    )


def brute_max_matching(g: SmallGraph) -> int:
    """Exact maximum matching by branching on the lowest uncovered vertex."""
    edges_by_vertex = [
        [v for v in range(g.n) if g.has_edge(u, v)] for u in range(g.n)
    ]

    def rec(v: int, used: int) -> int:
        while v < g.n and ((used >> v & 1) or not edges_by_vertex[v]):
            v += 1
        if v >= g.n:
            return 0
        # Leave v uncovered entirely...
        best = rec(v + 1, used)
        # ...or match it with each free neighbor.
        for w in edges_by_vertex[v]:
            if w > v and not (used >> w & 1):
                best = max(best, 1 + rec(v + 1, used | (1 << v) | (1 << w)))
        return best

    return rec(0, 0)


def contains_p3_within(g: BuilderGraph, vertices) -> bool:
    """True iff some vertex of the set has two neighbors inside the set.

    A test helper on a BuilderGraph of any size; nothing in the package
    calls it.
    """
    inside = set(vertices)
    for v in inside:
        count = 0
        for w in g.adj[v]:
            if w in inside:
                count += 1
                if count >= 2:
                    return True
    return False
