"""Pattern detection and counting on the builder's purchased graph.

Supports the diamond (K4 minus an edge), the k-fan (k triangles meeting in
one vertex), and the small helper patterns the harness counts: triangle,
C4, paw (triangle plus a pendant edge), and the 3- and 4-vertex paths.
Copies are unlabeled subgraph embeddings (labeled embeddings divided by
the pattern's automorphism count: triangle 6, C4 8, P4 2, paw 2).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DuplicateEdgeError, UnsupportedPattern


@dataclass(frozen=True, order=True)
class Pattern:
    """A target or probe pattern; k is only meaningful for fans/matchings."""

    tag: str
    k: int = 0

    def __str__(self) -> str:
        if self.tag in ("fan", "matching"):
            return f"{self.tag}{self.k}"
        return self.tag

    @property
    def num_vertices(self) -> int:
        return 1 + max(max(e) for e in self.edge_list())

    def edge_list(self) -> list[tuple[int, int]]:
        """Edges of the pattern on vertices 0..num_vertices-1."""
        if self.tag == "fan":
            edges = []
            for i in range(self.k):
                a, b = 2 * i + 1, 2 * i + 2
                edges += [(0, a), (0, b), (a, b)]
            return edges
        if self.tag == "matching":
            return [(2 * i, 2 * i + 1) for i in range(self.k)]
        return list(_PATTERN_EDGES[self.tag])


_PATTERN_EDGES = {
    "triangle": ((0, 1), (0, 2), (1, 2)),
    "p3": ((0, 1), (1, 2)),
    "p4": ((0, 1), (1, 2), (2, 3)),
    "c4": ((0, 1), (1, 2), (2, 3), (0, 3)),
    # K4 minus the (2,3) edge: two triangles sharing edge (0,1).
    "diamond": ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3)),
    "paw": ((0, 1), (0, 2), (1, 2), (2, 3)),
}

TRIANGLE = Pattern("triangle")
P3 = Pattern("p3")
P4 = Pattern("p4")
C4 = Pattern("c4")
DIAMOND = Pattern("diamond")
PAW = Pattern("paw")


def fan(k: int) -> Pattern:
    if k < 1:
        raise UnsupportedPattern(f"fan size must be >= 1, got {k}")
    return Pattern("fan", k)


def matching(k: int) -> Pattern:
    if k < 1:
        raise UnsupportedPattern(f"matching size must be >= 1, got {k}")
    return Pattern("matching", k)


class BuilderGraph:
    """Simple undirected graph: one adjacency set per vertex, plus the edge
    set (pairs u < v) for the whole-graph scans."""

    __slots__ = ("n", "adj", "edge_count", "_edges")

    def __init__(self, n: int):
        self.n = n
        self.adj: list[set[int]] = [set() for _ in range(n)]
        self.edge_count = 0
        self._edges: set[tuple[int, int]] = set()

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj[u]

    def insert_edge(self, u: int, v: int) -> None:
        if u > v:
            u, v = v, u
        if u == v or not (0 <= u < self.n and 0 <= v < self.n):
            raise ValueError(f"bad edge ({u}, {v}) for n={self.n}")
        if (u, v) in self._edges:
            raise DuplicateEdgeError(f"edge ({u}, {v}) already present")
        self._edges.add((u, v))
        self.adj[u].add(v)
        self.adj[v].add(u)
        self.edge_count += 1

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def neighbors(self, v: int) -> set[int]:
        return self.adj[v]

    def edges(self) -> list[tuple[int, int]]:
        return sorted(self._edges)

    def common_neighbors(self, u: int, v: int) -> set[int]:
        return self.adj[u] & self.adj[v]


def contains_diamond(g: BuilderGraph) -> bool:
    """A diamond exists iff some edge's endpoints share >= 2 neighbors."""
    adj = g.adj
    return any(len(adj[u] & adj[v]) >= 2 for u, v in g._edges)


def diamond_through_edge(g: BuilderGraph, u: int, v: int) -> bool:
    """True iff g (with edge (u,v) present or not) has a diamond whose copy
    would use the edge (u,v).

    Covers all three completions: (u,v) as the shared edge of two triangles,
    and (u,v) as an outer edge hanging off a shared edge at either endpoint.
    The neighbor sets examined never include the edge (u,v) itself, so the
    test gives the same answer immediately before and after insertion.
    """
    adj = g.adj
    common = adj[u] & adj[v]
    if len(common) >= 2:
        return True
    for w in common:
        # Shared edge (u,w) with a second wing besides v, or shared edge
        # (v,w) with a second wing besides u.
        if (adj[u] & adj[w]) - {v} or (adj[v] & adj[w]) - {u}:
            return True
    return False


def diamond_completing_check(g: BuilderGraph, e: tuple[int, int]) -> bool:
    """Would inserting e complete a diamond that uses e?"""
    u, v = e
    if g.has_edge(u, v):
        raise DuplicateEdgeError(f"edge {e} already present")
    return diamond_through_edge(g, u, v)


def _max_matching_edges(edges: list[tuple[int, int]], cap: int) -> int:
    """Exact maximum matching by include/exclude branching, short-circuited
    at cap. Intended for the tiny link graphs this artifact produces."""
    best = 0

    def rec(i: int, used: set[int], size: int) -> None:
        nonlocal best
        if size > best:
            best = size
        if best >= cap:
            return
        # Even one edge per remaining index cannot beat best: prune.
        if size + (len(edges) - i) <= best:
            return
        while i < len(edges):
            a, b = edges[i]
            if a not in used and b not in used:
                used.add(a)
                used.add(b)
                rec(i + 1, used, size + 1)
                used.discard(a)
                used.discard(b)
                if best >= cap:
                    return
            i += 1

    rec(0, set(), 0)
    return min(best, cap)


def link_matching_size(g: BuilderGraph, v: int, cap: int) -> int:
    """Maximum matching size in the link graph of v, capped at cap.

    The link graph lives on N(v) and keeps the edges of g with both
    endpoints inside N(v); a k-fan centered at v exists iff this matching
    reaches k.
    """
    return matching_within(g, g.adj[v], cap)


def contains_fan(g: BuilderGraph, k: int) -> bool:
    """True iff some vertex centers k triangles that pairwise share only it."""
    if k < 1:
        raise UnsupportedPattern(f"fan size must be >= 1, got {k}")
    for v in range(g.n):
        if g.degree(v) >= 2 * k and link_matching_size(g, v, k) >= k:
            return True
    return False


def matching_within(g: BuilderGraph, vertices, cap: int) -> int:
    """Maximum matching size of the subgraph induced on the vertices, capped.

    `vertices` is a collection, read twice. The edge order affects only how
    fast the exact search finishes, never its result.
    """
    inside = set(vertices)
    edges = []
    for x in vertices:
        for y in g.adj[x]:
            if y > x and y in inside:
                edges.append((x, y))
    return _max_matching_edges(edges, cap)


def _triangle_list(g: BuilderGraph) -> list[tuple[int, int, int]]:
    out = []
    adj = g.adj
    for u, v in g._edges:
        for w in adj[u] & adj[v]:
            if w > v:
                out.append((u, v, w))
    return out


def count_pattern(g: BuilderGraph, p: Pattern) -> int:
    """Exact unlabeled subgraph counts for the probe patterns.

    triangle: per-edge codegree sum / 3; C4: sum over vertex pairs of
    C(codeg, 2), halved (each 4-cycle has two diagonal pairs); paw:
    per-triangle pendant count; P3: sum of C(deg, 2); P4: per-edge
    (deg-1)(deg-1) products minus 3 * triangles.
    """
    if p.tag == "triangle":
        adj = g.adj
        return sum(len(adj[u] & adj[v]) for u, v in g._edges) // 3
    if p.tag == "p3":
        return sum(d * (d - 1) // 2 for d in map(g.degree, range(g.n)))
    if p.tag == "p4":
        tri = count_pattern(g, TRIANGLE)
        total = sum((g.degree(u) - 1) * (g.degree(v) - 1) for u, v in g._edges)
        return total - 3 * tri
    if p.tag == "c4":
        codeg: dict[tuple[int, int], int] = {}
        for w in range(g.n):
            nbrs = sorted(g.adj[w])  # the codegree key needs an order
            for i in range(len(nbrs)):
                for j in range(i + 1, len(nbrs)):
                    key = (nbrs[i], nbrs[j])
                    codeg[key] = codeg.get(key, 0) + 1
        return sum(c * (c - 1) // 2 for c in codeg.values()) // 2
    if p.tag == "paw":
        return sum(
            g.degree(u) + g.degree(v) + g.degree(w) - 6
            for u, v, w in _triangle_list(g)
        )
    raise UnsupportedPattern(f"count_pattern does not support {p}")


def contains_pattern(g: BuilderGraph, p: Pattern) -> bool:
    """Containment via the incremental-friendly predicates."""
    if p.tag == "diamond":
        return contains_diamond(g)
    if p.tag == "fan":
        return contains_fan(g, p.k)
    if p.tag == "triangle":
        return contains_fan(g, 1)
    if p.tag in ("c4", "paw", "p3", "p4"):
        return count_pattern(g, p) > 0
    if p.tag == "matching":
        return matching_within(g, range(g.n), p.k) >= p.k
    raise UnsupportedPattern(f"contains_pattern does not support {p}")


class DiamondTracker:
    """Incremental diamond detection over purchased edges."""

    def after_insert(self, g: BuilderGraph, u: int, v: int) -> bool:
        return diamond_through_edge(g, u, v)

    def confirm(self, g: BuilderGraph) -> bool:
        return contains_diamond(g)


class FanTracker:
    """Incremental k-fan detection over purchased edges.

    A new edge (u,v) can only create a fan centered at u, at v, or at a
    common neighbor of u and v, so those are the only links re-checked.
    """

    def __init__(self, k: int):
        if k < 1:
            raise UnsupportedPattern(f"fan size must be >= 1, got {k}")
        self.k = k

    def after_insert(self, g: BuilderGraph, u: int, v: int) -> bool:
        adj, k = g.adj, self.k
        return any(len(adj[c]) >= 2 * k and link_matching_size(g, c, k) >= k
                   for c in (u, v, *(adj[u] & adj[v])))

    def confirm(self, g: BuilderGraph) -> bool:
        return contains_fan(g, self.k)


class NullTracker:
    """Detection disabled (counting probes consume the full stream)."""

    def after_insert(self, g: BuilderGraph, u: int, v: int) -> bool:
        return False

    def confirm(self, g: BuilderGraph) -> bool:
        return False


def detector_for(p: Pattern):
    if p.tag == "diamond":
        return DiamondTracker()
    if p.tag == "fan":
        return FanTracker(p.k)
    raise UnsupportedPattern(f"no incremental detector for {p}")


def read_edge_list(path) -> BuilderGraph:
    """Read a graph from text lines "u v" (0-based; '#' starts a comment)."""
    edges = set()
    top = -1
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            try:
                u, v = sorted(map(int, line.split()))
            except ValueError:
                raise ValueError(f"{path}:{lineno}: expected 'u v', got {raw!r}")
            if u == v or u < 0:
                raise ValueError(f"{path}:{lineno}: bad edge ({u}, {v})")
            if (u, v) in edges:
                raise ValueError(f"{path}:{lineno}: edge ({u}, {v}) already present")
            edges.add((u, v))
            top = max(top, v)
    g = BuilderGraph(top + 1)
    for u, v in edges:
        g.insert_edge(u, v)
    return g
