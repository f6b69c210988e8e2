"""The builder's purchased graph, and pattern detection and counting on it.

Supports the diamond (K4 minus an edge), the k-fan (k triangles meeting in
one vertex), and the small helper patterns the harness counts: triangle,
C4, paw (triangle plus a pendant edge), and the 3- and 4-vertex paths.
Copies are unlabeled subgraph embeddings (labeled embeddings divided by
the pattern's automorphism count: triangle 6, C4 8, P4 2, paw 2).

The purchased graph answers membership from `g.adj`, one neighbour set per
vertex. This is the one module that reads `BuilderGraph._edges`, its edges
in insertion order, kept for the edge count, `edges()`, `contains_diamond`
and the edge table (`_edge_table`): ends, degrees and codegrees from one
codegree pass, cached on the graph (not pickled) and rebuilt only once
the edge count has changed, as edges are never removed. Every whole-graph
count reads that table, so a graph counted many ways pays for one pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import DuplicateEdgeError, UnsupportedPattern


@dataclass(frozen=True, order=True)
class Pattern:
    """A target or probe pattern; k is only meaningful for fans."""

    tag: str
    k: int = 0

    def __str__(self) -> str:
        if self.tag == "fan":
            return f"fan{self.k}"
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


class BuilderGraph:
    """Simple undirected graph: one adjacency set per vertex (the membership
    test), plus the edges (pairs u < v) in insertion order for the scans
    and a cached edge table for the counts."""

    __slots__ = ("n", "adj", "_edges", "_table")

    def __init__(self, n: int):
        self.n = n
        self.adj: list[set[int]] = [set() for _ in range(n)]
        self._edges: list[tuple[int, int]] = []
        self._table: tuple | None = None  # see _edge_table

    def __getstate__(self):  # the slots' default state, less the table
        return None, {"n": self.n, "adj": self.adj, "_edges": self._edges}

    def __setstate__(self, state):
        slots = state[1]
        self.n, self.adj, self._edges = slots["n"], slots["adj"], slots["_edges"]
        self._table = None

    @property
    def edge_count(self) -> int:
        return len(self._edges)

    def insert_edge(self, u: int, v: int) -> None:
        if u > v:
            u, v = v, u
        if u == v or u < 0 or v >= self.n:
            raise ValueError(f"bad edge ({u}, {v}) for n={self.n}")
        if v in self.adj[u]:
            raise DuplicateEdgeError(f"edge ({u}, {v}) already present")
        self._edges.append((u, v))
        self.adj[u].add(v)
        self.adj[v].add(u)

    def edges(self) -> list[tuple[int, int]]:
        return sorted(self._edges)


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
    nu, nv = adj[u], adj[v]
    if nu.isdisjoint(nv):
        return False
    common = nu & nv
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
    if v in g.adj[u]:
        raise DuplicateEdgeError(f"edge {e} already present")
    return diamond_through_edge(g, u, v)


def _max_matching_edges(edges: list[tuple[int, int]], cap: int) -> int:
    """Exact maximum matching size, capped at cap.

    A greedy maximal matching that reaches cap answers at once. Otherwise
    its vertices C, at most 2(cap - 1), cover every edge, so a matching
    has at most |C| edges. Each vertex of C then keeps only |C| of its
    edges that leave C: a matching edge (c, x) with x outside C that was
    dropped can swap x for a kept neighbour of c that no other matching
    edge uses, so the kernel, at most C(|C|, 2) + |C|^2 edges, has a
    matching as large as the input's. On the kernel the answer is the best,
    over each edge i as the matching's first edge, of one plus the capped
    matching of the later edges that avoid it. The recursion is at most
    cap deep, and its breadth does not depend on len(edges).
    """
    if cap <= 1:
        return min(cap, len(edges))
    cover = set()
    for a, b in edges:
        if a not in cover and b not in cover:
            cover.add(a)
            cover.add(b)
            if len(cover) >= 2 * cap:
                return cap
    room = dict.fromkeys(cover, len(cover))
    kernel = []
    for a, b in edges:
        if a in cover and b in cover:
            kernel.append((a, b))
        else:
            c = a if a in cover else b
            if room[c]:
                room[c] -= 1
                kernel.append((a, b))
    best = 0
    for i, (a, b) in enumerate(kernel):
        if best >= cap:
            break
        later = [e for e in kernel[i + 1:] if a not in e and b not in e]
        best = max(best, 1 + _max_matching_edges(later, cap - 1))
    return best


def link_matching_size(g: BuilderGraph, v: int, cap: int) -> int:
    """Maximum matching size in the link graph of v, capped at cap.

    The link graph lives on N(v) and keeps the edges of g with both
    endpoints inside N(v); a k-fan centered at v exists iff this matching
    reaches k.
    """
    return matching_within(g, g.adj[v], cap)


def contains_fan(g: BuilderGraph, k: int) -> bool:
    """True iff some vertex centers k triangles that pairwise share only it.

    A k-fan's centre has degree at least 2k and at least k link edges
    (one per triangle), so only the vertices that pass both, by the edge
    table's degrees and link counts (`_twice_link_counts`), reach the
    exact matching search.
    """
    if k < 1:
        raise UnsupportedPattern(f"fan size must be >= 1, got {k}")
    _, _, deg, _ = _edge_table(g)
    centres = np.flatnonzero((deg >= 2 * k) & (_twice_link_counts(g) >= 2 * k))
    return any(link_matching_size(g, v, k) >= k for v in centres.tolist())


def matching_within(g: BuilderGraph, vertices, cap: int) -> int:
    """Maximum matching size of the subgraph induced on the vertices, capped.

    `vertices` is a collection, read twice. Each vertex's edges inside it
    come from one set intersection, `adj[x] & inside`, so this is the one
    place link edges are built. The edge order affects only how fast the
    exact search finishes, never its result.
    """
    inside = set(vertices)
    adj = g.adj
    edges = [(x, y) for x in vertices for y in adj[x] & inside if y > x]
    return _max_matching_edges(edges, cap)


def _edge_table(g: BuilderGraph) -> tuple:
    """(tails, heads, deg, codeg): each edge's ends and codegree, in
    `_edges` order, and each vertex's degree, as int64 arrays. Cached on
    the graph; one codegree pass rebuilds it once the edge count changed."""
    table = g._table
    m = len(g._edges)
    if table is None or len(table[0]) != m:
        adj = g.adj
        ends = np.fromiter(chain.from_iterable(g._edges), np.int64, 2 * m)
        codeg = np.fromiter((len(adj[u] & adj[v]) for u, v in g._edges), np.int64, m)
        deg = np.fromiter(map(len, adj), np.int64, g.n)
        table = g._table = (ends[0::2], ends[1::2], deg, codeg)
    return table


def _c4_count(g: BuilderGraph) -> int:
    """Sum over vertex pairs of C(codeg, 2), halved (each 4-cycle has two
    diagonal pairs), from a wedge table.

    The edges, as arcs sorted by (tail, head), are the vertices' sorted
    neighbour lists back to back. Every pair a < b inside one list is a
    wedge with key a*n + b; sorted, a pair's codegree c is the length of
    its run of keys, and the count is sum c(c - 1) / 4. The table holds
    one int64 per wedge, sum C(d, 2) of them.
    """
    tails, heads, deg, _ = _edge_table(g)
    n, m = g.n, len(tails)
    wedges = int((deg * (deg - 1) // 2).sum())
    if wedges == 0:
        return 0
    arcs = np.concatenate((tails * n + heads, heads * n + tails))
    arcs.sort()
    nbrs = arcs % n
    # later[i]: how many entries follow position i in its own list; the
    # entry at i pairs with each of them, at i + 1, ..., i + later[i].
    later = np.repeat(np.cumsum(deg), deg) - np.arange(2 * m) - 1
    first = np.repeat(np.arange(2 * m), later)
    offset = np.arange(wedges) - np.repeat(np.cumsum(later) - later, later)
    keys = nbrs[first] * n + nbrs[first + 1 + offset]
    keys.sort()
    runs = np.diff(np.flatnonzero(np.diff(keys, prepend=-1, append=-1)))
    return int((runs * (runs - 1)).sum()) // 4


def count_pattern(g: BuilderGraph, p: Pattern) -> int:
    """Exact unlabeled subgraph counts for the probe patterns.

    With d_v the degree and c_uv = |N(u) & N(v)| the codegree of an edge
    uv, the triangle, paw and P4 counts each take one pass over the edges:

    - triangle: sum c_uv / 3 (a triangle has three edges);
    - paw: sum c_uv (d_u + d_v - 4) / 2 (a triangle uvw has
      d_u + d_v + d_w - 6 pendant edges, and its three edges count each
      of its vertices twice);
    - P4: sum (d_u - 1)(d_v - 1) - c_uv (paths whose middle edge is uv,
      less the pairs of ends that coincide, one per common neighbour).

    P3: sum of C(d, 2). C4: sum over vertex pairs of C(codeg, 2), halved,
    from a wedge table (`_c4_count`). Every count reads the graph's edge
    table (`_edge_table`).
    """
    if p.tag == "c4":
        return _c4_count(g)
    if p.tag not in ("triangle", "p3", "p4", "paw"):
        raise UnsupportedPattern(f"count_pattern does not support {p}")
    tails, heads, deg, codeg = _edge_table(g)
    if p.tag == "triangle":
        return int(codeg.sum()) // 3
    if p.tag == "p3":
        return int((deg * (deg - 1) // 2).sum())
    du, dv = deg[tails], deg[heads]
    if p.tag == "p4":
        return int(((du - 1) * (dv - 1) - codeg).sum())
    return int((codeg * (du + dv - 4)).sum()) // 2


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
    raise UnsupportedPattern(f"contains_pattern does not support {p}")


def _twice_link_counts(g: BuilderGraph) -> np.ndarray:
    """Twice each vertex's link-edge count, from the edge table's codegrees.

    A vertex's link edges are its triangles. An edge uv lies in c_uv of
    them, and each triangle at u is seen from both of its edges at u, so
    adding c_uv to u and to v counts every link edge twice.
    """
    tails, heads, _, codeg = _edge_table(g)
    twice = np.bincount(np.concatenate((tails, heads)), np.tile(codeg, 2), g.n)
    return twice.astype(np.int64)


def fan_center_counts(g: BuilderGraph, max_k: int = 3) -> list[int]:
    """How many vertices center an l-fan, for l = 1..max_k.

    The link counts come from the edge table `contains_fan` also reads
    (`_twice_link_counts`). A vertex with no link edge centers no fan and
    one with exactly one centers a 1-fan only; only a vertex with two or
    more reaches the exact matching search.
    """
    counts = [0] * max_k
    twice = _twice_link_counts(g)
    centres = np.flatnonzero(twice)
    for v, links2 in zip(centres.tolist(), twice[centres].tolist()):
        size = 1 if links2 == 2 else link_matching_size(g, v, max_k)
        for level in range(min(size, max_k)):
            counts[level] += 1
    return counts


class DiamondTracker:
    """Incremental diamond detection over purchased edges."""

    # Called once per buy, so the check itself, with no wrapper call.
    after_insert = staticmethod(diamond_through_edge)

    def confirm(self, g: BuilderGraph) -> bool:
        return contains_diamond(g)


class FanTracker:
    """Incremental k-fan detection over purchased edges.

    Precondition: `after_insert` is called after every insert, starting
    from the empty graph, until it first returns True (as `run_strategy`
    calls it), so no k-fan exists before the insert it is asked about.
    A k-fan is made of triangles only, so a new edge (u,v) that closes no
    triangle (u and v share no neighbour) lies in no fan and cannot create
    one. One that does can only create a fan centered at u, at v, or at a
    common neighbour, so those are the only links re-checked.
    """

    def __init__(self, k: int):
        if k < 1:
            raise UnsupportedPattern(f"fan size must be >= 1, got {k}")
        self.k = k

    def after_insert(self, g: BuilderGraph, u: int, v: int) -> bool:
        adj, k = g.adj, self.k
        common = adj[u] & adj[v]
        if not common:
            return False
        return any(len(adj[c]) >= 2 * k and link_matching_size(g, c, k) >= k
                   for c in (u, v, *common))

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
    """Read a graph from text lines "u v" of ids >= 0 ('#' starts a comment).
    The sorted distinct ids become vertices 0..m-1, so memory follows the
    lines, not the largest id; ids 0..m-1 keep their labels."""
    edges = set()
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
    label = {x: i for i, x in enumerate(sorted(set(chain.from_iterable(edges))))}
    g = BuilderGraph(len(label))
    for u, v in edges:
        g.insert_edge(label[u], label[v])
    return g
