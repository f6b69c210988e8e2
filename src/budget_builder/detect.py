"""The builder's purchased graph, and pattern detection and counting on it.

Supports the diamond (K4 minus an edge), the k-fan (k triangles meeting in
one vertex), and the small helper patterns the harness counts: triangle,
C4, paw (triangle plus a pendant edge), and the 3- and 4-vertex paths.
Copies are unlabeled subgraph embeddings (labeled embeddings divided by
the pattern's automorphism count: triangle 6, C4 8, P4 2, paw 2).

The purchased graph answers membership from `g.adj`, one neighbour set per
vertex; a vertex without an edge reads one shared empty frozenset until its
first edge. This is the one module that reads `BuilderGraph._edges`, its edges
in purchase order, kept for the edge count, `edges()`, the batch checks and
the edge table (`_edge_table`). `BuilderGraph.closing` lists, in purchase
order, the edges that closed a triangle when they were inserted; every
triangle's last-bought edge is one of them, so a caller that wants the
triangles (the `tk-short` freeze, the edge table) reads them off this
short list.

The batch checks (`contains_diamond`, `contains_fan`) and the fan tracker
look only at edges whose ends share a neighbour: an edge in no triangle is
in no diamond and no fan, and most purchased edges are in none. For the
same reason the graph's one insert body, `insert_until_triangle`, inserts
checked (u, v) pairs up to the next edge that closes a triangle, and the
trial step asks a tracker only about those edges. The batch checks stay
whole-graph passes and never read `closing` or the edge table, so they
confirm a tracker independently. The fan tracker keeps each centre's link
edges as the asked inserts add them, so a check reads a kept list rather
than rebuilding the link graph from neighbour sets.

The edge table holds the edge ends, degrees, the triangle list and the
triangle sums, cached on the graph (not pickled) and rebuilt only once the
edge count has changed, as edges are never removed. It reads the
triangles off `closing`, so it pays per triangle, not per edge. The
whole-graph counts and `fan_center_counts` read it, so a probe graph
counted many ways pays for one build; the fan-centre counts group the
triangle list into link edges, since a vertex's link edges are its
triangles, and the matching search answers most of those short lists
from its greedy matching.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import DuplicateEdgeError, UnsupportedPattern


@dataclass(frozen=True, order=True)
class Pattern:
    """A target or probe pattern; k is only meaningful for fans, which refuse k < 1 when built."""

    tag: str
    k: int = 0

    def __post_init__(self) -> None:
        if self.tag == "fan" and self.k < 1:
            raise UnsupportedPattern(f"fan size must be >= 1, got {self.k}")

    def __str__(self) -> str:
        return f"{self.tag}{self.k or ''}"

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
    """The k-fan target: k triangles sharing one vertex; `Pattern` refuses k < 1."""
    return Pattern("fan", k)


_NO_NBRS = frozenset()  # the neighbour set of every vertex without an edge


class BuilderGraph:
    """Simple undirected graph: one adjacency set per vertex (the membership
    test), plus the edges (pairs u < v) in insertion order for the scans,
    the triangle-closing ones among them (`closing`) and a cached edge table
    for the counts. A vertex without an edge reads the shared empty
    frozenset `_NO_NBRS` until the one insert body (`insert_until_triangle`,
    the only writer of `adj` and `closing`) gives it its own set at its
    first edge: n vertices cost no n sets.

    `closing` holds, in purchase order, each edge (u < v) whose insert
    reported that it closes a triangle, that is, whose ends already shared
    a neighbour; it is O(m), pickled with the graph, and read-only to
    callers."""

    __slots__ = ("n", "adj", "_edges", "closing", "_table")

    def __init__(self, n: int):
        self.n = n
        self.adj: list[set[int] | frozenset] = [_NO_NBRS] * n
        self._edges: list[tuple[int, int]] = []
        self.closing: list[tuple[int, int]] = []
        self._table: tuple | None = None  # see _edge_table

    def __getstate__(self):  # the slots' default state, less the table
        return None, {"n": self.n, "adj": self.adj, "_edges": self._edges,
                      "closing": self.closing}

    def __setstate__(self, state):
        # pickle and deepcopy make a new empty frozenset; map it back to _NO_NBRS
        slots = state[1]
        self.n, self._edges, self.closing = slots["n"], slots["_edges"], slots["closing"]
        self.adj = [nbrs or _NO_NBRS for nbrs in slots["adj"]]
        self._table = None

    @property
    def edge_count(self) -> int:
        return len(self._edges)

    def insert_edge(self, u: int, v: int) -> bool:
        """Check the edge uv, given either way round (a loop or an end
        outside [0, n) raises `ValueError`, an edge present
        `DuplicateEdgeError`), then add it through the one insert body.
        Returns whether it closes a triangle, that is, whether u and v
        already shared a neighbour."""
        if u > v:
            u, v = v, u
        if not 0 <= u < v < self.n:
            raise ValueError(f"bad edge ({u}, {v}) for n={self.n}")
        if v in self.adj[u]:
            raise DuplicateEdgeError(f"edge ({u}, {v}) already present")
        return self.insert_until_triangle(((u, v),)) is not None

    def insert_until_triangle(self, pairs):
        """The one insert body: insert the pairs (u, v) of the iterator
        `pairs`, each already checked to be a pair 0 <= u < v < n not in the
        graph, up to and including the first whose edge closes a triangle;
        return that pair, or None once `pairs` is spent. A later call with
        the same iterator goes on after it. Each pair tuple is appended to
        `_edges` as given; the returned pair's edge is appended to `closing`
        as a new tuple, so the two lists share no tuple: a shared tuple
        would pickle as a memo reference, and the graph's pickle would
        differ. An edge with an end that has no neighbour yet closes
        nothing, so it is inserted untested."""
        adj, append, closing = self.adj, self._edges.append, self.closing
        for pair in pairs:
            u, v = pair
            append(pair)
            nu, nv = adj[u], adj[v]
            if nu is _NO_NBRS:
                adj[u] = {v}
                if nv is _NO_NBRS:
                    adj[v] = {u}
                else:
                    nv.add(u)
            elif nv is _NO_NBRS:
                adj[v] = {u}
                nu.add(v)
            else:
                closes = not nu.isdisjoint(nv)
                nu.add(v)
                nv.add(u)
                if closes:
                    closing.append((u, v))
                    return pair
        return None

    def edges(self) -> list[tuple[int, int]]:
        """The edges (pairs u < v) in purchase order, as a new list."""
        return list(self._edges)


def contains_diamond(g: BuilderGraph) -> bool:
    """A diamond exists iff some edge's endpoints share >= 2 neighbors; an
    edge whose ends share none is skipped before any intersection is built."""
    adj = g.adj
    return any(len(adj[u] & adj[v]) >= 2 for u, v in g._edges
               if not adj[u].isdisjoint(adj[v]))


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


def _max_matching_edges(edges: list[tuple[int, int]], cap: int) -> int:
    """Exact maximum matching size, capped at cap.

    A greedy maximal matching that reaches cap answers at once. So does
    one that is provably maximum: one that uses every edge (no other edge
    is left to match), or one that leaves at most one vertex of the edges
    unmatched (a matching on 2s + 1 vertices has at most s edges). On
    degree-greedy's probe graphs about 95% of the link lists of two or more
    edges that `fan_center_counts` passes end at one of these exits, and
    each saves a kernel search of several microseconds. Otherwise the
    greedy matching's vertices C, at most 2(cap - 1), cover every edge, so
    a matching has at most |C| edges. Each vertex of C then keeps only |C|
    of its edges that leave C: a matching edge (c, x) with x outside C that
    was dropped can swap x for a kept neighbour of c that no other matching
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
    greedy = len(cover) // 2
    if greedy == len(edges) or len(set(chain.from_iterable(edges)) - cover) <= 1:
        return greedy
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


def contains_fan(g: BuilderGraph, k: int) -> bool:
    """True iff some vertex centers k triangles that pairwise share only it.

    That is, iff its link graph has a k-edge matching, so the centre has
    degree at least 2k and at least k link edges. One pass over the edges
    lists each vertex's link edges: an edge uv whose ends share no
    neighbour lies in no triangle and is skipped, and each common neighbour
    w of u and v gains the link edge uv. Only the vertices that pass both
    filters reach the exact matching search.
    """
    if k < 1:
        raise UnsupportedPattern(f"fan size must be >= 1, got {k}")
    adj = g.adj
    links: dict[int, list[tuple[int, int]]] = {}
    at = links.setdefault
    for edge in g._edges:
        u, v = edge
        nu, nv = adj[u], adj[v]
        if nu.isdisjoint(nv):
            continue
        for w in nu & nv:
            at(w, []).append(edge)
    return any(len(edges) >= k and len(adj[w]) >= 2 * k and _max_matching_edges(edges, k) >= k
               for w, edges in links.items())


def _edge_table(g: BuilderGraph) -> tuple:
    """(tails, heads, deg, corners, triangles, tri_deg): each edge's ends,
    in `_edges` order, and each vertex's degree, as int64 arrays; the
    triangle list, a list of ints holding the corners x, y, z of each
    triangle back to back; then the triangle count and the sum of
    d_x + d_y + d_z over the triangles xyz. Cached on the graph; rebuilt
    once the edge count changed, so the list never outlives an insert.
    Read by the counts and by `fan_center_counts`, which groups the
    triangle list into each vertex's link edges.

    The triangles are read off `closing`, which holds every triangle's
    last-bought edge: each closing edge (u, v) and common neighbour w is a
    triangle, counted once, at its smallest closing edge. Next to (u, v),
    the triangle's edges sorted below it are (u, w) or (w, u) when w < v,
    and (w, v) when w < u.
    """
    table = g._table
    m = len(g._edges)
    if table is None or len(table[0]) != m:
        adj, closing = g.adj, g.closing
        ends = np.fromiter(chain.from_iterable(g._edges), np.int64, 2 * m)
        deg = np.bincount(ends, minlength=g.n).astype(np.int64, copy=False)
        closes = set(closing)
        corners = []  # x, y, z of each triangle, back to back
        for u, v in closing:
            for w in adj[u] & adj[v]:
                if not (w < v and ((w, u) if w < u else (u, w)) in closes
                        or w < u and (w, v) in closes):
                    corners += (u, v, w)
        table = g._table = (ends[0::2], ends[1::2], deg, corners, len(corners) // 3,
                            int(deg[corners].sum()))
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
    tails, heads, deg, *_ = _edge_table(g)
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

    With d_v the degree, T the triangle count and c_uv = |N(u) & N(v)| the
    codegree of an edge uv, the edge table (`_edge_table`) gives:

    - triangle: T, read off the triangle-closing edges;
    - paw: sum over triangles xyz of d_x + d_y + d_z - 6 (each vertex of a
      triangle has d - 2 pendant edges), that is, that sum less 6T;
    - P4: sum over edges of (d_u - 1)(d_v - 1), less 3T (paths whose
      middle edge is uv, less the pairs of ends that coincide: sum c_uv,
      which counts each triangle at each of its three edges).

    P3: sum of C(d, 2). C4: sum over vertex pairs of C(codeg, 2), halved,
    from a wedge table (`_c4_count`).
    """
    if p.tag == "c4":
        return _c4_count(g)
    if p.tag not in ("triangle", "p3", "p4", "paw"):
        raise UnsupportedPattern(f"count_pattern does not support {p}")
    tails, heads, deg, _, triangles, tri_deg = _edge_table(g)
    if p.tag == "triangle":
        return triangles
    if p.tag == "p3":
        return int((deg * (deg - 1) // 2).sum())
    if p.tag == "p4":
        return int(((deg[tails] - 1) * (deg[heads] - 1)).sum()) - 3 * triangles
    return tri_deg - 6 * triangles


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


def fan_center_counts(g: BuilderGraph, max_k: int = 3) -> list[int]:
    """How many vertices center an l-fan, for l = 1..max_k.

    A vertex's link edges are its triangles: the triangle list of the edge
    table (`_edge_table`), which the counts also read, gives (y, z) at x,
    (x, z) at y and (x, y) at z for each triangle xyz, so no link edge is
    rebuilt from adjacency. A vertex in no triangle centers no fan and one
    in exactly one centers a 1-fan only; only a vertex with two or more
    link edges reaches the exact matching search, which answers most such
    short lists from its greedy matching.
    """
    counts = [0] * max_k
    links: dict[int, list[tuple[int, int]]] = {}
    at = links.setdefault
    corners = iter(_edge_table(g)[3])
    for x, y, z in zip(corners, corners, corners):
        at(x, []).append((y, z))
        at(y, []).append((x, z))
        at(z, []).append((x, y))
    for edges in links.values():
        size = 1 if len(edges) == 1 else _max_matching_edges(edges, max_k)
        for level in range(min(size, max_k)):
            counts[level] += 1
    return counts


class DiamondTracker:
    """Incremental diamond detection over purchased edges."""

    # Called once per buy that closes a triangle, so the check itself, with
    # no wrapper call.
    after_insert = staticmethod(diamond_through_edge)

    def confirm(self, g: BuilderGraph) -> bool:
        return contains_diamond(g)


class FanTracker:
    """Incremental k-fan detection over purchased edges, for one graph.

    Precondition: `after_insert` is called after every insert that closes
    a triangle, starting from the empty graph, until it first returns True
    (as `run_strategy` calls it), so no k-fan exists before the insert it
    is asked about. A k-fan is made of triangles only, so a new edge (u,v)
    that closes no triangle (u and v share no neighbour) lies in no fan,
    cannot create one and adds no link edge anywhere; `after_insert` still
    answers False on such an edge for a caller that asks after every insert.

    State: `links` maps each vertex to the edges of its link graph (the
    edges inside its neighbourhood), kept as the asked inserts add them.
    An edge (u,v) with common neighbours C adds (u,v) at each w in C, and
    (v,w) at u and (u,w) at v for each w in C; it can only create a fan
    centred at u, at v or in C, so only those kept lists are searched, by
    `_max_matching_edges`. Bound: before the first True every link graph
    has matching number below k, so a vertex cover of at most 2(k-1)
    vertices, each meeting fewer than deg(x) link edges at x; the kept
    edges therefore number at most 4(k-1)m + 3n (the last term for the
    insert asked last), that is O(t + n).

    The lists describe one graph, so a tracker asked about a second graph
    raises `ValueError`: build one per trial, as `detector_for` does.
    """

    def __init__(self, k: int):
        if k < 1:
            raise UnsupportedPattern(f"fan size must be >= 1, got {k}")
        self.k = k
        self.links: dict[int, list[tuple[int, int]]] = {}
        self._graph: BuilderGraph | None = None

    def after_insert(self, g: BuilderGraph, u: int, v: int) -> bool:
        if g is not self._graph:
            if self._graph is not None:
                raise ValueError("a FanTracker serves one graph; build one per graph")
            self._graph = g
        adj, k, links = g.adj, self.k, self.links
        nu, nv = adj[u], adj[v]
        if nu.isdisjoint(nv):
            return False
        common = nu & nv
        at_u, at_v = links.setdefault(u, []), links.setdefault(v, [])
        for w in common:
            at_u.append((v, w))
            at_v.append((u, w))
            links.setdefault(w, []).append((u, v))
        return any(len(adj[c]) >= 2 * k and len(links[c]) >= k
                   and _max_matching_edges(links[c], k) >= k
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
    pairs = ((label[u], label[v]) for u, v in edges)  # checked above, and u < v
    while g.insert_until_triangle(pairs) is not None:
        pass
    return g
