"""Online builder strategies for the budget-restricted process.

The diamond and fan builders come in two flavors per target: a short-time
variant that seeds many small neighborhoods and closes structure inside
them, and a long-time variant that grows one anchored star and buys inside
its neighborhood. Two baselines serve calibration and the counting
probes: degree-greedy, the counting adversary, and buy-all, which is
degree-greedy with every vertex in its prefix.

Decisions depend only on the revealed prefix and the strategy's own
state; every strategy refuses to buy once the global budget is spent
(degrading to skips that are counted in its stats). `build_strategy`
still draws a strategy RNG substream per trial, which no strategy reads;
deleting it waits for a benchmark change, since the benchmark's tests
count two substreams per trial.

Every strategy settles its purchases in `buys(state)`, a generator that
keeps the contract stated in the `process` docstring. No phase reads a
graph state that its own buys change, so each phase settles its buys
before any is inserted and yields them as one block of int64 arrays:
degree-greedy's rows, each phase of the short builders, the anchor's
first phase and each span of its second. While `buys` is suspended at a
block, `stats()` nets out what the block's rows at or past `state.clock`
counted, one rule in `_Base.stats` for every block; skips past a block's
last row are counted after its yield, so there is nothing to net for
them. At each phase start `buys` does that phase's set-up (a freeze
sharing the graph's sets, a candidate build, a round start), then runs one
loop over that phase's rows that can buy or change a stat: seed-set edges
found from their codes, edges inside the anchor's neighbourhood from a
vertex mask, edges a frozen seed may host from per-vertex host bits,
candidate pairs from a sorted code array. Once the seed phase's cap or the
budget is spent its per-seed counts are fixed, so the rows left in it are
counted in one vectorised pass. The anchor's second phase is read span by
span, each span twice as long as the one before, so an early stop a few
buys into it decodes only the spans it reached.
`_Base.decide` answers reveal by reveal from the same generator, read
through `_bought_rows`, for a caller that asks on every reveal; the
hand-written per-reveal rules that `buys` is checked against live in
`tests/per_reveal.py`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import islice
from typing import Optional

import numpy as np

from .detect import Pattern
from .errors import ConfigurationError, UnsupportedPattern
from .process import Edge, ProcessConfig, ProcessState, decode, pair_code
from .rng import STREAM_STRATEGY, substream


class StrategyKind(Enum):
    DIAMOND_SHORT = "k4m-short"
    DIAMOND_LONG = "k4m-long"
    FAN_SHORT = "tk-short"
    FAN_LONG = "tk-long"
    BUY_ALL = "buy-all"
    DEGREE_GREEDY = "degree-greedy"


@dataclass(frozen=True)
class StrategyParams:
    """Derived knobs, filled in by `select_strategy`."""

    phase_length: int = 0  # T
    seed_set_size: int = 0  # r
    per_vertex_cap: int = 0
    phase_budgets: tuple = ()  # per-phase purchase caps, in phase order
    k: int = 0


@dataclass(frozen=True)
class StrategySpec:
    kind: StrategyKind
    params: StrategyParams = StrategyParams()

    @property
    def name(self) -> str:
        return self.kind.value


def _threshold_branches(target: Pattern) -> tuple:
    """The exponents (a, c) of each regime branch n^a / t^c of the budget
    threshold b*, exact, short-time branch first; b* is the larger branch."""
    if target.tag == "diamond":
        return (6, 4), (Fraction(4, 3), Fraction(2, 3))
    if target.tag == "fan":
        return (4 * target.k - 1, 3 * target.k - 1), (1, Fraction(1, 2))
    raise UnsupportedPattern(f"no threshold formula for {target}")


def _geomean_seed_set(lo_log: float, hi_log: float, n: int) -> int:
    """Geometric mean of the admissible-window endpoints, clamped to [1, n].

    The window is empty at desk scale for most (n, t, b) of interest; the
    geometric mean balances both asymptotic requirements and the clamp
    keeps the choice meaningful. Endpoints come in as logs because the fan
    window overflows floats already for moderate k.
    """
    mid = (max(lo_log, 0.0) + max(hi_log, 0.0)) / 2.0
    if mid >= math.log(n):
        return n
    return max(int(round(math.exp(mid))), 1)


_OVERRIDE_KEYS = ("regime_override", "seed_set_size", "per_vertex_cap")


def select_strategy(target: Pattern, n: int, t: int, b: int,
                    overrides: Optional[dict] = None) -> StrategySpec:
    """Pick the regime-appropriate strategy and populate its parameters.

    The targets are DIAMOND and fan(k). The short variant runs while
    t <= n ** float(x), where x is the exponent at which the branches of
    b* meet (7/5 for the diamond, 4/3 for a fan), the long one after.
    `overrides` may set `regime_override` ("short" or "long") and, in the
    short regime only, `seed_set_size` and `per_vertex_cap`; None is unset.
    """
    if target.tag not in ("diamond", "fan"):
        raise UnsupportedPattern(f"no strategy for target {target}")
    if target.num_vertices > n:
        raise ConfigurationError(
            f"target {target} needs {target.num_vertices} vertices, n={n}"
        )
    overrides = overrides or {}
    for key in overrides:
        if key not in _OVERRIDE_KEYS:
            raise ConfigurationError(f"unknown strategy override {key!r} "
                                     f"(known: {', '.join(_OVERRIDE_KEYS)})")
    regime, r_set, cap_set = (overrides.get(key) for key in _OVERRIDE_KEYS)
    if regime not in (None, "short", "long"):
        raise ConfigurationError(f"regime override must be 'short' or 'long', "
                                 f"got {regime!r}")
    if r_set is not None and not 1 <= r_set <= n:
        raise ConfigurationError(f"seed set size must lie in [1, n={n}], got {r_set}")
    if cap_set is not None and cap_set < 1:
        raise ConfigurationError(f"per-vertex cap must be >= 1, got {cap_set}")
    diamond, k = target.tag == "diamond", target.k
    (a, c), (a_long, c_long) = _threshold_branches(target)
    if regime == "long" or (regime is None and t > n ** float((a - a_long) / (c - c_long))):
        kind = StrategyKind.DIAMOND_LONG if diamond else StrategyKind.FAN_LONG
        for key in _OVERRIDE_KEYS[1:]:  # the long builder has no seed set
            if overrides.get(key) is not None:
                raise ConfigurationError(f"the {key} override applies only to the "
                                         f"short regime, not to {kind.value}")
        return StrategySpec(kind, StrategyParams(phase_length=t // 2, k=k,
                                                 phase_budgets=(b // 2, b // 2)))
    if diamond:
        kind, phases, budgets = StrategyKind.DIAMOND_SHORT, 3, (b // 3, b // 2, b)
    else:
        kind, phases = StrategyKind.FAN_SHORT, k + 1
        budgets = (k * b // (k + 1),) + (b // (k + 1),) * k
    phase_length = t // phases
    # The window runs from n^(a+1) / T^(c+1), off the short branch, to bn/t.
    # A set override is at least 1, so `or` keeps it. A seed is capped at the
    # degree bound 3T/n; the fan's formal T/2kn never exceeds it.
    lo_log = (a + 1) * math.log(n) - (c + 1) * math.log(max(phase_length, 1))
    r = r_set or _geomean_seed_set(lo_log, math.log(max(b * n / t, 1.0)), n)
    return StrategySpec(kind, StrategyParams(
        phase_length=phase_length, seed_set_size=r,
        per_vertex_cap=cap_set or math.ceil(3 * phase_length / n),
        phase_budgets=budgets, k=k))


def _bought_rows(purchases):
    """Each stream index a purchase source buys, a block's one by one; the
    source resumes only when the row after its block's last is asked for."""
    for rows, _, _ in purchases:
        yield from rows.tolist()


_NO_ROWS = np.zeros(0, dtype=np.int64)


class _Base:
    """Budget check on the purchased graph's edge count, per-phase purchase
    caps; `name` (the StrategyKind value) is set by build_strategy. Each
    builder states its purchase rule once, in `buys`; `decide` reads it."""

    def __init__(self, config: ProcessConfig, params: StrategyParams, rng):
        self.config = config
        self.rng = rng
        self.budget_skips = 0
        self.T = params.phase_length
        self.p_caps = params.phase_budgets
        self.p_bought = [0] * len(self.p_caps)
        self._settled = None  # `_bought_rows` of `buys`, once `decide` starts it
        self._row = -1  # the bought row reached last
        self._open = None  # (state, phase, bought rows, cap-skipped rows) of the open block

    def decide(self, state: ProcessState, e: Edge) -> bool:
        """Whether `buys` buys reveal i = state.clock - 1, for a caller that
        asks on every reveal in order. The generator is resumed only at the
        first reveal past the last row it yielded, so, as in the settled
        loop, after that row was bought and detected."""
        i = state.clock - 1
        if self._row < i:
            if self._settled is None:
                self._settled = _bought_rows(self.buys(state))
            self._row = next(self._settled, self.config.t)
        return self._row == i

    def _left(self, state: ProcessState, i: int) -> int:
        """How many more edges phase i can buy: its cap left, or the budget
        left if that is less."""
        return max(0, min(self.p_caps[i] - self.p_bought[i],
                          self.config.b - state.purchased.edge_count))

    def _block(self, state: ProcessState, i: int, block, skipped=_NO_ROWS):
        """Count and yield phase i's bought (rows, us, vs), held open while
        `buys` is suspended at it; `skipped`: its rows that count a `cap_skip`."""
        self.p_bought[i] += block[0].size
        self._open = state, i, block[0], skipped
        yield block
        self._open = None

    def _buy_rows(self, state: ProcessState, i: int, found):
        """`buys` for a phase that buys each row of `found`, the (rows, us,
        vs) its caller selected, while its cap and the budget last: yield
        the first ones as one block, then count a `budget_skip` for each row
        left, unless it was the cap that ran out."""
        rows, us, vs = found
        take = self._left(state, i)
        if take and rows.size:
            yield from self._block(state, i, (rows[:take], us[:take], vs[:take]))
        if self.p_bought[i] < self.p_caps[i]:
            self.budget_skips += max(rows.size - take, 0)

    def _unreached(self, rows: np.ndarray) -> int:
        """How many of the open block's `rows` a stop has not reached."""
        return int(np.count_nonzero(rows >= self._open[0].clock))

    def stats(self) -> dict:
        """A stop inside a block (`_open`) leaves out its rows at or past
        `state.clock`, writing nothing back."""
        bought = list(self.p_bought)
        if self._open is not None:
            _, i, rows, _ = self._open
            bought[i] -= self._unreached(rows)
        return {"budget_skips": self.budget_skips, "phase_bought": tuple(bought)}


class DegreeGreedy(_Base):
    """Count-maximizing adversary for the counting probe: stars on a vertex
    prefix plus the edges that close them into triangles.

    While the budget lasts it buys every revealed edge touching the prefix
    {0, ..., h-1}, h = max(1, min(n, bn // 4t)), and every edge (u, v)
    outside it that closes a purchased cherry u-w-v at a prefix vertex w.
    A prefix vertex collects about 2t/n revealed edges, so the stars use
    about b/2 over the stream and hold about bt/n cherries; the prefix
    stands in for the high-degree vertices, since degrees concentrate.
    Every closing edge revealed after its cherry adds a triangle, about
    b t^2 / n^3 in all: the rate criterion 8's probe measures.

    `buys` settles the rule in closed form, as one block. Before the budget
    runs out every prefix row is bought, so a row i outside the prefix
    closes a cherry iff ready(i) < i, where ready(i) = min over w < h of
    max(pos_w(u), pos_w(v)) and pos_w(x) is the row of the pair (w, x).
    It buys the first b - edge_count of the prefix rows and those rows. If
    that spends the budget, at row e, the graph is fixed: each later prefix
    row, and each later outside row with ready(i) <= e, counts a
    `budget_skip`, all past the block, and it has no phase caps, so a stop
    inside it nets nothing. With no budget left at all, every prefix row
    counts a `budget_skip` and nothing is decoded or joined.

    ready comes from one join, not a pass per centre. Sorted by the key
    x*h + w, the stars (w, x), x >= h, list each outside end's centres
    back to back; a row (u, v) whose ends both hold a star before it pairs
    with each centre w of u and looks up the key of (w, v). The rows are
    joined in slices of about t pairs, each fewer than t + n, so memory
    stays O(t + n). When h < n the stream is decoded once, and the ends of
    the stars, of the outside rows and of the bought rows are read off that
    one decode; buy-all (h = n) has no outside row and decodes only the
    rows it buys, at most b of them.
    """

    def __init__(self, config, params, rng):
        super().__init__(config, params, rng)
        self.h = max(1, min(config.n, config.b * config.n // (4 * config.t)))

    def buys(self, state: ProcessState):
        codes, n, t, h = state.codes, self.config.n, self.config.t, self.h
        left = self.config.b - state.purchased.edge_count
        prefix = codes < pair_code(n, h, h + 1)  # u < v: the rows meeting the prefix
        pre = np.flatnonzero(prefix)
        if not left:
            self.budget_skips += pre.size
            return
        out = ready = pre[:0]  # the outside rows that may close a cherry, and ready
        if h < n:  # one decode of the stream; buy-all decodes only the rows it buys
            us, vs = decode(n, codes)
            stars = pre[:left]  # the prefix rows that can be bought
            wu, wv = us[stars], vs[stars]
            stars, wu, wv = (a[wv >= h] for a in (stars, wu, wv))  # cherry ends lie outside
            pos = np.full(n, t)
            np.minimum.at(pos, wv, stars)  # an end's first star row, at any centre
            first = np.zeros(n + 1, np.int64)  # x's stars: first[x] up to first[x + 1]
            np.cumsum(np.bincount(wv, minlength=n), out=first[1:])
            keys = wv * h + wu
            by_key = np.argsort(keys)
            keys, stars, wu = keys[by_key], stars[by_key], wu[by_key]
            out = np.flatnonzero(~prefix)
            ou, ov = us[out], vs[out]
            near = (pos[ou] < out) & (pos[ov] < out)
            out, ou, ov, ready = out[near], ou[near], ov[near], np.full(near.sum(), t)
            size = first[ou + 1] - first[ou]  # a row's pairs: one per star (w, u)
            width = np.cumsum(size)
            lo = 0
            # each slice, rows lo..hi-1, holds fewer than t + h pairs
            for hi in np.searchsorted(width, np.arange(t, width[-1:].sum() + t, t), "right").tolist():
                span = size[lo:hi]
                row = np.repeat(np.arange(lo, hi), span)
                # j: each pair's star (w, u), where u's stars start at first[u]
                j = np.arange(row.size) + np.repeat(first[ou[lo:hi]] - np.cumsum(span) + span, span)
                look = ov[row] * h + wu[j]  # the key of the star (w, v)
                at = np.searchsorted(keys, look)
                hit = keys.take(at, mode="clip") == look
                np.minimum.at(ready, row[hit], np.maximum(stars[j[hit]], stars[at[hit]]))
                lo = hi
        cand = np.sort(np.concatenate((pre, out[ready < out])))
        bought = cand[:left]
        if bought.size:
            yield (bought, us[bought], vs[bought]) if h < n else (bought, *decode(n, codes[bought]))
        if cand.size >= left:  # the budget ran out at e
            e = bought[-1]
            self.budget_skips += int(np.count_nonzero(pre > e)
                                     + np.count_nonzero((out > e) & (ready <= e)))

    def stats(self) -> dict:
        return {**super().stats(), "prefix_size": self.h}


class BuyAll(DegreeGreedy):
    """Degree-greedy with h = n: the first b rows, and no `prefix_size`."""

    def __init__(self, config, params, rng):
        super().__init__(config, params, rng)
        self.h = config.n

    stats = _Base.stats


def _ends(codes: np.ndarray, rows: np.ndarray, n: int):
    """(rows, us, vs) of the stream indices `rows`; decodes nothing when
    there is none."""
    if not rows.size:
        return rows, rows, rows
    return (rows, *decode(n, codes[rows]))


def _seed_edges(codes: np.ndarray, lo: int, hi: int, n: int, r: int):
    """(stream indices, us, vs) of the edges in [lo, hi) meeting
    {0, ..., r-1}: as u < v, those whose code lies below the first of row r."""
    return _ends(codes, np.flatnonzero(codes[lo:hi] < pair_code(n, r, r + 1)) + lo, n)


def _inside(codes: np.ndarray, lo: int, hi: int, n: int, labels: np.ndarray):
    """(stream indices, us, vs) of the edges in [lo, hi) whose ends share a
    set bit of `labels`, per vertex a bool (a member of one set) or host
    bits (`_SeedPhaseBuilder._host_bits`)."""
    if np.count_nonzero(labels) < 2:  # too few vertices to host an edge, so decode nothing
        return _NO_ROWS, _NO_ROWS, _NO_ROWS
    us, vs = decode(n, codes[lo:hi])
    keep = (labels[us] & labels[vs]).astype(bool)
    return np.flatnonzero(keep) + lo, us[keep], vs[keep]


def _in_sorted(codes: np.ndarray, sorted_codes: np.ndarray) -> np.ndarray:
    """Mask of the codes that occur in the sorted array."""
    if sorted_codes.size == 0:
        return np.zeros(codes.shape, dtype=bool)
    return sorted_codes.take(np.searchsorted(sorted_codes, codes), mode="clip") == codes


class _SeedPhaseBuilder(_Base):
    """Seed phase and neighborhood freeze shared by the short-time builders.

    During the seed phase (the first T reveals) an edge meeting the seed set
    R = {0, ..., r-1} is bought for the first endpoint in R whose per-vertex
    cap is not yet reached, while the phase-0 budget lasts. At the end of
    the phase each seed's purchased neighborhood is frozen. `_hosted_buys`
    hands each hosted buy to the subclass's `_place`.
    """

    def __init__(self, config, params, rng):
        super().__init__(config, params, rng)
        self.r = params.seed_set_size
        self.cap = params.per_vertex_cap
        self.attr_count = [0] * self.r
        self.cap_skips = 0
        # seed v -> seed-phase N(v), never the graph's shared empty frozenset; see _freeze
        self.frozen_nbrs: Optional[dict] = None
        self.touched: list[int] = []  # the seeds the seed phase's settled rows meet
        self._seed_ends = _NO_ROWS, _NO_ROWS  # (us, vs) of the seed phase's buys

    def stats(self) -> dict:
        """Netted as the base stats, cap-skipped rows included."""
        skips = self.cap_skips
        if self._open is not None:
            skips -= self._unreached(self._open[3])
        return {**super().stats(), "cap_skips": skips, "seed_set_size": self.r}

    def _seed_buys(self, state: ProcessState, hi: int):
        """`buys` for the seed phase over the first `hi` rows. The seed-set
        rows are decoded once; one loop runs over them while the phase-0 cap
        and the budget last, converting max(edges left, 32) rows at a time,
        and the rows it buys are yielded as one block, its stats counted up
        to the block's last row. Past that the per-vertex counts are fixed,
        so the rows left are counted in one pass: a `cap_skip` where every
        seed end is at its cap, else a `budget_skip` unless it was the phase
        cap that ran out."""
        n, r, cap = self.config.n, self.r, self.cap
        rows, us, vs = _seed_edges(state.codes, 0, hi, n, r)
        attr, bought = self.attr_count, self.p_bought
        left = self._left(state, 0)
        done = end = 0  # rows settled so far; the block is rows[:end], less the skipped
        skipped = []  # positions in `rows`
        while left and done < rows.size:
            stop = done + max(left, 32)
            for j, u, v in zip(range(done, rows.size), us[done:stop].tolist(),
                               vs[done:stop].tolist()):
                if attr[u] < cap:  # u < v, so u is a seed
                    attr[u] += 1
                elif v < r and attr[v] < cap:
                    attr[v] += 1
                else:
                    skipped.append(j)
                    continue
                end = j + 1
                left -= 1
                if not left:
                    break
            done = j + 1
        inside = [j for j in skipped if j < end]
        self.cap_skips += len(inside)
        if end:
            block = rows[:end], us[:end], vs[:end]
            if inside:
                keep = np.ones(end, dtype=bool)
                keep[inside] = False
                block = tuple(a[keep] for a in block)
            self._seed_ends = block[1:]
            yield from self._block(state, 0, block, rows[inside])
        self.cap_skips += len(skipped) - len(inside)
        # Mark the seeds the settled rows meet (u < v makes u one); no other has an edge.
        seen = np.zeros(r, dtype=bool)
        seen[us[:done]] = True
        seen[vs[:done][vs[:done] < r]] = True
        self.touched = touched = np.flatnonzero(seen).tolist()
        if done < rows.size:
            full = np.ones(n, dtype=bool)  # a vertex outside R holds nothing
            full[:r] = False
            full[[w for w in touched if attr[w] >= cap]] = True
            skips = int(np.count_nonzero(full[us[done:]] & full[vs[done:]]))
            self.cap_skips += skips
            if bought[0] < self.p_caps[0]:
                self.budget_skips += rows.size - done - skips

    def _freeze(self, state: ProcessState) -> None:
        """Freeze the purchased neighbourhood of each seed that holds two or
        more purchased neighbours; a smaller one holds no inside edge. Only the
        `touched` seeds are read: any other has no edge yet, so it reads the
        graph's shared empty frozenset. A frozen set is the graph's own, not a
        copy, until `_unshare` copies it."""
        adj = state.purchased.adj
        self.frozen_nbrs = {w: adj[w] for w in self.touched if len(adj[w]) > 1}

    def _host_bits(self, seeds) -> np.ndarray:
        """Per vertex x, bit w % 63 for each seed w of `seeds` whose frozen
        set holds x, off the seed phase's buys (every edge at the freeze):
        the ends of a pair some w in `seeds` can host share a bit."""
        bits = np.zeros(self.config.n, dtype=np.int64)
        on = np.zeros(self.config.n, dtype=bool)
        on[np.fromiter(seeds, np.int64, len(seeds))] = True
        for x, w in (self._seed_ends, self._seed_ends[::-1]):
            at = on[w]
            np.bitwise_or.at(bits, x[at], 1 << w[at] % 63)
        return bits

    def _unshare(self, adj, u: int, v: int) -> None:
        """Called before each buy (u, v) after the freeze: a frozen end that
        still shares its set with the graph gets a copy, before it grows."""
        for x in (u, v):
            if self.frozen_nbrs.get(x) is adj[x]:
                self.frozen_nbrs[x] = set(adj[x])

    def _eligible(self, adj, u: int, v: int) -> list[int]:
        """The seeds whose frozen neighbourhood holds u and v. For such a w,
        u and v lie in frozen[w], inside adj[w] from the freeze on, so w is
        a common neighbour already at the freeze: a block's rows not yet
        inserted cannot change the answer (`_unshare` keeps frozen[w])."""
        frozen = self.frozen_nbrs
        return [w for w in adj[u] & adj[v]
                if w in frozen and u in frozen[w] and v in frozen[w]]

    def _hosted_buys(self, state: ProcessState, i: int, inside):
        """`buys` for hosted phase i over `inside`, the (rows, us, vs) whose
        ends share a host bit: buy each edge with eligible hosts while the
        phase cap and the budget last, yielded as one block; after it,
        unless the cap ran out, each later such row counts a `budget_skip`."""
        adj, hosts_of, place = state.purchased.adj, self._eligible, self._place
        # each edge with eligible hosts, asked after the buys before it were placed
        hosted = ((j, u, v, hosts)
                  for j, (u, v) in enumerate(zip(inside[1].tolist(), inside[2].tolist()))
                  if not adj[u].isdisjoint(adj[v]) and (hosts := hosts_of(adj, u, v)))
        picked = []
        for j, u, v, hosts in islice(hosted, self._left(state, i)):
            place(hosts, u, v)
            self._unshare(adj, u, v)
            picked.append(j)
        if picked:
            yield from self._block(state, i, tuple(a[picked] for a in inside))
        if self.p_bought[i] < self.p_caps[i]:
            self.budget_skips += sum(1 for _ in hosted)


class DiamondShort(_SeedPhaseBuilder):
    """Three-phase diamond builder for the short-time regime.

    Phase 1 (first T reveals): the seed phase. Phase 2 (next T): buy edges
    lying inside a frozen seed neighborhood, up to half the budget; such an
    edge closes a triangle, and a second one sharing a vertex in the same
    neighborhood (or one lying in two neighborhoods) already completes the
    diamond. Phase 3 (rest): buy only edges from the candidate set, i.e.
    pairs that extend a phase-2 triangle to a diamond and were not revealed
    during phase 1.
    """

    def __init__(self, config, params, rng):
        super().__init__(config, params, rng)
        self.phase2_edges: list[tuple[int, int, int]] = []  # (seed, x, y)
        self.candidate_codes: Optional[np.ndarray] = None  # sorted pair codes
        self.host_counts: list[int] = []  # the hosts of each phase-2 buy

    def buys(self, state: ProcessState):
        codes, n, t, T = state.codes, self.config.n, self.config.t, self.T
        yield from self._seed_buys(state, min(T, t))
        if t <= T:
            return
        self._freeze(state)
        inside = _inside(codes, T, min(2 * T, t), n, self._host_bits(self.frozen_nbrs))
        yield from self._hosted_buys(state, 1, inside)
        if t <= 2 * T:
            return
        candidates = self._build_candidates(codes[:T])
        found = _ends(codes, np.flatnonzero(_in_sorted(codes[2 * T:], candidates)) + 2 * T, n)
        take, adj = self._left(state, 2), state.purchased.adj
        for u, v in zip(found[1][:take].tolist(), found[2][:take].tolist()):
            self._unshare(adj, u, v)
        yield from self._buy_rows(state, 2, found)

    def _place(self, hosts: list[int], u: int, v: int) -> None:
        """Record a phase-2 buy under its smallest host, and its host count."""
        self.host_counts.append(len(hosts))
        self.phase2_edges.append((min(hosts), u, v))

    def _build_candidates(self, phase1_codes) -> np.ndarray:
        """Set `candidate_codes` to the sorted codes of the pairs that extend
        a phase-2 triangle to a diamond, unrevealed in `phase1_codes`, and
        return them."""
        n = self.config.n
        cand = set()
        for seed, x, y in self.phase2_edges:
            for z in self.frozen_nbrs[seed]:
                if z == x or z == y:
                    continue
                for a in (x, y):
                    cand.add(pair_code(n, a, z) if a < z else pair_code(n, z, a))
        codes = np.array(sorted(cand), dtype=np.int64)
        if cand:  # with no candidate, phase 1's codes need no sort
            codes = codes[~_in_sorted(codes, np.sort(phase1_codes))]
        self.candidate_codes = codes
        return codes

    def stats(self) -> dict:
        """`max_multiplicity` is a max, not a count: the most hosts of the
        phase-2 buys that the netted `phase_bought` counts."""
        stats = super().stats()
        return {
            **stats,
            "candidate_count": (-1 if self.candidate_codes is None
                                else self.candidate_codes.size),
            "max_multiplicity": max(self.host_counts[:stats["phase_bought"][1]], default=0),
        }


_FIRST_SPAN = 1024  # reveals in the first span of the anchor's phase 2


class AnchorNeighborhood(_Base):
    """Long-time builder shared by the diamond and fan targets.

    Phase 1 (first T reveals): buy every edge at the anchor, vertex 0, up
    to half the budget. Phase 2: buy every edge inside the frozen anchor
    neighborhood, up to half the budget. The diamond completes at a cherry
    inside the neighborhood, the k-fan at k disjoint inside edges; the
    incremental detector picks either up.

    Phase 2 is read span by span: `_FIRST_SPAN` reveals, then twice as
    many as the span before, until the phase's cap is reached. A hit
    comes a few inside buys into the phase, so an early stop decodes only
    the spans it reached.
    """

    def __init__(self, config, params, rng):
        super().__init__(config, params, rng)
        self.frozen: Optional[set] = None

    def buys(self, state: ProcessState):
        codes, n, t, T = state.codes, self.config.n, self.config.t, self.T
        # The anchor is vertex 0, so its edges are those meeting {0}.
        yield from self._buy_rows(state, 0, _seed_edges(codes, 0, min(T, t), n, 1))
        if t <= T:
            return
        # No phase-2 buy meets the anchor, so its set stays the frozen one.
        self.frozen = frozen = state.purchased.adj[0]
        member = np.zeros(n, dtype=bool)
        member[list(frozen)] = True
        lo, width = T, _FIRST_SPAN
        while lo < t and self.p_bought[1] < self.p_caps[1]:
            hi = min(lo + width, t)
            yield from self._buy_rows(state, 1, _inside(codes, lo, hi, n, member))
            lo, width = hi, 2 * width

    def stats(self) -> dict:
        return {**super().stats(),
                "neighborhood_size": -1 if self.frozen is None else len(self.frozen)}


class FanShort(_SeedPhaseBuilder):
    """Seed-and-rounds fan builder for the short-time regime.

    Phase 0 (first T reveals): the seed phase. Rounds 1..k (T reveals
    each): buy an edge lying inside a surviving seed's frozen neighborhood
    when it is vertex-disjoint from the edges already bought inside that
    neighborhood; at each round boundary only seeds whose neighborhood
    gained an edge survive. A seed that collects k disjoint inside edges is
    the center of a k-fan. Only a frozen seed can host, so round 1's
    survivors are the frozen seeds, though `survivor_history[0]` is still
    r. Phase budgets and purchases are indexed (phase 0, round 1, ...,
    round k).
    """

    def __init__(self, config, params, rng):
        super().__init__(config, params, rng)
        self.k = params.k
        self.matched: Optional[dict] = None  # seed -> its blocked vertices, if any
        self.survivors = set()  # round 1: `frozen_nbrs` itself
        self.gained: set = set()
        self.survivor_history: list[int] = []  # survivors at each round's start

    def _freeze(self, state: ProcessState) -> None:
        """The base freeze, then the blocked vertices. Every purchased edge
        is a seed-phase buy yet, so a member of N(w) is blocked iff it lies
        in a purchased triangle through w. Every triangle's last-bought edge
        closed it, so the triangles are read off the graph's triangle-closing
        edges (`closing`): for each such (x, y) and each common neighbour w,
        every frozen centre among w, x and y blocks the other two."""
        super()._freeze(state)
        g = state.purchased
        adj, frozen = g.adj, self.frozen_nbrs
        self.matched = matched = {}
        for x, y in g.closing:
            for w in adj[x] & adj[y]:
                for centre, a, b in ((w, x, y), (x, y, w), (y, x, w)):
                    if centre in frozen:
                        matched.setdefault(centre, set()).update((a, b))

    def _start_round(self, rnd: int, state: ProcessState) -> None:
        """Round 1 freezes the neighborhoods and starts from the frozen seeds,
        counted as r survivors; a later round keeps only the seeds whose
        neighborhood gained an edge in the round before."""
        if rnd == 1:
            self._freeze(state)
            self.survivors = self.frozen_nbrs
            self.survivor_history.append(self.r)
        else:
            self.survivors, self.gained = self.gained, set()
            self.survivor_history.append(len(self.survivors))

    def _eligible(self, adj, u: int, v: int) -> list[int]:
        """The surviving hosts whose link matching the edge would grow."""
        matched, survivors = self.matched, self.survivors
        return [w for w in super()._eligible(adj, u, v) if w in survivors
                and u not in matched.get(w, ()) and v not in matched.get(w, ())]

    def _place(self, hosts: list[int], u: int, v: int) -> None:
        """Block u and v at each host, which survives into the next round."""
        for w in hosts:
            self.matched.setdefault(w, set()).update((u, v))
            self.gained.add(w)

    def buys(self, state: ProcessState):
        codes, n, t, T = state.codes, self.config.n, self.config.t, self.T
        if T == 0:
            return  # every reveal falls after the last round
        yield from self._seed_buys(state, min(T, t))
        for rnd in range(1, self.k + 1):
            lo = rnd * T
            if lo >= t:
                return
            self._start_round(rnd, state)
            yield from self._hosted_buys(state, rnd, _inside(codes, lo, min(lo + T, t), n,
                                                             self._host_bits(self.survivors)))

    def stats(self) -> dict:
        return {**super().stats(), "survivor_history": tuple(self.survivor_history)}


_BUILDERS = {
    StrategyKind.BUY_ALL: BuyAll,
    StrategyKind.DEGREE_GREEDY: DegreeGreedy,
    StrategyKind.DIAMOND_SHORT: DiamondShort,
    StrategyKind.DIAMOND_LONG: AnchorNeighborhood,
    StrategyKind.FAN_SHORT: FanShort,
    StrategyKind.FAN_LONG: AnchorNeighborhood,
}


def build_strategy(spec: StrategySpec, config: ProcessConfig):
    """Fresh strategy instance for this trial. It is handed the trial's
    strategy RNG substream, which no strategy reads (see the module
    docstring)."""
    strategy = _BUILDERS[spec.kind](
        config, spec.params, substream(config.seed, STREAM_STRATEGY)
    )
    strategy.name = spec.name
    return strategy
