"""Online builder strategies for the budget-restricted process.

The diamond and fan builders come in two flavors per target: a short-time
variant that seeds many small neighborhoods and closes structure inside
them, and a long-time variant that grows one anchored star and buys inside
its neighborhood. Two baselines serve calibration and the counting
probes: buy-all, and degree-greedy, the counting adversary.

Decisions depend only on the revealed prefix and the strategy's own
state; every strategy refuses to buy once the global budget is spent
(degrading to skips that are counted in its stats). `build_strategy`
still draws a strategy RNG substream per trial, which no strategy reads;
deleting it waits for a benchmark change, since the benchmark's tests
count two substreams per trial.

Every strategy settles its purchases in `buys(state)` (contract in
`process`): a generator that yields `(i, u, v)` for each row of
`state.codes` it buys, in stream order, with every stat counted for the
rows up to and including i before the yield. At each phase start it does
that phase's set-up (a freeze, a candidate build, a round start), then runs
one loop over that phase's rows that can buy or change a stat: seed-set
edges found from their codes, edges inside the frozen neighborhoods from a
vertex mask, candidate pairs from a sorted code array. Once a phase's cap
or the budget is spent its counts are fixed, so the rows left in it are
counted in bulk: the seed phase's `cap_skip`s in one vectorised pass, and
the `budget_skip`s of a phase that buys every row it reaches (the anchor
phases, `DiamondShort`'s last phase, `buy-all`) by their number.
`_Base.decide` answers reveal by reveal from the same generator, for a
caller that asks on every reveal; the hand-written per-reveal rules that
`buys` is checked against live in `tests/per_reveal.py`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
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

    The targets are DIAMOND and fan(k). Diamond: short variant up to
    t = n^{7/5}, long after. Fan: short up to t = n^{4/3}, long after.
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
    x_long = 1.4 if diamond else 4 / 3  # the long regime starts past t = n^x_long
    if regime == "long" or (regime is None and t > n ** x_long):
        kind = StrategyKind.DIAMOND_LONG if diamond else StrategyKind.FAN_LONG
        for key in _OVERRIDE_KEYS[1:]:  # the long builder has no seed set
            if overrides.get(key) is not None:
                raise ConfigurationError(f"the {key} override applies only to the "
                                         f"short regime, not to {kind.value}")
        return StrategySpec(kind, StrategyParams(phase_length=t // 2, k=k,
                                                 phase_budgets=(b // 2, b // 2)))
    # A set override is at least 1, so `or` keeps it.
    if diamond:
        phase_length = t // 3
        r = r_set or _geomean_seed_set(
            7 * math.log(n) - 5 * math.log(max(phase_length, 1)),
            math.log(max(b * n / t, 1.0)),
            n,
        )
        params = StrategyParams(
            phase_length=phase_length,
            seed_set_size=r,
            per_vertex_cap=cap_set or math.ceil(3 * phase_length / n),
            phase_budgets=(b // 3, b // 2, b),
        )
        kind = StrategyKind.DIAMOND_SHORT
    else:
        phase_length = t // (k + 1)
        r = r_set or _geomean_seed_set(
            4 * k * math.log(n) - 3 * k * math.log(max(phase_length, 1)),
            math.log(max(b * n / t, 1.0)),
            n,
        )
        # The formal per-vertex stopping size T/2kn collapses to one
        # edge per seed vertex at desk scale, which leaves neighborhoods
        # too small to ever hold a link edge; floor it at the degree
        # concentration bound 3T/n instead.
        cap = cap_set or max(phase_length // (2 * k * n) + 1,
                             math.ceil(3 * phase_length / n))
        params = StrategyParams(
            phase_length=phase_length,
            seed_set_size=r,
            per_vertex_cap=cap,
            phase_budgets=(k * b // (k + 1),) + (b // (k + 1),) * k,
            k=k,
        )
        kind = StrategyKind.FAN_SHORT
    return StrategySpec(kind, params)


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
        self._settled = None  # the `buys` generator, once `decide` starts it
        self._row = -1  # the row it yielded last

    def decide(self, state: ProcessState, e: Edge) -> bool:
        """Whether `buys` buys reveal i = state.clock - 1, for a caller that
        asks on every reveal in order. The generator is resumed only at the
        first reveal past the row it yielded last, so, as in the settled
        loop, after that row was bought and detected."""
        i = state.clock - 1
        if self._settled is None:
            self._settled = self.buys(state)
        if self._row < i:
            self._row = next(self._settled, (self.config.t,))[0]
        return self._row == i

    def _left(self, state: ProcessState, i: int) -> int:
        """How many more edges phase i can buy: its cap left, or the budget
        left if that is less."""
        return max(0, min(self.p_caps[i] - self.p_bought[i],
                          self.config.b - state.purchased.edge_count))

    def _buy_rows(self, state: ProcessState, i: int, rows: np.ndarray):
        """`buys` for a phase that buys each of its `rows` while its cap and
        the budget last: yield the first ones, then count a `budget_skip`
        for each row left, unless it was the cap that ran out."""
        take = rows[: self._left(state, i)]
        us, vs = decode(self.config.n, state.codes[take])
        bought = self.p_bought
        for row, u, v in zip(take.tolist(), us.tolist(), vs.tolist()):
            bought[i] += 1
            yield row, u, v
        if bought[i] < self.p_caps[i]:
            self.budget_skips += rows.size - take.size

    def stats(self) -> dict:
        return {"budget_skips": self.budget_skips, "phase_bought": tuple(self.p_bought)}


class BuyAll(_Base):
    def buys(self, state: ProcessState):
        """The first b rows, decoded once. The reveals after them each count
        a `budget_skip`, all at once after the last yield: no reveal before
        the budget runs out is a skip."""
        codes = state.codes
        take = min(codes.size, self.config.b - state.purchased.edge_count)
        us, vs = decode(self.config.n, codes[:take])
        yield from zip(range(take), us.tolist(), vs.tolist())
        self.budget_skips += codes.size - take


class DegreeGreedy(_Base):
    """Count-maximizing adversary for the counting probe: stars on a vertex
    prefix plus the edges that close them into triangles.

    While the budget lasts it buys (a) every revealed edge touching the
    prefix {0, ..., h-1}, h = max(1, min(n, bn // 4t)), and (b) every
    revealed edge (u, v) outside the prefix whose endpoints are both
    purchased neighbours of one prefix vertex, i.e. the closing edge of a
    purchased cherry at a star centre. A prefix vertex collects about 2t/n
    revealed edges, so the stars are expected to use about b/2 over the
    stream and to hold about bt/n cherries; the prefix stands in for the
    high-degree vertices, since degrees concentrate. Every closing edge
    revealed after its cherry is bought adds a triangle, about b t^2 / n^3
    in all: the rate criterion 8's probe measures.

    `buys` decodes the stream once and loops over two kinds of rows: every
    prefix row (after the budget each counts a `budget_skip`), and every
    row outside the prefix whose two ends each received one of the first b
    prefix rows before it, where it tests for a closing edge. While the
    budget lasts every prefix row is bought, so the bought ones are an
    initial run of at most b prefix rows; a row whose ends have a purchased
    common prefix neighbour is therefore of the second kind.
    """

    def __init__(self, config, params, rng):
        super().__init__(config, params, rng)
        self.h = max(1, min(config.n, config.b * config.n // (4 * max(config.t, 1))))

    def buys(self, state: ProcessState):
        codes, n, b, h = state.codes, self.config.n, self.config.b, self.h
        us, vs = decode(n, codes)
        prefix = us < h  # u < v, so these are the rows meeting the prefix
        # A vertex outside the prefix is reached at the first of the first b
        # prefix rows that ends at it; a closing row needs both ends reached.
        first = np.flatnonzero(prefix)[:b]
        reached = np.full(n, codes.size)
        np.minimum.at(reached, vs[first], first)
        rows = np.arange(codes.size)
        keep = prefix | ((reached[us] < rows) & (reached[vs] < rows))
        adj = state.purchased.adj
        left = b - state.purchased.edge_count
        for i, u, v in zip(np.flatnonzero(keep).tolist(), us[keep].tolist(),
                           vs[keep].tolist()):
            if u >= h:
                common = adj[u] & adj[v]
                if not common or min(common) >= h:
                    continue
            if not left:
                self.budget_skips += 1
                continue
            left -= 1
            yield i, u, v

    def stats(self) -> dict:
        return {**super().stats(), "prefix_size": self.h}


def _seed_edges(codes: np.ndarray, lo: int, hi: int, n: int, r: int) -> np.ndarray:
    """Stream indices in [lo, hi) of the edges meeting {0, ..., r-1}: as
    u < v, those whose code lies below the first of row r."""
    return np.flatnonzero(codes[lo:hi] < pair_code(n, r, r + 1)) + lo


def _inside(codes: np.ndarray, lo: int, hi: int, n: int, vertices):
    """(stream indices, us, vs) of the edges in [lo, hi) with both ends in
    `vertices`, a collection of vertices."""
    member = np.zeros(n, dtype=bool)
    member[list(vertices)] = True
    us, vs = decode(n, codes[lo:hi])
    keep = member[us] & member[vs]
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
    the phase each seed's purchased neighborhood is frozen.
    """

    def __init__(self, config, params, rng):
        super().__init__(config, params, rng)
        self.r = params.seed_set_size
        self.cap = params.per_vertex_cap
        self.attr_count = [0] * self.r
        self.cap_skips = 0
        self.frozen_nbrs: Optional[dict] = None  # seed vertex -> set(N(v))

    def stats(self) -> dict:
        return {**super().stats(), "cap_skips": self.cap_skips, "seed_set_size": self.r}

    def _seed_buys(self, state: ProcessState, hi: int):
        """`buys` for the seed phase over the first `hi` rows. The seed-set
        rows are decoded once; one loop runs over them while the phase-0 cap
        and the budget last, turning max(edges left, 32) rows at a time into
        lists. Past that the per-vertex counts are fixed, so the rows left
        are counted in one pass: a `cap_skip` where every seed end is at its
        cap, else a `budget_skip` unless it was the phase cap that ran out."""
        n, r, cap = self.config.n, self.r, self.cap
        codes = state.codes
        rows = _seed_edges(codes, 0, hi, n, r)
        us, vs = decode(n, codes[rows])
        attr, bought = self.attr_count, self.p_bought
        left = self._left(state, 0)
        done = 0  # rows settled so far
        while left and done < rows.size:
            stop = done + max(left, 32)
            for i, u, v in zip(rows[done:stop].tolist(), us[done:stop].tolist(),
                               vs[done:stop].tolist()):
                if attr[u] < cap:  # u < v, so u is a seed
                    attr[u] += 1
                elif v < r and attr[v] < cap:
                    attr[v] += 1
                else:
                    self.cap_skips += 1
                    continue
                bought[0] += 1
                left -= 1
                yield i, u, v
                if not left:
                    break
            done = int(np.searchsorted(rows, i, side="right"))
        if done < rows.size:
            full = np.ones(n, dtype=bool)  # a vertex outside R holds nothing
            full[:r] = np.array(attr, dtype=np.int64) >= cap
            skips = int(np.count_nonzero(full[us[done:]] & full[vs[done:]]))
            self.cap_skips += skips
            if bought[0] < self.p_caps[0]:
                self.budget_skips += rows.size - done - skips

    def _freeze(self, state: ProcessState) -> None:
        """Freeze the purchased neighbourhood of each seed that holds two or
        more purchased neighbours; a smaller one holds no inside edge."""
        self.frozen_nbrs = {v: set(nbrs) for v, nbrs in enumerate(state.purchased.adj[: self.r])
                            if len(nbrs) > 1}

    def _eligible(self, adj, u: int, v: int) -> list[int]:
        """The seeds whose frozen neighbourhood holds u and v. Edges are never
        removed, so each is a common neighbour of u and v in `adj`."""
        frozen = self.frozen_nbrs
        return [w for w in adj[u] & adj[v]
                if w in frozen and u in frozen[w] and v in frozen[w]]

    def _place(self, hosts: list[int], u: int, v: int) -> None:
        """Record a hosted phase's bought edge with its `_eligible` hosts."""

    def _hosted_buys(self, state: ProcessState, i: int, inside):
        """`buys` for hosted phase i over `inside`, the (rows, us, vs) of its
        edges inside the frozen neighbourhoods: buy each edge with eligible
        hosts while the phase cap lasts; once the budget is spent each such
        row counts a `budget_skip`."""
        bought, cap = self.p_bought, self.p_caps[i]
        if bought[i] >= cap:
            return
        adj, hosts_of, place = state.purchased.adj, self._eligible, self._place
        budget = self.config.b - state.purchased.edge_count
        for row, u, v in zip(*(a.tolist() for a in inside)):
            if adj[u].isdisjoint(adj[v]):
                continue  # no common neighbour, so no host
            hosts = hosts_of(adj, u, v)
            if not hosts:
                continue
            if not budget:
                self.budget_skips += 1
                continue
            bought[i] += 1
            budget -= 1
            place(hosts, u, v)
            yield row, u, v
            if bought[i] >= cap:
                return


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
        self.max_multiplicity = 0

    def buys(self, state: ProcessState):
        codes, n, t, T = state.codes, self.config.n, self.config.t, self.T
        yield from self._seed_buys(state, min(T, t))
        if t <= T:
            return
        self._freeze(state)
        inside = _inside(codes, T, min(2 * T, t), n, set().union(*self.frozen_nbrs.values()))
        yield from self._hosted_buys(state, 1, inside)
        if t <= 2 * T:
            return
        candidates = self._build_candidates(codes[:T])
        yield from self._buy_rows(
            state, 2, np.flatnonzero(_in_sorted(codes[2 * T:], candidates)) + 2 * T)

    def _place(self, hosts: list[int], u: int, v: int) -> None:
        if len(hosts) > self.max_multiplicity:
            self.max_multiplicity = len(hosts)
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
        self.candidate_codes = codes[~_in_sorted(codes, np.sort(phase1_codes))]
        return self.candidate_codes

    def stats(self) -> dict:
        return {
            **super().stats(),
            "candidate_count": (-1 if self.candidate_codes is None
                                else self.candidate_codes.size),
            "max_multiplicity": self.max_multiplicity,
        }


class AnchorNeighborhood(_Base):
    """Long-time builder shared by the diamond and fan targets.

    Phase 1 (first T reveals): buy every edge at the anchor, vertex 0, up
    to half the budget. Phase 2: buy every edge inside the frozen anchor
    neighborhood, up to half the budget. The diamond completes at a cherry
    inside the neighborhood, the k-fan at k disjoint inside edges; the
    incremental detector picks either up.
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
        self.frozen = set(state.purchased.adj[0])
        yield from self._buy_rows(state, 1, _inside(codes, T, t, n, self.frozen)[0])

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
    the center of a k-fan. Phase budgets and purchases are indexed
    (phase 0, round 1, ..., round k).
    """

    def __init__(self, config, params, rng):
        super().__init__(config, params, rng)
        self.k = params.k
        self.matched: Optional[dict] = None  # seed -> vertices covered inside N
        self.survivors: set = set()
        self.gained: set = set()
        self.survivor_sets: list[frozenset] = []

    def _freeze(self, state: ProcessState) -> None:
        super()._freeze(state)
        g = state.purchased
        # Purchases already sitting inside a neighborhood block the vertices
        # they cover (phase-0 edges between two members count).
        self.matched = {w: {x for x in inside if not g.adj[x].isdisjoint(inside)}
                        for w, inside in self.frozen_nbrs.items()}

    def _start_round(self, rnd: int, state: ProcessState) -> None:
        """Round 1 freezes the neighborhoods; a later round keeps only the
        seeds whose neighborhood gained an edge in the round before."""
        if rnd == 1:
            self._freeze(state)
            self.survivors = set(range(self.r))
        else:
            self.survivors, self.gained = self.gained, set()
        self.survivor_sets.append(frozenset(self.survivors))

    def _eligible(self, adj, u: int, v: int) -> list[int]:
        """The surviving hosts whose link matching the edge would grow."""
        matched, survivors = self.matched, self.survivors
        return [w for w in super()._eligible(adj, u, v)
                if w in survivors and u not in matched[w] and v not in matched[w]]

    def _place(self, hosts: list[int], u: int, v: int) -> None:
        for w in hosts:
            self.matched[w].add(u)
            self.matched[w].add(v)
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
            live = set().union(*(self.frozen_nbrs.get(w, ()) for w in self.survivors))
            yield from self._hosted_buys(state, rnd, _inside(codes, lo, min(lo + T, t), n, live))

    def stats(self) -> dict:
        return {**super().stats(), "survivor_history": tuple(map(len, self.survivor_sets))}


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
