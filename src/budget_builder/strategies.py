"""Online builder strategies for the budget-restricted process.

The diamond and fan builders come in two flavors per target: a short-time
variant that seeds many small neighborhoods and closes structure inside
them, and a long-time variant that grows one anchored star and buys inside
its neighborhood. Baselines (buy-all, never-buy, connectivity greedy,
degree greedy) support calibration and the counting probes.

Decisions depend only on the revealed prefix and the strategy's own
state; every strategy refuses to buy once the global budget is spent
(degrading to skips that are counted in its stats). `build_strategy`
still draws a strategy RNG substream per trial, which no strategy reads;
deleting it waits for a benchmark change, since the benchmark's tests
count two substreams per trial.

The phased builders (`DiamondShort`, `AnchorNeighborhood`, `FanShort`)
also have `windows(state)` for the event-driven loop (contract in
`process`): at each phase start it does the set-up `decide` would do at
that phase's first reveal, then yields the indices in `state.codes` of
that phase's reveals where `decide` could buy or change a stat. Seed-set
edges are found from their codes, edges inside the frozen neighborhoods by
decoding the window, candidate pairs in a sorted code array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
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
    CONNECTIVITY = "connectivity"
    BUY_ALL = "buy-all"
    NEVER_BUY = "never-buy"
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
    `overrides` may set `regime_override` ("short" or "long"),
    `seed_set_size` and `per_vertex_cap`; a None value is not set.
    """
    if target.tag not in ("diamond", "fan"):
        raise UnsupportedPattern(f"no strategy for target {target}")
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
        params = StrategyParams(phase_length=t // 2, k=k,
                                phase_budgets=(b // 2, b // 2))
        kind = StrategyKind.DIAMOND_LONG if diamond else StrategyKind.FAN_LONG
    elif diamond:
        phase_length = t // 3
        r = _geomean_seed_set(
            7 * math.log(n) - 5 * math.log(max(phase_length, 1)),
            math.log(max(b * n / t, 1.0)),
            n,
        )
        params = StrategyParams(
            phase_length=phase_length,
            seed_set_size=r,
            per_vertex_cap=math.ceil(3 * phase_length / n),
            phase_budgets=(b // 3, b // 2, b),
        )
        kind = StrategyKind.DIAMOND_SHORT
    else:
        phase_length = t // (k + 1)
        r = _geomean_seed_set(
            4 * k * math.log(n) - 3 * k * math.log(max(phase_length, 1)),
            math.log(max(b * n / t, 1.0)),
            n,
        )
        # The formal per-vertex stopping size T/2kn collapses to one
        # edge per seed vertex at desk scale, which leaves neighborhoods
        # too small to ever hold a link edge; floor it at the degree
        # concentration bound 3T/n instead.
        cap = max(phase_length // (2 * k * n) + 1,
                  math.ceil(3 * phase_length / n))
        params = StrategyParams(
            phase_length=phase_length,
            seed_set_size=r,
            per_vertex_cap=cap,
            phase_budgets=(k * b // (k + 1),) + (b // (k + 1),) * k,
            k=k,
        )
        kind = StrategyKind.FAN_SHORT
    if r_set is not None:
        params = replace(params, seed_set_size=r_set)
    if cap_set is not None:
        params = replace(params, per_vertex_cap=cap_set)
    return StrategySpec(kind, params)


class _Base:
    """Shared budget check and per-phase purchase caps; `name` (the
    StrategyKind value) is set by build_strategy."""

    def __init__(self, config: ProcessConfig, params: StrategyParams, rng):
        self.config = config
        self.rng = rng
        self.budget_skips = 0
        self.T = params.phase_length
        self.p_caps = params.phase_budgets
        self.p_bought = [0] * len(self.p_caps)

    def _budget_left(self, state: ProcessState) -> bool:
        if state.budget_used >= self.config.b:
            self.budget_skips += 1
            return False
        return True

    def _phase_buy(self, state: ProcessState, i: int) -> bool:
        """Buy in phase i unless its cap is reached or the budget is spent
        (the cap is checked first, so only budget refusals are counted)."""
        if self.p_bought[i] >= self.p_caps[i] or not self._budget_left(state):
            return False
        self.p_bought[i] += 1
        return True

    def stats(self) -> dict:
        return {"budget_skips": self.budget_skips}


class BuyAll(_Base):
    def decide(self, state: ProcessState, e: Edge) -> bool:
        return self._budget_left(state)


class NeverBuy(_Base):
    def decide(self, state: ProcessState, e: Edge) -> bool:
        return False


class Connectivity(_Base):
    """Buy an edge iff it joins two purchased-graph components."""

    def __init__(self, config, params, rng):
        super().__init__(config, params, rng)
        self._parent = list(range(config.n))

    def _find(self, x: int) -> int:
        parent = self._parent
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def decide(self, state: ProcessState, e: Edge) -> bool:
        ru, rv = self._find(e.u), self._find(e.v)
        if ru == rv or not self._budget_left(state):
            return False
        self._parent[rv] = ru
        return True


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
    """

    def __init__(self, config, params, rng):
        super().__init__(config, params, rng)
        self.h = max(1, min(config.n, config.b * config.n // (4 * max(config.t, 1))))

    def decide(self, state: ProcessState, e: Edge) -> bool:
        if e.u >= self.h and e.v >= self.h:
            common = state.purchased.common_neighbors(e.u, e.v)
            if not common or min(common) >= self.h:
                return False
        return self._budget_left(state)

    def stats(self) -> dict:
        return {"budget_skips": self.budget_skips, "prefix_size": self.h}


def _seed_edges(codes: np.ndarray, lo: int, hi: int, n: int, r: int) -> np.ndarray:
    """Stream indices in [lo, hi) of the edges meeting {0, ..., r-1}: as
    u < v, those whose code lies below the first of row r."""
    return np.flatnonzero(codes[lo:hi] < pair_code(n, r, r + 1)) + lo


def _inside(codes: np.ndarray, lo: int, hi: int, n: int, vertices) -> np.ndarray:
    """Stream indices in [lo, hi) of the edges with both ends in `vertices`."""
    member = np.zeros(n, dtype=bool)
    member[list(vertices)] = True
    us, vs = decode(n, codes[lo:hi])
    return np.flatnonzero(member[us] & member[vs]) + lo


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
        self.frozen_nbrs: Optional[list] = None  # per seed vertex, set(N(v))
        self.member_of: Optional[list] = None  # vertex -> seed vertices

    def _seed_decide(self, state: ProcessState, u: int, v: int) -> bool:
        holder = -1
        if u < self.r and self.attr_count[u] < self.cap:
            holder = u
        elif v < self.r and self.attr_count[v] < self.cap:
            holder = v
        if holder < 0:
            if u < self.r or v < self.r:
                self.cap_skips += 1
            return False
        if not self._phase_buy(state, 0):
            return False
        self.attr_count[holder] += 1
        return True

    def _freeze(self, state: ProcessState) -> None:
        g = state.purchased
        self.frozen_nbrs = [set(g.neighbors(v)) for v in range(self.r)]
        member_of = [[] for _ in range(self.config.n)]
        for v in range(self.r):
            for x in self.frozen_nbrs[v]:
                member_of[x].append(v)
        self.member_of = member_of


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
        self.candidates: Optional[set] = None  # pair codes
        self.candidate_codes: Optional[np.ndarray] = None  # the same, sorted
        self.max_multiplicity = 0

    def _neighborhoods_containing(self, u: int, v: int) -> list[int]:
        return [w for w in self.member_of[u] if v in self.frozen_nbrs[w]]

    def decide(self, state: ProcessState, e: Edge) -> bool:
        clock = state.clock
        u, v = e
        if clock <= self.T:
            return self._seed_decide(state, u, v)
        if self.frozen_nbrs is None:
            self._freeze(state)
        if clock <= 2 * self.T:
            holders = self._neighborhoods_containing(u, v)
            if not holders or not self._phase_buy(state, 1):
                return False
            if len(holders) > self.max_multiplicity:
                self.max_multiplicity = len(holders)
            self.phase2_edges.append((holders[0], u, v))
            return True
        if self.candidates is None:
            self._build_candidates(state.codes[: self.T])
        return (pair_code(self.config.n, u, v) in self.candidates
                and self._phase_buy(state, 2))

    def windows(self, state: ProcessState):
        codes, n, t, T = state.codes, self.config.n, self.config.t, self.T
        yield _seed_edges(codes, 0, min(T, t), n, self.r)
        if t <= T:
            return
        self._freeze(state)
        yield _inside(codes, T, min(2 * T, t), n, set().union(*self.frozen_nbrs))
        if t <= 2 * T:
            return
        self._build_candidates(codes[:T])
        yield np.flatnonzero(_in_sorted(codes[2 * T:], self.candidate_codes)) + 2 * T

    def _build_candidates(self, phase1_codes) -> None:
        """The codes of the pairs that extend a phase-2 triangle to a
        diamond and were not revealed in phase 1 (`phase1_codes`)."""
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
        self.candidates = set(self.candidate_codes.tolist())

    def stats(self) -> dict:
        return {
            "budget_skips": self.budget_skips,
            "cap_skips": self.cap_skips,
            "phase_bought": tuple(self.p_bought),
            "seed_set_size": self.r,
            "candidate_count": -1 if self.candidates is None else len(self.candidates),
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

    def decide(self, state: ProcessState, e: Edge) -> bool:
        clock = state.clock
        u, v = e
        if clock <= self.T:
            return u == 0 and self._phase_buy(state, 0)  # edges have u < v
        if self.frozen is None:
            self.frozen = set(state.purchased.neighbors(0))
        return u in self.frozen and v in self.frozen and self._phase_buy(state, 1)

    def windows(self, state: ProcessState):
        codes, n, t, T = state.codes, self.config.n, self.config.t, self.T
        # The anchor is vertex 0, so its edges are those meeting {0}.
        yield _seed_edges(codes, 0, min(T, t), n, 1)
        if t <= T:
            return
        self.frozen = set(state.purchased.neighbors(0))
        yield _inside(codes, T, t, n, self.frozen)

    def stats(self) -> dict:
        return {
            "budget_skips": self.budget_skips,
            "phase_bought": tuple(self.p_bought),
            "neighborhood_size": -1 if self.frozen is None else len(self.frozen),
        }


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
        self.current_round = 0
        self.matched: Optional[list] = None  # per seed, vertices covered inside N
        self.survivors: set = set()
        self.gained: set = set()
        self.survivor_sets: list[frozenset] = []

    def _freeze(self, state: ProcessState) -> None:
        super()._freeze(state)
        g = state.purchased
        # Purchases already sitting inside a neighborhood block the vertices
        # they cover (phase-0 edges between two members count).
        self.matched = [{x for x in inside if not g.adj[x].isdisjoint(inside)}
                        for inside in self.frozen_nbrs]

    def _start_round(self, rnd: int, state: ProcessState) -> None:
        """Round 1 freezes the neighborhoods; a later round keeps only the
        seeds whose neighborhood gained an edge in the round before."""
        if rnd == 1:
            self._freeze(state)
            self.survivors = set(range(self.r))
        else:
            self.survivors, self.gained = self.gained, set()
        self.survivor_sets.append(frozenset(self.survivors))
        self.current_round = rnd

    def decide(self, state: ProcessState, e: Edge) -> bool:
        u, v = e
        clock, T = state.clock, self.T
        if clock <= T:
            return self._seed_decide(state, u, v)
        if clock > (self.k + 1) * T:  # past the last round; always so at T = 0
            return False
        rnd = (clock - 1) // T
        while self.current_round < rnd:
            self._start_round(self.current_round + 1, state)
        # Only a surviving host whose link matching the edge grows is credited.
        placeable = [
            w
            for w in self.member_of[u]
            if w in self.survivors and v in self.frozen_nbrs[w]
            and u not in self.matched[w] and v not in self.matched[w]
        ]
        if not placeable or not self._phase_buy(state, rnd):
            return False
        for w in placeable:
            self.matched[w].add(u)
            self.matched[w].add(v)
            self.gained.add(w)
        return True

    def windows(self, state: ProcessState):
        codes, n, t, T = state.codes, self.config.n, self.config.t, self.T
        if T == 0:
            return  # every reveal falls after the last round
        yield _seed_edges(codes, 0, min(T, t), n, self.r)
        for rnd in range(1, self.k + 1):
            lo = rnd * T
            if lo >= t:
                return
            self._start_round(rnd, state)
            live = set().union(*(self.frozen_nbrs[w] for w in self.survivors))
            yield _inside(codes, lo, min(lo + T, t), n, live)

    def stats(self) -> dict:
        return {
            "budget_skips": self.budget_skips,
            "cap_skips": self.cap_skips,
            "phase0_bought": self.p_bought[0],
            "seed_set_size": self.r,
            "survivor_history": tuple(map(len, self.survivor_sets)),
        }


_BUILDERS = {
    StrategyKind.BUY_ALL: BuyAll,
    StrategyKind.NEVER_BUY: NeverBuy,
    StrategyKind.CONNECTIVITY: Connectivity,
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
