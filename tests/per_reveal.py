"""Per-reveal purchase rules: the reference each builder's `buys` is checked
against.

Each class subclasses a `budget_builder.strategies` builder and overrides
its `decide` with a hand-written rule that asks, reveal by reveal, whether
to buy, and counts its stats as it goes. State that a phase needs is set up
lazily, at the first reveal of the phase that reads it: the neighbourhood
freeze, the candidate build, the round advance. The freeze here copies
each seed's neighbourhood and, for the fan, rebuilds the blocked vertices
from adjacency, where `buys` shares the graph's sets and reads the blocked
vertices off the triangle-closing purchased edges (`BuilderGraph.closing`),
so the two freezes share no state. The builder's `buys` is inherited, so
run a reference through `conftest.PerReveal`, which hides `buys`, to take
the per-reveal source. Its `stats()` is inherited too, and with `buys`
never run it holds no open block, so it reports the counts as `decide`
kept them, one reveal at a time: the figure a builder's `stats()` must
give at every bought row, a row inside a block included
(`conftest.BuysChecker`).
`reference_strategy(spec, config)` mirrors `build_strategy`. Not part of
the installed package.
"""

from __future__ import annotations

from budget_builder import strategies
from budget_builder.process import Edge, ProcessState, pair_code
from budget_builder.rng import STREAM_STRATEGY, substream
from budget_builder.strategies import StrategyKind


class _Rules:
    """The budget check and the per-phase caps, one reveal at a time."""

    def _budget_left(self, state: ProcessState) -> bool:
        if state.purchased.edge_count >= self.config.b:
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


class BuyAll(_Rules, strategies.BuyAll):
    def decide(self, state: ProcessState, e: Edge) -> bool:
        return self._budget_left(state)


class DegreeGreedy(_Rules, strategies.DegreeGreedy):
    def decide(self, state: ProcessState, e: Edge) -> bool:
        if e.u >= self.h and e.v >= self.h:
            adj = state.purchased.adj
            common = adj[e.u] & adj[e.v]
            if not common or min(common) >= self.h:
                return False
        return self._budget_left(state)


class _SeedRules(_Rules):
    """The seed phase and the hosted phases of the short builders, with the
    copying freeze: each frozen neighbourhood a set of its own, so no later
    buy can change it."""

    def _freeze(self, state: ProcessState) -> None:
        self.frozen_nbrs = {v: set(nbrs) for v, nbrs in enumerate(state.purchased.adj[: self.r])
                            if len(nbrs) > 1}

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

    def _hosted_decide(self, state: ProcessState, i: int, u: int, v: int) -> bool:
        """`decide` for hosted phase i: buy an edge with eligible hosts."""
        hosts = self._eligible(state.purchased.adj, u, v)
        if not hosts or not self._phase_buy(state, i):
            return False
        self._place(hosts, u, v)
        return True


class DiamondShort(_SeedRules, strategies.DiamondShort):
    def __init__(self, config, params, rng):
        super().__init__(config, params, rng)
        self.candidates = None  # pair codes, built at the first phase-3 reveal

    def decide(self, state: ProcessState, e: Edge) -> bool:
        clock = state.clock
        u, v = e
        if clock <= self.T:
            return self._seed_decide(state, u, v)
        if self.frozen_nbrs is None:
            self._freeze(state)
        if clock <= 2 * self.T:
            return self._hosted_decide(state, 1, u, v)
        if self.candidates is None:
            self.candidates = set(self._build_candidates(state.codes[: self.T]).tolist())
        return (pair_code(self.config.n, u, v) in self.candidates
                and self._phase_buy(state, 2))


class AnchorNeighborhood(_Rules, strategies.AnchorNeighborhood):
    def decide(self, state: ProcessState, e: Edge) -> bool:
        clock = state.clock
        u, v = e
        if clock <= self.T:
            return u == 0 and self._phase_buy(state, 0)  # edges have u < v
        if self.frozen is None:
            self.frozen = set(state.purchased.adj[0])
        return u in self.frozen and v in self.frozen and self._phase_buy(state, 1)


class FanShort(_SeedRules, strategies.FanShort):
    def __init__(self, config, params, rng):
        super().__init__(config, params, rng)
        self.current_round = 0

    def _freeze(self, state: ProcessState) -> None:
        """The copying freeze, then the blocked vertices read off each
        member's whole adjacency set: the members with a neighbour inside
        the neighbourhood, an empty set for a seed with none."""
        super()._freeze(state)
        adj = state.purchased.adj
        self.matched = {w: {x for x in inside if not adj[x].isdisjoint(inside)}
                        for w, inside in self.frozen_nbrs.items()}

    def _start_round(self, rnd: int, state: ProcessState) -> None:
        super()._start_round(rnd, state)
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
        return self._hosted_decide(state, rnd, u, v)


_REFERENCES = {
    StrategyKind.BUY_ALL: BuyAll,
    StrategyKind.DEGREE_GREEDY: DegreeGreedy,
    StrategyKind.DIAMOND_SHORT: DiamondShort,
    StrategyKind.DIAMOND_LONG: AnchorNeighborhood,
    StrategyKind.FAN_SHORT: FanShort,
    StrategyKind.FAN_LONG: AnchorNeighborhood,
}


def reference_strategy(spec, config):
    """The per-reveal reference for this trial, built as `build_strategy`
    builds the strategy itself."""
    strategy = _REFERENCES[spec.kind](
        config, spec.params, substream(config.seed, STREAM_STRATEGY)
    )
    strategy.name = spec.name
    return strategy
