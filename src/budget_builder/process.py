"""The budget-restricted random graph process.

Reveals the edges of K_n in uniformly random order, lets an online strategy
irrevocably buy at most b of the first t, and watches the purchased graph
with an incremental target detector.

The stream is one array of t pair codes (`pair_code`), drawn at the first
reveal. `run_strategy` drives a trial by one of two loops:

- the per-reveal loop calls `next_edge` and `decide` on every reveal; it
  serves every strategy without a `windows` method;
- the event-driven loop serves a strategy with a `windows(state)`
  generator. At each phase start the generator does that phase's set-up
  (a freeze, a candidate build, a round advance) and then yields the
  sorted stream indices of the reveals `decide` must see. Only those rows
  are decoded; every other reveal is skipped unread.

The `windows` contract: yield every index where `decide` could buy or
change a stat. Both loops share the budget check, the insert and the
incremental detector call, end in the same `confirm` check, and set
`state.clock` to the position of each reveal `decide` sees (index + 1),
so for a given seed they give identical `TrialRecord`s, `phase_stats`
included.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .detect import BuilderGraph
from .errors import (
    BudgetContractViolation,
    ConfigurationError,
    DetectorMismatch,
    StreamExhausted,
)
from .rng import STREAM_EDGES, substream


class Edge(NamedTuple):
    u: int
    v: int


@dataclass(frozen=True)
class ProcessConfig:
    """One cell (n, t, b) of the model and a trial seed; checked when built,
    so no invalid config exists (`replace` builds, and checks, a new one)."""

    n: int
    t: int
    b: int
    seed: int

    @property
    def num_pairs(self) -> int:
        return self.n * (self.n - 1) // 2

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ConfigurationError(f"need n >= 2, got n={self.n}")
        if not 1 <= self.t <= self.num_pairs:
            raise ConfigurationError(
                f"need 1 <= t <= C(n,2) = {self.num_pairs}, got t={self.t}"
            )
        if self.b < 0:
            raise ConfigurationError(f"need b >= 0, got b={self.b}")


@dataclass
class ProcessState:
    config: ProcessConfig
    clock: int = 0
    budget_used: int = 0
    purchased: BuilderGraph = None  # type: ignore[assignment]
    codes: Optional[np.ndarray] = None  # the t pair codes in reveal order
    _us: list = field(default_factory=list)  # decoded codes, for next_edge
    _vs: list = field(default_factory=list)


def new_process(config: ProcessConfig) -> ProcessState:
    state = ProcessState(config=config)
    state.purchased = BuilderGraph(config.n)
    return state


def pair_code(n: int, u, v):
    """Code of the pair u < v: pairs are numbered row by row, so row u
    starts at u(2n-u-1)/2. Works elementwise on int64 arrays; the first
    code of row r is pair_code(n, r, r + 1), for every r <= n."""
    return u * (2 * n - u - 1) // 2 + v - u - 1


def decode(n: int, codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(us, vs) of an int64 code array, by a search over the row starts."""
    rows = np.arange(n, dtype=np.int64)
    starts = pair_code(n, rows, rows + 1)
    us = np.searchsorted(starts, codes, side="right") - 1
    return us, codes - starts[us] + us + 1


def draw_codes(config: ProcessConfig) -> np.ndarray:
    """The whole stream: one uniform ordered sample of t distinct pair codes.

    `choice(..., replace=False)` draws with Floyd's algorithm, or by a
    partial shuffle of all C(n,2) codes once t exceeds C(n,2)/50; either
    way memory stays O(t + n).
    """
    rng = substream(config.seed, STREAM_EDGES)
    return rng.choice(config.num_pairs, size=config.t, replace=False)


_new_edge = tuple.__new__  # Edge._make without its length check


def next_edge(state: ProcessState) -> Edge:
    """Reveal the next edge, uniform over the not-yet-revealed pairs."""
    cfg = state.config
    c = state.clock
    if c >= cfg.t:
        raise StreamExhausted(f"all {cfg.t} edges already revealed")
    if state.codes is None:
        state.codes = draw_codes(cfg)
        us, vs = decode(cfg.n, state.codes)
        state._us, state._vs = us.tolist(), vs.tolist()
    state.clock = c + 1
    return _new_edge(Edge, (state._us[c], state._vs[c]))


@dataclass(slots=True)
class TrialRecord:
    """Outcome of one simulated trial. Slotted: a batch keeps one per trial."""

    target: str
    k: int
    n: int
    t: int
    b: int
    strategy: str
    seed: int
    success: bool
    hit_time: Optional[int]
    edges_bought: int
    clock_at_stop: int
    phase_stats: dict
    purchased: Optional[BuilderGraph] = None  # the live graph, with keep_graph


def _buy(state: ProcessState, strategy, detector, e: Edge, watching: bool) -> bool:
    """The buy step of both loops: the budget check, the insert, then the
    incremental detector while `watching`. True iff the buy is a hit."""
    if state.budget_used >= state.config.b:
        raise BudgetContractViolation(
            f"{strategy.name} bought edge {tuple(e)} at clock "
            f"{state.clock} with budget {state.config.b} exhausted"
        )
    state.purchased.insert_edge(e.u, e.v)
    state.budget_used += 1
    return watching and detector.after_insert(state.purchased, e.u, e.v)


def _per_reveal(state: ProcessState, strategy, detector, early_stop: bool):
    hit_time = None
    while state.clock < state.config.t:
        e = next_edge(state)
        if strategy.decide(state, e) and _buy(state, strategy, detector, e,
                                              hit_time is None):
            hit_time = state.clock
            if early_stop:
                break
    return hit_time


def _event_driven(state: ProcessState, strategy, detector, early_stop: bool):
    cfg = state.config
    codes = state.codes = draw_codes(cfg)
    hit_time = None
    for idx in strategy.windows(state):
        us, vs = decode(cfg.n, codes[idx])
        for i, u, v in zip(idx.tolist(), us.tolist(), vs.tolist()):
            state.clock = i + 1
            e = _new_edge(Edge, (u, v))
            if strategy.decide(state, e) and _buy(state, strategy, detector, e,
                                                  hit_time is None):
                hit_time = state.clock
                if early_stop:
                    return hit_time
    state.clock = cfg.t
    return hit_time


def run_strategy(
    config: ProcessConfig,
    strategy,
    detector,
    *,
    target_label: str = "",
    target_k: int = 0,
    early_stop: bool = True,
    keep_graph: bool = False,
) -> TrialRecord:
    """Drive reveal -> decide -> purchase -> detect until hit or clock = t.

    The strategy sees only the revealed prefix and its own state; a buy
    with the budget already spent is a contract violation, never a silent
    clamp. The incremental hit flag is cross-checked against batch
    containment on the final purchased graph. A strategy with `windows`
    takes the event-driven loop, any other the per-reveal loop.
    """
    state = new_process(config)
    loop = _event_driven if hasattr(strategy, "windows") else _per_reveal
    hit_time = loop(state, strategy, detector, early_stop)
    success = hit_time is not None
    if success != detector.confirm(state.purchased):
        raise DetectorMismatch(
            f"incremental hit={success} but batch containment disagrees "
            f"(strategy={strategy.name}, seed={config.seed})"
        )
    return TrialRecord(
        target=target_label,
        k=target_k,
        n=config.n,
        t=config.t,
        b=config.b,
        strategy=strategy.name,
        seed=config.seed,
        success=success,
        hit_time=hit_time,
        edges_bought=state.budget_used,
        clock_at_stop=state.clock,
        phase_stats=strategy.stats(),
        purchased=state.purchased if keep_graph else None,
    )
