"""The budget-restricted random graph process.

Reveals the edges of K_n in uniformly random order, lets an online strategy
irrevocably buy at most b of the first t, and watches the purchased graph
with an incremental target detector.
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
    n: int
    t: int
    b: int
    seed: int

    @property
    def num_pairs(self) -> int:
        return self.n * (self.n - 1) // 2

    def validate(self) -> None:
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
    _order: list = field(default_factory=list)  # all t reveals, drawn at the first


def new_process(config: ProcessConfig) -> ProcessState:
    config.validate()
    state = ProcessState(config=config)
    state.purchased = BuilderGraph(config.n)
    return state


def _draw_order(config: ProcessConfig) -> list[tuple[int, int]]:
    """The whole stream: one uniform ordered sample of t distinct pairs.

    `choice(..., replace=False)` draws the t pair codes with Floyd's
    algorithm, or by a partial shuffle of all C(n,2) codes once t exceeds
    C(n,2)/50; either way memory stays O(t + n). Codes enumerate the pairs
    u < v row by row.
    """
    n = config.n
    rows = np.arange(n, dtype=np.int64)
    offsets = rows * (2 * n - rows - 1) // 2  # first pair code of row u
    rng = substream(config.seed, STREAM_EDGES)
    codes = rng.choice(config.num_pairs, size=config.t, replace=False)
    us = np.searchsorted(offsets, codes, side="right") - 1
    vs = codes - offsets[us] + us + 1
    return list(zip(us.tolist(), vs.tolist()))


def next_edge(state: ProcessState) -> Edge:
    """Reveal the next edge, uniform over the not-yet-revealed pairs."""
    cfg = state.config
    if state.clock >= cfg.t:
        raise StreamExhausted(f"all {cfg.t} edges already revealed")
    if not state._order:
        state._order = _draw_order(cfg)
    # Built per reveal: an early stop leaves most of the order unread.
    e = Edge._make(state._order[state.clock])
    state.clock += 1
    return e


@dataclass
class TrialRecord:
    """Outcome of one simulated trial."""

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
    containment on the final purchased graph.
    """
    state = new_process(config)
    hit_time: Optional[int] = None
    while state.clock < config.t:
        e = next_edge(state)
        if strategy.decide(state, e):
            if state.budget_used >= config.b:
                raise BudgetContractViolation(
                    f"{strategy.name} bought edge {tuple(e)} at clock "
                    f"{state.clock} with budget {config.b} exhausted"
                )
            state.purchased.insert_edge(e.u, e.v)
            state.budget_used += 1
            if hit_time is None and detector.after_insert(state.purchased, e.u, e.v):
                hit_time = state.clock
                if early_stop:
                    break
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
