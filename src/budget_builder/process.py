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
    drawn: set = field(default_factory=set)  # codes revealed or queued in _buffer
    _rng: np.random.Generator = None  # type: ignore[assignment]
    _offsets: np.ndarray = None  # type: ignore[assignment]
    _buffer: list = field(default_factory=list)  # decoded (u, v), FIFO
    _buffer_pos: int = 0
    _exact_tail: bool = False


def new_process(config: ProcessConfig) -> ProcessState:
    config.validate()
    state = ProcessState(config=config)
    state.purchased = BuilderGraph(config.n)
    state._rng = substream(config.seed, STREAM_EDGES)
    n = config.n
    rows = np.arange(n, dtype=np.int64)
    # _offsets[u] = first pair code of row u in the (u < v) enumeration.
    state._offsets = rows * (2 * n - rows - 1) // 2
    return state


def _decode(state: ProcessState, codes: np.ndarray) -> list[tuple[int, int]]:
    us = np.searchsorted(state._offsets, codes, side="right") - 1
    vs = codes - state._offsets[us] + us + 1
    return list(zip(us.tolist(), vs.tolist()))


def _refill(state: ProcessState) -> None:
    cfg = state.config
    n_pairs = cfg.num_pairs
    need = cfg.t - state.clock - (len(state._buffer) - state._buffer_pos)
    if need <= 0:
        return
    drawn = state.drawn
    rng = state._rng
    # Rejection sampling is O(1) expected while fewer than half the pairs
    # are spoken for; past that point, lay out the exact remainder once.
    while need > 0 and len(drawn) < n_pairs // 2 and not state._exact_tail:
        batch = rng.integers(0, n_pairs, size=max(64, need + (need >> 2) + 8))
        fresh = []
        for code in batch.tolist():
            if code in drawn:
                continue
            drawn.add(code)
            fresh.append(code)
            need -= 1
            if need <= 0:
                break
        if fresh:
            state._buffer.extend(_decode(state, np.asarray(fresh, dtype=np.int64)))
    if need > 0:
        state._exact_tail = True
        remaining = np.array(
            [c for c in range(n_pairs) if c not in drawn], dtype=np.int64
        )
        order = rng.permutation(remaining)
        drawn.update(order.tolist())
        state._buffer.extend(_decode(state, order))


def next_edge(state: ProcessState) -> Edge:
    """Reveal the next edge, uniform over the not-yet-revealed pairs."""
    cfg = state.config
    if state.clock >= cfg.t:
        raise StreamExhausted(f"all {cfg.t} edges already revealed")
    if state._buffer_pos >= len(state._buffer):
        _refill(state)
    u, v = state._buffer[state._buffer_pos]
    state._buffer_pos += 1
    state.clock += 1
    return Edge(u, v)


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
