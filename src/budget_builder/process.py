"""The budget-restricted random graph process.

Reveals the edges of K_n in uniformly random order, lets an online strategy
irrevocably buy at most b of the first t, and watches the purchased graph
with an incremental target detector.

The stream is one array of t pair codes (`pair_code`), drawn at the first
reveal. `run_strategy` runs one step per bought row (the budget check;
buy; detect; stop at a hit under early stop) over one of two purchase
sources, each an iterator of `(i, u, v)`: the stream index and the ends
(u < v) of each row the strategy buys, in stream order.

- A strategy with a `buys(state)` generator settles its purchases itself,
  from the drawn codes; every reveal it does not buy is skipped unread.
  The generator resumes only after its last row is bought and detected, so
  it may then do set-up that reads the purchased graph (a freeze, a
  candidate build, a round advance).
- `_decided_buys` serves every other strategy (`buy-all`, and any wrapper
  or test double that has only `decide`, `stats` and `name`): it calls
  `next_edge` and `decide` on every reveal.

The `buys` contract: yield exactly the rows `decide` would buy, and before
each yield have every stat counted for the rows up to and including it;
once exhausted, have them counted for the whole stream. An early stop
leaves the generator suspended at the hit row, so its stats are those of
the revealed prefix. The step sets `state.clock` to the position of each
bought row (index + 1), and to t at the end of a run without an early
stop, so for a given seed both sources give identical `TrialRecord`s,
`phase_stats` included.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
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
    purchased: BuilderGraph = None  # type: ignore[assignment]
    codes: Optional[np.ndarray] = None  # the t pair codes in reveal order
    _us: list = field(default_factory=list)  # decoded codes, for next_edge
    _vs: list = field(default_factory=list)


def new_process(config: ProcessConfig) -> ProcessState:
    return ProcessState(config, purchased=BuilderGraph(config.n))


def pair_code(n: int, u, v):
    """Code of the pair u < v: pairs are numbered row by row, so row u
    starts at u(2n-u-1)/2. Works elementwise on int64 arrays; the first
    code of row r is pair_code(n, r, r + 1), for every r <= n."""
    return u * (2 * n - u - 1) // 2 + v - u - 1


@lru_cache(maxsize=8)
def _row_starts(n: int) -> np.ndarray:
    """The first code of each of the n rows, built once per n (read-only)."""
    rows = np.arange(n, dtype=np.int64)
    starts = pair_code(n, rows, rows + 1)
    starts.flags.writeable = False
    return starts


def decode(n: int, codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(us, vs) of an int64 code array, by a search over the row starts."""
    starts = _row_starts(n)
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


def _decided_buys(state: ProcessState, strategy):
    """One `next_edge` and one `decide` call per reveal, up to clock t; the
    rows `decide` buys, as `buys` yields them."""
    t = state.config.t
    decide = strategy.decide
    while state.clock < t:
        e = next_edge(state)
        if decide(state, e):
            yield state.clock - 1, e.u, e.v


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
    containment on the final purchased graph. A strategy with `buys`
    settles its own purchases, any other is asked on every reveal; the step
    is the same.
    """
    state = new_process(config)
    g = state.purchased
    if hasattr(strategy, "buys"):
        state.codes = draw_codes(config)
        purchases = strategy.buys(state)
    else:
        purchases = _decided_buys(state, strategy)
    hit_time = None
    for i, u, v in purchases:
        state.clock = i + 1
        if g.edge_count >= config.b:
            raise BudgetContractViolation(
                f"{strategy.name} bought edge ({u}, {v}) at clock "
                f"{state.clock} with budget {config.b} exhausted"
            )
        g.insert_edge(u, v)
        if hit_time is None and detector.after_insert(g, u, v):
            hit_time = state.clock
            if early_stop:
                break
    else:
        state.clock = config.t  # an early stop leaves the clock at the hit
    success = hit_time is not None
    if success != detector.confirm(g):
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
        edges_bought=g.edge_count,
        clock_at_stop=state.clock,
        phase_stats=strategy.stats(),
        purchased=g if keep_graph else None,
    )
