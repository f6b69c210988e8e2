"""The budget-restricted random graph process.

Reveals the edges of K_n in uniformly random order, lets an online strategy
irrevocably buy at most b of the first t, and watches the purchased graph
with an incremental target detector.

The stream is one array of t pair codes (`pair_code`), drawn at the first
reveal. `run_strategy` runs one step per yield of a purchase source, in
stream order. There is one yield form, a block `(rows, us, vs)` of three
equal-length 1-D int64 arrays in a tuple: the stream indices of one or
more bought rows and the ends u < v of each. `_check_block` refuses any
other yield first, then states the rules, the same for every bought row:
the rows strictly increasing from past the last row bought to before t,
and each pair the one revealed at its row (so u < v < n), else
`OnlineRuleViolation` naming the revealed pair; no more rows than the
budget left, else `BudgetContractViolation`. So every bought pair is the
distinct pair revealed at its row. A block is checked whole, then its
pairs go to the graph's one insert body, `insert_until_triangle`, as one
iterator, which returns at each pair that closes a triangle; the step
reads that pair's row off its place in the block. Both targets are unions
of triangles, so the step asks the detector only about such a buy, and
stops at a hit under early stop, inside a block too.

- A strategy with a `buys(state)` generator settles its purchases itself,
  from the drawn codes; every reveal it does not buy is skipped unread.
  The generator resumes only after its yield's last row is bought and
  detected, so it may then do set-up that reads the purchased graph (a
  freeze, a candidate build, a round advance).
- `_decided_buys` serves a wrapper that exposes only `decide`, `stats` and
  `name` (the benchmark's tracer, the tests' `PerReveal`, a test double):
  it calls `next_edge` and `decide` on every reveal and yields each row
  bought as a 1-row block. Every strategy `build_strategy` returns has
  `buys`, and its `decide` reads the answer off that generator, through
  `strategies._bought_rows`, so both sources run the same purchase rule.

The `buys` contract, which every builder in `strategies` keeps: yield the
rows the strategy buys, each decided from the revealed prefix and the
purchased graph (so a block holds only rows settled before any of them is
inserted), and before each yield have every stat counted for the rows up
to and including the yield's last row; once exhausted, have them counted
for the whole stream. The hand-written per-reveal rules in
`tests/per_reveal.py` are the reference it is checked against. An early
stop leaves the generator suspended at the yield that holds the hit row,
so its stats must be those of the revealed prefix: while it is suspended
at a block, `stats()` leaves out what the block's rows at or past
`state.clock` counted. The step keeps the row index in a local and writes
`state.clock` once, after its loop: the hit row's position (index + 1)
under an early stop, else t (on the per-reveal source `next_edge` also
advances it on every reveal, for `decide` to read). So for a given seed
both sources give identical `TrialRecord`s, `phase_stats` included.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from operator import attrgetter
from typing import NamedTuple, Optional

import numpy as np

from .detect import BuilderGraph
from .errors import (
    BudgetContractViolation,
    ConfigurationError,
    DetectorMismatch,
    OnlineRuleViolation,
    StreamExhausted,
)
from .rng import STREAM_EDGES, substream


class Edge(NamedTuple):
    u: int
    v: int


MAX_N = 2**25  # `decode`'s closed form is exact while (2n - 1)^2 < 2^52


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
        if self.n > MAX_N:
            raise ConfigurationError(
                f"need n <= 2^25 = {MAX_N}, the pair-code decoder's range, got n={self.n}"
            )
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


def _upper_ends(m: int, codes: np.ndarray, us: np.ndarray) -> np.ndarray:
    """v = c - s(u) + u + 1 for codes c in rows u, where s(u) = u(m - u)/2
    is the first code of row u; computed as c - u(m - 2 - u)/2 + 1."""
    vs = m - 2 - us
    vs *= us
    vs >>= 1
    np.subtract(codes, vs, out=vs)
    vs += 1
    return vs


def _settle(m: int, codes: np.ndarray, us: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(us, vs) from row estimates that are exact or one too large, in one
    integer correction: u is too large exactly where its row starts past
    c, that is, where v <= u."""
    vs = _upper_ends(m, codes, us)
    past = vs <= us
    if past.any():
        us -= past
        vs = _upper_ends(m, codes, us)
    return us, vs


def decode(n: int, codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(us, vs) of an int64 code array, in closed form.

    With m = 2n - 1, row u starts at code s(u) = u(m - u)/2, so the row of
    code c is u = floor((m - sqrt(m^2 - 8c))/2), computed here as
    floor(n - 1/2 - sqrt(m^2/4 - 2c)). `ProcessConfig` keeps n <= 2^25, so
    m^2 < 2^52: the sqrt's argument is an exact float and the sqrt is
    correctly rounded, which can leave u one too large, never too small;
    `_settle` corrects it. Every caller decodes through here but the
    anchor's star (`strategies.AnchorNeighborhood`), whose pairs (0, v)
    are read off their codes v - 1.
    """
    m = 2 * n - 1
    f = codes * -2.0
    f += m * m / 4
    np.sqrt(f, out=f)
    np.subtract(n - 0.5, f, out=f)
    return _settle(m, codes, f.astype(np.int64))


def draw_codes(config: ProcessConfig) -> np.ndarray:
    """The whole stream: one uniform ordered sample of t distinct pair codes.

    `choice(..., replace=False)` draws with Floyd's algorithm, or by a
    partial shuffle of all C(n,2) codes when C(n,2) > 10,000 and t exceeds
    C(n,2)/50, so for n <= 141 it is Floyd's at any t (as in numpy 2.4.6).
    Either way memory stays O(t + n).
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


class TrialCell(NamedTuple):
    """What every trial of one cell shares: its CSV labels, (n, t, b), and
    the keys of its records' `phase_stats`, in the order `stats()` gives."""

    target: str
    k: int
    n: int
    t: int
    b: int
    strategy: str
    stats_keys: tuple


# One shared TrialCell per distinct cell, so a kept record adds one pointer.
_trial_cell = lru_cache(maxsize=256)(TrialCell)
# Likewise one shared `stats_values` tuple per recently seen value (`tuple`
# returns a tuple argument itself): 3,000 criterion-5 trials hold 72 distinct
# stats, so a kept long-regime record adds one pointer, not its own tuples.
_shared_values = lru_cache(maxsize=256)(tuple)


@dataclass(slots=True)
class TrialRecord:
    """Outcome of one simulated trial. A batch keeps one per trial, so a
    record holds only what varies between trials: the per-cell fields
    (target, k, n, t, b, strategy) are read from one shared `TrialCell`,
    `success` from `hit_time`, and `phase_stats` zips the cell's keys with
    `stats_values`, the values as `stats()` returned them. Records with
    equal stats mostly share one tuple."""

    cell: TrialCell
    seed: int
    hit_time: Optional[int]
    edges_bought: int
    clock_at_stop: int
    stats_values: tuple
    purchased: Optional[BuilderGraph] = None  # the live graph, with keep_graph

    target = property(attrgetter("cell.target"))
    k = property(attrgetter("cell.k"))
    n = property(attrgetter("cell.n"))
    t = property(attrgetter("cell.t"))
    b = property(attrgetter("cell.b"))
    strategy = property(attrgetter("cell.strategy"))

    @property
    def success(self) -> bool:
        return self.hit_time is not None

    @property
    def phase_stats(self) -> dict:
        return dict(zip(self.cell.stats_keys, self.stats_values))


def _decided_buys(state: ProcessState, strategy):
    """One `next_edge` and one `decide` call per reveal, up to clock t; each
    row `decide` buys, as a 1-row block."""
    t = state.config.t
    decide = strategy.decide
    while state.clock < t:
        e = next_edge(state)
        if decide(state, e):
            yield tuple(np.array([[state.clock - 1], [e.u], [e.v]], np.int64))


def _form(x) -> str:
    """dtype[shape] of an array, else the type's name."""
    return f"{x.dtype}{list(x.shape)}" if isinstance(x, np.ndarray) else type(x).__name__


def _check_block(name: str, config: ProcessConfig, codes: np.ndarray, block,
                 last: int, left: int) -> tuple:
    """Return the yield `block` as (rows, us, vs) if it is a block that
    keeps the rules of the module docstring, given the row bought `last`
    and the budget `left`; else raise, first refusing a yield not of the
    one yield form by its parts' dtypes and shapes. A block passes one
    vectorised test, which reads the end rows as ints, tests the order
    within a block of two or more rows, and ands 0 <= u < v < n with the
    code test in one mask: `pair_code` is one-to-one where the range test
    holds, and a row where it fails (whose code may overflow) fails the
    mask anyway. A block that fails the test is taken apart rule by rule,
    to name its first offending row."""
    rows, us, vs = block if block.__class__ is tuple and len(block) == 3 else (None,) * 3
    if not (rows.__class__ is us.__class__ is vs.__class__ is np.ndarray
            and rows.dtype == us.dtype == vs.dtype == np.int64
            and rows.ndim == 1 and rows.shape == us.shape == vs.shape):
        parts = f"({', '.join(map(_form, block))})" if isinstance(block, tuple) else _form(block)
        raise OnlineRuleViolation(f"{name} yielded {parts}, not a block of three "
                                  f"equal-length 1-D int64 arrays (rows, us, vs)")
    n, t, size = config.n, config.t, rows.size
    if (0 < size <= left and last < rows.item(0) and rows.item(-1) < t
            and (size == 1 or (rows[1:] > rows[:-1]).all())
            and ((0 <= us) & (us < vs) & (vs < n) & (codes[rows] == pair_code(n, us, vs))).all()):
        return block

    def bought(j: int) -> str:
        return f"{name} bought edge ({us[j]}, {vs[j]}) at row {rows[j]}"

    if not size:
        raise OnlineRuleViolation(f"{name} bought an empty block after row {last}")
    before = np.concatenate(([last], rows[:-1]))
    bad = (rows <= before) | (rows >= t)
    if bad.any():
        j = int(bad.argmax())
        raise OnlineRuleViolation(f"{bought(j)}, not after row {before[j]} and before t={t}")
    if size > left:
        raise BudgetContractViolation(
            f"{name} bought edge ({us[left]}, {vs[left]}) at clock "
            f"{rows[left] + 1} with budget {config.b} exhausted"
        )
    ru, rv = decode(n, codes[rows])  # the mask failed, so some pair is not its row's
    j = int(((us != ru) | (vs != rv)).argmax())
    raise OnlineRuleViolation(f"{bought(j)}, where ({ru[j]}, {rv[j]}) was revealed")


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
    out of stream order, or with the budget already spent, or of a pair
    other than the one revealed at its row, is a contract violation,
    never a silent clamp or swap. The detector is asked only about buys
    that close a triangle (every `detector_for` target is a union of
    triangles, so no other buy completes one); its hit flag is
    cross-checked against batch containment on the final purchased graph,
    which reads every edge. A strategy with `buys` settles its own
    purchases, any other is asked on every reveal; the step is the same.
    """
    state = new_process(config)
    g = state.purchased
    if hasattr(strategy, "buys"):
        state.codes = draw_codes(config)
        purchases = strategy.buys(state)
    else:
        purchases = _decided_buys(state, strategy)
    # Bound once per trial: the benchmark's tracer wraps the detector
    # before the trial starts, so it still sees every call.
    after_insert, insert_until_triangle = detector.after_insert, g.insert_until_triangle
    left = config.b  # budget left; every insert below spends one edge
    last = -1  # the row bought last
    hit_time = None
    for block in purchases:
        rows, us, vs = _check_block(strategy.name, config, state.codes, block, last, left)
        left -= rows.size
        last = int(rows[-1])
        base = g.edge_count  # the block's j-th pair is edge base + j
        block = zip(us.tolist(), vs.tolist())
        while (pair := insert_until_triangle(block)) is not None:
            if hit_time is None and after_insert(g, *pair):
                hit_time = rows.item(g.edge_count - base - 1) + 1
                if early_stop:
                    break
        if hit_time is not None and early_stop:
            break
    state.clock = hit_time if hit_time is not None and early_stop else config.t
    success = hit_time is not None
    if success != detector.confirm(g):
        raise DetectorMismatch(
            f"incremental hit={success} but batch containment disagrees "
            f"(strategy={strategy.name}, seed={config.seed})"
        )
    stats = strategy.stats()
    cell = _trial_cell(target_label, target_k, config.n, config.t, config.b,
                       strategy.name, tuple(stats))
    return TrialRecord(cell, config.seed, hit_time, g.edge_count, state.clock,
                       _shared_values(tuple(stats.values())),
                       g if keep_graph else None)
