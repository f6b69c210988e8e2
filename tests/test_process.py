import pickle
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from budget_builder.detect import DIAMOND, detector_for, fan
from budget_builder.errors import (
    BudgetContractViolation,
    ConfigurationError,
    DetectorMismatch,
    StreamExhausted,
)
from budget_builder.experiments import cell_from_exponents, grid_values
from budget_builder.oracle import SmallGraph, brute_contains
from budget_builder.process import (
    Edge,
    ProcessConfig,
    new_process,
    next_edge,
    run_strategy,
)
from budget_builder.rng import derive_seed
from budget_builder.strategies import (
    AnchorNeighborhood,
    DiamondShort,
    FanShort,
    StrategyKind,
    StrategySpec,
    build_strategy,
    select_strategy,
)


def test_new_process_initial_state():
    state = new_process(ProcessConfig(n=4, t=6, b=5, seed=1))
    assert state.clock == 0
    assert state.budget_used == 0
    assert state.purchased.edge_count == 0
    assert state.codes is None  # nothing is drawn before the first reveal


def test_new_process_rejects_too_many_edges():
    with pytest.raises(ConfigurationError, match="t <= C"):
        ProcessConfig(n=4, t=7, b=5, seed=1)
    with pytest.raises(ConfigurationError, match="t <= C"):
        replace(ProcessConfig(n=4, t=6, b=5, seed=1), t=7)


def test_new_process_rejects_tiny_n_and_negative_budget():
    with pytest.raises(ConfigurationError, match="n >= 2"):
        ProcessConfig(n=1, t=1, b=0, seed=1)
    with pytest.raises(ConfigurationError, match="1 <= t"):
        ProcessConfig(n=4, t=0, b=0, seed=1)
    with pytest.raises(ConfigurationError, match="b >= 0"):
        ProcessConfig(n=4, t=3, b=-1, seed=1)


def test_degenerate_budget_is_valid():
    state = new_process(ProcessConfig(n=2, t=1, b=0, seed=9))
    assert next_edge(state) == Edge(0, 1)


def test_single_pair_revealed_with_probability_one():
    for seed in range(20):
        state = new_process(ProcessConfig(n=2, t=1, b=0, seed=seed))
        assert next_edge(state) == Edge(0, 1)


def test_without_replacement_exhaustion_n4():
    state = new_process(ProcessConfig(n=4, t=6, b=0, seed=3))
    seen = {next_edge(state) for _ in range(5)}
    last = next_edge(state)
    all_pairs = {Edge(u, v) for u in range(4) for v in range(u + 1, 4)}
    assert seen | {last} == all_pairs
    assert last not in seen


def test_full_reveal_k30_distinct():
    state = new_process(ProcessConfig(n=30, t=435, b=0, seed=11))
    seen = set()
    for _ in range(435):
        e = next_edge(state)
        assert 0 <= e.u < e.v < 30
        seen.add(e)
    assert len(seen) == 435
    with pytest.raises(StreamExhausted):
        next_edge(state)


def test_stream_memory_is_linear_in_t_and_n():
    # A C(n,2)-sized code array would take ~96 MiB here; the stream should
    # hold only its t pairs and the n row offsets.
    tracemalloc.start()
    try:
        state = new_process(ProcessConfig(n=5000, t=1000, b=0, seed=4))
        next_edge(state)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_stream_determinism_and_seed_sensitivity():
    def reveal(seed):
        st = new_process(ProcessConfig(n=40, t=100, b=0, seed=seed))
        return [next_edge(st) for _ in range(100)]

    assert reveal(5) == reveal(5)
    assert reveal(5) != reveal(6)


def test_stream_uniformity_first_edge():
    # 10^5 fresh single-step processes at n=10: each of the 45 pairs appears
    # as e_1 within five sigma of its expectation.
    counts = {}
    samples = 100_000
    for seed in range(samples):
        st = new_process(ProcessConfig(n=10, t=1, b=0, seed=seed))
        e = next_edge(st)
        counts[e] = counts.get(e, 0) + 1
    assert len(counts) == 45
    expected = samples / 45
    sigma = (samples * (1 / 45) * (44 / 45)) ** 0.5
    worst = max(abs(c - expected) for c in counts.values())
    assert worst <= 5 * sigma


def _record(kind, config, target, **kw):
    spec = StrategySpec(kind)
    strategy = build_strategy(spec, config)
    return run_strategy(config, strategy, detector_for(target), **kw)


def test_buy_all_matches_offline_triangle_detection():
    # With b >= t the purchased graph is the revealed graph, so the success
    # flag must match containment in G_t checked by an independent route.
    for seed in range(30):
        config = ProcessConfig(n=5, t=10, b=10, seed=seed)
        rec = _record(StrategyKind.BUY_ALL, config, fan(1))
        state = new_process(config)
        adj = {v: set() for v in range(5)}
        found = False
        for _ in range(10):
            e = next_edge(state)
            if adj[e.u] & adj[e.v]:
                found = True
            adj[e.u].add(e.v)
            adj[e.v].add(e.u)
        assert rec.success == found


def test_buy_all_diamond_matches_oracle_on_replayed_stream():
    for seed in range(30):
        config = ProcessConfig(n=5, t=10, b=10, seed=seed)
        rec = _record(StrategyKind.BUY_ALL, config, DIAMOND)
        state = new_process(config)
        edges = [next_edge(state) for _ in range(10)]
        sg = SmallGraph(5, edges)
        assert rec.success == brute_contains(sg, DIAMOND)


def test_never_buy_never_succeeds():
    rec = _record(
        StrategyKind.NEVER_BUY, ProcessConfig(n=20, t=50, b=50, seed=1), DIAMOND
    )
    assert rec.success is False
    assert rec.edges_bought == 0
    assert rec.hit_time is None


def test_trial_record_determinism():
    config = ProcessConfig(n=60, t=400, b=400, seed=31337)
    a = _record(StrategyKind.BUY_ALL, config, fan(2))
    b = _record(StrategyKind.BUY_ALL, config, fan(2))
    assert a == b


def test_budget_safety_across_strategies():
    kinds = (
        StrategyKind.BUY_ALL,
        StrategyKind.CONNECTIVITY,
        StrategyKind.DEGREE_GREEDY,
        StrategyKind.NEVER_BUY,
    )
    rng = np.random.default_rng(7)
    for kind in kinds:
        for _ in range(5):
            n = int(rng.integers(5, 30))
            t = int(rng.integers(1, n * (n - 1) // 2 + 1))
            b = int(rng.integers(0, t + 1))
            config = ProcessConfig(n=n, t=t, b=b, seed=int(rng.integers(2**40)))
            rec = _record(kind, config, DIAMOND, early_stop=False)
            assert rec.edges_bought <= b


def test_contract_violation_raises_loudly():
    class Rogue:
        name = "rogue"

        def decide(self, state, e):
            return True

        def stats(self):
            return {}

    config = ProcessConfig(n=10, t=20, b=3, seed=5)
    with pytest.raises(BudgetContractViolation):
        run_strategy(config, Rogue(), detector_for(DIAMOND))


def test_early_stop_records_hit_time():
    config = ProcessConfig(n=12, t=66, b=66, seed=2)
    rec = _record(StrategyKind.BUY_ALL, config, fan(1))
    assert rec.success
    assert rec.hit_time == rec.clock_at_stop <= 66
    full = _record(StrategyKind.BUY_ALL, config, fan(1), early_stop=False)
    assert full.success and full.clock_at_stop == 66
    assert full.hit_time == rec.hit_time


# -- event-driven trials -----------------------------------------------------


class _PerReveal:
    """Forwards decide and stats only: without `windows`, run_strategy takes
    the per-reveal loop."""

    def __init__(self, inner):
        self.name = inner.name
        self.decide = inner.decide
        self.stats = inner.stats


def _phase_starts(strategy) -> list[int]:
    """Stream index of each phase start, in the order `windows` reaches them."""
    T = strategy.T
    if isinstance(strategy, DiamondShort):
        return [0, T, 2 * T]
    if isinstance(strategy, AnchorNeighborhood):
        return [0, T]
    assert isinstance(strategy, FanShort)
    return [r * T for r in range(strategy.k + 1)] if T else []


class _SkipChecker:
    """A per-reveal run that checks the `windows` contract as it goes.

    At each phase start it advances the inner strategy's `windows` one step,
    which does that phase's set-up; every reveal outside the yielded indices
    must then leave `decide` False and `stats()` unchanged.
    """

    def __init__(self, inner):
        self.name = inner.name
        self.stats = inner.stats
        self._inner = inner
        self._starts = _phase_starts(inner)
        self._windows = None
        self._yielded = set()
        self.skipped = 0

    def decide(self, state, e):
        i = state.clock - 1
        if self._windows is None:
            self._windows = self._inner.windows(state)
        for _ in range(self._starts.count(i)):
            self._yielded.update(next(self._windows, np.empty(0, np.int64)).tolist())
        if i in self._yielded:
            return self._inner.decide(state, e)
        before = self._inner.stats()
        assert not self._inner.decide(state, e), f"skipped reveal {i} bought {e}"
        assert self._inner.stats() == before, f"skipped reveal {i} changed a stat"
        self.skipped += 1
        return False


def _c7_cells():
    xs, ys = grid_values(1.25, 1.35, 0.05), grid_values(0.4, 1.4, 0.1)
    return [(DIAMOND, 800, *cell_from_exponents(800, x, y)[:2], None)
            for x in xs for y in ys]


# (target, n, t, b, regime): the reference cells, then small cells in both
# regimes, including ones whose phases outrun t.
_REFERENCE_CELLS = [
    (DIAMOND, 400, 2000, 2560, None),
    (DIAMOND, 400, 20000, 80, None),
    (fan(2), 400, 2000, 1638, None),
    (fan(2), 400, 3000, 512, None),
    (DIAMOND, 800, *cell_from_exponents(800, 1.35, 1.2)[:2], None),
]
_SMALL_CELLS = [
    (target, n, t, b, regime)
    for target in (DIAMOND, fan(1), fan(2), fan(3))
    for n, t, b in ((60, 300, 40), (30, 100, 30), (50, 1225, 1225), (8, 28, 5),
                    (5, 3, 2), (6, 4, 0))
    for regime in ("short", "long")
    if target.num_vertices <= n
] + [
    # t < k + 1: the fan builder's phase length T = t // (k + 1) is 0.
    (fan(2), 8, 2, 2, "short"),
    (fan(3), 8, 3, 3, "short"),
]


def _trial(cell, seed, early_stop, wrap=lambda s: s):
    """(record, strategy as run) of one trial; `wrap` may hide `windows`."""
    target, n, t, b, regime = cell
    spec = select_strategy(target, n, t, b, {"regime_override": regime})
    config = ProcessConfig(n, t, b, seed=seed)
    inner = build_strategy(spec, config)
    assert hasattr(inner, "windows"), spec.name
    strategy = wrap(inner)
    rec = run_strategy(config, strategy, detector_for(target),
                       early_stop=early_stop, keep_graph=True)
    for value in (rec.hit_time, rec.edges_bought, rec.clock_at_stop,
                  *rec.phase_stats.values()):
        for x in value if isinstance(value, tuple) else (value,):
            assert x is None or type(x) is int, (spec.name, rec.phase_stats)
    return rec, strategy


_ALL_KINDS = {"k4m-short", "k4m-long", "tk-short", "tk-long"}


@pytest.mark.parametrize(
    "cells, seeds, kinds",
    [(_REFERENCE_CELLS, 10, _ALL_KINDS), (_c7_cells(), 4, {"k4m-short"}),
     (_SMALL_CELLS, 20, _ALL_KINDS)],
    ids=["reference", "criterion-7", "small"],
)
def test_event_driven_and_per_reveal_records_are_identical(cells, seeds, kinds):
    seen = set()
    for cell in cells:
        for j in range(seeds):
            seed = derive_seed(11, cell[1], cell[2], cell[3], j)
            for early_stop in (True, False):
                fast, _ = _trial(cell, seed, early_stop)
                slow, _ = _trial(cell, seed, early_stop, _PerReveal)
                assert pickle.dumps(fast) == pickle.dumps(slow), (cell, j, early_stop)
                seen.add(fast.strategy)
    assert seen == kinds


@pytest.mark.parametrize("cells", [_REFERENCE_CELLS, _SMALL_CELLS],
                         ids=["reference", "small"])
def test_reveals_outside_the_windows_change_nothing(cells):
    skipped = 0
    for cell in cells:
        for j in range(3):
            seed = derive_seed(12, cell[1], cell[2], cell[3], j)
            for early_stop in (True, False):
                slow, checker = _trial(cell, seed, early_stop, _SkipChecker)
                fast, _ = _trial(cell, seed, early_stop)
                assert pickle.dumps(slow) == pickle.dumps(fast), (cell, j, early_stop)
                skipped += checker.skipped
    assert skipped > 0


class _RogueWindows:
    name = "rogue"

    def windows(self, state):
        yield np.arange(state.config.t)

    def decide(self, state, e):
        return True

    def stats(self):
        return {}


class _BlindDetector:
    """Never reports a hit incrementally; the batch check still runs."""

    def __init__(self, inner):
        self.confirm = inner.confirm

    def after_insert(self, g, u, v):
        return False


def test_fast_path_over_budget_buy_raises():
    with pytest.raises(BudgetContractViolation):
        run_strategy(ProcessConfig(n=10, t=20, b=3, seed=5), _RogueWindows(),
                     detector_for(DIAMOND))


@pytest.mark.parametrize("wrap", [lambda s: s, _PerReveal], ids=["fast", "per-reveal"])
def test_detector_disagreement_raises(wrap):
    # Buying all of K_10 builds a diamond the blind detector never reports.
    with pytest.raises(DetectorMismatch):
        run_strategy(ProcessConfig(n=10, t=45, b=45, seed=5), wrap(_RogueWindows()),
                     _BlindDetector(detector_for(DIAMOND)))


def test_event_driven_trial_memory_is_linear_in_t_and_n():
    # The per-reveal twin of this bound is test_stream_memory_is_linear_in_t_and_n.
    spec = select_strategy(DIAMOND, 5000, 1000, 40, {"regime_override": "long"})
    config = ProcessConfig(n=5000, t=1000, b=40, seed=4)
    tracemalloc.start()
    try:
        strategy = build_strategy(spec, config)
        assert hasattr(strategy, "windows")
        run_strategy(config, strategy, detector_for(DIAMOND), early_stop=False)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
