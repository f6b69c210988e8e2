import gc
import pickle
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from budget_builder.detect import DIAMOND, BuilderGraph, detector_for, fan
from budget_builder.errors import (
    BudgetContractViolation,
    ConfigurationError,
    DetectorMismatch,
    OnlineRuleViolation,
    StreamExhausted,
)
from budget_builder.experiments import cell_from_exponents, grid_values, run_trial_batch
from budget_builder.process import (
    Edge,
    ProcessConfig,
    _settle,
    decode,
    draw_codes,
    new_process,
    next_edge,
    pair_code,
    run_strategy,
)
from budget_builder.rng import derive_seed
from budget_builder.strategies import (
    _FIRST_SPAN,
    AnchorNeighborhood,
    StrategyKind,
    StrategyParams,
    StrategySpec,
    build_strategy,
    select_strategy,
)

from conftest import BuysChecker, PerReveal
from oracle import SmallGraph, brute_contains
from per_reveal import reference_strategy


def test_new_process_initial_state():
    state = new_process(ProcessConfig(n=4, t=6, b=5, seed=1))
    assert state.clock == 0
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
    # hold only its t pairs.
    tracemalloc.start()
    try:
        state = new_process(ProcessConfig(n=5000, t=1000, b=0, seed=4))
        next_edge(state)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_decode_matches_a_pair_table():
    for n in range(2, 61):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        us, vs = decode(n, np.arange(len(pairs), dtype=np.int64))
        assert list(zip(us.tolist(), vs.tolist())) == pairs, n


def _searchsorted_decode(n, codes):
    """The reference decoder: a search over the n row starts."""
    rows = np.arange(n, dtype=np.int64)
    starts = pair_code(n, rows, rows + 1)
    us = np.searchsorted(starts, codes, side="right") - 1
    return us, codes - starts[us] + us + 1


def _row_ends(n, rows):
    """The first and last code of each of `rows`: pairs (r, r + 1), (r, n - 1)."""
    return np.concatenate([pair_code(n, rows, rows + 1), pair_code(n, rows, n - 1)])


def _assert_decodes_like_the_search(n, codes):
    us, vs = decode(n, codes)
    ref_us, ref_vs = _searchsorted_decode(n, codes)
    assert np.array_equal(us, ref_us) and np.array_equal(vs, ref_vs), n


def test_decode_matches_the_search_on_every_code_up_to_n_200():
    for n in range(2, 201):
        _assert_decodes_like_the_search(n, np.arange(n * (n - 1) // 2, dtype=np.int64))


def test_decode_matches_the_search_on_every_row_end_up_to_n_1e5():
    # Within a row the float estimate grows with the code, so a row's last
    # code is where it comes closest to the next row, and its first code
    # where it must land exactly.
    sizes = [*range(201, 1000), *np.geomspace(1000, 10**5, 60).astype(int).tolist()]
    for n in sizes:
        _assert_decodes_like_the_search(n, _row_ends(n, np.arange(n - 1, dtype=np.int64)))


def test_one_correction_settles_a_row_estimate_one_too_large():
    # Within ProcessConfig's range the float estimate is never off on the
    # codes above, so the correction is checked on estimates pushed up by
    # one wherever a coin says so.
    coin = np.random.default_rng(3)
    for n in range(2, 121):
        codes = np.arange(n * (n - 1) // 2, dtype=np.int64)
        ref_us, ref_vs = _searchsorted_decode(n, codes)
        us, vs = _settle(2 * n - 1, codes, ref_us + coin.integers(0, 2, codes.size))
        assert np.array_equal(us, ref_us) and np.array_equal(vs, ref_vs), n


def test_decoder_range_is_owned_by_the_config():
    top = 2**25
    assert ProcessConfig(n=top, t=1, b=0, seed=1).n == top
    with pytest.raises(ConfigurationError, match=r"n <= 2\^25"):
        ProcessConfig(n=top + 1, t=1, b=0, seed=1)
    # A search table at this n would take 256 MiB, so sampled rows are
    # checked against the pairs their end codes name.
    rows = np.unique(np.concatenate([
        np.arange(4), top - 2 - np.arange(4),
        np.random.default_rng(7).integers(0, top - 1, 20_000),
    ])).astype(np.int64)
    us, vs = decode(top, _row_ends(top, rows))
    assert np.array_equal(us, np.concatenate([rows, rows]))
    assert np.array_equal(vs, np.concatenate([rows + 1, np.full(rows.size, top - 1)]))


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
        StrategyKind.BUY_ALL, ProcessConfig(n=20, t=50, b=0, seed=1), DIAMOND
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
    # Every strategy a user can run, each phased builder forced into its
    # regime, on the same 20 random cells.
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(5, 30))
        t = int(rng.integers(1, n * (n - 1) // 2 + 1))
        b = int(rng.integers(0, t + 1))
        config = ProcessConfig(n=n, t=t, b=b, seed=int(rng.integers(2**40)))
        runs = [(DIAMOND, StrategySpec(StrategyKind.BUY_ALL)),
                (DIAMOND, StrategySpec(StrategyKind.DEGREE_GREEDY))]
        runs += [(target, select_strategy(target, n, t, b, {"regime_override": regime}))
                 for target in (DIAMOND, fan(2)) for regime in ("short", "long")]
        for target, spec in runs:
            rec = run_strategy(config, build_strategy(spec, config),
                               detector_for(target), early_stop=False)
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


def _c7_cells():
    xs, ys = grid_values(1.25, 1.35, 0.05), grid_values(0.4, 1.4, 0.1)
    return [(DIAMOND, 800, *cell_from_exponents(800, x, y), {})
            for x in xs for y in ys]


# (target, n, t, b, strategy overrides or a StrategySpec): the reference
# cells, then small cells in both regimes, including ones whose phases
# outrun t.
_BUY_ALL = StrategySpec(StrategyKind.BUY_ALL)
_C4_CELL = (DIAMOND, 400, 2000, 2560, {})
_C6_CELL = (fan(2), 400, 2000, 1638, {})
_C7_CELL = (DIAMOND, 800, *cell_from_exponents(800, 1.35, 1.2), {})


def _hand_cell(target, n, t, b, kind, T, budgets, r=0, cap=0, k=0):
    """A cell whose spec is built by hand, not by `select_strategy`."""
    return (target, n, t, b, StrategySpec(kind, StrategyParams(T, r, cap, budgets, k)))


_REFERENCE_CELLS = [
    _C4_CELL,
    (DIAMOND, 400, 20000, 80, {}),
    _C6_CELL,
    (fan(2), 400, 3000, 512, {}),
    _C7_CELL,
    # buy-all: a diamond hit before the budget of 1,200 runs out (after
    # 589-1,011 buys at the twin test's seeds); then a budget spent
    # mid-stream, mostly with no 2-fan.
    (DIAMOND, 400, 2000, 1200, _BUY_ALL),
    (fan(2), 400, 2000, 400, _BUY_ALL),
]
_SMALL_CELLS = [
    (target, n, t, b, {"regime_override": regime})
    for target in (DIAMOND, fan(1), fan(2), fan(3))
    for n, t, b in ((60, 300, 40), (30, 100, 30), (50, 1225, 1225), (8, 28, 5),
                    (5, 3, 2), (6, 4, 0))
    for regime in ("short", "long")
    if target.num_vertices <= n
] + [
    # t < k + 1: the fan builder's phase length T = t // (k + 1) is 0.
    (fan(2), 8, 2, 2, {"regime_override": "short"}),
    (fan(3), 8, 3, 3, {"regime_override": "short"}),
] + [
    # Six seeds of cap 1 against a phase-0 cap of b // 3 = 6 for the
    # diamond: the seed phase's cap is spent while most of its rows are
    # ahead, and every one of those still counts a cap_skip.
    (target, 40, 780, 18,
     {"regime_override": "short", "seed_set_size": 6, "per_vertex_cap": 1})
    for target in (DIAMOND, fan(2))
] + [
    # All of K_20 and two or six seeds with a small budget: a round's cap is
    # spent with budget left and rows ahead that would grow a matching.
    (fan(3), 20, 190, b, {"regime_override": "short", "seed_set_size": r,
                          "per_vertex_cap": cap})
    for b, r, cap in ((6, 2, 2), (12, 6, 3))
] + [
    # Hand-built specs: phase budgets at or past b, so the budget runs out
    # while a phase's cap is open; the seed phase's rows ahead then count
    # budget_skips in bulk, and a later phase starts with the budget spent.
    _hand_cell(DIAMOND, 40, 780, 18, StrategyKind.DIAMOND_SHORT, 260, (30, 30, 30), 6, 5),
    _hand_cell(DIAMOND, 20, 190, 12, StrategyKind.DIAMOND_SHORT, 60, (12, 12, 12), 4, 6),
    _hand_cell(fan(2), 20, 190, 10, StrategyKind.FAN_SHORT, 60, (10, 10, 10), 4, 6, 2),
    # Phase lengths past what select_strategy gives for t: phases that
    # start at or after t return before they read a row.
    _hand_cell(DIAMOND, 20, 50, 20, StrategyKind.DIAMOND_SHORT, 60, (6, 10, 20), 4, 6),
    _hand_cell(DIAMOND, 20, 100, 20, StrategyKind.DIAMOND_SHORT, 60, (6, 10, 20), 4, 6),
    _hand_cell(DIAMOND, 20, 50, 20, StrategyKind.DIAMOND_LONG, 60, (10, 10)),
    _hand_cell(fan(2), 20, 100, 20, StrategyKind.FAN_SHORT, 60, (10, 5, 5), 4, 6, 2),
] + [
    # buy-all with b = 0, with b >= t, with a budget of 25 that a triangle
    # hit mostly beats, and with one that a diamond hit mostly does not.
    (target, n, t, b, _BUY_ALL)
    for target, n, t, b in ((DIAMOND, 30, 100, 0), (fan(1), 12, 66, 66),
                            (fan(1), 20, 190, 25), (DIAMOND, 30, 100, 30))
]


def _probe_cell(n, t=None, b=None):
    """A degree-greedy cell watched by a diamond detector; by default
    criterion 8's probe cell, t = n^1.3 and b = n^1.1."""
    t = round(n ** 1.3) if t is None else t
    b = round(n ** 1.1) if b is None else b
    return (DIAMOND, n, t, b, StrategySpec(StrategyKind.DEGREE_GREEDY))


# The prefix is h = max(1, min(n, bn // 4t)) vertices.
_DEGREE_GREEDY_CELLS = [
    _probe_cell(100),
    _probe_cell(200),
    _probe_cell(800),
    _probe_cell(100, b=0),  # every prefix row counts a budget_skip
    # h = 2 and all of K_40: closing rows spend the budget mid-stream, and
    # the prefix and closing rows after it count budget_skips.
    _probe_cell(40, t=780, b=160),
    _probe_cell(30, t=100, b=400),  # b >= 4t: h = n, every row is a prefix row
    _probe_cell(12, t=40, b=30),  # h = 2: prefix-prefix rows
    _probe_cell(16, t=60, b=45),  # h = 3
    # h = 1 and all of K_12: the b-th prefix row often spends the budget, and
    # the later rows it closes still count a budget_skip (a window built from
    # only the first b - 1 prefix rows fails here).
    _probe_cell(12, t=66, b=3),
    # h = 67: the cherry join holds ~20.9k (row, centre) pairs against
    # t + n = 4,200, so it is settled over several slices.
    _probe_cell(200, t=4000, b=5360),
]


def _trial(cell, seed, early_stop, wrap=lambda s: s, make=build_strategy):
    """(record, strategy as run) of one trial of the strategy `make` builds:
    `build_strategy`, or the per-reveal `reference_strategy`. `wrap` may
    hide `buys`; `BuysChecker` also gets an instance from `build_strategy`
    to settle. A cell's last entry is the strategy overrides, or a
    StrategySpec."""
    target, n, t, b, strategy = cell
    spec = (strategy if isinstance(strategy, StrategySpec)
            else select_strategy(target, n, t, b, strategy))
    config = ProcessConfig(n, t, b, seed=seed)
    inner = make(spec, config)
    assert hasattr(inner, "buys"), spec.name
    strategy = (wrap(inner, build_strategy(spec, config)) if wrap is BuysChecker
                else wrap(inner))
    rec = run_strategy(config, strategy, detector_for(target),
                       early_stop=early_stop, keep_graph=True)
    for value in (rec.hit_time, rec.edges_bought, rec.clock_at_stop,
                  *rec.phase_stats.values()):
        for x in value if isinstance(value, tuple) else (value,):
            assert x is None or type(x) is int, (spec.name, rec.phase_stats)
    return rec, strategy


_ALL_KINDS = {"k4m-short", "k4m-long", "tk-short", "tk-long", "buy-all"}


@pytest.mark.parametrize(
    "cells, seeds, kinds",
    [(_REFERENCE_CELLS, 10, _ALL_KINDS), (_c7_cells(), 4, {"k4m-short"}),
     (_SMALL_CELLS, 20, _ALL_KINDS), (_DEGREE_GREEDY_CELLS, 10, {"degree-greedy"})],
    ids=["reference", "criterion-7", "small", "degree-greedy"],
)
def test_event_driven_and_per_reveal_records_are_identical(cells, seeds, kinds):
    # The settled run against the per-reveal reference rules, and against
    # `decide` on every reveal, the path the benchmark's tracer takes.
    seen = set()
    for cell in cells:
        for j in range(seeds):
            seed = derive_seed(11, cell[1], cell[2], cell[3], j)
            for early_stop in (True, False):
                fast = pickle.dumps(_trial(cell, seed, early_stop)[0])
                slow, _ = _trial(cell, seed, early_stop, PerReveal, reference_strategy)
                assert fast == pickle.dumps(slow), (cell, j, early_stop)
                asked, _ = _trial(cell, seed, early_stop, PerReveal)
                assert fast == pickle.dumps(asked), (cell, j, early_stop)
                seen.add(slow.strategy)
    assert seen == kinds


# (cell, seed) for each kind where the settled loop, with early stop off,
# buys the last reveal, t - 1: `decide` then never resumes `buys` after its
# last yield, so the stats must be complete at that yield.
_LAST_REVEAL_BOUGHT = [
    ((DIAMOND, 10, 20, 20, _BUY_ALL), 0),
    ((DIAMOND, 12, 40, 30, StrategySpec(StrategyKind.DEGREE_GREEDY)), 0),
    ((DIAMOND, 8, 28, 28, {"regime_override": "long"}), 4),
    ((fan(2), 8, 28, 28, {"regime_override": "long"}), 12),
    ((DIAMOND, 8, 27, 27, {"regime_override": "short"}), 6),
    ((fan(1), 6, 14, 14, {"regime_override": "short"}), 1),
]


@pytest.mark.parametrize("cell, seed", _LAST_REVEAL_BOUGHT,
                         ids=["buy-all", "degree-greedy", "k4m-long", "tk-long",
                              "k4m-short", "tk-short"])
def test_last_reveal_bought_records_are_identical(cell, seed):
    fast, steps = _trial(cell, seed, False, _Steps)
    assert steps.clocks[-1] == cell[2], steps.clocks
    asked, _ = _trial(cell, seed, False, PerReveal)
    slow, _ = _trial(cell, seed, False, PerReveal, reference_strategy)
    assert pickle.dumps(fast) == pickle.dumps(asked) == pickle.dumps(slow)


@pytest.mark.parametrize("cells", [_REFERENCE_CELLS, _SMALL_CELLS, _DEGREE_GREEDY_CELLS],
                         ids=["reference", "small", "degree-greedy"])
def test_per_reveal_decide_buys_exactly_what_buys_yields(cells):
    skipped = 0
    for cell in cells:
        for j in range(3):
            seed = derive_seed(12, cell[1], cell[2], cell[3], j)
            for early_stop in (True, False):
                slow, checker = _trial(cell, seed, early_stop, BuysChecker,
                                       reference_strategy)
                fast, _ = _trial(cell, seed, early_stop)
                assert pickle.dumps(slow) == pickle.dumps(fast), (cell, j, early_stop)
                skipped += checker.skipped
    assert skipped > 0


class _Steps:
    """Forwards `buys`, so the settled loop runs, checks that each yield is
    a block of three int64 arrays of one length, and records the clock of
    every row its step sees and the rows of each block."""

    def __init__(self, inner):
        self.name = inner.name
        self.stats = inner.stats
        self.inner = inner
        self.clocks = []
        self.blocks = []

    def buys(self, state):
        codes, n = state.codes, state.config.n
        for bought in self.inner.buys(state):
            rows, us, vs = bought
            assert all(a.__class__ is np.ndarray and a.dtype == np.int64 and a.shape == rows.shape
                       for a in bought), bought
            assert [us.tolist(), vs.tolist()] == [x.tolist() for x in decode(n, codes[rows])], rows
            self.clocks += (rows + 1).tolist()
            self.blocks.append(rows.tolist())
            yield bought


def _assert_steps_are_the_buys(rec, counter):
    assert counter.clocks == sorted(set(counter.clocks)), "rows out of stream order"
    assert len(counter.clocks) == rec.edges_bought


@pytest.mark.parametrize("cell", [_C4_CELL, _C6_CELL, _C7_CELL], ids=["c4", "c6", "c7"])
def test_seed_phase_visits_end_at_its_cap(cell):
    # The settled loop's step sees each bought row once, a block's row by
    # row: in the seed phase exactly its buys, at most its cap, and none
    # past the cap.
    for j in range(5):
        seed = derive_seed(13, cell[1], cell[2], cell[3], j)
        rec, counter = _trial(cell, seed, False, _Steps)
        _assert_steps_are_the_buys(rec, counter)
        inner = counter.inner
        visits = sum(clock <= inner.T for clock in counter.clocks)
        assert visits == inner.p_bought[0] <= inner.p_caps[0], (cell, j)


def _phase(strategy, row):
    """The phase of stream row `row` under a phased builder: phase i holds
    rows iT to (i + 1)T - 1, and the last phase runs to t."""
    return min(row // max(strategy.T, 1), len(strategy.p_caps) - 1)


def _stops_inside_a_block(cell, trials, phase=None):
    """How many of `trials` early-stopped trials of `cell` hit at a row
    with more of its block after it, a row of phase `phase` if one is
    given; each one's settled record must equal the builder's own
    `decide`'s, the per-reveal reference's and the `BuysChecker` run's."""
    inside = 0
    for j in range(trials):
        seed = derive_seed(16, cell[1], cell[2], cell[3], j)
        fast, steps = _trial(cell, seed, True, _Steps)
        asked, _ = _trial(cell, seed, True, PerReveal)
        slow, _ = _trial(cell, seed, True, PerReveal, reference_strategy)
        checked, _ = _trial(cell, seed, True, BuysChecker, reference_strategy)
        assert (pickle.dumps(fast) == pickle.dumps(asked) == pickle.dumps(slow)
                == pickle.dumps(checked)), j
        hit = fast.hit_time and fast.hit_time - 1
        inside += any(hit in rows[:-1] for rows in steps.blocks) and (
            phase is None or _phase(steps.inner, hit) == phase)
    return inside


@pytest.mark.parametrize("cell", [_C4_CELL, _C6_CELL], ids=["c4", "c6"])
def test_a_stop_inside_a_seed_block_counts_only_the_rows_before_it(cell):
    # An early stop at a seed-phase row that has more of its block after it:
    # the settled record counts only the block's rows up to the hit, as the
    # builder's own `decide` and the per-reveal reference rules do, and the
    # stats agree with the reference at every bought row.
    assert _stops_inside_a_block(cell, 20) > 0


# A hand-built diamond spec whose phase 2 buys one edge, a triangle at a
# seed with a few more frozen neighbours, so no diamond is bought before
# phase 3, which then buys several candidates in one block; its first buy
# completes a diamond.
_PHASE_3_CELL = _hand_cell(DIAMOND, 20, 190, 40, StrategyKind.DIAMOND_SHORT, 60,
                           (12, 1, 40), 4, 6)
_LONG_CELL = _REFERENCE_CELLS[1]


@pytest.mark.parametrize("cell, phase, trials", [
    (_LONG_CELL, 1, 5), (_C4_CELL, 1, 10), (_C6_CELL, 1, 10), (_PHASE_3_CELL, 2, 10),
], ids=["anchor-span", "diamond-phase-2", "fan-round", "diamond-phase-3"])
def test_a_stop_inside_each_kind_of_block_counts_only_the_rows_before_it(cell, phase, trials):
    # A stop at a row of a later phase's block with more of the block after
    # it: the block's rows past the hit are settled, and placed at their
    # hosts, yet the record counts none of them, as the per-reveal
    # reference does; `max_multiplicity` too reads only the diamond's
    # phase-2 buys up to the hit.
    assert _stops_inside_a_block(cell, trials, phase) > 0


def test_a_stop_inside_the_anchor_star_block_counts_only_the_rows_before_it():
    # The anchor's first phase buys a star, which closes no triangle, so no
    # trial stops inside its block; a stop there is a `stats()` read at a
    # clock inside it, as the per-reveal `decide` makes at each bought row.
    target, n, t, b, overrides = _LONG_CELL
    spec = select_strategy(target, n, t, b, overrides)
    for j in range(3):
        config = ProcessConfig(n, t, b, seed=derive_seed(16, n, t, b, j))
        state = new_process(config)
        state.codes = draw_codes(config)
        strategy = build_strategy(spec, config)
        rows, _, _ = next(strategy.buys(state))
        assert 2 <= rows.size == strategy.p_bought[0] and rows[-1] < strategy.T, j
        for bought, row in enumerate(rows.tolist(), 1):
            state.clock = row + 1
            assert strategy.stats()["phase_bought"] == (bought, 0), (j, row)


# Ten seeds of cap 1 under a phase-0 cap above ten (13 for the diamond, 20
# for fan(1)): the cap is never spent, so the seed phase reads all its rows.
# At these seeds its buys run past the 32 seed-set rows it converts first,
# so a block per converted run would make two. Then the long-stream cell,
# whose anchor reads its second phase span by span.
_PAST_32_SEED_ROWS = [
    ((target, 60, 300, 40, {"regime_override": "short", "seed_set_size": 10,
                            "per_vertex_cap": 1}), js)
    for target, js in ((DIAMOND, (16, 26)), (fan(1), (5, 6, 16, 21)))
] + [(_LONG_CELL, (0, 1, 2))]


def _span(strategy, row):
    """(phase, span) of stream row `row`; in the anchor's second phase, the
    span counts from 1, each twice as long as the one before, else it is 0."""
    phase = _phase(strategy, row)
    if phase and isinstance(strategy, AnchorNeighborhood):
        return phase, ((row - strategy.T) // _FIRST_SPAN + 1).bit_length()
    return phase, 0


@pytest.mark.parametrize("cell, js", _PAST_32_SEED_ROWS,
                         ids=["k4m-short", "tk-short", "k4m-long"])
def test_the_seed_phase_yields_one_block(cell, js):
    # Each phase yields at most one block, the anchor's second phase one
    # per span, so the seed phase yields one; the records match the
    # per-reveal reference and the `BuysChecker` run.
    for j in js:
        seed = derive_seed(11, cell[1], cell[2], cell[3], j)
        for early_stop in (True, False):
            fast, steps = _trial(cell, seed, early_stop, _Steps)
            spans = [(_span(steps.inner, rows[0]), _span(steps.inner, rows[-1]))
                     for rows in steps.blocks]
            assert all(first == last for first, last in spans), (j, early_stop, spans)
            assert spans == sorted(set(spans)), (j, early_stop, spans)
            slow, _ = _trial(cell, seed, early_stop, PerReveal, reference_strategy)
            checked, _ = _trial(cell, seed, early_stop, BuysChecker, reference_strategy)
            assert pickle.dumps(fast) == pickle.dumps(slow) == pickle.dumps(checked), j


def test_every_bought_row_goes_through_the_block_insert(monkeypatch):
    # One purchase path: every builder's `buys` yields int64 blocks (`_Steps`
    # checks each), the per-reveal source yields 1-row blocks, and the step
    # inserts every bought row with `insert_until_triangle`, never with
    # `insert_edge`.
    def refuse(self, u, v):
        raise AssertionError(f"insert_edge({u}, {v}) called in a trial")

    monkeypatch.setattr(BuilderGraph, "insert_edge", refuse)
    seen = set()
    for cell in _REFERENCE_CELLS + _SMALL_CELLS + _DEGREE_GREEDY_CELLS:
        for j in range(2):
            seed = derive_seed(17, cell[1], cell[2], cell[3], j)
            for early_stop in (True, False):
                fast, _ = _trial(cell, seed, early_stop, _Steps)
                asked, _ = _trial(cell, seed, early_stop, PerReveal)
                assert pickle.dumps(fast) == pickle.dumps(asked), (cell, j, early_stop)
                seen.add(fast.strategy)
    assert seen == _ALL_KINDS | {"degree-greedy"}


def test_a_stop_inside_the_buy_all_block_counts_no_skip():
    # Buy-all's one block holds its first b = 1,200 rows, and a diamond
    # mostly comes before the budget runs out: a stop inside the block
    # counts no budget_skip, since every skip lies past the block's last row.
    assert _stops_inside_a_block((DIAMOND, 400, 2000, 1200, _BUY_ALL), 10) > 0


@pytest.mark.parametrize("n", [200, 400])
def test_degree_greedy_visits_under_two_fifths_of_the_stream(n):
    # On criterion 8's probe cells the step runs once per buy, at most b =
    # n^1.1 times, below 0.4·t for t = n^1.3.
    cell = _probe_cell(n)
    for j in range(5):
        seed = derive_seed(14, n, cell[2], cell[3], j)
        rec, counter = _trial(cell, seed, False, _Steps)
        _assert_steps_are_the_buys(rec, counter)
        assert len(counter.clocks) <= min(cell[3], 0.4 * cell[2]), (n, j)


_BUY_ALL_CELLS = [cell for cell in _REFERENCE_CELLS + _SMALL_CELLS if cell[4] is _BUY_ALL]


@pytest.mark.parametrize("cells, decoded", [
    (_DEGREE_GREEDY_CELLS, lambda t, b: t if b else 0),
    # and a long stream with a small budget: buy-all decodes 80 of 20,000 codes
    (_BUY_ALL_CELLS + [(DIAMOND, 400, 20000, 80, _BUY_ALL)], min),
], ids=["degree-greedy", "buy-all"])
def test_degree_greedy_decodes_each_code_once(cells, decoded, monkeypatch):
    # Degree-greedy reads the ends of its stars, its outside rows and its
    # bought rows off one decode of the t codes (its one cell with h = n has
    # b >= t), and with b = 0 it decodes none; buy-all decodes only the
    # min(b, t) rows it buys.
    import budget_builder.strategies as strategies

    sizes = []
    real = strategies.decode
    monkeypatch.setattr(strategies, "decode",
                        lambda n, codes: sizes.append(codes.size) or real(n, codes))
    for cell in cells:
        for j in range(3):
            seed = derive_seed(15, cell[1], cell[2], cell[3], j)
            for early_stop in (True, False):
                sizes.clear()
                _trial(cell, seed, early_stop)
                assert sum(sizes) == decoded(cell[2], cell[3]), (cell, j, early_stop, sizes)


class _RogueBuys:
    """Buys every reveal, through `buys` or, wrapped, through `decide`. Given
    `rows`, `buys` yields the revealed pairs of those stream rows instead, in
    that order; a row at or past t gets the pair (0, 1)."""

    name = "rogue"

    def __init__(self, rows=None):
        self.rows = rows

    def buys(self, state):
        t = state.config.t
        us, vs = (ends.tolist() for ends in decode(state.config.n, state.codes))
        for i in range(t) if self.rows is None else self.rows:
            yield (i, us[i], vs[i]) if i < t else (i, 0, 1)

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


@pytest.mark.parametrize("wrap", [lambda s: s, PerReveal], ids=["fast", "per-reveal"])
def test_fast_path_over_budget_buy_raises(wrap):
    # Both sources report the clock of the first buy past the budget.
    with pytest.raises(BudgetContractViolation, match="at clock 4 with budget 3"):
        run_strategy(ProcessConfig(n=10, t=20, b=3, seed=5), wrap(_RogueBuys()),
                     detector_for(DIAMOND))


@pytest.mark.parametrize("wrap", [lambda s: s, PerReveal], ids=["fast", "per-reveal"])
def test_detector_disagreement_raises(wrap):
    # Buying all of K_10 builds a diamond the blind detector never reports.
    with pytest.raises(DetectorMismatch):
        run_strategy(ProcessConfig(n=10, t=45, b=45, seed=5), wrap(_RogueBuys()),
                     _BlindDetector(detector_for(DIAMOND)))


@pytest.mark.parametrize("rows, match", [
    ([0, 2, 1], "at row 1, not after row 2"),
    ([0, 1, 1], "at row 1, not after row 1"),
    ([0, 1, 20], "at row 20, not after row 1 and before t=20"),
], ids=["below-the-last", "repeated", "row-t"])
def test_a_row_out_of_stream_order_raises(rows, match):
    # The budget (b = t) never runs out, so only the order check can raise.
    with pytest.raises(OnlineRuleViolation, match=match):
        run_strategy(ProcessConfig(n=10, t=20, b=20, seed=5), _RogueBuys(rows),
                     detector_for(DIAMOND))


class _RogueBlock(_RogueBuys):
    """Buys `singles`, pairs (i, j): row i, one by one, with the pair revealed
    at row j; then, unless `rows` is None, the stream rows `rows` as one
    block, each with its revealed pair (a row at or past t gets the pair of
    row t - 1). `edit(us, vs)` may first change the revealed pairs, indexed
    by stream row, in place."""

    def __init__(self, rows, singles=(), edit=None):
        self.rows, self.singles, self.edit = rows, singles, edit

    def buys(self, state):
        us, vs = decode(state.config.n, state.codes)
        if self.edit:
            self.edit(us, vs)
        for i, j in self.singles:
            yield i, int(us[j]), int(vs[j])
        if self.rows is not None:
            rows = np.array(self.rows, dtype=np.int64)
            at = np.minimum(rows, state.config.t - 1)
            yield rows, us[at], vs[at]


class _OneRow(_RogueBuys):
    """Buys the single row `row`, as given."""

    def __init__(self, row):
        self.row = row

    def buys(self, state):
        yield self.row


def _swap_row_1(us, vs):
    us[1], vs[1] = vs[1], us[1]


def _other_pair_at_row_1(us, vs):
    us[1], vs[1] = us[2], vs[2]


def _end_at_n(us, vs):
    vs[0] = 10


def _negative_start_at_row_0(us, vs):
    us[0] = -1


_SINGLES = [(0, 0), (1, 1), (2, 2)]  # rows 0, 1, 2 one by one, each its own pair


@pytest.mark.parametrize("rogue, error, match", [
    (_RogueBlock([0, 1, 2], edit=_other_pair_at_row_1), OnlineRuleViolation,
     r"at row 1, where \(\d+, \d+\) was revealed"),
    (_RogueBlock([0, 1, 1]), OnlineRuleViolation, "at row 1, not after row 1"),
    (_RogueBlock([0, 2, 1]), OnlineRuleViolation, "at row 1, not after row 2"),
    (_RogueBlock([3, 4], [(3, 3)]), OnlineRuleViolation, "at row 3, not after row 3"),
    (_RogueBlock([2, 4], [(3, 3)]), OnlineRuleViolation, "at row 2, not after row 3"),
    (_RogueBlock([18, 19, 20]), OnlineRuleViolation,
     "at row 20, not after row 19 and before t=20"),
    (_RogueBlock([0, 1, 2], edit=_swap_row_1), OnlineRuleViolation,
     r"edge \((\d+), (\d+)\) at row 1, where \(\2, \1\) was revealed"),
    (_RogueBlock([0, 1, 2], edit=_end_at_n), OnlineRuleViolation,
     r"edge \((\d+), 10\) at row 0, where \(\1, \d+\) was revealed"),
    (_RogueBlock([0, 1, 2], edit=_negative_start_at_row_0), OnlineRuleViolation,
     r"edge \(-1, (\d+)\) at row 0, where \(\d+, \1\) was revealed"),
    # A foreign source's single row is read as a 1-row block, so one that
    # fails u < v < n raises the same message, naming the pair revealed at
    # its row.
    (_RogueBlock(None, _SINGLES, edit=_swap_row_1), OnlineRuleViolation,
     r"edge \((\d+), (\d+)\) at row 1, where \(\2, \1\) was revealed"),
    (_RogueBlock(None, _SINGLES, edit=_end_at_n), OnlineRuleViolation,
     r"edge \((\d+), 10\) at row 0, where \(\1, \d+\) was revealed"),
    (_RogueBlock(None, _SINGLES, edit=_negative_start_at_row_0), OnlineRuleViolation,
     r"edge \(-1, (\d+)\) at row 0, where \(\d+, \1\) was revealed"),
    # A single row whose row or an end is not an int: the block check
    # refuses it before any other rule, naming it.
    (_OneRow((0, 1.5, 3)), OnlineRuleViolation,
     r"edge \(1\.5, 3\) at row 0, not an integer row with integer ends"),
    (_OneRow((0, np.float64(1.0), 3)), OnlineRuleViolation,
     r"edge \(1\.0, 3\) at row 0, not an integer row with integer ends"),
    (_OneRow((0, 1, 3.0)), OnlineRuleViolation,
     r"edge \(1, 3\.0\) at row 0, not an integer row with integer ends"),
    (_OneRow((0.5, 1, 3)), OnlineRuleViolation,
     r"edge \(1, 3\) at row 0\.5, not an integer row with integer ends"),
    (_OneRow((0, True, 3)), OnlineRuleViolation,
     r"edge \(True, 3\) at row 0, not an integer row with integer ends"),
    # A single row past int64, either way, or at 2^63 (a uint64 once in an
    # array) is an integer row out of order, named as such.
    (_OneRow((2**70, 1, 3)), OnlineRuleViolation,
     rf"edge \(1, 3\) at row {2**70}, not after row -1 and before t=20$"),
    (_OneRow((-2**70, 1, 3)), OnlineRuleViolation,
     rf"edge \(1, 3\) at row -{2**70}, not after row -1 and before t=20$"),
    (_OneRow((2**63, 1, 3)), OnlineRuleViolation,
     rf"edge \(1, 3\) at row {2**63}, not after row -1 and before t=20$"),
    # Two single rows leave a budget of 1 of b = 3, so the block's second
    # row, at clock 4, is the first past it, as per reveal (the test above).
    (_RogueBlock([2, 3, 4], [(0, 0), (1, 1)]), BudgetContractViolation,
     "at clock 4 with budget 3 exhausted"),
    # A single row is pair-checked like a block row: row 0 buying the pair
    # revealed at row 2 names the pair revealed at row 0.
    (_RogueBlock([1, 2], [(0, 2)]), OnlineRuleViolation,
     r"edge \(\d+, \d+\) at row 0, where \(\d+, \d+\) was revealed"),
    (_RogueBlock([]), OnlineRuleViolation, "bought an empty block after row -1"),
], ids=["other-pair", "repeated", "decreasing", "at-the-last", "before-the-last",
        "row-t", "u-not-below-v", "v-at-n", "u-negative", "single-u-not-below-v",
        "single-v-at-n", "single-u-negative", "single-float-u", "single-numpy-float-u",
        "single-float-v", "single-float-row", "single-true-u", "single-row-past-int64",
        "single-row-below-int64", "single-row-at-2-63", "over-budget",
        "bought-as-a-single-row", "empty"])
def test_a_block_that_breaks_the_contract_raises(rogue, error, match):
    # Only the over-budget case has a short budget; elsewhere b = t, so only
    # the rule under test can raise.
    b = 3 if error is BudgetContractViolation else 20
    with pytest.raises(error, match=match) as info:
        run_strategy(ProcessConfig(n=10, t=20, b=b, seed=5), rogue, detector_for(DIAMOND))
    assert "\n" not in str(info.value)


class _CountingTracker:
    """Forwards to a tracker and counts its `after_insert` calls."""

    def __init__(self, inner):
        self.inner = inner
        self.confirm = inner.confirm
        self.calls = 0

    def after_insert(self, g, u, v):
        self.calls += 1
        return self.inner.after_insert(g, u, v)


def _closing_buys(g):
    """How many of g's edges, inserted in purchase order, joined two
    vertices that already shared a neighbour."""
    nbrs = [set() for _ in range(g.n)]
    closing = 0
    for u, v in g.edges():
        closing += not nbrs[u].isdisjoint(nbrs[v])
        nbrs[u].add(v)
        nbrs[v].add(u)
    return closing


@pytest.mark.parametrize("cell", [_C4_CELL, _C6_CELL], ids=["c4", "c6"])
def test_the_detector_is_asked_only_about_buys_that_close_a_triangle(cell):
    target, n, t, b, _ = cell
    spec = select_strategy(target, n, t, b)
    asked = 0
    for j in range(20):
        config = ProcessConfig(n, t, b, seed=derive_seed(15, n, t, b, j))
        calls, graphs = [], []
        for early_stop in (True, False):
            counter = _CountingTracker(detector_for(target))
            rec = run_strategy(config, build_strategy(spec, config), counter,
                               early_stop=early_stop, keep_graph=True)
            plain = run_strategy(config, build_strategy(spec, config), detector_for(target),
                                 early_stop=early_stop, keep_graph=True)
            assert pickle.dumps(rec) == pickle.dumps(plain), (j, early_stop)
            calls.append(counter.calls)
            graphs.append(rec.purchased)
        # Under early stop every buy is at or before the hit; without it the
        # step asks nothing past the first hit, so both ask equally often.
        closing = _closing_buys(graphs[0])
        assert calls == [closing, closing], j
        asked += closing
    assert asked > 0


def test_event_driven_trial_memory_is_linear_in_t_and_n():
    # The per-reveal twin of this bound is test_stream_memory_is_linear_in_t_and_n.
    spec = select_strategy(DIAMOND, 5000, 1000, 40, {"regime_override": "long"})
    config = ProcessConfig(n=5000, t=1000, b=40, seed=4)
    tracemalloc.start()
    try:
        strategy = build_strategy(spec, config)
        assert hasattr(strategy, "buys")
        run_strategy(config, strategy, detector_for(DIAMOND), early_stop=False)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_windowed_degree_greedy_memory_is_linear_in_t_and_n():
    # A pair table or a pair list over C(n,2) would take ~96 MiB here; one
    # decode of the t codes takes a few arrays of length t or n.
    config = ProcessConfig(n=5000, t=20000, b=2000, seed=4)
    tracemalloc.start()
    try:
        strategy = build_strategy(StrategySpec(StrategyKind.DEGREE_GREEDY), config)
        assert hasattr(strategy, "buys")
        run_strategy(config, strategy, detector_for(DIAMOND), early_stop=False)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_degree_greedy_joins_its_cherries_in_slices():
    # h = 300 centres: at once, the cherry join's ~650k (row, centre) pairs
    # would take ~27 MiB; slices of fewer than t + n pairs keep the settle
    # near 4 MiB. The codes are drawn before tracing, so the peak is the
    # settle's own.
    config = ProcessConfig(n=600, t=40000, b=80000, seed=4)
    state = new_process(config)
    state.codes = draw_codes(config)
    strategy = build_strategy(StrategySpec(StrategyKind.DEGREE_GREEDY), config)
    assert strategy.h == 300
    tracemalloc.start()
    try:
        rows, _, _ = next(strategy.buys(state))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rows.size > config.t // 2
    assert peak < 16 * 2**20


def test_kept_trial_records_stay_lean():
    # A batch keeps one record per trial. On the long-stream cell a record
    # keeps about 170 bytes; 240 before records with equal stats shared one
    # tuple, 452 before the per-cell fields were shared and the phase stats
    # flattened. The bound is loose on purpose: allocator and interpreter
    # versions move the figure, a fat record would not fit.
    base = ProcessConfig(400, 20000, 80, seed=21)
    spec = select_strategy(DIAMOND, 400, 20000, 80)
    run_trial_batch(DIAMOND, base, spec, 1)  # warm the per-cell caches
    trials = 500
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        records = run_trial_batch(DIAMOND, base, spec, trials)
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(records) == trials
    assert kept / trials <= 320, kept / trials


def test_a_batch_shares_one_cell_and_keeps_stats_as_reported():
    # A criterion-6 trial that stops in round j reports j survivor counts,
    # so the stats of one batch differ in shape; its records still share
    # one TrialCell, and each phase_stats is the builder's stats() as is.
    target, n, t, b, _ = _C6_CELL
    base = ProcessConfig(n, t, b, seed=7)
    spec = select_strategy(target, n, t, b)
    records = run_trial_batch(target, base, spec, 60)
    by_rounds = {len(rec.phase_stats["survivor_history"]): rec for rec in records}
    assert sorted(by_rounds) == [0, 1, 2]
    assert len({id(rec.cell) for rec in records}) == 1
    for rec in by_rounds.values():
        config = replace(base, seed=rec.seed)
        strategy = build_strategy(spec, config)
        run_strategy(config, strategy, detector_for(target))
        assert list(rec.phase_stats.items()) == list(strategy.stats().items())
