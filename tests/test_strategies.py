import pickle
import statistics
import time
from dataclasses import replace

import numpy as np
import pytest

from budget_builder import strategies
from budget_builder.detect import (
    DIAMOND,
    BuilderGraph,
    TRIANGLE,
    _max_matching_edges,
    contains_diamond,
    contains_fan,
    detector_for,
    fan,
)
from budget_builder.errors import ConfigurationError, UnsupportedPattern
from budget_builder.experiments import cell_from_exponents, run_one_trial
from budget_builder.process import ProcessConfig, pair_code, run_strategy
from budget_builder.rng import derive_seed
from budget_builder.strategies import (
    FanShort,
    StrategyKind,
    StrategyParams,
    StrategySpec,
    build_strategy,
    select_strategy,
)

from conftest import PerReveal, drive
from per_reveal import reference_strategy
from test_process import _C4_CELL, _C6_CELL, _SMALL_CELLS, _trial


def build(kind, config, **params):
    return build_strategy(StrategySpec(kind, StrategyParams(**params)), config)


# -- regime selection --------------------------------------------------------


def test_select_diamond_short_regime():
    spec = select_strategy(DIAMOND, 400, 2000, 2560)
    assert spec.kind is StrategyKind.DIAMOND_SHORT  # 400^{7/5} ~ 4393 > 2000
    assert spec.params.phase_length == 666
    assert spec.params.phase_budgets[:2] == (853, 1280)


def test_select_diamond_long_regime():
    spec = select_strategy(DIAMOND, 400, 20000, 80)
    assert spec.kind is StrategyKind.DIAMOND_LONG
    assert spec.params.phase_length == 10000
    assert spec.params.phase_budgets == (40, 40)


def test_select_fan_short_regime():
    spec = select_strategy(fan(2), 400, 2000, 512)
    assert spec.kind is StrategyKind.FAN_SHORT  # 400^{4/3} ~ 2950 > 2000
    assert spec.params.k == 2
    assert spec.params.phase_length == 666
    assert spec.params.phase_budgets == (341, 170, 170)


_K4M, _TK = StrategyKind.DIAMOND_SHORT, StrategyKind.FAN_SHORT
_SET = {"regime_override": "short", "seed_set_size": 17, "per_vertex_cap": 5}


@pytest.mark.parametrize("target, n, t, b, overrides, kind, params", [
    # T = 0: the cap is ceil(0) = 0 raised to 1 for both builders, and no
    # builder reads it.
    (DIAMOND, 400, 2, 90, {}, _K4M, StrategyParams(0, 400, 1, (30, 45, 90))),
    (fan(2), 400, 2, 90, {}, _TK, StrategyParams(0, 400, 1, (60, 30, 30), 2)),
    (fan(3), 400, 3, 90, {}, _TK, StrategyParams(0, 400, 1, (67, 22, 22, 22), 3)),
    # r clamped to n, and r from the window (the criterion-7 cell x=1.35, y=1.2).
    (DIAMOND, 400, 2000, 2560, {}, _K4M, StrategyParams(666, 400, 5, (853, 1280, 2560))),
    (DIAMOND, 800, 8302, 3046, {}, _K4M, StrategyParams(2767, 616, 11, (1015, 1523, 3046))),
    # Set overrides are kept, here on cells the long regime would take.
    (DIAMOND, 400, 20000, 80, _SET, _K4M, StrategyParams(6666, 17, 5, (26, 40, 80))),
    (fan(2), 400, 20000, 80, _SET, _TK, StrategyParams(6666, 17, 5, (53, 26, 26), 2)),
    # The fan's split: k b / (k + 1) for the seed phase, b / (k + 1) per round.
    (fan(1), 400, 2000, 512, {}, _TK, StrategyParams(1000, 51, 8, (256, 256), 1)),
    (fan(2), 400, 2000, 512, {}, _TK, StrategyParams(666, 400, 5, (341, 170, 170), 2)),
    (fan(3), 400, 2000, 512, {}, _TK,
     StrategyParams(500, 400, 4, (384, 128, 128, 128), 3)),
], ids=["k4m-T0", "fan2-T0", "fan3-T0", "r-clamped", "r-window", "k4m-set", "fan2-set",
        "fan1-split", "fan2-split", "fan3-split"])
def test_short_regime_recipe(target, n, t, b, overrides, kind, params):
    spec = select_strategy(target, n, t, b, **overrides)
    assert spec == StrategySpec(kind, params)
    # and the checks on a spec accept it on its own cell
    run_one_trial(target, ProcessConfig(n, t, b, seed=0), spec)


_C7_SPEC = select_strategy(DIAMOND, 800, 5942, 1000)  # r = n = 800, T = 1980


def _changed(**changes):
    """The criterion-7 spec with `changes` to its params, built by `replace`."""
    return lambda: replace(_C7_SPEC, params=replace(_C7_SPEC.params, **changes))


# (target, cell, spec maker, message). The first group is refused when the
# spec is built, whatever the cell (None): no such spec exists. The second
# is built, then refused by the trial on the cell it does not fit.
@pytest.mark.parametrize("target, cell, make, match", [
    (None, None, lambda: StrategySpec(_TK, StrategyParams(10, 4, 2, (5,), 0)),
     "^tk-short needs k >= 1, got 0$"),
    (None, None, lambda: StrategySpec(StrategyKind.FAN_LONG, StrategyParams(25, 0, 0, (5, 5))),
     "^tk-long needs k >= 1, got 0$"),
    (None, None, lambda: StrategySpec(_K4M, StrategyParams(10, 0, 2, (3, 5, 10))),
     "^k4m-short needs a seed set size and a per-vertex cap >= 1, got 0 and 2$"),
    (None, None, _changed(seed_set_size=0), "got 0 and 8$"),
    (None, None, lambda: StrategySpec(_K4M, StrategyParams(10, 4, 0, (3, 5, 10))),
     "got 4 and 0$"),
    (None, None, _changed(per_vertex_cap=0), "got 800 and 0$"),
    (None, None, lambda: StrategySpec(StrategyKind.DIAMOND_LONG,
                                      StrategyParams(25, 0, 0, (5, 5, 5))),
     r"^k4m-long needs 2 phase budgets, got \(5, 5, 5\)$"),
    (None, None, _changed(phase_budgets=(2, 2)), r"^k4m-short needs 3 phase budgets"),
    (None, None, lambda: StrategySpec(_K4M), r"^k4m-short needs 3 phase budgets, got \(\)$"),
    (None, None, lambda: StrategySpec(StrategyKind.BUY_ALL, StrategyParams(phase_budgets=(5,))),
     r"^buy-all needs 0 phase budgets, got \(5,\)$"),
    (None, None, lambda: replace(StrategySpec(StrategyKind.DEGREE_GREEDY),
                                 params=StrategyParams(phase_budgets=(5,))),
     "^degree-greedy needs 0 phase budgets"),
    (None, None, _changed(phase_length=-1),
     r"^k4m-short needs T >= 0 and budgets >= 0, got T=-1 and \(333, 500, 1000\)$"),
    (None, None, _changed(phase_budgets=(333, -1, 1000)), "got T=1980 and"),
    (DIAMOND, (400, 5942, 1000), lambda: _C7_SPEC,
     r"^k4m-short needs a seed set of at most n=400 vertices and its 3 phases within "
     r"t=5942, got 800 and phases of T=1980$"),
    (DIAMOND, (800, 2000, 1000), lambda: _C7_SPEC,
     r"^k4m-short needs .* its 3 phases within t=2000, got 800 and phases of T=1980$"),
    (fan(2), (800, 5942, 1000), lambda: _C7_SPEC, "^a k4m-short spec builds diamond, not fan2$"),
    (fan(2), (20, 50, 10), lambda: select_strategy(fan(3), 20, 50, 10, regime_override="long"),
     "^a tk-long spec builds fan3, not fan2$"),
], ids=["k-0-short", "k-0-long", "hand-built-r-0", "replaced-r-0", "cap-0", "replaced-cap-0",
        "budget-count", "replaced-budget-count", "default-params", "baseline-budgets",
        "replaced-baseline-budgets", "negative-T", "negative-budget",
        "r-past-n", "phases-past-t", "other-target", "other-fan"])
def test_a_spec_is_checked_against_its_cell(target, cell, make, match):
    if cell is None:
        with pytest.raises(ConfigurationError, match=match) as info:
            make()
    else:
        spec = make()
        with pytest.raises(ConfigurationError, match=match) as info:
            run_one_trial(target, ProcessConfig(*cell, seed=0), spec)
    assert "\n" not in str(info.value)


def test_select_fan_long_regime():
    spec = select_strategy(fan(2), 400, 3000, 512)
    assert spec.kind is StrategyKind.FAN_LONG  # 3000 > 400^{4/3}


def test_select_rejects_triangle_target_and_unknown_overrides():
    # The triangle is counted and detected, but built only as fan(1).
    with pytest.raises(UnsupportedPattern):
        select_strategy(TRIANGLE, 400, 2000, 64)
    with pytest.raises(UnsupportedPattern):
        detector_for(TRIANGLE)
    # A typo, and a field outside the three overrides, are refused by name.
    for key in ("seed_set_sise", "k"):
        with pytest.raises(TypeError, match=f"'{key}'"):
            select_strategy(fan(2), 400, 2000, 64, **{key: 3})
    # A target with more vertices than n is refused before any trial.
    with pytest.raises(ConfigurationError, match="fan3 needs 7 vertices, n=5"):
        select_strategy(fan(3), 5, 6, 5)


def test_select_rejects_unsupported_target():
    from budget_builder.detect import C4

    with pytest.raises(UnsupportedPattern):
        select_strategy(C4, 400, 2000, 64)


def test_regime_override():
    spec = select_strategy(DIAMOND, 400, 2000, 256, regime_override="long")
    assert spec.kind is StrategyKind.DIAMOND_LONG


def test_regime_override_is_short_or_long():
    # Without an override this cell is k4m-long; "Long" must not read as short.
    with pytest.raises(ConfigurationError, match="'Long'"):
        select_strategy(DIAMOND, 400, 20000, 80, regime_override="Long")


def test_seed_set_override():
    spec = select_strategy(DIAMOND, 400, 2000, 256, seed_set_size=17)
    assert spec.params.seed_set_size == 17


@pytest.mark.parametrize("key", ["seed_set_size", "per_vertex_cap"])
@pytest.mark.parametrize("target, t, regime, name", [
    (DIAMOND, 20000, None, "k4m-long"),  # t > 400^{7/5}
    (fan(2), 2000, "long", "tk-long"),
], ids=["k4m-long", "tk-long"])
def test_seed_overrides_are_refused_by_the_long_regime(key, target, t, regime, name):
    # The long builders have no seed set, so neither value would be read.
    with pytest.raises(ConfigurationError, match=f"the {key} override .* not to {name}$"):
        select_strategy(target, 400, t, 80, regime_override=regime, **{key: 3})


# Each builder's phase_stats keys beyond budget_skips and phase_bought.
_OWN_STATS = {
    "buy-all": set(),
    "degree-greedy": {"prefix_size"},
    "k4m-long": {"neighborhood_size"},
    "tk-long": {"neighborhood_size"},
    "k4m-short": {"cap_skips", "seed_set_size", "candidate_count", "max_multiplicity"},
    "tk-short": {"cap_skips", "seed_set_size", "survivor_history"},
}


@pytest.mark.parametrize("target, spec", [
    (DIAMOND, StrategySpec(StrategyKind.BUY_ALL)),
    (DIAMOND, StrategySpec(StrategyKind.DEGREE_GREEDY)),
    *((target, select_strategy(target, 60, 300, 40, regime_override=regime))
      for target in (DIAMOND, fan(2), fan(3)) for regime in ("short", "long")),
], ids=lambda v: v.name if isinstance(v, StrategySpec) else str(v))
def test_phase_stats_share_one_schema(target, spec):
    config = ProcessConfig(n=60, t=300, b=40, seed=4)
    rec = run_strategy(config, build_strategy(spec, config), detector_for(target),
                       early_stop=False)
    stats = rec.phase_stats
    assert set(stats) == {"budget_skips", "phase_bought"} | _OWN_STATS[spec.name]
    # One count per phase cap; a phased builder credits each buy to one phase.
    assert len(stats["phase_bought"]) == len(spec.params.phase_budgets)
    if spec.params.phase_budgets:
        assert sum(stats["phase_bought"]) == rec.edges_bought
    if spec.kind is StrategyKind.FAN_SHORT:
        assert len(stats["phase_bought"]) == target.k + 1


# -- diamond short phases ----------------------------------------------------


def _k4m_short(config, **over):
    spec = select_strategy(DIAMOND, config.n, config.t, config.b, **over)
    assert spec.kind is StrategyKind.DIAMOND_SHORT
    return build_strategy(spec, config)


def test_k4m_short_phase1_buys_seed_incident():
    config = ProcessConfig(n=12, t=12, b=12, seed=0)
    strat = _k4m_short(config, seed_set_size=2)
    decisions, _ = drive(strat, 12, [(0, 7), (5, 7), (1, 6), (8, 9)], config.b)
    # T = 4: all four reveals fall in phase 1; only seed-incident ones bought.
    assert decisions == [True, False, True, False]


def test_k4m_short_phase1_respects_per_vertex_cap():
    config = ProcessConfig(n=12, t=12, b=12, seed=0)
    strat = _k4m_short(config, seed_set_size=1, per_vertex_cap=2)
    decisions, _ = drive(strat, 12, [(0, 4), (0, 5), (0, 6), (0, 7)], config.b)
    assert decisions == [True, True, False, False]
    assert strat.stats()["cap_skips"] == 2


def test_k4m_short_phase2_double_neighborhood_completes_diamond():
    # T = 4; phase 1 builds N(0) = N(1) = {4,5}. The phase-2 reveal (4,5)
    # lies in both neighborhoods and its purchase closes the diamond 0-4-1-5.
    config = ProcessConfig(n=12, t=12, b=12, seed=0)
    strat = _k4m_short(config, seed_set_size=2, per_vertex_cap=2)
    edges = [(0, 4), (0, 5), (1, 4), (1, 5), (4, 5), (6, 7)]
    decisions, state = drive(strat, 12, edges, config.b)
    assert decisions == [True, True, True, True, True, False]
    assert contains_diamond(state.purchased)
    assert strat.stats()["max_multiplicity"] == 2


def test_k4m_short_phase3_only_buys_candidates():
    # T = 3. Phase 1 grows N(0) = {3,4,5}; phase 2 buys (3,4); the candidate
    # set is {(3,5), (4,5)}, kept as sorted pair codes, and phase 3 ignores
    # everything else.
    config = ProcessConfig(n=8, t=9, b=9, seed=0)
    strat = _k4m_short(config, seed_set_size=1, per_vertex_cap=3)
    edges = [
        (0, 3), (0, 4), (0, 5),           # phase 1
        (3, 4), (1, 2), (6, 7),           # phase 2
        (3, 5), (2, 7), (1, 6),           # phase 3
    ]
    decisions, state = drive(strat, 8, edges, config.b)
    assert decisions == [True, True, True, True, False, False, True, False, False]
    assert strat.candidate_codes.tolist() == sorted([pair_code(8, 3, 5), pair_code(8, 4, 5)])
    assert contains_diamond(state.purchased)


def test_k4m_short_candidates_exclude_phase1_reveals():
    # (3,5) is revealed during phase 1 (not seed-incident, so not bought);
    # the candidate construction prunes it, leaving only (4,5).
    config = ProcessConfig(n=8, t=12, b=12, seed=0)
    strat = _k4m_short(config, seed_set_size=1, per_vertex_cap=3)
    edges = [
        (0, 3), (0, 4), (0, 5), (3, 5),   # phase 1
        (3, 4), (1, 2), (6, 7), (1, 6),   # phase 2
        (2, 6), (4, 5),                   # phase 3
    ]
    decisions, state = drive(strat, 8, edges, config.b)
    assert decisions == [True, True, True, False,
                         True, False, False, False,
                         False, True]
    assert strat.candidate_codes.tolist() == [pair_code(8, 4, 5)]
    assert contains_diamond(state.purchased)


def test_k4m_short_phase1_budget_invariant():
    config = ProcessConfig(n=30, t=100, b=30, seed=3)  # 100 < 30^{7/5} ~ 117
    spec = select_strategy(DIAMOND, 30, 100, 30)
    assert spec.kind is StrategyKind.DIAMOND_SHORT
    strat = build_strategy(spec, config)
    rec = run_strategy(config, strat, detector_for(DIAMOND), early_stop=False)
    stats = rec.phase_stats
    assert stats["phase_bought"][0] <= stats["seed_set_size"] * spec.params.per_vertex_cap
    assert stats["phase_bought"][0] <= spec.params.phase_budgets[0]


# -- anchored long strategies ------------------------------------------------


def test_anchor_phase1_buys_anchor_star_only():
    config = ProcessConfig(n=10, t=10, b=10, seed=0)
    strat = build(StrategyKind.DIAMOND_LONG, config, phase_length=5,
                  phase_budgets=(5, 5))
    decisions, _ = drive(strat, 10, [(0, 7), (3, 4), (0, 2), (5, 6)], config.b)
    assert decisions == [True, False, True, False]


def test_anchor_phase2_cherry_completes_diamond():
    config = ProcessConfig(n=10, t=10, b=10, seed=0)
    strat = build(StrategyKind.DIAMOND_LONG, config, phase_length=4,
                  phase_budgets=(4, 4))
    edges = [(0, 2), (0, 3), (0, 4), (1, 5), (2, 3), (5, 6), (2, 4)]
    decisions, state = drive(strat, 10, edges, config.b)
    assert decisions == [True, True, True, False, True, False, True]
    # Two neighborhood edges sharing vertex 2: diamond on {0, 2, 3, 4}.
    assert contains_diamond(state.purchased)


def test_anchor_phase2_disjoint_from_neighborhood_skipped():
    config = ProcessConfig(n=10, t=10, b=10, seed=0)
    strat = build(StrategyKind.DIAMOND_LONG, config, phase_length=3,
                  phase_budgets=(5, 5))
    decisions, _ = drive(
        strat, 10, [(0, 2), (0, 3), (1, 4), (6, 7), (2, 3)], config.b
    )
    assert decisions == [True, True, False, False, True]


def test_fan_long_k1_reduces_to_triangle_builder():
    config = ProcessConfig(n=10, t=10, b=10, seed=0)
    strat = build(StrategyKind.FAN_LONG, config, phase_length=4,
                  phase_budgets=(4, 4), k=1)
    edges = [(0, 2), (0, 3), (1, 5), (8, 9), (2, 3)]
    decisions, state = drive(strat, 10, edges, config.b)
    assert decisions == [True, True, False, False, True]
    assert contains_fan(state.purchased, 1)


def test_fan_long_buys_nonmatching_neighborhood_edge():
    # An inside edge that shares a vertex with an earlier one is still
    # bought: the link matching is computed, not greedily committed.
    config = ProcessConfig(n=12, t=12, b=12, seed=0)
    strat = build(StrategyKind.FAN_LONG, config, phase_length=5,
                  phase_budgets=(6, 6), k=2)
    edges = [(0, 2), (0, 3), (0, 4), (0, 5), (1, 7), (2, 3), (2, 4), (4, 5)]
    decisions, state = drive(strat, 12, edges, config.b)
    assert decisions == [True, True, True, True, False, True, True, True]
    assert contains_fan(state.purchased, 2)  # via disjoint (2,3) and (4,5)


def _anchor_spec(T, caps):
    return StrategySpec(StrategyKind.DIAMOND_LONG,
                        StrategyParams(phase_length=T, phase_budgets=caps))


# Long-regime cells whose phase 2 (10,000 or 15,000 reveals) covers four
# spans: 1,024 reveals, then 2,048, 4,096 and the rest.
_SPAN_CELLS = [(DIAMOND, 400, 20000, b, {}) for b in (0, 1, 2, 80, 400)] + [
    (fan(2), 400, 20000, 200, {}),
    (fan(3), 300, 30000, 600, {}),
    # Phase caps above b: phase 1 buys 12 anchor edges, so phase 2 has 3
    # buys left of its cap of 40, and the budget runs out in a later span
    # with inside rows ahead. The neighbourhood is small, so hits come late.
    (DIAMOND, 400, 20000, 15, _anchor_spec(10000, (12, 40))),
    # All of K_200 with caps of b each: a quarter of phase 2's rows lie in the
    # anchor's ~100 neighbours, so most span boundaries fall next to an
    # inside row, and the budget runs out in the third span.
    (DIAMOND, 200, 19900, 1000, _anchor_spec(9950, (1000, 1000))),
]


def test_spanned_anchor_phase_matches_the_per_reveal_reference():
    late_hits = budget_bound = 0
    for cell in _SPAN_CELLS:
        for j in range(6):
            seed = derive_seed(17, cell[1], cell[2], cell[3], j)
            for early_stop in (True, False):
                fast, strat = _trial(cell, seed, early_stop)
                slow, _ = _trial(cell, seed, early_stop, PerReveal, reference_strategy)
                assert pickle.dumps(fast) == pickle.dumps(slow), (cell, j, early_stop)
                T, stats = strat.T, fast.phase_stats
                late_hits += (early_stop and fast.hit_time is not None
                              and fast.hit_time - 1 >= T + strategies._FIRST_SPAN)
                budget_bound += (stats["phase_bought"][1] < strat.p_caps[1]
                                 and stats["budget_skips"] > 0)
    assert late_hits and budget_bound, (late_hits, budget_bound)


def test_an_early_stop_selects_only_the_spans_it_reached(monkeypatch):
    # Criterion 5's cell hits a few inside buys into phase 2. Span k ends at
    # T + (2^(k+1) - 1) * width, so the span holding hit row h ends no later
    # than T + 2(h - T + 1) + width; selecting all of phase 2 reaches t.
    reach = []
    inside = strategies._inside

    def spy(codes, lo, hi, n, vertices):
        reach.append(hi)
        return inside(codes, lo, hi, n, vertices)

    monkeypatch.setattr(strategies, "_inside", spy)
    cell = (DIAMOND, 400, 20000, 80, {})
    for j in range(20):
        reach.clear()
        rec, strat = _trial(cell, derive_seed(19, 400, 20000, 80, j), True)
        h, T = rec.hit_time - 1, strat.T
        assert h >= T, (j, h)
        assert max(reach) <= T + 2 * (h - T + 1) + strategies._FIRST_SPAN, (j, h, reach)


# -- fan short ---------------------------------------------------------------


def _fan_short(config, k, **over):
    spec = select_strategy(fan(k), config.n, config.t, config.b, **over)
    assert spec.kind is StrategyKind.FAN_SHORT
    return build_strategy(spec, config)


def test_fan_short_phase0_cap_skip():
    config = ProcessConfig(n=12, t=12, b=12, seed=0)
    strat = _fan_short(config, 2, seed_set_size=1, per_vertex_cap=1)
    decisions, _ = drive(strat, 12, [(0, 4), (0, 5), (1, 5)], config.b)
    assert decisions == [True, False, False]
    assert strat.stats()["cap_skips"] >= 1


def test_fan_short_round_disjointness():
    # T = 3, seeds = {0}. Round 1 buys (4,5); (5,6) meets it inside N(0) and
    # is skipped; round 2's (4,6) likewise meets a covered vertex.
    config = ProcessConfig(n=16, t=9, b=16, seed=0)
    strat = _fan_short(config, 2, seed_set_size=1, per_vertex_cap=4)
    edges = [
        (0, 4), (0, 5), (0, 6),           # phase 0
        (4, 5), (5, 6), (1, 2),           # round 1
        (6, 7), (4, 6), (8, 9),           # round 2 ((6,7) leaves N(0))
    ]
    decisions, state = drive(strat, 16, edges, config.b)
    assert decisions == [True, True, True,
                         True, False, False,
                         False, False, False]
    assert strat.stats()["survivor_history"][0] == 1
    assert not contains_fan(state.purchased, 2)


def test_fan_short_completes_fan_via_disjoint_rounds():
    # T = 4. N(0) = {4,5,6,7}; round 1 buys (4,5), round 2 the disjoint
    # (6,7): a 2-fan centered at 0.
    config = ProcessConfig(n=16, t=12, b=16, seed=0)
    strat = _fan_short(config, 2, seed_set_size=1, per_vertex_cap=4)
    edges = [
        (0, 4), (0, 5), (0, 6), (0, 7),   # phase 0
        (4, 5), (1, 2), (3, 9), (5, 6),   # round 1: (5,6) meets (4,5)
        (6, 7), (8, 9),                   # round 2
    ]
    decisions, state = drive(strat, 16, edges, config.b)
    assert decisions[:5] == [True, True, True, True, True]
    assert decisions[7] is False
    assert decisions[8] is True
    assert contains_fan(state.purchased, 2)


def _record_rounds(strat):
    """Wrap `strat._start_round` to copy the survivors after each call;
    return the list the copies go to, one per round started."""
    rounds, start = [], strat._start_round

    def start_round(rnd, state):
        start(rnd, state)
        rounds.append(set(strat.survivors))

    strat._start_round = start_round
    return rounds


def test_fan_short_round_survivors_hold_a_link_matching_of_their_round():
    # T = 7, seeds {0, 1}: N(0) = {5,6,8,9}, N(1) = {5,6,7}. Round 1 buys
    # (6,7) in N(1) and (8,9) in N(0). Round 2's (5,6) lies in both, but
    # only grows N(0)'s matching: 6 is already covered inside N(1).
    config = ProcessConfig(n=16, t=21, b=12, seed=0)
    strat = _fan_short(config, 2, seed_set_size=2, per_vertex_cap=4)
    assert strat.T == 7
    started = _record_rounds(strat)
    outside = [(2, 3), (2, 4), (3, 4), (10, 11), (10, 12), (11, 12),
               (12, 13), (13, 14), (14, 15), (2, 10), (3, 11)]
    edges = (
        [(0, 5), (0, 6), (0, 8), (0, 9), (1, 5), (1, 6), (1, 7)]  # phase 0
        + [(6, 7), (8, 9)] + outside[:5]                          # round 1
        + [(5, 6)] + outside[5:]                                  # round 2
    )
    _, state = drive(strat, 16, edges, config.b)
    rounds = started[1:] + [set(strat.gained)]
    for i, survivors in enumerate(rounds, start=1):
        for w in survivors:
            inside = strat.frozen_nbrs[w]
            edges = [e for e in state.purchased.edges() if inside.issuperset(e)]
            assert _max_matching_edges(edges, 2) >= i
    assert rounds == [{0, 1}, {0}]


def test_fan_short_survivor_sets_nested():
    config = ProcessConfig(n=100, t=450, b=200, seed=17)
    spec = select_strategy(fan(2), 100, 450, 200)
    assert spec.kind is StrategyKind.FAN_SHORT
    strat = build_strategy(spec, config)
    started = _record_rounds(strat)
    run_strategy(config, strat, detector_for(fan(2)), early_stop=False)
    sets = started + [set(strat.gained)]
    assert sets
    for earlier, later in zip(sets, sets[1:]):
        assert later <= earlier
    # Round 1 counts all r seeds; a later round, the seeds it started with.
    r = spec.params.seed_set_size
    assert strat.stats()["survivor_history"] == (r, *map(len, started[1:]))


def test_fan_short_phase0_bound_invariant():
    config = ProcessConfig(n=50, t=180, b=100, seed=9)
    spec = select_strategy(fan(2), 50, 180, 100)
    assert spec.kind is StrategyKind.FAN_SHORT
    strat = build_strategy(spec, config)
    rec = run_strategy(config, strat, detector_for(fan(2)), early_stop=False)
    stats = rec.phase_stats
    assert stats["phase_bought"][0] <= stats["seed_set_size"] * spec.params.per_vertex_cap
    assert stats["phase_bought"][0] <= spec.params.phase_budgets[0]


# -- the neighbourhood freeze ------------------------------------------------


# k4m-short with r = n: a trial buys at most 300 edges among 25,600 vertices.
_LARGE_CELL = (DIAMOND, 25_600, 2000, 300, {})
# Criterion-7 cells whose seed phase spends its cap early, so the rows left in
# it are counted in bulk, and whose frozen neighbourhoods are none or few.
_TINY_BUDGET_CELLS = [(DIAMOND, 800, *cell_from_exponents(800, 1.35, y), {})
                      for y in (0.4, 0.6, 0.9)]


def _reference_run(cell, seed):
    """The per-reveal reference instance after a full-stream run."""
    kept = []
    _trial(cell, seed, False, lambda inner: kept.append(inner) or PerReveal(inner),
           reference_strategy)
    return kept[0]


def test_frozen_neighbourhoods_stay_those_of_the_seed_phase():
    # The settled freeze shares the graph's sets and reads the fan's blocked
    # vertices off the seed-phase buys; the reference copies each set and
    # rebuilds the blocked vertices from adjacency. After the whole stream,
    # when every later buy has been inserted, both must agree, and a seed
    # that no buy after the freeze touched must still hold adj[w] itself.
    shared = copied = 0
    for cell in [_C4_CELL, _C6_CELL, (fan(3), 400, 2000, 1638, {}), _LARGE_CELL,
                 *_TINY_BUDGET_CELLS] + _SMALL_CELLS:
        for j in range(3):
            seed = derive_seed(13, cell[1], cell[2], cell[3], j)
            rec, strat = _trial(cell, seed, False)
            ref = _reference_run(cell, seed)
            if getattr(strat, "frozen_nbrs", None) is None:
                assert getattr(ref, "frozen_nbrs", None) is None, (cell, j)
                continue
            assert strat.frozen_nbrs == ref.frozen_nbrs, (cell, j)
            if isinstance(strat, FanShort):  # the reference keeps empty sets too
                blocked = {w: m for w, m in ref.matched.items() if m}
                assert strat.matched == blocked, (cell, j)
            adj = rec.purchased.adj
            later = rec.purchased._edges[rec.phase_stats["phase_bought"][0]:]
            touched = {x for edge in later for x in edge}
            for w, nbrs in strat.frozen_nbrs.items():
                assert (nbrs is adj[w]) == (w not in touched), (cell, j, w)
                shared += w not in touched
                copied += w in touched
    assert shared and copied


def _blocked_at_freeze(strat, kept):
    """Wrap `strat._freeze` to put a copy of the blocked vertices (a seed
    with none left out) into `kept` right after the freeze; return strat."""
    freeze = strat._freeze

    def wrapped(state):
        freeze(state)
        kept.append({w: set(m) for w, m in strat.matched.items() if m})

    strat._freeze = wrapped
    return strat


def test_fan_freeze_blocks_what_the_reference_rebuilds():
    # At the freeze, before any round buys, `FanShort` reads the blocked
    # vertices off the graph's triangle-closing edges, and the reference
    # rebuilds them from each frozen member's adjacency: they must agree.
    frozen = 0
    for cell in [_C6_CELL, (fan(3), 400, 2000, 1638, {}), (fan(3), 400, 2900, 2000, {}),
                 *(c for c in _SMALL_CELLS if c[0].tag == "fan" and isinstance(c[4], dict)
                   and c[4]["regime_override"] == "short")]:
        for j in range(3):
            seed = derive_seed(17, cell[1], cell[2], cell[3], j)
            settled, reference = [], []
            _trial(cell, seed, False, lambda inner: _blocked_at_freeze(inner, settled))
            _trial(cell, seed, False,
                   lambda inner: PerReveal(_blocked_at_freeze(inner, reference)),
                   reference_strategy)
            assert settled == reference, (cell, j)
            frozen += sum(map(len, settled))
    assert frozen


def test_a_trial_gives_sets_only_to_the_vertices_it_buys_at():
    rec, _ = _trial(_LARGE_CELL, derive_seed(13, *_LARGE_CELL[1:4], 0), False)
    g = rec.purchased
    ends = {x for edge in g._edges for x in edge}
    none = BuilderGraph(1).adj[0]  # the one empty set every edgeless vertex reads
    assert 0 < len(ends) < g.n
    assert all((nbrs is none) == (v not in ends) for v, nbrs in enumerate(g.adj))
    assert all(type(g.adj[v]) is set for v in ends)


def _trial_seconds(target, n: int, seed: int) -> float:
    spec = select_strategy(target, n, 2000, 300)
    config = ProcessConfig(n, 2000, 300, seed=seed)
    start = time.perf_counter()
    run_strategy(config, build_strategy(spec, config), detector_for(target))
    return time.perf_counter() - start


@pytest.mark.parametrize("target", [DIAMOND, fan(2)], ids=str)
def test_trial_cost_does_not_grow_with_n_at_fixed_t_and_b(target):
    # A timing test of both short builders. At t = 2000 and b = 300 a trial
    # touches at most 600 vertices, so its cost should not follow n; a step
    # that is O(n) or O(r) per trial (n sets, a scan of every seed, a round
    # started from all r seeds, degrees read off all n sets) made n = 25,600
    # cost 6-10x n = 2,000. The bound is loose because the host may be shared.
    times = {2000: [], 25_600: []}
    for j in range(41):  # alternated, so drift in the host's speed hits both
        for n, runs in times.items():
            runs.append(_trial_seconds(target, n, derive_seed(29, n, 2000, 300, j)))
    ratio = statistics.median(times[25_600]) / statistics.median(times[2000])
    assert ratio < 3, ratio


# -- baselines ---------------------------------------------------------------


def test_degree_greedy_prefix_membership():
    config = ProcessConfig(n=100, t=400, b=40, seed=0)
    strat = build_strategy(StrategySpec(StrategyKind.DEGREE_GREEDY), config)
    assert strat.h == 2  # 40 * 100 // (4 * 400): stars use about b/2
    # An edge touching the prefix is bought and one outside it is not; the
    # closing edge (5, 6) of the purchased cherry 5-0-6 at prefix vertex 0
    # is bought too.
    edges = [(1, 2), (2, 3), (0, 5), (0, 6), (5, 6)]
    decisions, _ = drive(strat, 100, edges, config.b)
    assert decisions == [True, False, True, True, True]


def test_degree_greedy_closing_edge_reads_the_least_common_neighbour():
    config = ProcessConfig(n=100, t=400, b=40, seed=0)
    strat = build_strategy(StrategySpec(StrategyKind.DEGREE_GREEDY), config)
    assert strat.h == 2
    # Cherries at prefix vertices 1 and 0 give 5-8 and 8-9; then (5, 6) has
    # common neighbours {1, 8} and is bought, while (5, 9) has only {8},
    # outside the prefix, and is skipped.
    edges = [(1, 5), (1, 6), (1, 8), (5, 8), (6, 8), (0, 8), (0, 9), (8, 9),
             (5, 6), (5, 9)]
    decisions, state = drive(strat, 100, edges, config.b)
    assert decisions == [True] * 9 + [False]
    # The set iterates 8 before 1, so reading its first element instead of
    # its minimum would skip (5, 6).
    adj = state.purchased.adj
    assert list(adj[5] & adj[6]) == [8, 1]


def test_buy_all_dominates_tailored_strategies_when_budget_is_time():
    # With b >= t, success of the tailored strategy on a stream implies
    # success of buy-all on the same stream.
    for seed in range(10):
        config = ProcessConfig(n=40, t=180, b=180, seed=seed)
        spec = select_strategy(DIAMOND, 40, 180, 180)
        tailored = run_strategy(
            config, build_strategy(spec, config), detector_for(DIAMOND)
        )
        buyall = run_strategy(
            config,
            build_strategy(StrategySpec(StrategyKind.BUY_ALL), config),
            detector_for(DIAMOND),
        )
        if tailored.success:
            assert buyall.success


def test_fan_long_succeeds_past_threshold():
    # n=100, t=2000 is the long regime (threshold n/sqrt(t) ~ 2.2); a 27x
    # budget margin should make the anchored builder reliable.
    from budget_builder.experiments import run_trial_batch

    spec = select_strategy(fan(2), 100, 2000, 60)
    assert spec.kind is StrategyKind.FAN_LONG
    records = run_trial_batch(fan(2), ProcessConfig(100, 2000, 60, seed=555), spec, 40)
    assert sum(r.success for r in records) >= 0.9 * 40


def test_diamond_long_degree_limited_branch():
    # With b/2 far above the anchor's revealed degree, the neighborhood is
    # reveal-limited rather than budget-limited; success should still hold.
    from budget_builder.experiments import run_trial_batch

    spec = select_strategy(DIAMOND, 400, 20000, 400)
    assert spec.params.phase_budgets == (200, 200)
    records = run_trial_batch(DIAMOND, ProcessConfig(400, 20000, 400, seed=555), spec, 30)
    assert sum(r.success for r in records) >= 0.9 * 30


def test_tiny_configs_do_not_crash():
    from budget_builder.experiments import run_one_trial

    for target in (DIAMOND, fan(1), fan(2)):
        for n, t, b in ((5, 3, 2), (6, 4, 0), (8, 28, 5)):
            if target.num_vertices > n:
                continue
            spec = select_strategy(target, n, t, b)
            rec = run_one_trial(target, ProcessConfig(n, t, b, seed=1), spec)
            assert rec.edges_bought <= b


def test_online_replay_property():
    # Decisions on a shared prefix are identical across runs whose streams
    # diverge afterwards: `buys` reads the whole stream up front, yet each
    # row it buys depends only on the rows before it.
    rng = np.random.default_rng(2024)
    pairs = [(u, v) for u in range(30) for v in range(u + 1, 30)]
    idx = rng.permutation(len(pairs))
    prefix = [pairs[i] for i in idx[:40]]
    suffix_a = [pairs[i] for i in idx[40:80]]
    suffix_b = [pairs[i] for i in idx[80:120]]
    config = ProcessConfig(n=30, t=80, b=30, seed=99)
    for maker in (
        lambda: build_strategy(select_strategy(DIAMOND, 30, 80, 30), config),
        lambda: build_strategy(select_strategy(fan(2), 30, 80, 30), config),
        lambda: build_strategy(StrategySpec(StrategyKind.DEGREE_GREEDY), config),
    ):
        run_a, _ = drive(maker(), 30, prefix + suffix_a, config.b)
        run_b, _ = drive(maker(), 30, prefix + suffix_b, config.b)
        assert run_a[:40] == run_b[:40]
