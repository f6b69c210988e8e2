import numpy as np
import pytest

from budget_builder.detect import (
    DIAMOND,
    TRIANGLE,
    contains_diamond,
    contains_fan,
    detector_for,
    diamond_completing_check,
    fan,
    matching_within,
)
from budget_builder.errors import ConfigurationError, UnsupportedPattern
from budget_builder.process import ProcessConfig, pair_code, run_strategy
from budget_builder.strategies import (
    StrategyKind,
    StrategyParams,
    StrategySpec,
    build_strategy,
    select_strategy,
)

from conftest import drive


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
        with pytest.raises(ConfigurationError, match=f"'{key}'"):
            select_strategy(fan(2), 400, 2000, 64, {key: 3})
    # A target with more vertices than n is refused before any trial.
    with pytest.raises(ConfigurationError, match="fan3 needs 7 vertices, n=5"):
        select_strategy(fan(3), 5, 6, 5)


def test_select_rejects_unsupported_target():
    from budget_builder.detect import C4

    with pytest.raises(UnsupportedPattern):
        select_strategy(C4, 400, 2000, 64)


def test_regime_override():
    spec = select_strategy(DIAMOND, 400, 2000, 256, {"regime_override": "long"})
    assert spec.kind is StrategyKind.DIAMOND_LONG


def test_regime_override_is_short_or_long():
    # Without an override this cell is k4m-long; "Long" must not read as short.
    with pytest.raises(ConfigurationError, match="'Long'"):
        select_strategy(DIAMOND, 400, 20000, 80, {"regime_override": "Long"})


def test_seed_set_override():
    spec = select_strategy(DIAMOND, 400, 2000, 256, {"seed_set_size": 17})
    assert spec.params.seed_set_size == 17


@pytest.mark.parametrize("key", ["seed_set_size", "per_vertex_cap"])
@pytest.mark.parametrize("target, t, regime, name", [
    (DIAMOND, 20000, None, "k4m-long"),  # t > 400^{7/5}
    (fan(2), 2000, "long", "tk-long"),
], ids=["k4m-long", "tk-long"])
def test_seed_overrides_are_refused_by_the_long_regime(key, target, t, regime, name):
    # The long builders have no seed set, so neither value would be read.
    with pytest.raises(ConfigurationError, match=f"the {key} override .* not to {name}$"):
        select_strategy(target, 400, t, 80, {"regime_override": regime, key: 3})


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
    *((target, select_strategy(target, 60, 300, 40, {"regime_override": regime}))
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
    spec = select_strategy(DIAMOND, config.n, config.t, config.b, over or None)
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


# -- fan short ---------------------------------------------------------------


def _fan_short(config, k, **over):
    spec = select_strategy(fan(k), config.n, config.t, config.b, over or None)
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


def test_fan_short_round_survivors_hold_a_link_matching_of_their_round():
    # T = 7, seeds {0, 1}: N(0) = {5,6,8,9}, N(1) = {5,6,7}. Round 1 buys
    # (6,7) in N(1) and (8,9) in N(0). Round 2's (5,6) lies in both, but
    # only grows N(0)'s matching: 6 is already covered inside N(1).
    config = ProcessConfig(n=16, t=21, b=12, seed=0)
    strat = _fan_short(config, 2, seed_set_size=2, per_vertex_cap=4)
    assert strat.T == 7
    outside = [(2, 3), (2, 4), (3, 4), (10, 11), (10, 12), (11, 12),
               (12, 13), (13, 14), (14, 15), (2, 10), (3, 11)]
    edges = (
        [(0, 5), (0, 6), (0, 8), (0, 9), (1, 5), (1, 6), (1, 7)]  # phase 0
        + [(6, 7), (8, 9)] + outside[:5]                          # round 1
        + [(5, 6)] + outside[5:]                                  # round 2
    )
    _, state = drive(strat, 16, edges, config.b)
    rounds = list(strat.survivor_sets[1:]) + [frozenset(strat.gained)]
    for i, survivors in enumerate(rounds, start=1):
        for w in survivors:
            assert matching_within(state.purchased, strat.frozen_nbrs[w], 2) >= i
    assert rounds == [{0, 1}, {0}]


def test_fan_short_survivor_sets_nested():
    config = ProcessConfig(n=100, t=450, b=200, seed=17)
    spec = select_strategy(fan(2), 100, 450, 200)
    assert spec.kind is StrategyKind.FAN_SHORT
    strat = build_strategy(spec, config)
    run_strategy(config, strat, detector_for(fan(2)), early_stop=False)
    sets = list(strat.survivor_sets) + [frozenset(strat.gained)]
    assert sets
    for earlier, later in zip(sets, sets[1:]):
        assert later <= earlier


def test_fan_short_phase0_bound_invariant():
    config = ProcessConfig(n=50, t=180, b=100, seed=9)
    spec = select_strategy(fan(2), 50, 180, 100)
    assert spec.kind is StrategyKind.FAN_SHORT
    strat = build_strategy(spec, config)
    rec = run_strategy(config, strat, detector_for(fan(2)), early_stop=False)
    stats = rec.phase_stats
    assert stats["phase_bought"][0] <= stats["seed_set_size"] * spec.params.per_vertex_cap
    assert stats["phase_bought"][0] <= spec.params.phase_budgets[0]


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
    from budget_builder.experiments import run_trials

    spec = select_strategy(fan(2), 100, 2000, 60)
    assert spec.kind is StrategyKind.FAN_LONG
    est = run_trials(fan(2), ProcessConfig(100, 2000, 60, seed=555), spec, 40)
    assert est.p_hat >= 0.9


def test_diamond_long_degree_limited_branch():
    # With b/2 far above the anchor's revealed degree, the neighborhood is
    # reveal-limited rather than budget-limited; success should still hold.
    from budget_builder.experiments import run_trials

    spec = select_strategy(DIAMOND, 400, 20000, 400)
    assert spec.params.phase_budgets == (200, 200)
    est = run_trials(DIAMOND, ProcessConfig(400, 20000, 400, seed=555), spec, 30)
    assert est.p_hat >= 0.9


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
