import math

import numpy as np
import pytest

from budget_builder import experiments
from budget_builder.detect import DIAMOND, fan
from budget_builder.errors import ConfigurationError, CrossoverNotEstimable
from budget_builder.experiments import (
    PhasePoint,
    SuccessEstimate,
    _isotonic,
    estimate_crossover,
    estimate_from_counts,
    grid_values,
    predicted_budget_threshold,
    predicted_log_threshold,
    probe_counts,
    run_trial_batch,
    run_trials,
    sweep_grid,
    wilson_interval,
    write_sweep_csv,
    write_trials_csv,
)
from budget_builder.process import ProcessConfig, new_process, next_edge
from budget_builder.rng import derive_seed
from budget_builder.strategies import StrategyKind, StrategySpec, select_strategy


def test_wilson_interval_basic_properties():
    for successes, trials in ((0, 10), (3, 10), (10, 10), (199, 200)):
        lo, hi = wilson_interval(successes, trials)
        p = successes / trials
        assert 0.0 <= lo <= p <= hi <= 1.0
    with pytest.raises(ConfigurationError):
        wilson_interval(1, 0)


def test_wilson_interval_stays_off_the_boundary():
    lo, hi = wilson_interval(0, 200)
    assert lo == 0.0 and hi > 0.0
    lo, hi = wilson_interval(200, 200)
    assert hi == 1.0 and lo < 1.0


# -- predicted thresholds ----------------------------------------------------


def test_diamond_threshold_crossover_point():
    # The two branches meet at x = 7/5 where y = 2/5.
    assert math.isclose(6 - 4 * (7 / 5), 2 / 5, rel_tol=1e-12)
    assert math.isclose(4 / 3 - (2 / 3) * (7 / 5), 2 / 5, rel_tol=1e-12)
    for n in (100, 400, 1600):
        t_star = n ** 1.4
        lo = math.exp(6 * math.log(n) - 4 * math.log(t_star))
        hi = math.exp(4 / 3 * math.log(n) - 2 / 3 * math.log(t_star))
        assert abs(lo - hi) / max(lo, hi) < 1e-12
        assert math.isclose(
            predicted_budget_threshold(DIAMOND, n, t_star), lo, rel_tol=1e-9
        )


def test_fan_threshold_crossover_point():
    # Every fan size crosses branches at x = 4/3, y = 1/3.
    for k in range(1, 6):
        assert math.isclose(4 * k - 1 - (3 * k - 1) * (4 / 3), 1 / 3, rel_tol=1e-12)
    assert math.isclose(1 - (4 / 3) / 2, 1 / 3, rel_tol=1e-12)


def test_one_fan_formula_matches_three_cycle_formula():
    # k = 1 reduces to the known triangle thresholds n^3/t^2 vs n/sqrt(t).
    for n, t in ((100, 500), (400, 2000), (400, 30000)):
        value = predicted_budget_threshold(fan(1), n, t)
        assert math.isclose(value, max(n**3 / t**2, n / math.sqrt(t)), rel_tol=1e-9)


def test_log_threshold_matches_value_threshold():
    for x in (1.1, 1.3, 1.7):
        n = 500
        t = n ** x
        for target in (DIAMOND, fan(2), fan(3)):
            direct = math.log(predicted_budget_threshold(target, n, t)) / math.log(n)
            assert math.isclose(direct, predicted_log_threshold(target, x), abs_tol=1e-9)


def test_criterion_budget_values():
    assert round(predicted_budget_threshold(DIAMOND, 400, 2000)) == 256
    assert round(predicted_budget_threshold(DIAMOND, 400, 20000)) == 4
    assert math.isclose(
        predicted_budget_threshold(fan(2), 400, 2000), 51.2, rel_tol=1e-9
    )


# -- run_trials ---------------------------------------------------------------


def test_run_trials_never_buy_is_exactly_zero():
    base = ProcessConfig(n=20, t=40, b=40, seed=5)
    est = run_trials(DIAMOND, base, StrategySpec(StrategyKind.NEVER_BUY), 25)
    assert est.successes == 0
    assert est.p_hat == 0.0


def test_run_trials_rejects_zero_trials():
    base = ProcessConfig(n=20, t=40, b=40, seed=5)
    with pytest.raises(ConfigurationError):
        run_trials(DIAMOND, base, StrategySpec(StrategyKind.NEVER_BUY), 0)


def test_run_trials_buy_all_triangle_matches_offline_fraction():
    # b = t: purchased graph is the revealed graph, so the estimate equals
    # offline triangle detection over the same replayed streams.
    base = ProcessConfig(n=50, t=600, b=600, seed=314)
    trials = 60
    est = run_trials(fan(1), base, StrategySpec(StrategyKind.BUY_ALL), trials)
    offline = 0
    for i in range(trials):
        cfg = ProcessConfig(n=50, t=600, b=600, seed=derive_seed(base.seed, i))
        state = new_process(cfg)
        adj = [set() for _ in range(50)]
        found = False
        for _ in range(600):
            e = next_edge(state)
            if adj[e.u] & adj[e.v]:
                found = True
                break
            adj[e.u].add(e.v)
            adj[e.v].add(e.u)
        offline += found
    assert est.successes == offline
    assert est.p_hat > 0.95  # far past the triangle threshold


# -- sweeps and crossover ----------------------------------------------------


def _mini_sweep(jobs=1):
    return sweep_grid(
        DIAMOND, [60], [1.2], [0.4, 0.8, 1.2], 20, 777, jobs=jobs
    )


def test_sweep_grid_shape_and_prediction_column():
    points = _mini_sweep()
    assert len(points) == 3
    for p in points:
        assert p.n == 60
        assert p.t == int(round(60 ** 1.2))
        assert math.isclose(p.y_star_pred, max(6 - 4 * 1.2, 4 / 3 - 2 * 1.2 / 3))
        assert 0 <= p.estimate.ci_low <= p.estimate.p_hat <= p.estimate.ci_high <= 1


def test_sweep_grid_parallel_matches_serial():
    assert _mini_sweep(jobs=1) == _mini_sweep(jobs=2)


def test_sweep_single_cell_equals_run_trials():
    points = sweep_grid(DIAMOND, [60], [1.2], [0.8], 15, 4242)
    cell = points[0]
    cell_seed = derive_seed(4242, 60, 1.2, 0.8)
    base = ProcessConfig(n=60, t=cell.t, b=cell.b, seed=cell_seed)
    spec = select_strategy(DIAMOND, 60, cell.t, cell.b)
    est = run_trials(DIAMOND, base, spec, 15)
    assert est == cell.estimate


def test_sweep_grid_clamps_t_to_pair_count():
    points = sweep_grid(DIAMOND, [10], [2.0], [0.5], 5, 8)
    assert points[0].t == 45
    assert points[0].t_clamped


def test_sweep_grid_validates_ranges():
    with pytest.raises(ConfigurationError):
        sweep_grid(DIAMOND, [60], [0.5], [0.5], 5, 8)
    with pytest.raises(ConfigurationError):
        sweep_grid(DIAMOND, [60], [1.2], [1.7], 5, 8)


def test_sweep_grid_checks_every_override_before_any_trial(monkeypatch):
    def no_trials(*args, **kwargs):
        raise AssertionError("a cell ran before every override was checked")

    monkeypatch.setattr(experiments, "run_trials", no_trials)
    # A seed set of 60 fits n = 200 but not n = 50, whose cells come last.
    with pytest.raises(ConfigurationError, match="n=50"):
        sweep_grid(DIAMOND, [200, 50], [1.2], [0.8], 3, 8,
                   overrides={"seed_set_size": 60})


def test_probe_counts_checks_the_cell_before_any_trial(monkeypatch):
    def no_trials(*args, **kwargs):
        raise AssertionError("a probe trial ran on an invalid cell")

    monkeypatch.setattr(experiments, "_probe_trial", no_trials)
    with pytest.raises(ConfigurationError, match="n >= 2"):
        probe_counts(1, 1, 1, "degree-greedy", 2, 8, jobs=2)


def test_grid_values_inclusive():
    assert grid_values(1.25, 1.35, 0.05) == pytest.approx([1.25, 1.30, 1.35])
    assert grid_values(0.2, 1.2, 0.1) == pytest.approx(
        [0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0, 1.1, 1.2]
    )
    with pytest.raises(ConfigurationError):
        grid_values(1.4, 1.2, 0.1)


def _point(y, p_hat, trials=100):
    successes = int(round(p_hat * trials))
    return PhasePoint(
        n=100,
        x=1.3,
        y=y,
        t=100,
        b=10,
        estimate=estimate_from_counts(successes, trials),
        y_star_pred=0.0,
    )


def test_estimate_crossover_exact_middle():
    points = [_point(0.4, 0.05, 100), _point(0.6, 0.5, 100), _point(0.8, 0.95, 100)]
    assert estimate_crossover(points, 1.3) == pytest.approx(0.6)


def test_estimate_crossover_needs_bracket():
    points = [_point(0.4, 1.0), _point(0.6, 1.0), _point(0.8, 1.0)]
    with pytest.raises(CrossoverNotEstimable):
        estimate_crossover(points, 1.3)


def test_estimate_crossover_needs_three_points():
    points = [_point(0.4, 0.0), _point(0.8, 1.0)]
    with pytest.raises(CrossoverNotEstimable):
        estimate_crossover(points, 1.3)


def test_estimate_crossover_recovers_logistic_midpoint():
    ys = [0.2 + 0.1 * i for i in range(11)]
    points = [
        _point(y, 1.0 / (1.0 + math.exp(-(y - 0.7) / 0.15)), 10_000) for y in ys
    ]
    assert abs(estimate_crossover(points, 1.3) - 0.7) < 0.02


def test_estimate_crossover_monotone_under_noise():
    # Noisy non-monotone estimates still give one crossing via the
    # isotonic smoothing.
    rng = np.random.default_rng(5)
    ys = [0.2 + 0.1 * i for i in range(11)]
    truth = [1.0 / (1.0 + math.exp(-(y - 0.7) / 0.1)) for y in ys]
    points = [
        _point(y, min(1.0, max(0.0, p + rng.normal(0, 0.05))), 400)
        for y, p in zip(ys, truth)
    ]
    assert abs(estimate_crossover(points, 1.3) - 0.7) < 0.1


def test_isotonic_pools_adjacent_violators():
    assert _isotonic([0.6, 0.4], [1.0, 1.0]) == pytest.approx([0.5, 0.5])
    # A merged block that falls below its left neighbour pools again.
    assert _isotonic([0.4, 0.6, 0.0], [1.0, 1.0, 1.0]) == pytest.approx([1 / 3] * 3)


def test_estimate_crossover_reads_the_pooled_fit():
    # 0.8 then 0.4 pool to 0.6, so 1/2 is crossed at 0.4 + 0.2 * (0.4 / 0.5).
    points = [_point(0.4, 0.1), _point(0.6, 0.8), _point(0.8, 0.4), _point(1.0, 0.9)]
    assert estimate_crossover(points, 1.3) == pytest.approx(0.56)


# -- probes -------------------------------------------------------------------


def test_fan_center_counts_on_friendship_graph():
    from budget_builder.detect import BuilderGraph
    from budget_builder.experiments import fan_center_counts

    g = BuilderGraph(5)
    for u, v in ((0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)):
        g.insert_edge(u, v)
    # every vertex centers a 1-fan; only the hub centers a 2-fan
    assert fan_center_counts(g, 3) == [5, 1, 0]


def test_probe_counts_zero_budget():
    records = probe_counts(60, 200, 0, "degree-greedy", 3, 99)
    for r in records:
        assert r.triangles == r.c4 == r.paw == r.p4 == 0
        assert r.fan1_centers == r.fan2_centers == r.fan3_centers == 0


def test_probe_counts_scales_and_adversaries():
    records = probe_counts(60, 200, 40, "buy-all", 2, 99)
    assert len(records) == 2
    r = records[0]
    assert r.scale_triangle == pytest.approx(40 * 200**2 / 60**3)
    assert r.scale_c4 == pytest.approx(40 * 200**3 / 60**4)
    with pytest.raises(ConfigurationError):
        probe_counts(60, 200, 40, "chaotic-evil", 2, 99)


def test_probe_counts_parallel_matches_serial():
    serial = probe_counts(50, 150, 30, "degree-greedy", 4, 7, jobs=1)
    parallel = probe_counts(50, 150, 30, "degree-greedy", 4, 7, jobs=2)
    assert serial == parallel


# -- CSV ----------------------------------------------------------------------


def test_trials_csv_format_and_reproducibility(tmp_path):
    base = ProcessConfig(n=20, t=40, b=10, seed=5)
    spec = select_strategy(DIAMOND, 20, 40, 10)
    records = run_trial_batch(DIAMOND, base, spec, 5)
    path_a = tmp_path / "a.csv"
    path_b = tmp_path / "b.csv"
    write_trials_csv(path_a, records, 5)
    write_trials_csv(path_b, records, 5)
    lines_a = path_a.read_text().splitlines()
    lines_b = path_b.read_text().splitlines()
    assert lines_a[0].startswith("# budget-builder v")
    assert lines_a[1] == "target,k,n,t,b,strategy,seed,success,hit_time,edges_bought"
    assert lines_a[1:] == lines_b[1:]
    assert len(lines_a) == 2 + 5


def test_trials_csv_appends_without_new_header(tmp_path):
    base = ProcessConfig(n=20, t=40, b=10, seed=5)
    spec = select_strategy(DIAMOND, 20, 40, 10)
    records = run_trial_batch(DIAMOND, base, spec, 3)
    path = tmp_path / "t.csv"
    write_trials_csv(path, records, 5)
    write_trials_csv(path, records, 5)
    lines = path.read_text().splitlines()
    assert len(lines) == 2 + 6
    assert sum(1 for ln in lines if ln.startswith("#")) == 1


def test_sweep_csv_columns(tmp_path):
    points = _mini_sweep()
    path = tmp_path / "s.csv"
    write_sweep_csv(path, DIAMOND, points, 777)
    lines = path.read_text().splitlines()
    assert lines[1] == (
        "target,k,n,x,y,t,b,trials,successes,p_hat,ci_low,ci_high,y_star_pred"
    )
    first = lines[2].split(",")
    assert first[0] == "k4m"
    assert len(first) == 13
