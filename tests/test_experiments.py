import math

import numpy as np
import pytest

from budget_builder import experiments
from budget_builder.detect import C4, DIAMOND, fan
from budget_builder.errors import ConfigurationError, CrossoverNotEstimable, UnsupportedPattern
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
    sweep_grid,
    wilson_interval,
    write_sweep_csv,
    write_trials_csv,
)
from budget_builder.process import ProcessConfig, new_process, next_edge
from budget_builder.rng import derive_seed
from budget_builder.strategies import (
    StrategyKind, StrategySpec, _threshold_branches, select_strategy,
)


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


@pytest.mark.parametrize("target", [DIAMOND, fan(1), fan(2), fan(3), fan(5)])
def test_strategy_regime_switches_where_the_threshold_branches_meet(target):
    (a1, c1), (a2, c2) = _threshold_branches(target)
    x_star = (a1 - a2) / (c1 - c2)  # where n^a1 / t^c1 = n^a2 / t^c2
    assert abs(x_star - (7 / 5 if target == DIAMOND else 4 / 3)) < 1e-12
    short = {StrategyKind.DIAMOND_SHORT, StrategyKind.FAN_SHORT}
    for n in (50, 200, 400, 800, 1600):  # n^{x*} at least 0.08 from an integer
        t = math.floor(n ** x_star)
        assert select_strategy(target, n, t, 100).kind in short
        assert select_strategy(target, n, t + 1, 100).kind not in short


@pytest.mark.parametrize("target, cells", [
    (DIAMOND, [(32, 128), (243, 2187), (1024, 16384)]),
    (fan(1), [(8, 16), (27, 81), (64, 256)]),
    (fan(2), [(8, 16), (27, 81), (64, 256)]),
], ids=["diamond", "fan1", "fan2"])
def test_exact_power_cells_keep_the_long_regime(target, cells):
    # At these cells t = n^{x*} exactly. The float n ** x* lies just below t,
    # so each selects the long regime. A meeting point worked out in floats
    # (1.4000000000000001 for the diamond) would select the short one.
    (a1, c1), (a2, c2) = _threshold_branches(target)
    x_star = (a1 - a2) / (c1 - c2)
    for n, t in cells:
        assert t ** x_star.denominator == n ** x_star.numerator
        assert select_strategy(target, n, t, 100).kind in {StrategyKind.DIAMOND_LONG,
                                                           StrategyKind.FAN_LONG}, (n, t)


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
    # A target without a formula, or t < 1, has no threshold.
    with pytest.raises(UnsupportedPattern):
        predicted_budget_threshold(C4, 400, 2000)
    with pytest.raises(ConfigurationError, match="t >= 1"):
        predicted_budget_threshold(DIAMOND, 400, 0.5)


# -- run_trial_batch ----------------------------------------------------------


def test_run_trial_batch_never_buy_is_exactly_zero():
    base = ProcessConfig(n=20, t=40, b=0, seed=5)
    records = run_trial_batch(DIAMOND, base, StrategySpec(StrategyKind.BUY_ALL), 25)
    assert len(records) == 25
    assert not any(r.success for r in records)


def test_run_trial_batch_rejects_zero_trials():
    base = ProcessConfig(n=20, t=40, b=0, seed=5)
    with pytest.raises(ConfigurationError):
        run_trial_batch(DIAMOND, base, StrategySpec(StrategyKind.BUY_ALL), 0)


def test_run_trial_batch_buy_all_triangle_matches_offline_fraction():
    # b = t: purchased graph is the revealed graph, so the success count
    # equals offline triangle detection over the same replayed streams.
    base = ProcessConfig(n=50, t=600, b=600, seed=314)
    trials = 60
    records = run_trial_batch(fan(1), base, StrategySpec(StrategyKind.BUY_ALL), trials)
    successes = sum(r.success for r in records)
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
    assert successes == offline
    assert successes > 0.95 * trials  # far past the triangle threshold


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


def test_pool_gets_at_most_one_worker_per_cell(monkeypatch):
    # A fork pool starts all of its workers at the first submit, so a pool
    # sized by --jobs alone would fork that many for a 3-cell sweep. The
    # stand-in records its size and maps serially: no process is started.
    import concurrent.futures

    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    assert _mini_sweep(jobs=16) == _mini_sweep(jobs=1)
    assert sizes == [3]


def test_sweep_single_cell_counts_the_batch_at_the_cell_seed():
    points = sweep_grid(DIAMOND, [60], [1.2], [1.1], 15, 4242)
    cell = points[0]
    cell_seed = derive_seed(4242, 60, 1.2, 1.1)
    base = ProcessConfig(n=60, t=cell.t, b=cell.b, seed=cell_seed)
    spec = select_strategy(DIAMOND, 60, cell.t, cell.b)
    records = run_trial_batch(DIAMOND, base, spec, 15)
    assert cell.estimate == estimate_from_counts(sum(r.success for r in records), 15)
    assert 0 < cell.estimate.successes < 15  # a cell where each trial's outcome counts


def test_sweep_grid_clamps_t_to_pair_count():
    points = sweep_grid(DIAMOND, [10], [2.0], [0.5], 5, 8)
    assert points[0].t == 45


def test_sweep_grid_validates_ranges():
    with pytest.raises(ConfigurationError):
        sweep_grid(DIAMOND, [60], [0.5], [0.5], 5, 8)
    with pytest.raises(ConfigurationError):
        sweep_grid(DIAMOND, [60], [1.2], [1.7], 5, 8)


def test_sweep_grid_checks_every_override_before_any_trial(monkeypatch):
    def no_trials(*args, **kwargs):
        raise AssertionError("a cell ran before every override was checked")

    monkeypatch.setattr(experiments, "run_one_trial", no_trials)
    # A seed set of 60 fits n = 200 but not n = 50, whose cells come last.
    with pytest.raises(ConfigurationError, match="n=50"):
        sweep_grid(DIAMOND, [200, 50], [1.2], [0.8], 3, 8,
                   overrides={"seed_set_size": 60})


def test_sweep_grid_refuses_seed_overrides_in_long_cells_before_any_trial(monkeypatch):
    def no_trials(*args, **kwargs):
        raise AssertionError("a cell ran before every override was checked")

    monkeypatch.setattr(experiments, "run_one_trial", no_trials)
    # x = 1.3 selects k4m-short, which reads the seed set; x = 1.5 selects
    # k4m-long, which has none.
    with pytest.raises(ConfigurationError, match="seed_set_size override .* k4m-long"):
        sweep_grid(DIAMOND, [200], [1.3, 1.5], [0.8], 3, 8,
                   overrides={"seed_set_size": 10})


def test_sweep_grid_checks_every_target_size_before_any_trial(monkeypatch):
    def no_trials(*args, **kwargs):
        raise AssertionError("a cell ran before every n was checked against the target")

    monkeypatch.setattr(experiments, "run_one_trial", no_trials)
    with pytest.raises(ConfigurationError, match="fan3 needs 7 vertices, n=5"):
        sweep_grid(fan(3), [400, 5], [1.2], [0.8], 3, 8)


def test_sweep_grid_refuses_more_than_max_cells_before_any_trial(monkeypatch):
    def no_trials(*args, **kwargs):
        raise AssertionError("a cell ran in a sweep over MAX_CELLS cells")

    monkeypatch.setattr(experiments, "run_one_trial", no_trials)
    xs, ys = grid_values(1.0, 2.0, 0.01), grid_values(0.0, 1.5, 0.015)
    assert len(xs) * len(ys) == 101 * 101 > experiments.MAX_CELLS
    with pytest.raises(ConfigurationError, match="10201 cells"):
        sweep_grid(DIAMOND, [60], xs, ys, 3, 8)


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
    for lo, hi, step in ((math.nan, 1.2, 0.1), (1.0, math.nan, 0.1), (1.0, 1.2, math.nan),
                         (1.0, math.inf, 0.1), (-math.inf, 1.2, 0.1), (1.0, 1.2, math.inf)):
        with pytest.raises(ConfigurationError, match="finite"):
            grid_values(lo, hi, step)
    assert len(grid_values(0.0, 9999.0, 1.0)) == experiments.MAX_CELLS
    with pytest.raises(ConfigurationError, match="over 10000 values"):
        grid_values(0.0, 10000.0, 1.0)
    # Counted before it is built: a list of 10^300 values would never finish.
    with pytest.raises(ConfigurationError, match="over 10000 values"):
        grid_values(1.0, 2.0, 1e-300)


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
    from budget_builder.detect import BuilderGraph, fan_center_counts

    g = BuilderGraph(5)
    for u, v in ((0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)):
        g.insert_edge(u, v)
    # every vertex centers a 1-fan; only the hub centers a 2-fan
    assert fan_center_counts(g, 3) == [5, 1, 0]


def _brute_fan_center_counts(n, edges, max_k):
    """Per vertex, the maximum matching of its link graph by the oracle."""
    from oracle import SmallGraph, brute_max_matching

    counts = [0] * max_k
    for v in range(n):
        nbrs = {u for e in edges if v in e for u in e if u != v}
        link = [(a, b) for a, b in edges if a in nbrs and b in nbrs]
        size = brute_max_matching(SmallGraph(n, link))
        for level in range(min(size, max_k)):
            counts[level] += 1
    return counts


def _fan_center_graphs(rng):
    from conftest import gnp_edges, hub_edges

    yield 0, []
    yield 9, []
    for _ in range(30):
        n = int(rng.integers(3, 13))
        yield n, gnp_edges(rng, n, float(rng.uniform(0.1, 0.7)))
        yield n, hub_edges(rng, n, int(rng.integers(1, 4)))


def test_fan_center_counts_vs_oracle(rng):
    from budget_builder.detect import fan_center_counts
    from conftest import builder_from

    levels_seen = set()
    for n, edges in _fan_center_graphs(rng):
        g = builder_from(n, edges)
        for max_k in (1, 3):
            expected = _brute_fan_center_counts(n, edges, max_k)
            assert fan_center_counts(g, max_k) == expected
        levels_seen.update(i for i, c in enumerate(expected) if c)
    # The graphs reach every level the probe records.
    assert levels_seen == {0, 1, 2}


def test_fan_center_counts_follow_inserts_after_a_count(rng):
    # The fan-centre counts read the triangle list cached in the edge table:
    # a count, then inserts that close new triangles, then a count again
    # must match the oracle both times, so a stale table shows.
    from budget_builder.detect import TRIANGLE, count_pattern, fan_center_counts
    from conftest import builder_from, gnm_edges
    from oracle import SmallGraph, brute_count

    def triangles_checked(g, n, edges):
        assert fan_center_counts(g, 3) == _brute_fan_center_counts(n, edges, 3)
        triangles = count_pattern(g, TRIANGLE)
        assert triangles == brute_count(SmallGraph(n, edges), TRIANGLE)
        return triangles

    grown = 0
    for _ in range(40):
        n = int(rng.integers(5, 12))
        edges = gnm_edges(rng, n, int(rng.integers(4, n * (n - 1) // 2 + 1)))
        cut = len(edges) // 2
        g = builder_from(n, edges[:cut])
        before = triangles_checked(g, n, edges[:cut])
        for u, v in edges[cut:]:
            g.insert_edge(u, v)
        grown += triangles_checked(g, n, edges) > before
    assert grown > 20


def test_fan_center_counts_build_no_link_graph_from_adjacency(monkeypatch, rng):
    # Only `contains_fan` rebuilds link graphs from neighbour sets; the
    # fan-centre counts group the edge table's triangles.
    import budget_builder.detect as detect
    from conftest import builder_from

    def refuse(g, v, cap):
        raise AssertionError("fan_center_counts rebuilt a link graph")

    monkeypatch.setattr(detect, "link_matching_size", refuse)
    # Three triangles at the hub 0: it centres a 3-fan, each other vertex a 1-fan.
    friendship = [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4), (0, 5), (0, 6), (5, 6)]
    assert detect.fan_center_counts(builder_from(7, friendship), 3) == [7, 1, 1]
    for n, edges in _fan_center_graphs(rng):
        g = builder_from(n, edges)
        assert detect.fan_center_counts(g, 3) == _brute_fan_center_counts(n, edges, 3)


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


def test_probe_trial_calls_the_counters_through_experiments(monkeypatch):
    # bench/layers.py times probe counting by patching these two names on
    # `experiments`; a call that bypasses them would read as zero time.
    calls = {"count_pattern": 0, "fan_center_counts": 0}

    def counting(name, inner):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(experiments, name, counting(name, getattr(experiments, name)))
    probe_counts(50, 150, 30, "degree-greedy", 1, 7)
    assert calls == {"count_pattern": 4, "fan_center_counts": 1}


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
