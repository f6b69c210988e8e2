"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines as they complete. The heavy Monte Carlo fixtures are module-scoped
and shared between criteria; the tests that use them are marked `slow`.
"""

import math
import os
import time

import numpy as np
import pytest

from budget_builder.cli import parse_and_dispatch
from budget_builder.detect import (
    C4,
    DIAMOND,
    P3,
    P4,
    PAW,
    TRIANGLE,
    BuilderGraph,
    contains_diamond,
    contains_fan,
    contains_pattern,
    count_pattern,
    diamond_through_edge,
    fan,
)
from budget_builder.experiments import (
    estimate_crossover,
    probe_counts,
    run_trial_batch,
    estimate_from_counts,
    sweep_grid,
)
from oracle import SmallGraph, brute_contains, brute_count
from budget_builder.process import ProcessConfig
from budget_builder.strategies import select_strategy

ACCEPTANCE_SEED = 20250810
JOBS = os.cpu_count() or 1

CONTAIN_PATTERNS = (TRIANGLE, C4, DIAMOND, PAW, fan(2), fan(3))
COUNT_PATTERNS = (TRIANGLE, C4, PAW, P3, P4)


def _gate(num: int, ok: bool, detail: str) -> None:
    print(f"\nCRITERION {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def _batch(target, n, t, b, trials=200, keep_graph=False):
    spec = select_strategy(target, n, t, b)
    base = ProcessConfig(n=n, t=t, b=b, seed=ACCEPTANCE_SEED)
    return run_trial_batch(target, base, spec, trials, keep_graph=keep_graph)


@pytest.fixture(scope="module")
def diamond_short_batches():
    return {
        2560: _batch(DIAMOND, 400, 2000, 2560, keep_graph=True),
        25: _batch(DIAMOND, 400, 2000, 25, keep_graph=True),
    }


@pytest.fixture(scope="module")
def diamond_long_batches():
    return {
        80: _batch(DIAMOND, 400, 20000, 80, keep_graph=True),
        5: _batch(DIAMOND, 400, 20000, 5, keep_graph=True),
    }


@pytest.fixture(scope="module")
def fan_short_batches():
    return {
        1638: _batch(fan(2), 400, 2000, 1638, keep_graph=True),
        5: _batch(fan(2), 400, 2000, 5, keep_graph=True),
    }


@pytest.fixture(scope="module")
def crossover_sweep():
    start = time.time()
    points = sweep_grid(
        DIAMOND,
        [800],
        [1.25, 1.30, 1.35],
        [0.4 + 0.1 * i for i in range(11)],  # 0.4 .. 1.4
        400,
        ACCEPTANCE_SEED,
        jobs=JOBS,
    )
    return points, time.time() - start


def _estimate(records):
    return estimate_from_counts(sum(r.success for r in records), len(records))


def test_criterion_1_oracle_equivalence():
    start = time.time()
    rng = np.random.default_rng(ACCEPTANCE_SEED)
    mismatches = 0
    for i in range(1000):
        n = 5 + i % 8  # 5..12
        p = 0.05 + 0.85 * (i / 999)
        edges = [
            (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
        ]
        g = BuilderGraph(n)
        for u, v in edges:
            g.insert_edge(u, v)
        sg = SmallGraph(n, edges)
        for pattern in CONTAIN_PATTERNS:
            if contains_pattern(g, pattern) != brute_contains(sg, pattern):
                mismatches += 1
        for pattern in COUNT_PATTERNS:
            if count_pattern(g, pattern) != brute_count(sg, pattern):
                mismatches += 1
    elapsed = time.time() - start
    _gate(
        1,
        mismatches == 0 and elapsed < 60,
        f"1000 graphs, {mismatches} mismatches, {elapsed:.1f}s (< 60s)",
    )


def test_criterion_2_incremental_soundness():
    rng = np.random.default_rng(ACCEPTANCE_SEED + 1)
    pairs = [(u, v) for u in range(12) for v in range(u + 1, 12)]
    mismatches = 0
    for _ in range(500):
        m = int(rng.integers(5, 46))
        order = rng.permutation(len(pairs))[:m]
        g = BuilderGraph(12)
        fired = False
        for idx in order:
            u, v = pairs[idx]
            fired = diamond_through_edge(g, u, v) or fired
            g.insert_edge(u, v)
        if fired != contains_diamond(g):
            mismatches += 1
    _gate(2, mismatches == 0, f"500 insertion sequences, {mismatches} mismatches")


@pytest.mark.slow
def test_criterion_3_budget_contract_and_confirmed_successes(
    diamond_short_batches, diamond_long_batches, fan_short_batches
):
    over_budget = 0
    unconfirmed = 0
    checked = 0
    batches = [
        (DIAMOND, diamond_short_batches),
        (DIAMOND, diamond_long_batches),
        (fan(2), fan_short_batches),
    ]
    for target, by_budget in batches:
        for b, records in by_budget.items():
            for rec in records:
                checked += 1
                if rec.edges_bought > b:
                    over_budget += 1
                g = BuilderGraph(rec.n)
                for u, v in rec.purchased.edges():
                    g.insert_edge(u, v)
                contained = (
                    contains_diamond(g)
                    if target.tag == "diamond"
                    else contains_fan(g, target.k)
                )
                if rec.success != contained:
                    unconfirmed += 1
    _gate(
        3,
        over_budget == 0 and unconfirmed == 0,
        f"{checked} trials: {over_budget} budget violations, "
        f"{unconfirmed} unconfirmed successes",
    )


@pytest.mark.slow
def test_criterion_4_diamond_short_one_statement(diamond_short_batches):
    start = time.time()
    high = _estimate(diamond_short_batches[2560])
    low = _estimate(diamond_short_batches[25])
    elapsed = time.time() - start
    ok = (
        high.p_hat >= 0.9
        and high.ci_low > 0.5
        and low.p_hat <= 0.1
        and low.ci_high < 0.5
    )
    _gate(
        4,
        ok,
        f"n=400 t=2000 b*=256: p(b=2560)={high.p_hat:.3f} "
        f"(ci_low {high.ci_low:.3f}), p(b=25)={low.p_hat:.3f} "
        f"(ci_high {low.ci_high:.3f}); {elapsed:.0f}s",
    )


@pytest.mark.slow
def test_criterion_4_runtime(diamond_short_batches):
    start = time.time()
    _batch(DIAMOND, 400, 2000, 2560, trials=200)
    elapsed = time.time() - start
    assert elapsed < 120, f"criterion 4 batch took {elapsed:.0f}s"


@pytest.mark.slow
def test_criterion_5_diamond_long_one_statement(diamond_long_batches):
    high = _estimate(diamond_long_batches[80])
    low = _estimate(diamond_long_batches[5])
    ok = (
        high.p_hat >= 0.9
        and high.ci_low > 0.5
        and low.p_hat <= 0.1
        and low.ci_high < 0.5
    )
    _gate(
        5,
        ok,
        f"n=400 t=20000 b*~4: p(b=80)={high.p_hat:.3f}, p(b=5)={low.p_hat:.3f}",
    )


@pytest.mark.slow
def test_criterion_6_two_fan_one_statement(fan_short_batches):
    # The 10x margin of the threshold (b = 512) tops out near p ~ 0.28 at
    # this scale, so the calibrated 32x margin is used per the widening
    # clause; the calibration is recorded in the README.
    high = _estimate(fan_short_batches[1638])
    low = _estimate(fan_short_batches[5])
    ok = (
        high.p_hat >= 0.9
        and high.ci_low > 0.5
        and low.p_hat <= 0.1
        and low.ci_high < 0.5
    )
    _gate(
        6,
        ok,
        f"n=400 t=2000 b*=51.2 (32x margin): p(b=1638)={high.p_hat:.3f}, "
        f"p(b=5)={low.p_hat:.3f}",
    )


@pytest.mark.slow
def test_criterion_7_crossover_exponents(crossover_sweep):
    points, elapsed = crossover_sweep
    crossings = {}
    details = []
    for x in (1.25, 1.30, 1.35):
        predicted = 6 - 4 * x
        y_hat = estimate_crossover(points, x)
        crossings[x] = y_hat
        details.append(f"x={x:.2f}: y_hat={y_hat:.3f} vs {predicted:.2f}")
    decreasing = (
        crossings[1.25] > crossings[1.30] > crossings[1.35]
    )
    within = all(abs(crossings[x] - (6 - 4 * x)) <= 0.2 for x in crossings)
    _gate(
        7,
        within and decreasing and elapsed < 1800,
        "; ".join(details)
        + f"; strictly decreasing: {decreasing}; {elapsed:.0f}s (< 1800s)",
    )


@pytest.mark.slow
def test_criterion_7_success_nondecreasing_in_budget(crossover_sweep):
    # Monotonicity of the estimated success probability in b at fixed (n, x),
    # with the stated Monte Carlo slack.
    points, _ = crossover_sweep
    violations = 0
    for x in (1.25, 1.30, 1.35):
        cells = sorted((p for p in points if abs(p.x - x) < 1e-12), key=lambda p: p.y)
        for lo_cell in cells:
            for hi_cell in cells:
                if hi_cell.y >= lo_cell.y + 0.1 - 1e-9:
                    if hi_cell.estimate.ci_low < lo_cell.estimate.ci_high - 0.1:
                        violations += 1
    assert violations == 0, f"{violations} monotonicity violations"


def test_criterion_8_probe_scaling():
    start = time.time()
    mean_tri = []
    mean_paw = []
    scales = []
    ratios_per_density = []
    for n in (200, 400, 800):
        t = int(round(n ** 1.3))
        b = int(round(n ** 1.1))
        records = probe_counts(
            n, t, b, "degree-greedy", 50, ACCEPTANCE_SEED, jobs=JOBS
        )
        tri = float(np.mean([r.triangles for r in records]))
        paw = float(np.mean([r.paw for r in records]))
        mean_tri.append(tri)
        mean_paw.append(paw)
        scales.append(records[0].scale_triangle)
        ratios_per_density.append((paw / tri) / (t / n))
    slope = float(
        np.polyfit(np.log(scales), np.log(mean_tri), 1)[0]
    )
    drift = max(ratios_per_density) / min(ratios_per_density)
    elapsed = time.time() - start
    slope_ok = 0.75 <= slope <= 1.25
    ratio_ok = drift <= 3.0
    _gate(
        8,
        slope_ok and ratio_ok,
        f"triangle slope={slope:.3f} (want 1 +/- 0.25), "
        f"paw/triangle ratio drift x{drift:.2f} (allow x3); {elapsed:.0f}s",
    )


def test_criterion_9_byte_reproducibility(tmp_path):
    argv_base = [
        "run", "--target", "k4m", "--n", "400", "--t", "2000", "--b", "2560",
        "--trials", "200", "--seed", str(ACCEPTANCE_SEED),
    ]
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert parse_and_dispatch(argv_base + ["--out", str(out_a)]) == 0
    assert parse_and_dispatch(argv_base + ["--out", str(out_b)]) == 0
    bytes_a = out_a.read_bytes().split(b"\n", 1)[1]
    bytes_b = out_b.read_bytes().split(b"\n", 1)[1]
    _gate(
        9,
        bytes_a == bytes_b and len(bytes_a) > 0,
        f"two runs, {len(bytes_a)} bytes below the header line, identical",
    )


def test_criterion_10_threshold_kinks():
    from budget_builder.experiments import predicted_budget_threshold

    worst = 0.0
    for n in (50, 100, 200, 400, 800, 1600, 3200):
        t_star = n ** 1.4
        lo = math.exp(6 * math.log(n) - 4 * math.log(t_star))
        hi = math.exp(4 / 3 * math.log(n) - 2 / 3 * math.log(t_star))
        worst = max(worst, abs(lo - hi) / max(lo, hi))
        assert predicted_budget_threshold(DIAMOND, n, t_star) == max(lo, hi)
        for k in range(1, 6):
            t_star = n ** (4 / 3)
            lo = math.exp((4 * k - 1) * math.log(n) - (3 * k - 1) * math.log(t_star))
            hi = math.exp(math.log(n) - math.log(t_star) / 2)
            worst = max(worst, abs(lo - hi) / max(lo, hi))
            assert predicted_budget_threshold(fan(k), n, t_star) == max(lo, hi)
    _gate(10, worst < 1e-12, f"worst branch disagreement at kinks: {worst:.2e}")
