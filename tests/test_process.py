import tracemalloc

import numpy as np
import pytest

from budget_builder.detect import DIAMOND, TRIANGLE, detector_for, fan
from budget_builder.errors import (
    BudgetContractViolation,
    ConfigurationError,
    StreamExhausted,
)
from budget_builder.oracle import SmallGraph, brute_contains
from budget_builder.process import (
    Edge,
    ProcessConfig,
    new_process,
    next_edge,
    run_strategy,
)
from budget_builder.strategies import (
    StrategyKind,
    StrategySpec,
    build_strategy,
)


def test_new_process_initial_state():
    state = new_process(ProcessConfig(n=4, t=6, b=5, seed=1))
    assert state.clock == 0
    assert state.budget_used == 0
    assert state.purchased.edge_count == 0
    assert state._order == []  # nothing is drawn before the first reveal


def test_new_process_rejects_too_many_edges():
    with pytest.raises(ConfigurationError):
        new_process(ProcessConfig(n=4, t=7, b=5, seed=1))


def test_new_process_rejects_tiny_n_and_negative_budget():
    with pytest.raises(ConfigurationError):
        new_process(ProcessConfig(n=1, t=1, b=0, seed=1))
    with pytest.raises(ConfigurationError):
        new_process(ProcessConfig(n=4, t=0, b=0, seed=1))
    with pytest.raises(ConfigurationError):
        new_process(ProcessConfig(n=4, t=3, b=-1, seed=1))


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
        rec = _record(StrategyKind.BUY_ALL, config, TRIANGLE)
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
    rec = _record(StrategyKind.BUY_ALL, config, TRIANGLE)
    assert rec.success
    assert rec.hit_time == rec.clock_at_stop <= 66
    full = _record(StrategyKind.BUY_ALL, config, TRIANGLE, early_stop=False)
    assert full.success and full.clock_at_stop == 66
    assert full.hit_time == rec.hit_time
