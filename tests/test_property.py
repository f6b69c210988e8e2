"""Property-based twin test: on cells drawn inside `ProcessConfig`'s checks,
a strategy's `buys` and its per-reveal `decide` give the same trial.

Runs derandomized and without an example database, so every run checks
the same cases.
"""

import pickle

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from budget_builder.detect import DIAMOND, detector_for, fan
from budget_builder.process import ProcessConfig, run_strategy
from budget_builder.strategies import (
    StrategyKind,
    StrategySpec,
    build_strategy,
    select_strategy,
)

from conftest import BuysChecker, PerReveal

_TARGETS = (DIAMOND, fan(1), fan(2), fan(3))


@st.composite
def _trials(draw):
    """(target, config, spec, early stop): a phased builder with any of the
    overrides its regime reads, or `degree-greedy` (one draw in five)."""
    target = draw(st.sampled_from(_TARGETS))
    n = draw(st.integers(target.num_vertices, 60))
    t = draw(st.integers(1, n * (n - 1) // 2))
    b = draw(st.integers(0, 16) | st.integers(0, 2 * t))  # small budgets bind
    config = ProcessConfig(n, t, b, seed=draw(st.integers(0, 2**63 - 1)))
    if draw(st.integers(0, 4)) == 0:
        spec = StrategySpec(StrategyKind.DEGREE_GREEDY)
    else:
        overrides = {"regime_override": draw(st.sampled_from([None, "short", "long"]))}
        spec = select_strategy(target, n, t, b, overrides)
        # The seed-set overrides apply only to the short regime.
        if spec.kind in (StrategyKind.DIAMOND_SHORT, StrategyKind.FAN_SHORT):
            spec = select_strategy(target, n, t, b, {
                **overrides,
                "seed_set_size": draw(st.none() | st.integers(1, n)),
                "per_vertex_cap": draw(st.none() | st.integers(1, 12)),
            })
    return target, config, spec, draw(st.booleans())


def _record(trial, wrap):
    target, config, spec, early_stop = trial
    strategy = wrap(build_strategy(spec, config))
    return run_strategy(config, strategy, detector_for(target),
                        early_stop=early_stop, keep_graph=True)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(_trials())
def test_settled_and_per_reveal_records_are_identical(trial):
    # The pickled graph pins the purchase order as well as the edge set.
    fast = _record(trial, lambda s: s)
    assert pickle.dumps(fast) == pickle.dumps(_record(trial, PerReveal))
    _, config, spec, _ = trial
    checked = _record(trial, lambda s: BuysChecker(s, build_strategy(spec, config)))
    assert pickle.dumps(fast) == pickle.dumps(checked)
