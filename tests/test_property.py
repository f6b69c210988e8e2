"""Property-based twin test: on cells drawn inside `ProcessConfig`'s checks,
a strategy's `buys`, its `decide` asked on every reveal and the per-reveal
reference rules (`tests/per_reveal.py`) give the same trial.

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
from per_reveal import reference_strategy

_TARGETS = (DIAMOND, fan(1), fan(2), fan(3))

# Each builder kind, with the targets it builds and the regime override
# that selects it; the baselines build nothing and take any target.
_KINDS = {
    StrategyKind.DIAMOND_SHORT: ((DIAMOND,), "short"),
    StrategyKind.DIAMOND_LONG: ((DIAMOND,), "long"),
    StrategyKind.FAN_SHORT: (_TARGETS[1:], "short"),
    StrategyKind.FAN_LONG: (_TARGETS[1:], "long"),
    StrategyKind.DEGREE_GREEDY: (_TARGETS, None),
    StrategyKind.BUY_ALL: (_TARGETS, None),
}


@st.composite
def _trials(draw, kind):
    """(target, config, spec, early stop) for one builder kind: a target it
    builds, and for a phased builder any of the overrides its regime reads."""
    targets, regime = _KINDS[kind]
    target = draw(st.sampled_from(targets))
    n = draw(st.integers(target.num_vertices, 60))
    t = draw(st.integers(1, n * (n - 1) // 2))
    b = draw(st.integers(0, 16) | st.integers(0, 2 * t))  # small budgets bind
    config = ProcessConfig(n, t, b, seed=draw(st.integers(0, 2**63 - 1)))
    if regime is None:
        spec = StrategySpec(kind)
    else:
        overrides = {"regime_override": regime}
        # The seed-set overrides apply only to the short regime.
        if regime == "short":
            overrides["seed_set_size"] = draw(st.none() | st.integers(1, n))
            overrides["per_vertex_cap"] = draw(st.none() | st.integers(1, 12))
        spec = select_strategy(target, n, t, b, overrides)
        assert spec.kind is kind
    return target, config, spec, draw(st.booleans())


def _record(trial, wrap, make=build_strategy):
    target, config, spec, early_stop = trial
    strategy = wrap(make(spec, config))
    return run_strategy(config, strategy, detector_for(target),
                        early_stop=early_stop, keep_graph=True)


# Each kind gets its own 50 examples, so no edit to the draws can starve one.
@pytest.mark.parametrize("kind", list(_KINDS), ids=lambda kind: kind.value)
@settings(derandomize=True, database=None, max_examples=50, deadline=None)
@given(data=st.data())
def test_settled_and_per_reveal_records_are_identical(kind, data):
    trial = data.draw(_trials(kind))
    # The pickled graph pins the purchase order as well as the edge set.
    fast = pickle.dumps(_record(trial, lambda s: s))
    assert fast == pickle.dumps(_record(trial, PerReveal, reference_strategy))
    assert fast == pickle.dumps(_record(trial, PerReveal))
    _, config, spec, _ = trial
    checked = _record(trial, lambda s: BuysChecker(s, build_strategy(spec, config)),
                      reference_strategy)
    assert fast == pickle.dumps(checked)
