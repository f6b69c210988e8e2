"""Property-based tests. The twin test: on cells drawn inside
`ProcessConfig`'s checks, a strategy's `buys`, its `decide` asked on every
reveal and the per-reveal reference rules (`tests/per_reveal.py`) give the
same trial. The block-check test: `process._check_block` accepts an int64
block exactly when the reference test below does, and refuses any other
with the reference's error.

Runs derandomized and without an example database, so every run checks
the same cases.
"""

import pickle
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

import budget_builder.process as process
from budget_builder.detect import DIAMOND, detector_for, fan
from budget_builder.errors import BudgetContractViolation, OnlineRuleViolation
from budget_builder.process import ProcessConfig, decode, draw_codes, pair_code, run_strategy
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


# -- the block check -----------------------------------------------------------

# The smallest reference cell and one at the decoder's largest n, where
# n - 1 and n are 25-bit ends.
_BLOCK_CONFIGS = [ProcessConfig(10, 20, 20, seed=5), ProcessConfig(2**25, 20, 20, seed=5)]
_BLOCK_CODES = [draw_codes(config) for config in _BLOCK_CONFIGS]


def _reference_accepts(config, codes, rows, us, vs, last, left):
    """The block check's accepting test as it stood before it was folded
    into one mask: the ranges first, so `pair_code` sees only u < v < n."""
    n, t = config.n, config.t
    return bool(rows.dtype == us.dtype == vs.dtype == np.int64 and 0 < rows.size <= left
                and last < rows[0] and rows[-1] < t and (rows[1:] > rows[:-1]).all()
                and ((0 <= us) & (us < vs) & (vs < n)).all()
                and (codes[rows] == pair_code(n, us, vs)).all())


def _reference_refusal(config, codes, rows, us, vs, last, left):
    """(error class, message) of a refused int64 block, rule by rule."""
    n, t = config.n, config.t

    def bought(j):
        return f"x bought edge ({us[j]}, {vs[j]}) at row {rows[j]}"

    if not rows.size:
        return OnlineRuleViolation, f"x bought an empty block after row {last}"
    before = np.concatenate(([last], rows[:-1]))
    bad = (rows <= before) | (rows >= t)
    if bad.any():
        j = int(bad.argmax())
        return OnlineRuleViolation, f"{bought(j)}, not after row {before[j]} and before t={t}"
    if rows.size > left:
        return BudgetContractViolation, (f"x bought edge ({us[left]}, {vs[left]}) at clock "
                                         f"{rows[left] + 1} with budget {config.b} exhausted")
    ru, rv = decode(n, codes[rows])
    j = int(((us != ru) | (vs != rv)).argmax())
    return OnlineRuleViolation, f"{bought(j)}, where ({ru[j]}, {rv[j]}) was revealed"


@st.composite
def _blocks(draw):
    """A block of up to 4 revealed rows after `last`, each with its pair,
    then up to 3 edits that move a row or an end to a value at an edge:
    `last`, the row before, t - 1, t, -1, 0, n - 1, n, the other end (so
    v <= u), or near 2^62, where the code formula overflows int64."""
    c = draw(st.integers(0, 1))
    config, codes = _BLOCK_CONFIGS[c], _BLOCK_CODES[c]
    n, t = config.n, config.t
    last = draw(st.sampled_from([-1, 0, t - 2, t - 1]) | st.integers(-1, t - 1))
    empty = last == t - 1 or draw(st.integers(0, 19)) == 0
    rows = [] if empty else sorted(draw(st.lists(st.integers(last + 1, t - 1), min_size=1,
                                                 max_size=4, unique=True)))
    us, vs = (ends.tolist() for ends in decode(n, codes[np.array(rows, np.int64)]))
    for _ in range(draw(st.integers(0, 3)) if rows else 0):
        j = draw(st.integers(0, len(rows) - 1))
        edge = [last, rows[j - 1] if j else last, t - 1, t, -1, 0, 1, n - 1, n, us[j], vs[j],
                2**62 - 1, 2**62, 2**62 + 1, -2**62, 2**63 - 1, -2**63]
        field = draw(st.sampled_from([rows, us, vs, "swap", "alias"]))
        if field == "swap":
            us[j], vs[j] = vs[j], us[j]
        elif field == "alias":
            # an end u that breaks a range rule (u - 1 makes v >= n, u + 1
            # makes v <= u, a huge negative u overflows to a v inside (u, n)),
            # and the v whose formula code, wrapped to int64, is the row's
            u = np.array([draw(st.sampled_from([
                x for x in (us[j] - 1, us[j] + 1, -1, n, -2**62 - 1, -2**62 + 1,
                            -2**63, -2**63 + 1, 2**62) if -2**63 <= x < 2**63]))])
            v = codes[min(max(rows[j], 0), t - 1)] - pair_code(n, u, 0 * u)
            us[j], vs[j] = int(u[0]), int(v[0])
        else:
            field[j] = draw(st.sampled_from(edge))
    block = [np.array(a, np.int64) for a in (rows, us, vs)]
    # a budget left of at least size - 1, so most blocks get past it
    return (config, codes, *block, last, draw(st.integers(max(len(rows) - 1, 0), 5)))


@settings(derandomize=True, database=None, max_examples=600, deadline=None)
@given(block=_blocks())
def test_the_block_check_accepts_what_the_reference_accepts(block):
    # An accepted block passes the one vectorised test: the rule-by-rule
    # pass, which decodes, is never entered.
    config, codes, rows, us, vs, last, left = block
    args = ("x", config, codes, (rows, us, vs), last, left)
    if _reference_accepts(*block):
        with mock.patch.object(process, "decode", side_effect=AssertionError("decoded")):
            assert process._check_block(*args) is args[3]
    else:
        error, message = _reference_refusal(*block)
        with pytest.raises(error) as info:
            process._check_block(*args)
        assert str(info.value) == message
