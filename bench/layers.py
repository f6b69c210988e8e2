"""Per-layer tracing for the benchmark, from outside the package.

`instrument(tracer)` wraps the public calls into each layer for the length
of a `with` block and restores them afterwards:

- `process.next_edge` (stream), `experiments.run_strategy` (driver span);
- `experiments.build_strategy`, which also returns a proxy whose `decide`
  is timed and whose buys are observed (strategies);
- `experiments.detector_for`, which returns a proxy timing `after_insert`
  and `confirm`; `BuilderGraph.insert_edge`, `experiments.count_pattern`
  and `experiments.fan_center_counts` (detect);
- `rng.derive_seed`, `experiments.derive_seed`, `process.substream` and
  `strategies.substream` (rng);
- `experiments.run_one_trial` and `experiments._probe_trial` (trial spans).

Once-per-trial calls become spans; per-reveal calls become (count, total ns,
self ns) aggregates on the innermost open span, so trace memory stays
O(trials). Every wrapper returns what the wrapped call returns, so a traced
trial produces the same record as an untraced one.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

from budget_builder import detect, experiments, process, rng, strategies
from budget_builder.strategies import StrategyKind

_clock = time.perf_counter_ns


class Span:
    __slots__ = ("name", "dur", "self_ns", "calls", "children", "strategy",
                 "reveals", "dormant", "buys")

    def __init__(self, name: str):
        self.name = name
        self.dur = 0
        self.self_ns = 0
        self.calls: dict[str, list[int]] = {}  # key -> [count, total ns, self ns]
        self.children: list[Span] = []
        self.strategy = None
        self.reveals = 0
        self.dormant = 0
        self.buys = 0


class Tracer:
    """Spans plus per-call aggregates with exclusive (self) time.

    `_frames` holds, for every open span or wrapped call, the nanoseconds
    spent in its wrapped children, so nested calls (e.g. `substream` inside
    `build_strategy`) are never counted twice.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self._open = [Span("root")]
        self._frames = [[0]]

    @contextmanager
    def span(self, name: str):
        s = Span(name)
        parent = self._open[-1]
        frame = [0]
        self._open.append(s)
        self._frames.append(frame)
        t0 = _clock()
        try:
            yield s
        finally:
            s.dur = _clock() - t0
            s.self_ns = s.dur - frame[0]
            self._frames.pop()
            self._open.pop()
            self._frames[-1][0] += s.dur
            parent.children.append(s)
            self.spans.append(s)
            if s.strategy is not None:
                _close_strategy(s)

    def timed(self, key: str, fn):
        """`fn` with each call aggregated under `key` on the innermost span,
        for calls that contain other wrapped calls."""
        frames, open_ = self._frames, self._open

        def wrapper(*args, **kwargs):
            frame = [0]
            frames.append(frame)
            t0 = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = _clock() - t0
                frames.pop()
                frames[-1][0] += dur
                _add(open_[-1].calls, key, dur, dur - frame[0])

        return wrapper

    def leaf(self, key: str, fn):
        """Like `timed`, for calls that contain no wrapped call. This runs once
        per reveal, so it pushes no frame; a call that raises is not recorded
        and leaves the tracer consistent."""
        frames, open_ = self._frames, self._open

        def wrapper(*args):
            t0 = _clock()
            out = fn(*args)
            dur = _clock() - t0
            frames[-1][0] += dur
            calls = open_[-1].calls
            agg = calls.get(key)
            if agg is None:
                agg = calls[key] = [0, 0, 0]
            agg[0] += 1
            agg[1] += dur
            agg[2] += dur
            return out

        return wrapper

    def spanned(self, name: str, fn):
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return wrapper


def _add(calls: dict, key: str, dur: int, self_ns: int) -> None:
    agg = calls.get(key)
    if agg is None:
        agg = calls[key] = [0, 0, 0]
    agg[0] += 1
    agg[1] += dur
    agg[2] += self_ns


class _StrategyProxy:
    """Forwards to a strategy; times `decide` and records the buy clocks."""

    def __init__(self, tracer: Tracer, inner, spec, config):
        self.name = inner.name
        self.spec = spec
        self.config = config
        self._inner = inner
        inner_decide = inner.decide
        frames, open_ = tracer._frames, tracer._open
        key = "strategies.decide"
        buys = self.buy_clocks = []

        def decide(state, e):
            t0 = _clock()
            bought = inner_decide(state, e)
            dur = _clock() - t0
            frames[-1][0] += dur
            calls = open_[-1].calls
            agg = calls.get(key)
            if agg is None:
                agg = calls[key] = [0, 0, 0]
            agg[0] += 1
            agg[1] += dur
            agg[2] += dur
            if bought:
                buys.append(state.clock)
            return bought

        self.decide = decide

    def stats(self) -> dict:
        return self._inner.stats()


class _DetectorProxy:
    def __init__(self, tracer: Tracer, inner):
        key = {
            detect.DiamondTracker: "detect.track_diamond",
            detect.FanTracker: "detect.track_fan",
        }.get(type(inner), "detect.track_other")
        self.after_insert = tracer.leaf(key, inner.after_insert)
        self.confirm = tracer.leaf("detect.confirm", inner.confirm)


def _phases(spec, config) -> list[tuple[int, int, int]]:
    """(first clock, last clock, purchase cap) of each strategy phase.

    This mirrors the documented phase layout of each builder, so the
    benchmark can tell from the buys alone when a phase can no longer buy.
    """
    p, t, b = spec.params, config.t, config.b
    T, caps = p.phase_length, p.phase_budgets
    kind = spec.kind
    if kind is StrategyKind.DIAMOND_SHORT:
        return [(1, T, caps[0]), (T + 1, 2 * T, caps[1]), (2 * T + 1, t, caps[2])]
    if kind in (StrategyKind.DIAMOND_LONG, StrategyKind.FAN_LONG):
        return [(1, T, caps[0]), (T + 1, t, caps[1])]
    if kind is StrategyKind.FAN_SHORT:
        if T == 0:
            return [(1, t, 0)]
        out = [(r * T + 1, (r + 1) * T, caps[r]) for r in range(p.k + 1)]
        return out + [((p.k + 1) * T + 1, t, 0)]  # after the last round
    return [(1, t, b)]


def dormant_reveals(spec, config, buy_clocks: list[int], reveals: int) -> int:
    """Reveals that arrive once their phase cap or the global budget is spent."""
    if config.b == 0:
        budget_gone = 0
    elif len(buy_clocks) >= config.b:
        budget_gone = buy_clocks[config.b - 1]
    else:
        budget_gone = reveals
    dormant = 0
    for lo, hi, cap in _phases(spec, config):
        hi = min(hi, reveals)
        if lo > hi:
            continue
        in_phase = [c for c in buy_clocks if lo <= c <= hi]
        cap_gone = in_phase[cap - 1] if 0 < cap <= len(in_phase) else None
        if cap <= 0:
            cap_gone = lo - 1
        quiet_from = min(budget_gone, hi if cap_gone is None else cap_gone)
        dormant += hi - max(lo - 1, quiet_from)
    return dormant


def _close_strategy(s: Span) -> None:
    """Reduce a trial's observed buys to counts, after its timing ended."""
    proxy = s.strategy
    s.strategy = None
    reveals = sum(
        agg[0] for key, agg in _calls_below([s]).items() if key.startswith("process.next_edge")
    )
    s.reveals = reveals
    s.buys = len(proxy.buy_clocks)
    s.dormant = dormant_reveals(proxy.spec, proxy.config, proxy.buy_clocks, reveals)


def _calls_below(spans) -> dict[str, list[int]]:
    """Aggregates of the given (non-nested) spans and every span below them."""
    out: dict[str, list[int]] = {}
    stack = list(spans)
    while stack:
        cur = stack.pop()
        for key, agg in cur.calls.items():
            acc = out.setdefault(key, [0, 0, 0])
            for i in range(3):
                acc[i] += agg[i]
        stack.extend(cur.children)
    return out


@contextmanager
def instrument(tracer: Tracer):
    """Wrap the layer entry points for the length of the block."""
    saved = []

    def patch(owner, attr, value):
        saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    orig_next_edge = process.next_edge
    first_key, rest_key = "process.next_edge.first", "process.next_edge"
    frames, open_ = tracer._frames, tracer._open

    def next_edge(state):
        t0 = _clock()
        e = orig_next_edge(state)
        dur = _clock() - t0
        frames[-1][0] += dur
        calls = open_[-1].calls
        agg = calls.get(rest_key)
        if agg is None:
            if first_key not in calls:
                calls[first_key] = [1, dur, dur]
                return e
            agg = calls[rest_key] = [0, 0, 0]
        agg[0] += 1
        agg[1] += dur
        agg[2] += dur
        return e

    orig_build = experiments.build_strategy
    timed_build = tracer.timed("strategies.build", orig_build)

    def build_strategy(spec, config):
        proxy = _StrategyProxy(tracer, timed_build(spec, config), spec, config)
        open_[-1].strategy = proxy
        return proxy

    orig_detector_for = experiments.detector_for

    def detector_for(p):
        return _DetectorProxy(tracer, orig_detector_for(p))

    derive = tracer.leaf("rng.derive_seed", rng.derive_seed)
    sub = tracer.leaf("rng.substream", rng.substream)
    try:
        patch(process, "next_edge", next_edge)
        patch(process, "substream", sub)
        patch(strategies, "substream", sub)
        patch(rng, "derive_seed", derive)
        patch(experiments, "derive_seed", derive)
        patch(experiments, "build_strategy", build_strategy)
        patch(experiments, "detector_for", detector_for)
        patch(experiments, "run_strategy",
              tracer.spanned("run_strategy", experiments.run_strategy))
        patch(experiments, "run_one_trial",
              tracer.spanned("trial", experiments.run_one_trial))
        patch(experiments, "_probe_trial",
              tracer.spanned("trial", experiments._probe_trial))
        patch(experiments, "count_pattern",
              tracer.leaf("detect.count", experiments.count_pattern))
        patch(experiments, "fan_center_counts",
              tracer.leaf("detect.fan_centers", experiments.fan_center_counts))
        patch(detect.BuilderGraph, "insert_edge",
              tracer.leaf("detect.insert", detect.BuilderGraph.insert_edge))
        yield tracer
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer figures from the finished spans of a traced pass.

    Shares are taken over the summed trial time. Wrapped calls are counted
    by self time, so the layer shares plus the driver's self share (trial
    time covered by no wrapped call) must add up to one.
    """
    trials = [s for s in tracer.spans if s.name == "trial"]
    runs = [s for s in tracer.spans if s.name == "run_strategy"]
    n_trials = len(trials)
    if n_trials == 0:
        raise ValueError("traced pass recorded no trial span")
    trial_ns = sum(s.dur for s in trials)

    in_trials = _calls_below(trials)
    in_runs = _calls_below(runs)
    everywhere = _calls_below([tracer._open[0]])

    def agg(table, key):
        return table.get(key, [0, 0, 0])

    def per_call(table, key, scale):
        count, total, _ = agg(table, key)
        return total / count / scale if count else 0.0

    # Every key starts with its layer: process (the stream), strategies,
    # rng or detect.
    layer_self = {"process": 0, "strategies": 0, "rng": 0, "detect": 0}
    for key, (_, _, self_ns) in in_trials.items():
        layer_self[key.split(".")[0]] += self_ns
    # Time inside trial spans that no wrapped call covers: the trial loop
    # itself, new_process, stats, record building and tracer bookkeeping.
    # It comes from the span frames, independently of the aggregates.
    driver_self = sum(_span_self(s) for s in trials)
    shares = {name: ns / trial_ns for name, ns in layer_self.items()}
    shares["driver"] = driver_self / trial_ns
    total_share = sum(shares.values())
    if abs(total_share - 1.0) > 1e-9:
        raise AssertionError(f"layer shares add up to {total_share!r}, not 1")

    reveals = sum(s.reveals for s in trials)
    decide_calls = agg(in_trials, "strategies.decide")[0]
    seed_ns = agg(everywhere, "rng.derive_seed")[1] + agg(everywhere, "rng.substream")[1]

    out = {
        "process.stream.first_reveal_us": per_call(in_runs, "process.next_edge.first", 1e3),
        "process.stream.ns_per_reveal": per_call(in_runs, "process.next_edge", 1.0),
        "process.stream.share": shares["process"],
        "process.driver.self_share": shares["driver"],
        "process.reveals_per_trial": reveals / n_trials,
        "strategies.decide.ns_per_call": per_call(in_trials, "strategies.decide", 1.0),
        "strategies.decide.calls_per_trial": decide_calls / n_trials,
        "strategies.decide.buy_ratio": (
            sum(s.buys for s in trials) / decide_calls if decide_calls else 0.0
        ),
        "strategies.dormant_share": (
            sum(s.dormant for s in trials) / reveals if reveals else 0.0
        ),
        "strategies.build_us": agg(in_trials, "strategies.build")[1] / n_trials / 1e3,
        "strategies.share": shares["strategies"],
        "rng.substreams_per_trial": agg(everywhere, "rng.substream")[0] / n_trials,
        "rng.seed_us_per_trial": seed_ns / n_trials / 1e3,
        "rng.share": shares["rng"],
        "detect.insert.ns_per_call": per_call(in_runs, "detect.insert", 1.0),
        "detect.track_diamond.ns_per_call": per_call(in_trials, "detect.track_diamond", 1.0),
        "detect.track_fan.ns_per_call": per_call(in_trials, "detect.track_fan", 1.0),
        "detect.confirm.us_per_trial": agg(in_trials, "detect.confirm")[1] / n_trials / 1e3,
        "detect.count.ms_per_graph": agg(in_trials, "detect.count")[1] / n_trials / 1e6,
        "detect.fan_centers.ms_per_graph": (
            agg(in_trials, "detect.fan_centers")[1] / n_trials / 1e6
        ),
        "detect.share": shares["detect"],
    }
    probe_trials = [s for s in trials if "detect.count" in s.calls]
    if probe_trials:
        probe_ns = sum(s.dur for s in probe_trials)
        covered = sum(
            sum(c.dur for c in s.children)
            + sum(s.calls.get(k, [0, 0, 0])[1]
                  for k in ("detect.count", "detect.fan_centers", "strategies.build"))
            for s in probe_trials
        )
        out["experiments.probe.self_share"] = (probe_ns - covered) / probe_ns
    else:
        out["experiments.probe.self_share"] = 0.0
    return out


def _span_self(s: Span) -> int:
    """Summed self time of `s` and every span below it."""
    return s.self_ns + sum(_span_self(c) for c in s.children)
