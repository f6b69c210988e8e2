"""Tests of the benchmark itself: tiny versions of every workload, traced
against untraced records, and the output checks.

    python3 -m pytest -q bench/tests
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402  (puts the package source on sys.path)
import layers  # noqa: E402
from budget_builder import experiments, process  # noqa: E402
from budget_builder.detect import DIAMOND, Pattern, fan  # noqa: E402
from budget_builder.experiments import grid_values  # noqa: E402
from budget_builder.process import ProcessConfig  # noqa: E402
from budget_builder.strategies import StrategyKind, StrategySpec, select_strategy  # noqa: E402

BENCHMARK = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())

# Each real workload's kind and strategies, at a size that runs in seconds.
TINY = {
    "long-stream": run.Workload(
        "long-stream", "trials", (run.Cell("long", DIAMOND, 40, 600, 20),),
        check_trials=2),
    "short-build": run.Workload(
        "short-build", "trials",
        (run.Cell("k4m", DIAMOND, 40, 150, 200), run.Cell("tk", fan(2), 40, 150, 200)),
        check_trials=2),
    "sweep-c7": run.Workload(
        "sweep-c7", "sweep",
        run.sweep_cells(DIAMOND, 40, grid_values(1.25, 1.3, 0.05),
                        grid_values(0.8, 1.0, 0.1)),
        trials_per_cell=2, check_trials=1),
    "probe-dg": run.Workload(
        "probe-dg", "probe", run.probe_cells((20, 30), 1.3, 1.1), check_trials=1),
}


@pytest.fixture(autouse=True)
def few_subprocesses(monkeypatch):
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(run, "CLI_REPEATS", 1)


def reference_for(w):
    batch = run.check_batch(w)
    assert batch["problems"] == []
    return {run.budget_builder.__version__: {w.name: {"digest": batch["digest"],
                                                      "cells": batch["cells"]}}}


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_workload_end_to_end_and_traced(name):
    w = TINY[name]
    ref = reference_for(w)
    units = 2 * len(w.cells)

    res = run.run_end_to_end(w, seed=3, seconds=0, min_units=units, reference=ref)
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= units
    assert set(res["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert all(m["value"] > 0 for m in res["metrics"].values())

    traced = run.run_traced(w, seed=3, seconds=0, min_units=units, reference=ref)
    assert traced["correct"] and traced["failed"] == 0
    assert set(traced["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    values = {k: m["value"] for k, m in traced["metrics"].items()}
    assert values["rng.substreams_per_trial"] == 2
    assert values["process.reveals_per_trial"] > 0
    for key in run.NOT_APPLICABLE[name]:
        assert values[key] == 0, key


def test_instrumentation_is_removed_after_the_traced_pass():
    originals = (process.next_edge, experiments.run_one_trial,
                 experiments.build_strategy, experiments.detector_for)
    run.run_traced(TINY["short-build"], seed=1, seconds=0, min_units=2,
                   reference=reference_for(TINY["short-build"]))
    assert (process.next_edge, experiments.run_one_trial,
            experiments.build_strategy, experiments.detector_for) == originals


def test_traced_records_must_equal_untraced_records(monkeypatch):
    """A tracer that changes what the program does is caught."""
    w = TINY["long-stream"]
    ref = reference_for(w)

    class BlindDetector:
        def __init__(self, tracer, inner):
            self.after_insert = lambda g, u, v: False
            self.confirm = lambda g: False

    monkeypatch.setattr(layers, "_DetectorProxy", BlindDetector)
    with pytest.raises(run.RecordMismatch):
        run.run_traced(w, seed=1, seconds=0, min_units=2, reference=ref)


def test_layer_shares_add_up_to_one():
    w = TINY["short-build"]
    unit = run.trial_unit(w, 5)
    tracer = layers.Tracer()
    with layers.instrument(tracer):
        for i in range(6):
            unit(i)
    m = layers.layer_metrics(tracer)
    shares = [m["process.stream.share"], m["strategies.share"], m["rng.share"],
              m["detect.share"], m["process.driver.self_share"]]
    assert sum(shares) == pytest.approx(1.0, abs=1e-9)
    assert m["strategies.decide.calls_per_trial"] == m["process.reveals_per_trial"]


def test_altered_record_fails_the_digest_check():
    w = TINY["short-build"]
    ref = reference_for(w)
    version = run.budget_builder.__version__
    batch = run.check_batch(w)
    assert run.reference_problems(w, batch, ref, version) == []

    altered = [list(row) for row in batch["rows"]]
    altered[0][4] += 1  # edges_bought of the first check trial
    bad = dict(batch, digest=run.digest(altered))
    assert run.reference_problems(w, bad, ref, version)


def test_digest_mismatch_makes_the_run_incorrect():
    w = TINY["long-stream"]
    ref = reference_for(w)
    ref[run.budget_builder.__version__][w.name]["digest"] = "0" * 64
    res = run.run_end_to_end(w, seed=1, seconds=0, min_units=2, reference=ref)
    assert not res["correct"]
    assert res["failed"] == w.check_trials


def test_other_version_falls_back_to_wilson_intervals():
    w = TINY["short-build"]
    batch = {"digest": "x", "cells": {"k4m": [15, 16], "tk": [0, 16]}}
    close = {"0.0.1": {w.name: {"digest": "y", "cells": {"k4m": [16, 16], "tk": [1, 16]}}}}
    far = {"0.0.1": {w.name: {"digest": "y", "cells": {"k4m": [16, 16], "tk": [16, 16]}}}}
    assert run.reference_problems(w, batch, close, "9.9.9") == []
    assert run.reference_problems(w, batch, far, "9.9.9")


def test_dormant_reveals_from_observed_buys():
    cfg = ProcessConfig(n=40, t=30, b=5, seed=0)
    spec = select_strategy(DIAMOND, 40, 30, 5)  # short regime: phases of 10
    assert spec.kind is StrategyKind.DIAMOND_SHORT
    spec = replace(spec, params=replace(spec.params, phase_budgets=(2, 2, 5)))
    # Phase 1 cap reached at clock 4: reveals 5..10 dormant (6). Phase 2: one
    # buy, never capped. Phase 3: budget 5 spent at clock 22: 23..30 (8).
    buys = [2, 4, 15, 21, 22]
    assert layers.dormant_reveals(spec, cfg, buys, 30) == 6 + 8
    # Early stop at clock 12: only reveals up to 12 count.
    assert layers.dormant_reveals(spec, cfg, [2, 4, 11], 12) == 6
    greedy = StrategySpec(StrategyKind.DEGREE_GREEDY)
    assert layers.dormant_reveals(greedy, cfg, [1, 2, 3, 4, 5], 30) == 25


def test_without_package_source_the_benchmark_fails_quietly(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "long-stream",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_probe_cells_match_the_cli_sizes():
    cells = run.WORKLOADS["probe-dg"].cells
    assert [(c.n, c.t, c.b) for c in cells] == [
        (n, round(n ** 1.3), round(n ** 1.1)) for n in (200, 400, 800)]
    assert all(c.target == Pattern("probe") for c in cells)
