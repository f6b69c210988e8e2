"""The committed benchmark trail, results/TRAIL.md, and the runs it reads."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _trail():
    path = ROOT / "scripts" / "bench_trail.py"
    spec = importlib.util.spec_from_file_location("bench_trail", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_committed_trail_is_current():
    committed = (ROOT / "results" / "TRAIL.md").read_text(encoding="utf-8")
    assert _trail().render() == committed, "stale: run python scripts/bench_trail.py"


def test_every_committed_run_is_correct_and_records_nproc():
    rows = _trail().runs()
    files = [(row, key, run) for row, sides in rows.items()
             for side in sides.values() for key, run in side.items()]
    assert len(files) == len(list((ROOT / "results").rglob("*.json"))) > 0
    for row, key, run in files:
        assert run["correct"] is True and run["failed"] == 0, (row, key)
        assert isinstance(run["facts"]["nproc"], int), (row, key)
