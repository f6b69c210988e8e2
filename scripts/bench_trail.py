"""Render the benchmark trail, results/TRAIL.md, from the committed runs.

Each change's before-and-after runs live under `results/<change>/`, one
`bench/run.py --out` JSON file per run, named for its side (`parent` or
`change`) and its pairing key (the seed, sometimes with a workload name).
A row of the trail is one directory of runs, or, where one directory
mixes workloads (the traced runs), one workload in it. For each side the
row gives the medians of `trials_per_s`, `trial_ms_p50`, `trial_ms_p95`
and `peak_rss_mb`, each RSS beside the median `timed_trials` it was read
at, since RSS grows with the trials kept; then the pairs in which the
change ran more trials per second, of the pairs with both sides; then
`nproc`, `version` and `src_lines` as the files record them. Traced runs
hold no end-to-end figures, so their cells read "-".

Rows go in name order, so any checkout renders the same file. Uses the
standard library only.

    python scripts/bench_trail.py    # rewrites results/TRAIL.md
"""

from __future__ import annotations

import json
import re
import statistics
from collections import defaultdict
from pathlib import Path

RESULTS = Path(__file__).resolve().parents[1] / "results"
WORKLOADS = ("long-stream", "short-build", "sweep-c7", "probe-dg")
_SIDE = re.compile(r"(?:^|-)(parent|change)(?:-|$)")
_WORKLOAD = re.compile(r"(?:^|-)(" + "|".join(WORKLOADS) + r")(?:-|$)")


def runs(results: Path = RESULTS) -> dict:
    """{row: {side: {key: run}}} of every JSON file under `results`: the
    row is the file's directory relative to `results`, joined with the
    workload its name carries, if any; the key is its name less the side."""
    rows = defaultdict(lambda: {"parent": {}, "change": {}})
    for path in sorted(results.rglob("*.json")):
        name = path.stem
        side = _SIDE.search(name)
        if side is None:
            raise ValueError(f"{path}: no parent or change in the file name")
        workload = _WORKLOAD.search(name)
        row = path.parent.relative_to(results).as_posix()
        if workload:
            row += "/" + workload.group(1)
        key = name[:side.start()] + name[side.end():]
        rows[row][side.group(1)][key] = json.loads(path.read_text(encoding="utf-8"))
    return dict(rows)


def _value(run: dict, metric: str):
    entry = run["metrics"].get(metric)
    return None if entry is None else entry["value"]


def _median(values, fmt: str) -> str:
    values = [v for v in values if v is not None]
    return format(statistics.median(values), fmt) if values else "-"


def _facts(side: dict, fact: str) -> str:
    return ", ".join(sorted({str(run["facts"][fact]) for run in side.values()})) or "-"


def _cells(side: dict) -> list[str]:
    """The medians of one side of a row."""
    got = list(side.values())
    rss = _median((_value(r, "peak_rss_mb") for r in got), ".1f")
    trials = _median((r.get("timed_trials") for r in got), ",.0f")
    return [_median((_value(r, "trials_per_s") for r in got), ",.1f"),
            _median((_value(r, "trial_ms_p50") for r in got), ".4f"),
            _median((_value(r, "trial_ms_p95") for r in got), ".4f"),
            rss if rss == "-" else f"{rss} @ {trials}"]


def render(results: Path = RESULTS) -> str:
    lines = [
        "# Benchmark trail",
        "",
        "Generated by `python scripts/bench_trail.py` from the `bench/run.py --out`",
        "files under `results/`; do not edit by hand. One row per directory of",
        "runs (per workload where a directory mixes them), in name order. Each",
        "cell is parent / change: the median over that side's runs. RSS, in MiB,",
        "stands beside the median number of timed trials it was read at.",
        "\"won\" counts the pairs (same key on both sides) in which the change ran",
        "more trials per second. Traced runs hold no end-to-end figures (\"-\").",
        "",
        "| runs | n (parent / change) | trials/s | p50 ms | p95 ms | peak RSS MiB @ timed trials"
        " | won / pairs | nproc | version | src_lines |",
        "| --- | --- | --- | --- | --- | --- | --- | --- | --- | --- |",
    ]
    for row, sides in sorted(runs(results).items()):
        parent, change = sides["parent"], sides["change"]
        pairs = [(parent[k], change[k]) for k in sorted(parent.keys() & change.keys())]
        timed = [(_value(p, "trials_per_s"), _value(c, "trials_per_s")) for p, c in pairs]
        timed = [(p, c) for p, c in timed if p is not None and c is not None]
        won = f"{sum(c > p for p, c in timed)} / {len(timed)}" if timed else "-"
        cells = [f"{a} / {b}" for a, b in zip(_cells(parent), _cells(change))]
        facts = [f"{_facts(parent, f)} / {_facts(change, f)}"
                 for f in ("nproc", "version", "src_lines")]
        lines.append(f"| {row} | {len(parent)} / {len(change)} | " + " | ".join(cells)
                     + f" | {won} | " + " | ".join(facts) + " |")
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    (RESULTS / "TRAIL.md").write_text(render(), encoding="utf-8")
