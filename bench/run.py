"""Trial-throughput benchmark for budget_builder.

    python3 bench/run.py --workload long-stream --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 15 [--out BENCH_x.json]

One workload per call prints machine facts, then as its last line one JSON
object `{"correct", "attempted", "failed", "metrics"}`: the end-to-end
metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
`--workload all` runs every workload both ways in child processes and
prints every metric with its unit. bench/README.md says how to read them.

The package is imported from `src/` next to this directory and driven
through its public entry points only; nothing under `src/` is changed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pickle
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, replace
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
if not (SRC / "budget_builder" / "__init__.py").is_file():
    raise SystemExit(f"bench: package source not found under {SRC}")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import budget_builder  # noqa: E402
from budget_builder import experiments, rng  # noqa: E402
from budget_builder.detect import DIAMOND, Pattern, fan  # noqa: E402
from budget_builder.experiments import grid_values  # noqa: E402
from budget_builder.process import ProcessConfig  # noqa: E402
from budget_builder.strategies import select_strategy  # noqa: E402

from layers import Tracer, instrument, layer_metrics  # noqa: E402

REFERENCE_FILE = BENCH_DIR / "reference.json"
REFERENCE_SEED = 7  # the check batches' seed; the README's example seed
MIN_TIMED_TRIALS = 200  # leaves >= 10 samples beyond p95
SETUP_REPEATS = 9
SETUP_REF_NOMINAL_S = 0.12  # `python -c "import numpy"` at full speed, same host
CLI_REPEATS = 3
JOBS = 2  # sweep-c7 pool size, fixed so the work does not depend on the host
PROBE_ADVERSARY = "degree-greedy"
CAL_ITERS = 1500
CAL_NOMINAL_NS = 1_300_000  # calibrate() at full speed on the 2-core reference host
CAL_EVERY_NS = 40_000_000  # calibrate again after this much timed work


@dataclass(frozen=True)
class Cell:
    label: str
    target: Pattern
    n: int
    t: int
    b: int
    x: float = 0.0  # sweep cells only: the grid exponents behind t and b
    y: float = 0.0


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "trials", "sweep" or "probe"
    cells: tuple
    trials_per_cell: int = 1  # sweep-c7: trials per cell of its pooled and traced sweeps
    check_trials: int = 1


def sweep_cells(target: Pattern, n: int, xs, ys) -> tuple:
    """The cells `sweep_grid` visits, with t and b derived as it does."""
    n_pairs = n * (n - 1) // 2
    return tuple(
        Cell(f"x={x:.2f},y={y:.2f}", target, n,
             min(max(int(round(n ** x)), 1), n_pairs), int(round(n ** y)), x, y)
        for x in xs
        for y in ys
    )


def probe_cells(n_list, t_exp: float, b_exp: float) -> tuple:
    cells = []
    for n in n_list:
        t = min(max(int(round(n ** t_exp)), 1), n * (n - 1) // 2)
        cells.append(Cell(f"n={n}", Pattern("probe"), n, t, int(round(n ** b_exp))))
    return tuple(cells)


# Why each workload exists: BENCHMARK.json and bench/README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "long-stream", "trials",
            (Cell("c5-long", DIAMOND, 400, 20000, 80),),
            check_trials=8,
        ),
        Workload(
            "short-build", "trials",
            (Cell("c4-k4m-short", DIAMOND, 400, 2000, 2560),
             Cell("c6-tk-short", fan(2), 400, 2000, 1638)),
            check_trials=16,
        ),
        Workload(
            "sweep-c7", "sweep",
            sweep_cells(DIAMOND, 800, grid_values(1.25, 1.35, 0.05),
                        grid_values(0.4, 1.4, 0.1)),
            trials_per_cell=10,
            check_trials=2,
        ),
        Workload(
            "probe-dg", "probe",
            probe_cells((200, 400, 800), 1.3, 1.1),
            check_trials=1,
        ),
    )
}


# -- output checks ------------------------------------------------------------

def record_problems(rec, cell: Cell) -> list[str]:
    """Invariants every trial record must satisfy."""
    out = []
    if rec.edges_bought > cell.b:
        out.append(f"edges_bought {rec.edges_bought} > b {cell.b}")
    if rec.hit_time is not None and not 1 <= rec.hit_time <= cell.t:
        out.append(f"hit_time {rec.hit_time} outside [1, {cell.t}]")
    if rec.clock_at_stop > cell.t:
        out.append(f"clock_at_stop {rec.clock_at_stop} > t {cell.t}")
    if rec.success != (rec.hit_time is not None):
        out.append("success flag disagrees with hit_time")
    return out


def probe_problems(rec, cell: Cell) -> list[str]:
    out = []
    if (rec.n, rec.t, rec.b) != (cell.n, cell.t, cell.b):
        out.append(f"probe ran (n, t, b) = {(rec.n, rec.t, rec.b)}")
    if min(rec.triangles, rec.c4, rec.paw, rec.p4) < 0:
        out.append("negative pattern count")
    if not cell.n >= rec.fan1_centers >= rec.fan2_centers >= rec.fan3_centers >= 0:
        out.append("fan-center counts not nested")
    return out


def digest(rows) -> str:
    return hashlib.sha256(json.dumps(rows, separators=(",", ":")).encode()).hexdigest()


def load_reference() -> dict:
    with open(REFERENCE_FILE, encoding="utf-8") as fh:
        return json.load(fh)


def _version_key(version: str) -> tuple:
    return tuple(int(part) if part.isdigit() else 0 for part in version.split("."))


def reference_problems(w: Workload, batch: dict, reference: dict, version: str) -> list[str]:
    """Compare a check batch with the stored reference.

    At the reference's own `__version__` the digest must match exactly. For
    another version (a deliberate stream change) each cell's Wilson interval
    must overlap the reference cell's; probes carry no success rate, so only
    their invariants are checked then.
    """
    entry = reference.get(version, {}).get(w.name)
    if entry is not None:
        if entry["digest"] != batch["digest"]:
            return [f"{w.name}: check digest {batch['digest'][:12]} != "
                    f"reference {entry['digest'][:12]} at v{version}"]
        return []
    recorded = [v for v in reference if w.name in reference[v]]
    if not recorded:
        return [f"{w.name}: no reference entry for any version"]
    latest = reference[max(recorded, key=_version_key)][w.name]
    problems = []
    for label, (succ, trials) in latest["cells"].items():
        if label not in batch["cells"]:
            problems.append(f"{w.name}: cell {label} missing from check batch")
            continue
        lo_ref, hi_ref = experiments.wilson_interval(succ, trials)
        lo, hi = experiments.wilson_interval(*batch["cells"][label])
        if hi < lo_ref or lo > hi_ref:
            problems.append(
                f"{w.name}: cell {label} success {batch['cells'][label]} outside "
                f"reference interval [{lo_ref:.3f}, {hi_ref:.3f}]"
            )
    return problems


def check_batch(w: Workload) -> dict:
    """Fixed work at REFERENCE_SEED whose records are digested."""
    rows, cells, problems = [], {}, []
    if w.kind == "trials":
        for cell in w.cells:
            spec = select_strategy(cell.target, cell.n, cell.t, cell.b)
            base = ProcessConfig(cell.n, cell.t, cell.b, REFERENCE_SEED)
            recs = experiments.run_trial_batch(cell.target, base, spec, w.check_trials)
            for r in recs:
                problems += record_problems(r, cell)
                rows.append([cell.label, r.seed, r.success, r.hit_time,
                             r.edges_bought, r.clock_at_stop])
            cells[cell.label] = [sum(r.success for r in recs), len(recs)]
    elif w.kind == "sweep":
        points = _sweep(w, w.check_trials, REFERENCE_SEED, JOBS)
        for cell, p in zip(w.cells, points):
            problems += _point_problems(p, cell, w.check_trials)
            rows.append([cell.label, p.t, p.b, p.estimate.successes, p.estimate.trials])
            cells[cell.label] = [p.estimate.successes, p.estimate.trials]
    else:
        for cell in w.cells:
            for rec in experiments.probe_counts(cell.n, cell.t, cell.b, PROBE_ADVERSARY,
                                                w.check_trials, REFERENCE_SEED):
                problems += probe_problems(rec, cell)
                rows.append([cell.label, rec.triangles, rec.c4, rec.paw, rec.p4,
                             rec.fan1_centers, rec.fan2_centers, rec.fan3_centers])
    return {"digest": digest(rows), "cells": cells, "rows": rows, "problems": problems}


def run_check_batch(w: Workload, reference=None) -> tuple[int, int, list[str]]:
    """The check batch against `reference` (default: reference.json):
    (trials attempted, trials failed, problems). A miss fails every trial."""
    reference = load_reference() if reference is None else reference
    batch = check_batch(w)
    problems = batch["problems"] + reference_problems(
        w, batch, reference, budget_builder.__version__)
    attempted = len(batch["rows"])
    return attempted, attempted if problems else 0, problems


def _point_problems(p, cell: Cell, trials: int) -> list[str]:
    e = p.estimate
    if (p.t, p.b, e.trials) != (cell.t, cell.b, trials) or not 0 <= e.successes <= trials:
        return [f"sweep cell {cell.label}: (t, b, trials, successes) = "
                f"{(p.t, p.b, e.trials, e.successes)}"]
    return []


# -- timing at nominal machine speed --------------------------------------------

_CAL_EDGES = np.arange(0, 80000, 200, dtype=np.int64)


def _calibration_loop() -> int:
    """Fixed work in the mix a trial does: integer arithmetic, set and tuple
    churn in the interpreter, then small numpy draws, a search and a
    conversion back to Python objects. It calls nothing in the package."""
    seen, out, x = set(), [], 12345
    for _ in range(CAL_ITERS):
        x = (x * 1103515245 + 12345) & 0xFFFFFFFF
        k = x % 200003
        if k not in seen:
            seen.add(k)
            out.append((k >> 3, k & 7))
    draws = np.random.Generator(np.random.Philox(x)).integers(0, 80000, size=4000)
    rows = np.searchsorted(_CAL_EDGES, draws, side="right") - 1
    return len(out) + len(list(zip(rows.tolist(), (draws - _CAL_EDGES[rows]).tolist())))


def calibrate() -> int:
    """ns for `_calibration_loop`; the faster of two runs, so that one
    interrupt does not count."""
    best = None
    for _ in range(2):
        t0 = time.perf_counter_ns()
        _calibration_loop()
        dur = time.perf_counter_ns() - t0
        best = dur if best is None else min(best, dur)
    return best


class SpeedClock:
    """Rescales measured wall times to the host's nominal speed.

    On a shared host the same work runs up to ~1.6x slower for seconds at a
    time while other tenants load the cores, so raw wall times spread by
    20-40% between identical runs. A calibration loop that does not touch
    the package is timed between units of work; each unit's time is divided
    by the mean of the speed factors (calibration / CAL_NOMINAL_NS) measured
    just before and just after it. The loop cannot get faster or slower
    with a change to the package, so a change still shows in full.
    """

    def __init__(self, every_ns: int = CAL_EVERY_NS):
        self.every_ns = every_ns
        self.raw: list[int] = []
        self.scaled: list[float] = []
        self.factors: list[float] = []
        self._pending: list[int] = []
        self._since = 0
        self._last = calibrate()

    def add(self, raw_ns: int) -> None:
        self._pending.append(raw_ns)
        self._since += raw_ns
        if self._since >= self.every_ns:
            self.flush()

    def flush(self) -> None:
        if not self._pending:
            return
        now = calibrate()
        factor = (self._last + now) / 2 / CAL_NOMINAL_NS
        self.factors.append(factor)
        self.raw += self._pending
        self.scaled += [t / factor for t in self._pending]
        self._pending, self._since, self._last = [], 0, now


# -- units of work ------------------------------------------------------------

def _sweep(w: Workload, trials: int, master_seed: int, jobs: int, cells=None):
    cells = w.cells if cells is None else cells
    xs = sorted({c.x for c in cells})
    ys = sorted({c.y for c in cells})
    return experiments.sweep_grid(cells[0].target, [cells[0].n], xs, ys, trials,
                                  master_seed, jobs=jobs)


def trial_unit(w: Workload, seed: int):
    """Unit i of a trials workload: cell i % k, trial i // k of that cell,
    seeded `derive_seed(seed, i // k)` exactly as `run_trial_batch` seeds."""
    specs = [select_strategy(c.target, c.n, c.t, c.b) for c in w.cells]
    bases = [ProcessConfig(c.n, c.t, c.b, seed) for c in w.cells]
    k = len(w.cells)

    def unit(i: int):
        c = i % k
        cfg = replace(bases[c], seed=rng.derive_seed(seed, i // k))
        return experiments.run_one_trial(w.cells[c].target, cfg, specs[c])

    return unit


def probe_unit(w: Workload, seed: int):
    """Unit i of the probe workload: one single-trial probe batch at n-cell i % k."""
    k = len(w.cells)

    def unit(i: int):
        cell = w.cells[i % k]
        master = rng.derive_seed(seed, i // k)
        return experiments.probe_counts(cell.n, cell.t, cell.b, PROBE_ADVERSARY, 1,
                                        master)[0]

    return unit


def run_units(unit, cells, problems_of, seconds: float, min_units: int,
              speed: SpeedClock | None = None):
    """Run units 0, 1, ... until `seconds` passed and `min_units` ran, always
    finishing a whole round over the cells. Returns records (None where a
    unit raised), per-unit raw ns, failures and wall seconds. With `speed`,
    each unit's time also goes to that clock."""
    k = len(cells)
    records, times, failed = [], [], 0
    start = time.perf_counter()
    i = 0
    while True:
        t0 = time.perf_counter_ns()
        try:
            rec = unit(i)
        except Exception:  # counted as a failed trial, like a failed check
            traceback.print_exc(file=sys.stderr)
            rec = None
        dur = time.perf_counter_ns() - t0
        times.append(dur)
        if speed is not None:
            speed.add(dur)
        if rec is None or problems_of(rec, cells[i % k]):
            failed += 1
        records.append(rec)
        i += 1
        if i % k == 0 and i >= min_units and time.perf_counter() - start >= seconds:
            break
    if speed is not None:
        speed.flush()
    return records, times, failed, time.perf_counter() - start


def _problems_for(w: Workload):
    return probe_problems if w.kind == "probe" else record_problems


def _unit_for(w: Workload, seed: int):
    return {"trials": trial_unit, "sweep": sweep_unit, "probe": probe_unit}[w.kind](w, seed)


def sweep_unit(w: Workload, seed: int):
    """Unit i of the sweep workload: trial i // k of cell i % k, seeded as
    `sweep_grid(..., master_seed=seed)` seeds it, run through `run_one_trial`.
    Rounds of one trial per cell keep every cell equally represented."""
    k = len(w.cells)
    specs = [select_strategy(c.target, c.n, c.t, c.b) for c in w.cells]
    cell_seeds = [rng.derive_seed(seed, c.n, c.x, c.y) for c in w.cells]

    def unit(i: int):
        c = i % k
        cell = w.cells[c]
        cfg = ProcessConfig(cell.n, cell.t, cell.b, rng.derive_seed(cell_seeds[c], i // k))
        return experiments.run_one_trial(cell.target, cfg, specs[c])

    return unit


def pooled_mismatches(w: Workload, seed: int, records) -> tuple[list[str], float]:
    """Run the grid through `sweep_grid` on the pool and compare each cell's
    successes with the serially run trials of the same seeds. Returns the
    cells that differ and the pool's wall seconds."""
    k = len(w.cells)
    trials = min(len(records) // k, w.trials_per_cell)
    t0 = time.perf_counter()
    points = _sweep(w, trials, seed, JOBS)
    wall = time.perf_counter() - t0
    bad = []
    for c, (cell, p) in enumerate(zip(w.cells, points)):
        serial = [records[c + i * k] for i in range(trials)]
        if None in serial or _point_problems(p, cell, trials) or (
                sum(r.success for r in serial) != p.estimate.successes):
            bad.append(cell.label)
    return bad, wall


# -- end-to-end run -----------------------------------------------------------

def percentile_ms(times_ns, q: int) -> float:
    """q-th percentile (1..99) of the per-trial times, in ms."""
    return statistics.quantiles(times_ns, n=100)[q - 1] / 1e6


def _children_cpu_s() -> float:
    """CPU seconds of all reaped child processes (pool workers, once joined)."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def peak_rss_mb(children: int) -> float:
    """Peak RSS of this process plus `children` times the largest reaped
    child's peak (pool workers; shared copy-on-write pages count twice)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss if children else 0
    return (own + children * child) / 1024.0


_SETUP_SCRIPT = """
import sys
sys.path.insert(0, sys.argv[1])
from budget_builder import ProcessConfig, build_strategy, new_process, select_strategy
from budget_builder.detect import Pattern
from budget_builder.strategies import StrategyKind, StrategySpec
tag, k, n, t, b, jobs = sys.argv[2], *map(int, sys.argv[3:8])
cfg = ProcessConfig(n, t, b, 0)
if tag == "probe":
    spec = StrategySpec(StrategyKind.DEGREE_GREEDY)
else:
    spec = select_strategy(Pattern(tag, k), n, t, b)
build_strategy(spec, cfg)
new_process(cfg)
if jobs > 1:
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        pool.submit(abs, -1).result()
"""


def _subprocess_s(argv) -> float:
    t0 = time.perf_counter()
    subprocess.run(argv, cwd=ROOT, check=True, stdin=subprocess.DEVNULL)
    return time.perf_counter() - t0


def setup_seconds(w: Workload) -> tuple[float, float]:
    """Median time of fresh interpreters that import the package, build the
    first strategy and process (and start the pool, for sweeps): at nominal
    speed and raw.

    Start-up is import and page-fault work, which the calibration loop does
    not track, so each start is scaled by the mean of two adjacent starts of
    `python -c "import numpy"` instead (SETUP_REF_NOMINAL_S at full speed).
    That reference runs no package code. One unmeasured start of each first
    lets the bytecode cache fill."""
    cell = w.cells[0]
    jobs = JOBS if w.kind == "sweep" else 1
    argv = [sys.executable, "-c", _SETUP_SCRIPT, str(SRC), cell.target.tag,
            str(cell.target.k), str(cell.n), str(cell.t), str(cell.b), str(jobs)]
    ref_argv = [sys.executable, "-c", "import numpy"]
    _subprocess_s(argv)
    ref_before = _subprocess_s(ref_argv)
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        setup = _subprocess_s(argv)
        ref_after = _subprocess_s(ref_argv)
        raw.append(setup)
        scaled.append(setup / ((ref_before + ref_after) / 2) * SETUP_REF_NOMINAL_S)
        ref_before = ref_after
    return statistics.median(scaled), statistics.median(raw)


def run_end_to_end(w: Workload, seed: int, seconds: float,
                   min_units: int = MIN_TIMED_TRIALS, reference=None) -> dict:
    """Untraced run: the end-to-end metrics, every time at nominal speed."""
    attempted, failed, problems = run_check_batch(w, reference)

    speed = SpeedClock()
    records, _, failed_units, _ = run_units(
        _unit_for(w, seed), w.cells, _problems_for(w), seconds, min_units, speed)
    attempted += len(records)
    failed += failed_units
    extra = {}
    if w.kind == "sweep":
        bad, pool_wall = pooled_mismatches(w, seed, records)
        problems += [f"sweep cell {label}: pooled and serial successes differ"
                     for label in bad]
        pooled = min(len(records) // len(w.cells), w.trials_per_cell) * len(w.cells)
        attempted += pooled
        failed += len(bad) * (pooled // len(w.cells))
        extra["pool_raw_trials_per_s"] = pooled / pool_wall

    # Only pool workers have ended so far, so the children's peak is theirs.
    rss = peak_rss_mb(JOBS if w.kind == "sweep" else 0)
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    setup_s, raw_setup_s = setup_seconds(w)
    metrics = {
        "trials_per_s": len(records) / sum(speed.scaled) * 1e9,
        "trial_ms_p50": statistics.median(speed.scaled) / 1e6,
        "trial_ms_p95": percentile_ms(speed.scaled, 95),
        "setup_s": setup_s,
        "peak_rss_mb": rss,
    }
    raw = {
        "trials_per_s": len(records) / sum(speed.raw) * 1e9,
        "trial_ms_p50": statistics.median(speed.raw) / 1e6,
        "trial_ms_p95": percentile_ms(speed.raw, 95),
        "setup_s": raw_setup_s,
    }
    return _result(attempted, failed, problems, metrics, {
        "failed_share": failed / attempted,
        "timed_trials": len(speed.raw),
        "raw_wall": raw,
        "speed_factor_min_median_max": [min(speed.factors), statistics.median(speed.factors),
                                        max(speed.factors)],
        **extra,
    }, trace=False)


def declared_metrics(trace: bool) -> dict[str, str]:
    """Name -> unit of the metrics BENCHMARK.json declares for this mode."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _result(attempted, failed, problems, metrics, extra, trace: bool) -> dict:
    units = declared_metrics(trace)
    if set(metrics) != set(units):
        raise KeyError(f"measured {sorted(metrics)}, declared {sorted(units)}")
    return {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        "extra": extra,
    }


# -- traced run ---------------------------------------------------------------

class RecordMismatch(AssertionError):
    """A traced pass produced records other than the untraced pass."""


def _same_records(traced, untraced, what: str) -> None:
    if len(traced) != len(untraced) or any(
        pickle.dumps(a) != pickle.dumps(b) for a, b in zip(traced, untraced)
    ):
        raise RecordMismatch(f"{what}: traced records differ from untraced records")


def cli_seconds(w: Workload, seed: int) -> float:
    """Median wall time of a `budget-builder` subprocess doing one trial."""
    cell = w.cells[0]
    if w.kind == "probe":
        verb = ["probe", "--n-list", str(cell.n), "--t-exp", "1.3", "--b-exp", "1.1",
                "--jobs", "1"]
    else:
        verb = ["run", "--target", "k4m" if cell.target.tag == "diamond" else "tk",
                "--n", str(cell.n), "--t", str(cell.t), "--b", str(cell.b)]
        if cell.target.tag == "fan":
            verb += ["--k", str(cell.target.k)]
    argv = [sys.executable, "-m", "budget_builder.cli", *verb, "--trials", "1",
            "--seed", str(seed)]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(CLI_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(argv, cwd=ROOT, env=env, check=True, stdin=subprocess.DEVNULL,
                       stdout=subprocess.DEVNULL)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def csv_us_per_row(w: Workload, records) -> float:
    """Cost of the package's CSV writer for this workload's records."""
    writer = {
        "trials": lambda path: experiments.write_trials_csv(path, records, 0),
        "probe": lambda path: experiments.write_probe_csv(path, records, 0),
        "sweep": lambda path: experiments.write_sweep_csv(path, w.cells[0].target,
                                                          records, 0),
    }[w.kind]
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench_tmp") as tmp:
        rows, t0 = 0, time.perf_counter()
        while rows < 2000:
            writer(os.path.join(tmp, f"out{rows}.csv"))
            rows += len(records)
        return (time.perf_counter() - t0) / rows * 1e6


def run_traced(w: Workload, seed: int, seconds: float, min_units: int = 0,
               reference=None) -> dict:
    """Traced pass, then the same work untraced; records must be equal."""
    attempted, failed, problems = run_check_batch(w, reference)
    tracer = Tracer()

    if w.kind == "sweep":
        traced_points, traced_records = [], []
        t0 = time.perf_counter()
        with instrument(tracer):
            spanned = experiments.run_one_trial

            def capture(*args, **kwargs):
                rec = spanned(*args, **kwargs)
                traced_records.append(rec)
                return rec

            experiments.run_one_trial = capture
            try:
                for cell in w.cells:
                    with tracer.span("cell"):
                        traced_points += _sweep(w, w.trials_per_cell, seed, 1, (cell,))
            finally:
                experiments.run_one_trial = spanned
        traced_wall = time.perf_counter() - t0
        cell_s, serial_points = [], []
        for cell in w.cells:
            t0 = time.perf_counter()
            serial_points += _sweep(w, w.trials_per_cell, seed, 1, (cell,))
            cell_s.append(time.perf_counter() - t0)
        untraced_wall = sum(cell_s)
        cpu0, t0 = _children_cpu_s(), time.perf_counter()
        pooled_points = _sweep(w, w.trials_per_cell, seed, JOBS)
        pool_wall = time.perf_counter() - t0
        pool_cpu = _children_cpu_s() - cpu0
        _same_records(traced_points, serial_points, "sweep-c7 single cells")
        _same_records(traced_points, pooled_points, "sweep-c7 pooled grid")
        for i, rec in enumerate(traced_records):
            if record_problems(rec, w.cells[i // w.trials_per_cell]):
                failed += 1
        units = len(traced_records)
        attempted += 3 * units
        records = pooled_points
        sweep_metrics = {
            "experiments.cell_s_p50": statistics.median(cell_s),
            "experiments.cell_s_max": max(cell_s),
            "experiments.pool_busy_share": pool_cpu / (JOBS * pool_wall),
        }
    else:
        unit = _unit_for(w, seed)
        problems_of = _problems_for(w)
        with instrument(tracer):
            traced, _, traced_failed, traced_wall = run_units(
                unit, w.cells, problems_of, seconds / 2, min_units)
        units = len(traced)
        untraced, _, untraced_failed, untraced_wall = run_units(
            unit, w.cells, problems_of, 0.0, units)
        _same_records(traced, untraced, w.name)
        attempted += 2 * units
        failed += traced_failed + untraced_failed
        records = untraced
        sweep_metrics = dict.fromkeys(
            ("experiments.cell_s_p50", "experiments.cell_s_max",
             "experiments.pool_busy_share"), 0.0)

    metrics = {**layer_metrics(tracer), **sweep_metrics}
    metrics["experiments.csv_us_per_row"] = csv_us_per_row(w, records)
    metrics["cli.startup_s"] = cli_seconds(w, seed)
    metrics["trace.traced_trials_per_s"] = units / traced_wall
    metrics["trace.untraced_trials_per_s"] = units / untraced_wall
    metrics["trace.overhead_share"] = traced_wall / untraced_wall - 1.0
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    extra = {"not_applicable": sorted(NOT_APPLICABLE[w.name]), "traced_trials": units}
    return _result(attempted, failed, problems, metrics, extra, trace=True)


# Per-layer metrics a workload does not exercise; they read 0.
NOT_APPLICABLE = {
    "long-stream": {"detect.track_fan.ns_per_call", "detect.count.ms_per_graph",
                    "detect.fan_centers.ms_per_graph", "experiments.probe.self_share",
                    "experiments.cell_s_p50", "experiments.cell_s_max",
                    "experiments.pool_busy_share"},
    "short-build": {"detect.count.ms_per_graph", "detect.fan_centers.ms_per_graph",
                    "experiments.probe.self_share", "experiments.cell_s_p50",
                    "experiments.cell_s_max", "experiments.pool_busy_share"},
    "sweep-c7": {"detect.track_fan.ns_per_call", "detect.count.ms_per_graph",
                 "detect.fan_centers.ms_per_graph", "experiments.probe.self_share"},
    "probe-dg": {"detect.track_diamond.ns_per_call", "detect.track_fan.ns_per_call",
                 "detect.confirm.us_per_trial", "experiments.cell_s_p50",
                 "experiments.cell_s_max", "experiments.pool_busy_share"},
}


# -- machine facts and entry point --------------------------------------------

def _loadavg() -> str:
    try:
        with open("/proc/loadavg", encoding="ascii") as fh:
            return fh.read().strip()
    except OSError:
        return "unavailable"


def _git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                         capture_output=True, text=True, check=False)
    return out.stdout.strip() or "unknown"


def machine_facts() -> dict:
    lines = {}
    for path in sorted((SRC / "budget_builder").glob("*.py")):
        with open(path, encoding="utf-8") as fh:
            lines[path.name] = sum(1 for _ in fh)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": _git_sha(),
        "version": budget_builder.__version__,
        "src_lines": sum(lines.values()),
        "src_lines_by_file": lines,
    }


def run_all(seed: int, seconds: int, out) -> int:
    """Every workload, untraced and traced, each in its own interpreter."""
    facts = machine_facts()
    facts["loadavg_start"] = _loadavg()
    results, ok, attempted, failed, flat = {}, True, 0, 0, {}
    for name in WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                    "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                                  stdin=subprocess.DEVNULL)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                print(f"{name} --trace {trace}: exit {proc.returncode}", file=sys.stderr)
                return 1
            lines = proc.stdout.strip().splitlines()
            res = json.loads(lines[-1])
            results[f"{name}/trace{trace}"] = {**res, "details": json.loads(lines[0])}
            ok &= res["correct"]
            attempted += res["attempted"]
            failed += res["failed"]
            print(f"\n{name} (trace {trace}): correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']}")
            for key, m in res["metrics"].items():
                print(f"  {key:40s} {m['value']:14.6g} {m['unit']}")
                flat[f"{name}/{key}"] = m
    facts["loadavg_end"] = _loadavg()
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            json.dump({"facts": facts, "seed": seed, "seconds": seconds,
                       "results": results}, fh, indent=1, sort_keys=True)
            fh.write("\n")
    print(json.dumps({"facts": facts}))
    print(json.dumps({"correct": ok, "attempted": attempted, "failed": failed,
                      "metrics": flat}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="also write the results as JSON")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.out)
    facts = machine_facts()
    facts["loadavg_start"] = _loadavg()
    w = WORKLOADS[args.workload]
    if args.trace:
        res = run_traced(w, args.seed, args.seconds)
    else:
        res = run_end_to_end(w, args.seed, args.seconds)
    facts["loadavg_end"] = _loadavg()
    extra = res.pop("extra")
    print(json.dumps({"facts": facts, "workload": w.name, "seed": args.seed,
                      "trace": args.trace, **extra}))
    for key, m in res["metrics"].items():
        print(f"{key:40s} {m['value']:14.6g} {m['unit']}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"facts": facts, **extra, **res}, fh, indent=1, sort_keys=True)
            fh.write("\n")
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
