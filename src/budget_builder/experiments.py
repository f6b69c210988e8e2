"""Monte Carlo harness: trial batches, phase-diagram sweeps, crossover
readout, and adversarial counting probes, with deterministic CSV output.

Seeding: every trial seed is derived from (master_seed, cell coordinates,
trial index) through a splittable counter construction, so any CSV row can
be re-executed in isolation and grid cells are reproducible independently
of execution order or worker count.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace
from typing import Optional, Sequence

from . import __version__
from .detect import (
    C4,
    P4,
    PAW,
    TRIANGLE,
    NullTracker,
    Pattern,
    count_pattern,
    detector_for,
    fan_center_counts,
)
from .errors import ConfigurationError, CrossoverNotEstimable
from .process import ProcessConfig, TrialRecord, run_strategy
from .rng import derive_seed
from .strategies import (
    StrategyKind,
    StrategySpec,
    _threshold_branches,
    build_strategy,
    select_strategy,
)

WILSON_Z = 1.96


@dataclass(frozen=True)
class SuccessEstimate:
    trials: int
    successes: int
    p_hat: float
    ci_low: float
    ci_high: float


@dataclass(frozen=True)
class PhasePoint:
    n: int
    x: float
    y: float
    t: int
    b: int
    estimate: SuccessEstimate
    y_star_pred: float


@dataclass(frozen=True, slots=True)
class ProbeRecord:
    n: int
    t: int
    b: int
    adversary: str
    triangles: int
    c4: int
    paw: int
    p4: int
    fan1_centers: int
    fan2_centers: int
    fan3_centers: int
    scale_triangle: float
    scale_c4: float


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """Wilson score interval at `WILSON_Z`; honest for estimates near 0 or 1."""
    if trials <= 0:
        raise ConfigurationError("wilson_interval needs trials >= 1")
    p, z = successes / trials, WILSON_Z
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (p + z2 / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z2 / (4 * trials * trials)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def estimate_from_counts(successes: int, trials: int) -> SuccessEstimate:
    lo, hi = wilson_interval(successes, trials)
    return SuccessEstimate(trials, successes, successes / trials, lo, hi)


def predicted_budget_threshold(target: Pattern, n: int, t: int | float) -> float:
    """The budget threshold b*(n, t) for the target, both regime branches."""
    if t < 1:
        raise ConfigurationError(f"need t >= 1, got {t}")
    ln_n, ln_t = math.log(n), math.log(t)
    return max(math.exp(a * ln_n - c * ln_t) for a, c in _threshold_branches(target))


def predicted_log_threshold(target: Pattern, x: float) -> float:
    """log_n b* as a function of x = log_n t (the phase-diagram curve)."""
    return float(max(a - c * x for a, c in _threshold_branches(target)))


def _target_label(target: Pattern) -> tuple[str, int]:
    """The CSV (target, k) of a build target, DIAMOND or fan(k)."""
    return ("k4m", 0) if target.tag == "diamond" else ("tk", target.k)


def run_one_trial(
    target: Pattern,
    config: ProcessConfig,
    spec: StrategySpec,
    *,
    early_stop: bool = True,
    keep_graph: bool = False,
) -> TrialRecord:
    """One trial of `spec` on `config`; a diamond or fan spec must watch its own target."""
    if spec.target not in (None, target):
        raise ConfigurationError(f"a {spec.name} spec builds {spec.target}, not {target}")
    label, k = _target_label(target)
    strategy = build_strategy(spec, config)
    detector = detector_for(target)
    return run_strategy(
        config,
        strategy,
        detector,
        target_label=label,
        target_k=k,
        early_stop=early_stop,
        keep_graph=keep_graph,
    )


def run_trial_batch(
    target: Pattern,
    base: ProcessConfig,
    spec: StrategySpec,
    trials: int,
    *,
    early_stop: bool = True,
    keep_graph: bool = False,
) -> list[TrialRecord]:
    """Independent trials with seeds derived as (master_seed, index)."""
    if trials < 1:
        raise ConfigurationError(f"need trials >= 1, got {trials}")
    return [
        run_one_trial(
            target, replace(base, seed=derive_seed(base.seed, i)), spec,
            early_stop=early_stop, keep_graph=keep_graph,
        )
        for i in range(trials)
    ]


def _map_jobs(fn, items: list, jobs: int) -> list:
    """[fn(item) for item in items], in order; on min(jobs, len(items))
    workers when both exceed 1, since a fork pool starts them all at once."""
    if jobs < 1:
        raise ConfigurationError(f"need jobs >= 1, got {jobs}")
    if jobs > 1 and len(items) > 1:
        from concurrent.futures import ProcessPoolExecutor  # only when a pool runs

        with ProcessPoolExecutor(max_workers=min(jobs, len(items))) as pool:
            return list(pool.map(fn, items))
    return [fn(item) for item in items]


# -- phase-diagram sweeps ----------------------------------------------------

X_RANGE = (1.0, 2.0)
Y_RANGE = (0.0, 1.5)
MAX_CELLS = 10_000  # the most values one grid axis, or cells one sweep, may hold


def cell_from_exponents(n: int, x: float, y: float) -> tuple[int, int]:
    """(t, b) for t = n^x and b = n^y, rounded, with t clamped to [1, C(n, 2)]."""
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ConfigurationError(f"exponents must be finite, got x={x}, y={y}")
    try:
        t_raw, b = round(math.pow(n, x)), round(math.pow(n, y))
    except (ValueError, OverflowError):
        raise ConfigurationError(f"n^x or n^y is not a finite real: n={n}, x={x}, y={y}")
    return min(max(t_raw, 1), n * (n - 1) // 2), b


def _sweep_cell(args) -> PhasePoint:
    (target, x, y, base, spec, trials, early_stop) = args
    records = run_trial_batch(target, base, spec, trials, early_stop=early_stop)
    return PhasePoint(
        n=base.n,
        x=x,
        y=y,
        t=base.t,
        b=base.b,
        estimate=estimate_from_counts(sum(r.success for r in records), trials),
        y_star_pred=predicted_log_threshold(target, x),
    )


def sweep_grid(
    target: Pattern,
    n_list: Sequence[int],
    x_grid: Sequence[float],
    y_grid: Sequence[float],
    trials: int,
    master_seed: int,
    *,
    jobs: int = 1,
    early_stop: bool = True,
    overrides: Optional[dict] = None,
) -> list[PhasePoint]:
    """Success-probability estimates over the (log_n t, log_n b) grid.

    Cells are embarrassingly parallel; output order is (n, x, y) regardless
    of worker count. Every cell's config is built and its strategy selected
    before any trial runs, so a bad cell or an override out of range for one
    n fails first.
    """
    if trials < 1:
        raise ConfigurationError(f"need trials >= 1, got {trials}")
    size = len(n_list) * len(x_grid) * len(y_grid)
    if size > MAX_CELLS:
        raise ConfigurationError(f"{size} cells exceed the {MAX_CELLS} a sweep may hold")
    for x in x_grid:
        if not X_RANGE[0] <= x <= X_RANGE[1]:
            raise ConfigurationError(f"x={x} outside {X_RANGE}")
    for y in y_grid:
        if not Y_RANGE[0] <= y <= Y_RANGE[1]:
            raise ConfigurationError(f"y={y} outside {Y_RANGE}")
    cells = []
    for n in n_list:
        for x in x_grid:
            for y in y_grid:
                t, b = cell_from_exponents(n, x, y)
                # Nested split (master, n, x, y) -> cell, (cell, i) -> trial:
                # a single-cell sweep is a trial batch from the cell seed.
                base = ProcessConfig(n, t, b, derive_seed(master_seed, n, x, y))
                spec = select_strategy(target, n, t, b, overrides)
                cells.append((target, x, y, base, spec, trials, early_stop))
    return _map_jobs(_sweep_cell, cells, jobs)


def grid_values(lo: float, hi: float, step: float) -> list[float]:
    """Inclusive arithmetic grid, robust to float stepping; it is counted,
    and refused above MAX_CELLS values, before it is built."""
    if not all(map(math.isfinite, (lo, hi, step))):
        raise ConfigurationError(f"grid needs finite bounds and step, got {lo}, {hi}, {step}")
    if step <= 0:
        raise ConfigurationError(f"grid step must be positive, got {step}")
    if hi < lo:
        raise ConfigurationError(f"grid bounds inverted: {lo} > {hi}")
    span = (hi - lo) / step + 1e-9
    if span >= MAX_CELLS:
        raise ConfigurationError(f"grid {lo}..{hi} by {step} has over {MAX_CELLS} values")
    return [lo + i * step for i in range(int(math.floor(span)) + 1)]


def _isotonic(p: list[float], w: list[float]) -> list[float]:
    """Pool-adjacent-violators for a nondecreasing fit."""
    vals = list(p)
    wts = list(w)
    sizes = [1] * len(p)
    i = 0
    while i < len(vals) - 1:
        if vals[i] > vals[i + 1] + 1e-15:
            tot = wts[i] + wts[i + 1]
            merged = (vals[i] * wts[i] + vals[i + 1] * wts[i + 1]) / tot
            vals[i : i + 2] = [merged]
            wts[i : i + 2] = [tot]
            sizes[i : i + 2] = [sizes[i] + sizes[i + 1]]
            i = max(i - 1, 0)
        else:
            i += 1
    out = []
    for v, s in zip(vals, sizes):
        out.extend([v] * s)
    return out


def estimate_crossover(points: Sequence[PhasePoint], x: float) -> float:
    """y where the isotonic fit of success probability crosses 1/2.

    Needs at least three points at this x with values on both sides of 1/2;
    otherwise the crossing is not estimable from the grid.
    """
    pts = sorted((p for p in points if abs(p.x - x) < 1e-12), key=lambda p: p.y)
    if len(pts) < 3:
        raise CrossoverNotEstimable(f"need >= 3 points at x={x}, got {len(pts)}")
    ys = [p.y for p in pts]
    fit = _isotonic(
        [p.estimate.p_hat for p in pts], [float(p.estimate.trials) for p in pts]
    )
    if not (min(fit) <= 0.5 <= max(fit)):
        raise CrossoverNotEstimable(
            f"success probabilities at x={x} do not bracket 1/2"
        )
    i = next(i for i, f in enumerate(fit) if f >= 0.5)
    if fit[i] == 0.5 or i == 0:
        return ys[i]
    lo_p, hi_p = fit[i - 1], fit[i]
    frac = (0.5 - lo_p) / (hi_p - lo_p)
    return ys[i - 1] + frac * (ys[i] - ys[i - 1])


# -- counting probes ---------------------------------------------------------

PROBE_SPECS = {
    "degree-greedy": StrategyKind.DEGREE_GREEDY,
    "buy-all": StrategyKind.BUY_ALL,
}


def _probe_trial(args) -> ProbeRecord:
    cfg, adversary = args
    n, t, b = cfg.n, cfg.t, cfg.b
    spec = StrategySpec(PROBE_SPECS[adversary])
    strategy = build_strategy(spec, cfg)
    # Detection stays off: probes consume the full (t, b) process.
    record = run_strategy(
        cfg,
        strategy,
        NullTracker(),
        target_label="probe",
        early_stop=False,
        keep_graph=True,
    )
    graph = record.purchased
    fans = fan_center_counts(graph, 3)
    return ProbeRecord(
        n=n,
        t=t,
        b=b,
        adversary=adversary,
        triangles=count_pattern(graph, TRIANGLE),
        c4=count_pattern(graph, C4),
        paw=count_pattern(graph, PAW),
        p4=count_pattern(graph, P4),
        fan1_centers=fans[0],
        fan2_centers=fans[1],
        fan3_centers=fans[2],
        scale_triangle=b * t**2 / n**3,
        scale_c4=b * t**3 / n**4,
    )


def probe_counts(
    n: int,
    t: int,
    b: int,
    adversary: str,
    trials: int,
    master_seed: int,
    *,
    jobs: int = 1,
) -> list[ProbeRecord]:
    """Run the counting adversary and record pattern counts per trial; every
    trial's config is built, and so checked, before the first trial runs."""
    if adversary not in PROBE_SPECS:
        raise ConfigurationError(
            f"adversary must be one of {sorted(PROBE_SPECS)}, got {adversary!r}"
        )
    if trials < 1:
        raise ConfigurationError(f"need trials >= 1, got {trials}")
    items = [
        (ProcessConfig(n, t, b, derive_seed(master_seed, n, i)), adversary)
        for i in range(trials)
    ]
    return _map_jobs(_probe_trial, items, jobs)


# -- CSV output --------------------------------------------------------------

TRIALS_COLUMNS = "target,k,n,t,b,strategy,seed,success,hit_time,edges_bought"
SWEEP_COLUMNS = (
    "target,k,n,x,y,t,b,trials,successes,p_hat,ci_low,ci_high,y_star_pred"
)
PROBE_COLUMNS = (
    "n,t,b,adversary,triangles,c4,k3plus,p4,"
    "tl1_centers,tl2_centers,tl3_centers,scale_tri,scale_c4"
)


def _fmt(value: float) -> str:
    return format(value, ".6g")


def check_csv_out(path, columns: str, master_seed: int) -> str:
    """Refuse an --out path before any work is done; writes nothing.

    A missing file needs an existing directory; an existing one must start
    with exactly this write's header comment and column line, so every row
    below them was written by the same version and master seed, in these
    columns. Undecodable bytes read as U+FFFD, which no header contains.
    Returns the header.
    """
    header = f"# budget-builder v{__version__}, seed {master_seed}\n{columns}\n"
    try:
        with open(path, "r", encoding="utf-8", errors="replace", newline="\n") as fh:
            existing = fh.readline() + fh.readline()
    except FileNotFoundError:
        existing = ""
        folder = os.path.dirname(os.path.abspath(path))
        if not os.path.isdir(folder):
            raise ConfigurationError(f"--out {path}: no directory {folder}")
    except OSError as exc:
        raise ConfigurationError(f"--out {path}: {exc}")
    if existing and existing != header:
        raise ConfigurationError(
            f"--out {path}: its header is not this write's "
            f"(v{__version__}, seed {master_seed}, columns {columns})"
        )
    return header


def _open_csv(path, columns: str, master_seed: int):
    """Append mode, under the header `check_csv_out` accepts; a fresh or
    empty file gets that header first."""
    header = check_csv_out(path, columns, master_seed)
    try:
        fh = open(path, "a", encoding="utf-8", newline="\n")
    except OSError as exc:
        raise ConfigurationError(f"--out {path}: {exc}")
    if fh.tell() == 0:
        fh.write(header)
    return fh


def write_trials_csv(path, records: Sequence[TrialRecord], master_seed: int) -> None:
    with _open_csv(path, TRIALS_COLUMNS, master_seed) as fh:
        for r in records:
            hit = -1 if r.hit_time is None else r.hit_time
            fh.write(
                f"{r.target},{r.k},{r.n},{r.t},{r.b},{r.strategy},{r.seed},"
                f"{int(r.success)},{hit},{r.edges_bought}\n"
            )


def write_sweep_csv(
    path, target: Pattern, points: Sequence[PhasePoint], master_seed: int
) -> None:
    label, k = _target_label(target)
    with _open_csv(path, SWEEP_COLUMNS, master_seed) as fh:
        for p in points:
            e = p.estimate
            fh.write(
                f"{label},{k},{p.n},{_fmt(p.x)},{_fmt(p.y)},{p.t},{p.b},"
                f"{e.trials},{e.successes},{_fmt(e.p_hat)},{_fmt(e.ci_low)},"
                f"{_fmt(e.ci_high)},{_fmt(p.y_star_pred)}\n"
            )


def write_probe_csv(path, records: Sequence[ProbeRecord], master_seed: int) -> None:
    with _open_csv(path, PROBE_COLUMNS, master_seed) as fh:
        for r in records:
            fh.write(
                f"{r.n},{r.t},{r.b},{r.adversary},{r.triangles},{r.c4},"
                f"{r.paw},{r.p4},{r.fan1_centers},{r.fan2_centers},"
                f"{r.fan3_centers},{_fmt(r.scale_triangle)},{_fmt(r.scale_c4)}\n"
            )
