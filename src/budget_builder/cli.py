"""Command-line front end: run / sweep / probe / detect.

Exit codes: 0 success, 2 configuration error, 3 internal contract violation.
"""

from __future__ import annotations

import argparse
import os
import sys

from .detect import DIAMOND, TRIANGLE, C4, PAW, Pattern, contains_pattern, fan, read_edge_list
from .errors import (
    BudgetBuilderError,
    BudgetContractViolation,
    ConfigurationError,
    CrossoverNotEstimable,
    DetectorMismatch,
)
from .experiments import (
    estimate_from_counts,
    grid_values,
    probe_counts,
    run_trial_batch,
    sweep_grid,
    write_probe_csv,
    write_sweep_csv,
    write_trials_csv,
)
from .process import ProcessConfig
from .strategies import select_strategy


def _default_seed() -> int:
    env = os.environ.get("BB_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ConfigurationError(f"BB_SEED must be an integer, got {env!r}")
    return 0


def _default_jobs() -> int:
    return os.cpu_count() or 1


def _parse_target(name: str, k: int | None) -> Pattern:
    if name == "k4m":
        return DIAMOND
    if name == "tk":
        if k is None or k < 1:
            raise ConfigurationError("--target tk requires --k >= 1")
        return fan(k)
    raise ConfigurationError(f"--target must be k4m or tk, got {name!r}")


def _parse_detect_pattern(text: str) -> Pattern:
    if text == "k4m":
        return DIAMOND
    if text == "triangle":
        return TRIANGLE
    if text == "c4":
        return C4
    if text == "k3plus":
        return PAW
    if text.startswith("tk:"):
        try:
            k = int(text.split(":", 1)[1])
        except ValueError:
            raise ConfigurationError(f"--pattern tk:K needs integer K, got {text!r}")
        if k < 1:
            raise ConfigurationError(f"--pattern tk:K needs K >= 1, got {k}")
        return fan(k)
    raise ConfigurationError(
        f"--pattern must be k4m, tk:K, triangle, c4 or k3plus, got {text!r}"
    )


def _parse_n_list(text: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise ConfigurationError(f"--n-list must be comma-separated ints, got {text!r}")
    if not values:
        raise ConfigurationError("--n-list is empty")
    return values


def _load_config_file(path: str) -> dict:
    """Flat key=value file; '#' comments allowed; flags win over the file."""
    values = {}
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise ConfigurationError(f"--config {path}: {exc}")
    with fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigurationError(f"{path}:{lineno}: expected key=value")
            key, value = line.split("=", 1)
            values[key.strip().replace("-", "_")] = value.strip()
    return values


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="budget-builder",
        description="Budget-restricted random graph process simulator",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_common(p: argparse.ArgumentParser, with_seed: bool = True) -> None:
        if with_seed:
            p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", type=str, default=None)
        p.add_argument("--jobs", type=int, default=None)
        p.add_argument("--config", type=str, default=None)
        p.add_argument("--no-early-stop", action="store_true")
        p.add_argument("--diagnostics", action="store_true")
        p.add_argument("--r-override", type=int, default=None)
        p.add_argument("--per-vertex-cap", type=int, default=None)
        p.add_argument("--regime", choices=("short", "long"), default=None)

    # Required values are validated after the --config merge so that a
    # config file can supply any of them; explicit flags still win.
    run = sub.add_parser("run", help="fixed (n, t, b) trial batch")
    run.add_argument("--target")
    run.add_argument("--k", type=int, default=None)
    run.add_argument("--n", type=int)
    run.add_argument("--t", type=int)
    run.add_argument("--b", type=int)
    run.add_argument("--trials", type=int)
    add_common(run)

    sweep = sub.add_parser("sweep", help="phase-diagram grid in exponents")
    sweep.add_argument("--target")
    sweep.add_argument("--k", type=int, default=None)
    sweep.add_argument("--n-list")
    sweep.add_argument("--x-min", type=float)
    sweep.add_argument("--x-max", type=float)
    sweep.add_argument("--x-step", type=float)
    sweep.add_argument("--y-min", type=float)
    sweep.add_argument("--y-max", type=float)
    sweep.add_argument("--y-step", type=float)
    sweep.add_argument("--trials", type=int)
    add_common(sweep)

    probe = sub.add_parser("probe", help="adversarial counting probe")
    probe.add_argument("--adversary", default="degree-greedy")
    probe.add_argument("--n-list")
    probe.add_argument("--t-exp", type=float)
    probe.add_argument("--b-exp", type=float)
    probe.add_argument("--trials", type=int)
    add_common(probe)

    detect = sub.add_parser("detect", help="pattern containment on an edge list")
    detect.add_argument("--graph")
    detect.add_argument("--pattern")

    return parser


_REQUIRED = {
    "run": ("target", "n", "t", "b", "trials"),
    "sweep": ("target", "n_list", "x_min", "x_max", "x_step",
              "y_min", "y_max", "y_step", "trials"),
    "probe": ("n_list", "t_exp", "b_exp", "trials"),
    "detect": ("graph", "pattern"),
}


def _check_required(args: argparse.Namespace) -> None:
    for field in _REQUIRED[args.verb]:
        if getattr(args, field) is None:
            raise ConfigurationError(
                f"--{field.replace('_', '-')} is required for '{args.verb}'"
            )


def _apply_config_file(args: argparse.Namespace, argv: list[str]) -> None:
    if getattr(args, "config", None) is None:
        return
    file_values = _load_config_file(args.config)
    explicit = set()
    for token in argv:
        if token.startswith("--"):
            explicit.add(token[2:].split("=", 1)[0].replace("-", "_"))
    for key, raw in file_values.items():
        if key in explicit or not hasattr(args, key):
            continue
        current = getattr(args, key)
        if isinstance(current, bool):
            setattr(args, key, raw.lower() in ("1", "true", "yes", "on"))
        elif key in ("n_list", "target", "adversary", "out", "regime", "graph", "pattern"):
            setattr(args, key, raw)
        else:
            try:
                if any(ch in raw for ch in ".eE") and raw.strip("-+.eE0123456789") == "":
                    setattr(args, key, float(raw))
                else:
                    setattr(args, key, int(raw))
            except ValueError:
                raise ConfigurationError(
                    f"--config {args.config}: {key} needs a number, got {raw!r}"
                ) from None


def _overrides_from(args: argparse.Namespace) -> dict:
    return {
        "seed_set_size": getattr(args, "r_override", None),
        "per_vertex_cap": getattr(args, "per_vertex_cap", None),
        "regime_override": getattr(args, "regime", None),
    }


def _cmd_run(args) -> int:
    target = _parse_target(args.target, args.k)
    seed = args.seed if args.seed is not None else _default_seed()
    base = ProcessConfig(n=args.n, t=args.t, b=args.b, seed=seed)
    base.validate()
    spec = select_strategy(target, args.n, args.t, args.b, _overrides_from(args))
    records = run_trial_batch(
        target, base, spec, args.trials, early_stop=not args.no_early_stop
    )
    estimate = estimate_from_counts(sum(r.success for r in records), args.trials)
    if args.out:
        write_trials_csv(args.out, records, seed)
    print(
        f"{spec.name}: {estimate.successes}/{estimate.trials} successes, "
        f"p_hat={estimate.p_hat:.4f} "
        f"ci=[{estimate.ci_low:.4f}, {estimate.ci_high:.4f}]"
    )
    if args.diagnostics:
        worst = max(
            (r.phase_stats.get("max_multiplicity", 0) for r in records), default=0
        )
        print(f"diagnostics: max neighborhoods sharing one pair = {worst}",
              file=sys.stderr)
    return 0


def _cmd_sweep(args) -> int:
    target = _parse_target(args.target, args.k)
    seed = args.seed if args.seed is not None else _default_seed()
    jobs = args.jobs if args.jobs is not None else _default_jobs()
    if args.x_min > args.x_max:
        raise ConfigurationError("--x-min exceeds --x-max")
    if args.y_min > args.y_max:
        raise ConfigurationError("--y-min exceeds --y-max")
    points = sweep_grid(
        target,
        _parse_n_list(args.n_list),
        grid_values(args.x_min, args.x_max, args.x_step),
        grid_values(args.y_min, args.y_max, args.y_step),
        args.trials,
        seed,
        jobs=jobs,
        early_stop=not args.no_early_stop,
        overrides=_overrides_from(args),
    )
    if args.out:
        write_sweep_csv(args.out, target, points, seed)
    print(f"sweep: {len(points)} cells, {args.trials} trials each")
    return 0


def _cmd_probe(args) -> int:
    seed = args.seed if args.seed is not None else _default_seed()
    jobs = args.jobs if args.jobs is not None else _default_jobs()
    all_records = []
    for n in _parse_n_list(args.n_list):
        n_pairs = n * (n - 1) // 2
        t = min(max(int(round(n ** args.t_exp)), 1), n_pairs)
        b = int(round(n ** args.b_exp))
        all_records.extend(
            probe_counts(n, t, b, args.adversary, args.trials, seed, jobs=jobs)
        )
    if args.out:
        write_probe_csv(args.out, all_records, seed)
    print(f"probe: {len(all_records)} records")
    return 0


def _cmd_detect(args) -> int:
    pattern = _parse_detect_pattern(args.pattern)
    try:
        graph = read_edge_list(args.graph)
    except (OSError, ValueError) as exc:
        raise ConfigurationError(f"--graph {args.graph}: {exc}")
    print("true" if contains_pattern(graph, pattern) else "false")
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "sweep": _cmd_sweep,
    "probe": _cmd_probe,
    "detect": _cmd_detect,
}


def parse_and_dispatch(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        _apply_config_file(args, argv)
        _check_required(args)
        return _COMMANDS[args.verb](args)
    except (ConfigurationError, CrossoverNotEstimable) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (BudgetContractViolation, DetectorMismatch) as exc:
        print(f"internal contract violation: {exc}", file=sys.stderr)
        return 3
    except BudgetBuilderError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(parse_and_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
