"""Command-line front end: run / sweep / probe / detect.

Exit codes: 0 success, 2 configuration error, 3 internal contract violation.
"""

from __future__ import annotations

import argparse
import os
import sys

from .detect import DIAMOND, TRIANGLE, C4, PAW, Pattern, contains_pattern, fan, read_edge_list
from .errors import BudgetBuilderError, ConfigurationError, ContractViolation
from .experiments import (
    PROBE_COLUMNS,
    PROBE_SPECS,
    SWEEP_COLUMNS,
    TRIALS_COLUMNS,
    cell_from_exponents,
    check_csv_out,
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
from .strategies import StrategyKind, select_strategy


def _parse_target(name: str, k: int | None) -> Pattern:
    if name == "k4m":
        if k is not None:
            raise ConfigurationError("--k applies only to --target tk")
        return DIAMOND
    if k is None or k < 1:
        raise ConfigurationError("--target tk requires --k >= 1")
    return fan(k)


_DETECT_PATTERNS = {"k4m": DIAMOND, "triangle": TRIANGLE, "c4": C4, "k3plus": PAW}


def _parse_detect_pattern(text: str) -> Pattern:
    if text in _DETECT_PATTERNS:
        return _DETECT_PATTERNS[text]
    if text.startswith("tk:"):
        try:
            k = int(text.split(":", 1)[1])
        except ValueError:
            raise argparse.ArgumentTypeError(f"tk:K needs integer K, got {text!r}")
        if k < 1:
            raise argparse.ArgumentTypeError(f"tk:K needs K >= 1, got {k}")
        return fan(k)
    raise argparse.ArgumentTypeError(
        f"expected k4m, tk:K, triangle, c4 or k3plus, got {text!r}"
    )


def _parse_n_list(text: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        values = []
    if not values:
        raise argparse.ArgumentTypeError(f"expected comma-separated ints, got {text!r}")
    return values


def _parse_seed(text: str) -> int:
    """A seed in [0, 2^64), the range the RNG keys on: masked into it, any
    other seed would replay another's stream."""
    try:
        if 0 <= (seed := int(text)) < 2**64:
            return seed
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    raise argparse.ArgumentTypeError(f"a seed must lie in [0, 2^64), got {seed}")


_TRUE = ("1", "true", "yes", "on")
_FALSE = ("0", "false", "no", "off")


class _Parser(argparse.ArgumentParser):
    """Parse errors raise, so the CLI reports them as one line with exit 2."""

    def error(self, message: str):
        raise ConfigurationError(message)


def _config_tokens(path: str, verb: str, verbs: dict) -> list[str]:
    """Flag tokens for a flat key=value file; '#' comments allowed.

    A true boolean gives its bare flag and a false one nothing; any other
    value must pass the flag's own type and choices check, and a failure
    names the file and line. Keys of other verbs are skipped, so one file
    can serve run and sweep; a key no verb has is rejected. The tokens go
    before the explicit flags, which therefore win.
    """
    tokens = []
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
            key, value = (part.strip() for part in line.split("=", 1))
            flag = "--" + key.replace("_", "-")
            if flag == "--config":
                continue
            if not any(flag in p._option_string_actions for p in verbs.values()):
                raise ConfigurationError(f"{path}:{lineno}: unknown key {key!r}")
            parser = verbs[verb]
            action = parser._option_string_actions.get(flag)
            if action is None:
                continue
            if action.nargs != 0:
                try:
                    parser._check_value(action, parser._get_value(action, value))
                except argparse.ArgumentError as exc:
                    raise ConfigurationError(f"{path}:{lineno}: {exc}")
                tokens.append(f"{flag}={value}")
            elif value.lower() in _TRUE:
                tokens.append(flag)
            elif value.lower() not in _FALSE:
                raise ConfigurationError(
                    f"{path}:{lineno}: {key} needs true or false, got {value!r}"
                )
    return tokens


def _build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The parser and its verb subparsers, each with only the flags it reads."""
    parser = _Parser(
        prog="budget-builder",
        description="Budget-restricted random graph process simulator",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    run = sub.add_parser("run", help="fixed (n, t, b) trial batch")
    sweep = sub.add_parser("sweep", help="phase-diagram grid in exponents")
    probe = sub.add_parser("probe", help="adversarial counting probe")
    detect = sub.add_parser("detect", help="pattern containment on an edge list")

    for p in (run, sweep):
        p.add_argument("--target", choices=("k4m", "tk"), required=True)
        p.add_argument("--k", type=int, default=None)
    run.add_argument("--n", type=int, required=True)
    run.add_argument("--t", type=int, required=True)
    run.add_argument("--b", type=int, required=True)
    for p in (sweep, probe):
        p.add_argument("--n-list", type=_parse_n_list, required=True)
    for name in ("--x-min", "--x-max", "--x-step", "--y-min", "--y-max", "--y-step"):
        sweep.add_argument(name, type=float, required=True)
    probe.add_argument("--adversary", choices=sorted(PROBE_SPECS),
                       default="degree-greedy")
    probe.add_argument("--t-exp", type=float, required=True)
    probe.add_argument("--b-exp", type=float, required=True)
    for p in (run, sweep, probe):
        p.add_argument("--trials", type=int, required=True)
        # None falls back to BB_SEED after parsing (see _parse).
        p.add_argument("--seed", type=_parse_seed, default=None)
        p.add_argument("--out", default=None)
        p.add_argument("--config", default=None)
    for p in (sweep, probe):
        p.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
    for p in (run, sweep):
        p.add_argument("--no-early-stop", action="store_true")
        p.add_argument("--r-override", type=int, default=None)
        p.add_argument("--per-vertex-cap", type=int, default=None)
        p.add_argument("--regime", choices=("short", "long"), default=None)
    run.add_argument("--diagnostics", action="store_true")

    detect.add_argument("--graph", required=True)
    detect.add_argument("--pattern", type=_parse_detect_pattern, required=True)
    return parser, sub.choices


def _parse(argv: list[str]) -> argparse.Namespace:
    """Parse once, with the --config file's tokens inserted after the verb."""
    parser, verbs = _build_parser()
    if argv and argv[0] in verbs and "--config" in verbs[argv[0]]._option_string_actions:
        pre = _Parser(add_help=False)
        pre.add_argument("--config")
        path = pre.parse_known_args(argv[1:])[0].config
        if path is not None:
            argv = [argv[0], *_config_tokens(path, argv[0], verbs), *argv[1:]]
    args = parser.parse_args(argv)
    if vars(args).get("seed", 0) is None:  # neither a flag nor a config line
        try:
            args.seed = _parse_seed(os.environ.get("BB_SEED", "0"))
        except argparse.ArgumentTypeError as exc:
            raise ConfigurationError(f"BB_SEED: {exc}")
    return args


def _overrides_from(args: argparse.Namespace) -> dict:
    return {
        "seed_set_size": args.r_override,
        "per_vertex_cap": args.per_vertex_cap,
        "regime_override": args.regime,
    }


def _cmd_run(args) -> int:
    if args.out:
        check_csv_out(args.out, TRIALS_COLUMNS, args.seed)
    target = _parse_target(args.target, args.k)
    base = ProcessConfig(n=args.n, t=args.t, b=args.b, seed=args.seed)
    spec = select_strategy(target, args.n, args.t, args.b, _overrides_from(args))
    # Only k4m-short records the multiplicity --diagnostics prints.
    if args.diagnostics and spec.kind is not StrategyKind.DIAMOND_SHORT:
        raise ConfigurationError(
            f"--diagnostics applies only to the k4m-short strategy, not {spec.name}")
    records = run_trial_batch(
        target, base, spec, args.trials, early_stop=not args.no_early_stop
    )
    estimate = estimate_from_counts(sum(r.success for r in records), args.trials)
    if args.out:
        write_trials_csv(args.out, records, args.seed)
    print(
        f"{spec.name}: {estimate.successes}/{estimate.trials} successes, "
        f"p_hat={estimate.p_hat:.4f} "
        f"ci=[{estimate.ci_low:.4f}, {estimate.ci_high:.4f}]"
    )
    if args.diagnostics:
        worst = max(r.phase_stats["max_multiplicity"] for r in records)
        print(f"diagnostics: max neighborhoods sharing one pair = {worst}",
              file=sys.stderr)
    return 0


def _cmd_sweep(args) -> int:
    if args.out:
        check_csv_out(args.out, SWEEP_COLUMNS, args.seed)
    target = _parse_target(args.target, args.k)
    grids = []
    for axis in "xy":
        lo, hi, step = (getattr(args, f"{axis}_{end}") for end in ("min", "max", "step"))
        try:
            grids.append(grid_values(lo, hi, step))
        except ConfigurationError as exc:
            raise ConfigurationError(f"--{axis}-min/--{axis}-max/--{axis}-step: {exc}") from exc
    points = sweep_grid(
        target,
        args.n_list,
        *grids,
        args.trials,
        args.seed,
        jobs=args.jobs,
        early_stop=not args.no_early_stop,
        overrides=_overrides_from(args),
    )
    if args.out:
        write_sweep_csv(args.out, target, points, args.seed)
    print(f"sweep: {len(points)} cells, {args.trials} trials each")
    return 0


def _cmd_probe(args) -> int:
    if args.out:
        check_csv_out(args.out, PROBE_COLUMNS, args.seed)
    # Every n's config is built, and so checked, before the first probe.
    cells = [ProcessConfig(n, *cell_from_exponents(n, args.t_exp, args.b_exp),
                           seed=args.seed)
             for n in args.n_list]
    all_records = []
    for c in cells:
        all_records.extend(probe_counts(c.n, c.t, c.b, args.adversary, args.trials,
                                        args.seed, jobs=args.jobs))
    if args.out:
        write_probe_csv(args.out, all_records, args.seed)
    print(f"probe: {len(all_records)} records")
    return 0


def _cmd_detect(args) -> int:
    try:
        graph = read_edge_list(args.graph)
    except (OSError, ValueError) as exc:
        raise ConfigurationError(f"--graph {args.graph}: {exc}")
    print("true" if contains_pattern(graph, args.pattern) else "false")
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "sweep": _cmd_sweep,
    "probe": _cmd_probe,
    "detect": _cmd_detect,
}


def parse_and_dispatch(argv: list[str]) -> int:
    try:
        args = _parse(argv)
        return _COMMANDS[args.verb](args)
    except SystemExit as exc:  # -h/--help; parse errors raise instead
        return int(exc.code or 0)
    except ContractViolation as exc:
        print(f"internal contract violation: {exc}", file=sys.stderr)
        return 3
    except BudgetBuilderError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(parse_and_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
