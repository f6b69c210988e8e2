import importlib
import os
import pkgutil
from types import ModuleType

import pytest

import budget_builder
from budget_builder.cli import parse_and_dispatch
from budget_builder.detect import DIAMOND, fan
from budget_builder.errors import ContractViolation
from budget_builder.experiments import run_one_trial
from budget_builder.process import ProcessConfig
from budget_builder.strategies import select_strategy


def test_top_level_keeps_only_the_names_callers_import():
    # Everything else is imported from its module; the benchmark's setup
    # imports these four from the top level.
    names = sorted(name for name, value in vars(budget_builder).items()
                   if not name.startswith("_") and not isinstance(value, ModuleType))
    assert names == ["ProcessConfig", "build_strategy", "new_process", "select_strategy"]


def test_package_holds_only_the_modules_users_run():
    # The brute-force oracle and the per-reveal reference rules stay in tests/.
    names = sorted(m.name for m in pkgutil.iter_modules(budget_builder.__path__))
    assert names == ["cli", "detect", "errors", "experiments", "process", "rng", "strategies"]


DIAMOND_FILE = "0 1\n0 2\n0 3\n1 2\n1 3\n"


def test_detect_true_on_diamond_file(tmp_path, capsys):
    path = tmp_path / "diamond.txt"
    path.write_text(DIAMOND_FILE)
    assert parse_and_dispatch(["detect", "--graph", str(path), "--pattern", "k4m"]) == 0
    assert capsys.readouterr().out.strip() == "true"


def test_detect_false_on_sparse_file(tmp_path, capsys):
    path = tmp_path / "path.txt"
    path.write_text("0 1\n1 2\n2 3\n")
    assert parse_and_dispatch(["detect", "--graph", str(path), "--pattern", "tk:2"]) == 0
    assert capsys.readouterr().out.strip() == "false"


_GRAPHS = {
    "diamond": DIAMOND_FILE,
    # two triangles meeting only at vertex 0: a 2-fan, no 4-cycle
    "bowtie": "0 1\n0 2\n1 2\n0 3\n0 4\n3 4\n",
    # no edge whose ends share a neighbour
    "c4": "0 1\n1 2\n2 3\n0 3\n",
    # spine 0-1, wings 2, 3, 4: it passes the 2-fan filters at 0 and 1, but
    # each link edge there meets the other spine end
    "book": "0 1\n0 2\n1 2\n0 3\n1 3\n0 4\n1 4\n",
}


def test_detect_pattern_grammar(tmp_path, capsys):
    for graph, pattern, expected in (
        ("diamond", "k4m", "true"),
        ("diamond", "triangle", "true"),
        ("diamond", "c4", "true"),
        ("diamond", "k3plus", "true"),
        ("diamond", "tk:1", "true"),
        ("diamond", "tk:2", "false"),
        ("bowtie", "tk:2", "true"),
        ("bowtie", "triangle", "true"),
        ("bowtie", "c4", "false"),
        ("bowtie", "k3plus", "true"),
        ("c4", "triangle", "false"),
        ("book", "tk:2", "false"),
    ):
        path = tmp_path / f"{graph}.txt"
        path.write_text(_GRAPHS[graph])
        assert parse_and_dispatch(
            ["detect", "--graph", str(path), "--pattern", pattern]
        ) == 0
        assert capsys.readouterr().out.strip() == expected, (graph, pattern)


def test_detect_bad_pattern_exits_2(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text(DIAMOND_FILE)
    assert parse_and_dispatch(
        ["detect", "--graph", str(path), "--pattern", "pentagon"]
    ) == 2


def test_detect_missing_file_exits_2(tmp_path):
    assert parse_and_dispatch(
        ["detect", "--graph", str(tmp_path / "nope.txt"), "--pattern", "k4m"]
    ) == 2


def test_run_appends_requested_row_count(tmp_path, capsys):
    out = tmp_path / "trials.csv"
    code = parse_and_dispatch(
        [
            "run", "--target", "k4m", "--n", "40", "--t", "120", "--b", "30",
            "--trials", "20", "--seed", "7", "--out", str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 2 + 20
    assert "p_hat=" in capsys.readouterr().out


def test_run_rows_reexecute_identically(tmp_path):
    out = tmp_path / "trials.csv"
    parse_and_dispatch(
        [
            "run", "--target", "tk", "--k", "2", "--n", "40", "--t", "120",
            "--b", "40", "--trials", "10", "--seed", "3", "--out", str(out),
        ]
    )
    lines = out.read_text().splitlines()[2:]
    for line in lines:
        target, k, n, t, b, strategy, seed, success, hit, bought = line.split(",")
        config = ProcessConfig(n=int(n), t=int(t), b=int(b), seed=int(seed))
        spec = select_strategy(fan(int(k)), int(n), int(t), int(b))
        assert spec.name == strategy
        rec = run_one_trial(fan(int(k)), config, spec)
        assert rec.success == bool(int(success))
        assert (-1 if rec.hit_time is None else rec.hit_time) == int(hit)
        assert rec.edges_bought == int(bought)


def test_sweep_inverted_grid_exits_2(tmp_path):
    code = parse_and_dispatch(
        [
            "sweep", "--target", "k4m", "--n-list", "40",
            "--x-min", "1.4", "--x-max", "1.2", "--x-step", "0.1",
            "--y-min", "0.4", "--y-max", "0.8", "--y-step", "0.2",
            "--trials", "5", "--seed", "1", "--out", str(tmp_path / "s.csv"),
        ]
    )
    assert code == 2


def test_sweep_writes_expected_cells(tmp_path):
    out = tmp_path / "sweep.csv"
    code = parse_and_dispatch(
        [
            "sweep", "--target", "k4m", "--n-list", "40",
            "--x-min", "1.2", "--x-max", "1.3", "--x-step", "0.1",
            "--y-min", "0.4", "--y-max", "0.8", "--y-step", "0.2",
            "--trials", "5", "--seed", "1", "--jobs", "1",
            "--out", str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 2 + 2 * 3


def test_unknown_flag_exits_2():
    assert parse_and_dispatch(["run", "--target", "k4m", "--frobnicate"]) == 2


def test_unknown_verb_exits_2():
    assert parse_and_dispatch(["transmogrify"]) == 2


def test_probe_writes_rows(tmp_path):
    out = tmp_path / "probe.csv"
    code = parse_and_dispatch(
        [
            "probe", "--adversary", "degree-greedy", "--n-list", "40,60",
            "--t-exp", "1.3", "--b-exp", "1.1", "--trials", "3",
            "--seed", "2", "--jobs", "1", "--out", str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[1].startswith("n,t,b,adversary,triangles,c4,k3plus,p4,")
    assert len(lines) == 2 + 6


def test_bb_seed_env_fallback(tmp_path, monkeypatch):
    out_env = tmp_path / "env.csv"
    out_flag = tmp_path / "flag.csv"
    monkeypatch.setenv("BB_SEED", "7")
    parse_and_dispatch(
        ["run", "--target", "k4m", "--n", "40", "--t", "120", "--b", "30",
         "--trials", "5", "--out", str(out_env)]
    )
    monkeypatch.delenv("BB_SEED")
    parse_and_dispatch(
        ["run", "--target", "k4m", "--n", "40", "--t", "120", "--b", "30",
         "--trials", "5", "--seed", "7", "--out", str(out_flag)]
    )
    assert out_env.read_text().splitlines()[1:] == out_flag.read_text().splitlines()[1:]


def test_config_file_merging_flags_win(tmp_path):
    # One file serves run and sweep: each verb skips the other's keys, the
    # file's own config line is skipped, and a false boolean leaves its
    # flag off (early stop changes edges_bought on this cell).
    cfg = tmp_path / "both.cfg"
    cfg.write_text(
        "target = k4m\nn = 30\nt = 100\nb = 100  # budget\ntrials = 5\nseed = 11\n"
        "n-list = 40\nx-min = 1.2\nx-max = 1.2\nx-step = 0.1\n"
        "y_min = 0.4\ny_max = 0.4\ny_step = 0.1\njobs = 1\n"
        "config = elsewhere.cfg\nno-early-stop = false\n"
    )
    flags = ["run", "--target", "k4m", "--n", "30", "--t", "100", "--b", "100",
             "--trials", "5", "--seed", "11"]
    out = {name: tmp_path / f"{name}.csv" for name in ("file", "flags", "trials", "sweep")}
    assert parse_and_dispatch(["run", "--config", str(cfg), "--out", str(out["file"])]) == 0
    assert parse_and_dispatch(flags + ["--out", str(out["flags"])]) == 0
    assert out["file"].read_text() == out["flags"].read_text()
    # trials comes from the flag (3), not the file (5)
    assert parse_and_dispatch(["run", "--config", str(cfg), "--trials", "3",
                               "--out", str(out["trials"])]) == 0
    assert len(out["trials"].read_text().splitlines()) == 2 + 3
    assert parse_and_dispatch(["sweep", "--config", str(cfg), "--out", str(out["sweep"])]) == 0
    assert len(out["sweep"].read_text().splitlines()) == 2 + 1


def _run_raising(monkeypatch, error) -> int:
    """Exit code of a `run` whose trial batch raises `error`."""
    import budget_builder.cli as cli_mod

    def explode(*args, **kwargs):
        raise error("boom")

    monkeypatch.setattr(cli_mod, "run_trial_batch", explode)
    return parse_and_dispatch(
        ["run", "--target", "k4m", "--n", "40", "--t", "120", "--b", "30",
         "--trials", "3", "--seed", "1"]
    )


# Every subclass, so a new contract error exits 3 with no change to the CLI.
@pytest.mark.parametrize("error", ContractViolation.__subclasses__(),
                         ids=lambda error: error.__name__)
def test_the_other_contract_violations_exit_3(monkeypatch, capsys, error):
    assert _run_raising(monkeypatch, error) == 3
    assert capsys.readouterr().err == "internal contract violation: boom\n"


def test_run_requires_trials_flag():
    assert parse_and_dispatch(
        ["run", "--target", "k4m", "--n", "40", "--t", "120", "--b", "30"]
    ) == 2


def test_bad_process_config_exits_2(tmp_path):
    code = parse_and_dispatch(
        ["run", "--target", "k4m", "--n", "4", "--t", "7", "--b", "3",
         "--trials", "2", "--seed", "1", "--out", str(tmp_path / "x.csv")]
    )
    assert code == 2


def test_detect_duplicate_edge_file_exits_2(tmp_path, capsys):
    path = tmp_path / "dup.txt"
    path.write_text("0 1\n1 0\n")
    assert parse_and_dispatch(
        ["detect", "--graph", str(path), "--pattern", "k4m"]
    ) == 2
    assert f"{path}:2: edge (0, 1) already present" in capsys.readouterr().err


def test_run_tk_requires_k():
    assert parse_and_dispatch(
        ["run", "--target", "tk", "--n", "40", "--t", "120", "--b", "30",
         "--trials", "2", "--seed", "1"]
    ) == 2


def test_run_no_early_stop_keeps_buying_after_hit(tmp_path):
    base = ["run", "--target", "k4m", "--n", "30", "--t", "100", "--b", "100",
            "--trials", "5", "--seed", "11"]
    out_stop = tmp_path / "stop.csv"
    out_full = tmp_path / "full.csv"
    parse_and_dispatch(base + ["--out", str(out_stop)])
    parse_and_dispatch(base + ["--no-early-stop", "--out", str(out_full)])
    rows_stop = [ln.split(",") for ln in out_stop.read_text().splitlines()[2:]]
    rows_full = [ln.split(",") for ln in out_full.read_text().splitlines()[2:]]
    for stop, full in zip(rows_stop, rows_full):
        assert stop[6] == full[6]  # same per-trial seed
        assert stop[8] == full[8]  # identical hit time
        assert int(full[9]) >= int(stop[9])
    assert any(int(f[9]) > int(s[9]) for s, f in zip(rows_stop, rows_full))


def test_diagnostics_flag_reports_multiplicity(tmp_path, capsys):
    code = parse_and_dispatch(
        ["run", "--target", "k4m", "--n", "40", "--t", "120", "--b", "60",
         "--trials", "5", "--seed", "2", "--diagnostics"]
    )
    assert code == 0
    assert "max neighborhoods sharing one pair" in capsys.readouterr().err


@pytest.mark.parametrize("argv, config, strategy", [
    (["run", "--target", "tk", "--k", "2", "--n", "40", "--t", "120", "--b", "60",
      "--trials", "2", "--seed", "2", "--diagnostics"], None, "tk-short"),
    (["run", "--target", "tk", "--k", "2", "--n", "40", "--t", "120", "--b", "60",
      "--trials", "2", "--seed", "2", "--regime", "long"], "diagnostics = true\n",
     "tk-long"),
    (["run", "--target", "k4m", "--n", "40", "--t", "120", "--b", "60",
      "--trials", "2", "--seed", "2", "--regime", "long", "--diagnostics"], None,
     "k4m-long"),
], ids=["tk-short-flag", "tk-long-config-line", "k4m-long-flag"])
def test_diagnostics_refused_where_multiplicity_is_not_recorded(
        argv, config, strategy, tmp_path, capsys, monkeypatch):
    import budget_builder.cli as cli_mod

    def must_not_run(*args, **kwargs):
        raise AssertionError("a trial ran before --diagnostics was checked")

    monkeypatch.setattr(cli_mod, "run_trial_batch", must_not_run)
    if config is not None:
        path = tmp_path / "d.cfg"
        path.write_text(config)
        argv = argv + ["--config", str(path)]
    assert parse_and_dispatch(argv) == 2
    assert capsys.readouterr().err == (
        f"error: --diagnostics applies only to the k4m-short strategy, not {strategy}\n")


_RUN_N50 = ["run", "--target", "k4m", "--n", "50", "--t", "150", "--b", "40",
            "--trials", "2"]
_SWEEP_N40 = ["sweep", "--target", "k4m", "--n-list", "40", "--x-min", "1.2",
              "--x-max", "1.2", "--x-step", "0.1", "--y-min", "0.4", "--y-max",
              "0.4", "--y-step", "0.1", "--trials", "2", "--seed", "1"]
_PROBE_N40 = ["probe", "--n-list", "40", "--t-exp", "1.3", "--b-exp", "1.1",
              "--trials", "2", "--seed", "1"]


@pytest.mark.parametrize("argv", [
    ["run", "--target", "k4m", "--n", "33554433", "--t", "150", "--b", "40",
     "--trials", "2", "--seed", "1"],
    [*_SWEEP_N40[:3], "--n-list", "33554433", *_SWEEP_N40[5:]],
    ["probe", "--n-list", "33554433", *_PROBE_N40[3:]],
], ids=["run", "sweep", "probe"])
def test_n_past_the_decoder_range_exits_2(argv, capsys):
    # Refused when the config is built, before any graph on n vertices is.
    assert parse_and_dispatch(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: need n <= 2^25") and err.count("\n") == 1


_FILES = {
    "bad.cfg": b"seed = abc\n",
    "float-n.cfg": b"n = 40.0\n",
    "float-seed.cfg": b"seed = 1e3\n",
    "typo.cfg": b"trails = 5\n",
    "binary.csv": b"\xff\xfe\n",
    "dup.txt": b"0 1\n1 0\n",
    "cap.cfg": b"per_vertex_cap = 3\n",
    "no-eq.cfg": b"n 40\n",
    "bad-bool.cfg": b"no-early-stop = maybe\n",
    "triangle.txt": b"0 1\n1 2\n0 2\n",
    "loop.txt": b"0 1\n3 3\n",
}


@pytest.mark.parametrize(
    "argv",
    [
        _RUN_N50 + ["--seed", "1", "--r-override", "100"],
        _RUN_N50 + ["--seed", "1", "--r-override", "-3"],
        _RUN_N50 + ["--seed", "1", "--per-vertex-cap", "0"],
        _SWEEP_N40 + ["--jobs", "0"],
        _PROBE_N40 + ["--jobs", "0"],
        _RUN_N50 + ["--config", "{tmp}/bad.cfg"],
        ["run", "--target", "k4m", "--n", "abc", "--t", "150", "--b", "40",
         "--trials", "2"],
        ["run", "--target", "k4m", "--t", "150", "--b", "40", "--trials", "2",
         "--seed", "1", "--config", "{tmp}/float-n.cfg"],
        _RUN_N50 + ["--config", "{tmp}/float-seed.cfg"],
        _RUN_N50 + ["--seed", "1", "--config", "{tmp}/typo.cfg"],
        _RUN_N50 + ["--seed", "1", "--jobs", "2"],
        _PROBE_N40 + ["--regime", "long"],
        _RUN_N50 + ["--seed", "1", "--out", "{tmp}/no-such-dir/trials.csv"],
        _RUN_N50 + ["--seed", "1", "--out", "{tmp}/binary.csv"],
        ["sweep", "--target", "k4m", "--n-list", "0", *_SWEEP_N40[5:]],
        ["sweep", "--target", "tk", "--k", "2", "--n-list", "1", *_SWEEP_N40[5:]],
        ["detect", "--graph", "{tmp}/dup.txt", "--pattern", "k4m"],
        _PROBE_N40 + ["--t-exp", "nan"],
        _PROBE_N40 + ["--t-exp", "inf"],
        _PROBE_N40 + ["--b-exp", "inf"],
        _SWEEP_N40 + ["--x-min", "nan"],
        _SWEEP_N40 + ["--x-step", "nan"],
        _SWEEP_N40 + ["--y-min", "nan"],
        _SWEEP_N40 + ["--y-max", "inf"],
        _SWEEP_N40 + ["--x-max", "1.3", "--x-step", "1e-300"],  # counted, never built
        # Seed-set overrides where the long regime has no seed set to read
        # them: k4m-long chosen by t > n^{7/5}, or tk-long and k4m-long forced.
        ["run", "--target", "k4m", "--n", "400", "--t", "20000", "--b", "80",
         "--trials", "3", "--seed", "1", "--r-override", "5", "--per-vertex-cap", "2"],
        ["run", "--target", "tk", "--k", "2", "--n", "50", "--t", "150", "--b", "40",
         "--trials", "2", "--seed", "1", "--regime", "long", "--config", "{tmp}/cap.cfg"],
        _SWEEP_N40 + ["--jobs", "1", "--regime", "long", "--r-override", "5"],
        _RUN_N50 + ["--seed", "1", "--config", "{tmp}/no-eq.cfg"],
        _RUN_N50 + ["--seed", "1", "--config", "{tmp}/bad-bool.cfg"],
        _RUN_N50 + ["--seed", "1", "--config", "{tmp}/no-such.cfg"],
        ["detect", "--graph", "{tmp}/triangle.txt", "--pattern", "tk:x"],
        ["detect", "--graph", "{tmp}/triangle.txt", "--pattern", "tk:0"],
        _SWEEP_N40 + ["--y-min", "0.6"],  # above --y-max 0.4
        _SWEEP_N40 + ["--trials", "0"],
        _PROBE_N40 + ["--trials", "0"],
        _SWEEP_N40 + ["--x-step", "0"],
        ["detect", "--graph", "{tmp}/loop.txt", "--pattern", "k4m"],
    ],
)
def test_misuse_exits_2_with_one_line_error(argv, tmp_path, capsys):
    for name, data in _FILES.items():
        (tmp_path / name).write_bytes(data)
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    assert parse_and_dispatch(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv, config", [
    (["run", "--target", "k4m", "--k", "3", "--n", "30", "--t", "60", "--b", "20",
      "--trials", "2", "--seed", "1"], None),
    (["sweep", "--target", "k4m", "--k", "0", *_SWEEP_N40[3:]], None),
    (["run", "--target", "k4m", "--n", "30", "--t", "60", "--b", "20",
      "--trials", "2", "--seed", "1"], "k = 3\n"),
], ids=["run-flag", "sweep-flag", "config-line"])
def test_k_applies_only_to_tk(argv, config, tmp_path, capsys):
    if config is not None:
        path = tmp_path / "k.cfg"
        path.write_text(config)
        argv = argv + ["--config", str(path)]
    assert parse_and_dispatch(argv) == 2
    assert capsys.readouterr().err == "error: --k applies only to --target tk\n"


def test_out_appends_only_under_its_own_header(tmp_path):
    out = tmp_path / "sweep.csv"
    sweep = _SWEEP_N40 + ["--jobs", "1", "--out", str(out)]
    assert parse_and_dispatch(sweep) == 0
    first = out.read_bytes()
    # another master seed, or another file kind, would put rows under a
    # header that does not describe them
    assert parse_and_dispatch(sweep + ["--seed", "5"]) == 2
    assert parse_and_dispatch(_RUN_N50 + ["--seed", "1", "--out", str(out)]) == 2
    assert out.read_bytes() == first
    assert parse_and_dispatch(sweep) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 2 + 2 and lines[2] == lines[3]


@pytest.mark.parametrize("entry, argv, columns", [
    ("run_trial_batch", _RUN_N50 + ["--seed", "1"], "trials"),
    ("sweep_grid", _SWEEP_N40 + ["--jobs", "1"], "sweep"),
    ("probe_counts", _PROBE_N40 + ["--jobs", "1"], "probe"),
])
@pytest.mark.parametrize("out", ["other.csv", "no-such-dir/out.csv", "a-dir"])
def test_refused_out_is_reported_before_any_trial(entry, argv, columns, out, tmp_path,
                                                  monkeypatch, capsys):
    import budget_builder.cli as cli_mod

    def must_not_run(*args, **kwargs):
        raise AssertionError(f"{entry} ran before --out was checked")

    monkeypatch.setattr(cli_mod, entry, must_not_run)
    (tmp_path / "other.csv").write_text(f"# budget-builder v0.0.0, seed 1\n{columns}\n")
    (tmp_path / "a-dir").mkdir()
    assert parse_and_dispatch(argv + ["--out", str(tmp_path / out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --out ") and err.count("\n") == 1


@pytest.mark.parametrize("module, entry, argv", [
    ("experiments", "run_trials",
     ["sweep", "--target", "tk", "--k", "3", "--n-list", "400,5", *_SWEEP_N40[5:],
      "--jobs", "1"]),
    ("cli", "probe_counts",  # 100^170 overflows; n=40 alone would run
     ["probe", "--n-list", "40,100", "--t-exp", "1.3", "--b-exp", "170", "--trials", "2",
      "--seed", "1", "--jobs", "1"]),
    ("cli", "probe_counts",  # n=1 has no pair; n=400 alone would run
     ["probe", "--n-list", "400,1", "--t-exp", "1.3", "--b-exp", "1.1", "--trials", "2",
      "--seed", "1", "--jobs", "1"]),
])
def test_misuse_is_refused_before_any_trial(module, entry, argv, monkeypatch, capsys):
    def must_not_run(*args, **kwargs):
        raise AssertionError(f"{entry} ran before the misuse was refused")

    monkeypatch.setattr(importlib.import_module(f"budget_builder.{module}"), entry,
                        must_not_run)
    assert parse_and_dispatch(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_config_value_error_names_file_and_line(tmp_path, capsys):
    cfg = tmp_path / "cell.cfg"
    run = ["run", "--target", "k4m", "--t", "150", "--b", "40", "--n", "50",
           "--trials", "2", "--seed", "1"]
    for argv, lines, bad_line in ((run, ["# cell", "t = 150", "n = 40.0"], 3),
                                  (run, ["regime = medium", "n = 50"], 1),
                                  (_SWEEP_N40, ["n-list = 40,abc"], 1),
                                  (_PROBE_N40, ["trials = 2", "adversary = foo"], 2)):
        cfg.write_text("\n".join(lines) + "\n")
        code = parse_and_dispatch(argv + ["--config", str(cfg)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg}:{bad_line}: ") and err.count("\n") == 1


def test_bad_bb_seed_names_its_source(monkeypatch, capsys):
    monkeypatch.setenv("BB_SEED", "abc")
    assert parse_and_dispatch(_RUN_N50) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: BB_SEED") and err.count("\n") == 1
    # a seed from the command line leaves BB_SEED unread
    assert parse_and_dispatch(_RUN_N50 + ["--seed", "1"]) == 0
