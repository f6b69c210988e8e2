"""Golden bytes: fixed-seed CLI outputs must match files recorded at GOLDEN_VERSION.

A refactor that changes any byte of these CSVs changed the seed -> trial
map. Such a change must bump `__version__`, set GOLDEN_VERSION to match and
re-record the files by running this module as a script; until then the
test is skipped at any other version.
"""

import sys
from pathlib import Path

import pytest

from budget_builder import __version__
from budget_builder.cli import parse_and_dispatch

GOLDEN_VERSION = "0.3.0"
GOLDEN_DIR = Path(__file__).parent / "data" / f"golden-{GOLDEN_VERSION}"

RUNS = {
    # criterion-4 cell: k4m-short
    "run-c4.csv": ["run", "--target", "k4m", "--n", "400", "--t", "2000",
                   "--b", "2560", "--trials", "6"],
    # the same cell without early stop: every trial keeps buying to t, past its hit
    "run-c4-full.csv": ["run", "--target", "k4m", "--n", "400", "--t", "2000",
                        "--b", "2560", "--trials", "6", "--no-early-stop"],
    # criterion-6 cell: tk-short, k=2
    "run-c6.csv": ["run", "--target", "tk", "--k", "2", "--n", "400",
                   "--t", "2000", "--b", "1638", "--trials", "6"],
    # the same cell without early stop: the seed phase's blocks run to t, and
    # every round runs past its hit
    "run-c6-full.csv": ["run", "--target", "tk", "--k", "2", "--n", "400",
                        "--t", "2000", "--b", "1638", "--trials", "6",
                        "--no-early-stop"],
    # tk-short at k=3: the 3-fan tracker and freeze, with hits and misses
    "run-tk3.csv": ["run", "--target", "tk", "--k", "3", "--n", "400",
                    "--t", "2900", "--b", "2000", "--trials", "8"],
    # criterion-5 cell: k4m-long
    "run-c5.csv": ["run", "--target", "k4m", "--n", "400", "--t", "20000",
                   "--b", "80", "--trials", "4"],
    # tk-long, forced by the regime override
    "run-tk-long.csv": ["run", "--target", "tk", "--k", "2", "--n", "100",
                        "--t", "1000", "--b", "200", "--trials", "6",
                        "--regime", "long"],
    "sweep.csv": ["sweep", "--target", "k4m", "--n-list", "200",
                  "--x-min", "1.25", "--x-max", "1.35", "--x-step", "0.05",
                  "--y-min", "0.4", "--y-max", "1.4", "--y-step", "0.1",
                  "--trials", "4", "--jobs", "1"],
    "probe.csv": ["probe", "--adversary", "degree-greedy", "--n-list", "100,200",
                  "--t-exp", "1.3", "--b-exp", "1.1", "--trials", "2", "--jobs", "1"],
    # the same probe cells under buy-all: the first b rows, bought as one block
    "probe-buy-all.csv": ["probe", "--adversary", "buy-all", "--n-list", "100,200",
                          "--t-exp", "1.3", "--b-exp", "1.1", "--trials", "2",
                          "--jobs", "1"],
    # criterion 8's probe cells at n = 400 and 800: degree-greedy's cherry
    # test over several prefix centres, and counts over many closing edges
    "probe-dg.csv": ["probe", "--adversary", "degree-greedy", "--n-list", "400,800",
                     "--t-exp", "1.3", "--b-exp", "1.1", "--trials", "2", "--jobs", "1"],
}


def _produce(name: str, out: Path, *extra: str) -> None:
    code = parse_and_dispatch(RUNS[name] + ["--seed", "7", "--out", str(out), *extra])
    assert code == 0, f"{name}: CLI exited {code}"


_at_golden_version = pytest.mark.skipif(
    __version__ != GOLDEN_VERSION,
    reason=f"golden files record v{GOLDEN_VERSION}; a stream change re-records them",
)


@_at_golden_version
@pytest.mark.parametrize("name", sorted(RUNS))
def test_cli_output_matches_golden_bytes(name, tmp_path):
    out = tmp_path / name
    _produce(name, out)
    assert out.read_bytes() == (GOLDEN_DIR / name).read_bytes()


@_at_golden_version
def test_diagnostics_write_stderr_only(tmp_path, capsys):
    # --diagnostics is the one CLI path that reads a record's phase_stats.
    out = tmp_path / "run-c4.csv"
    _produce("run-c4.csv", out, "--diagnostics")
    assert capsys.readouterr().err == "diagnostics: max neighborhoods sharing one pair = 2\n"
    assert out.read_bytes() == (GOLDEN_DIR / "run-c4.csv").read_bytes()


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for name in RUNS:
        target = GOLDEN_DIR / name
        target.unlink(missing_ok=True)
        _produce(name, target)
        print(f"wrote {target}", file=sys.stderr)
