"""The documented scripts, run as a user runs them."""

import json
import pathlib
import subprocess
import sys

SCRIPTS = pathlib.Path(__file__).resolve().parents[1] / "scripts"


def _run(name, *args):
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_survey_prints_its_three_errata():
    result = _run("survey.py")
    assert result.returncode == 0, result.stderr
    errata = [line for line in result.stdout.splitlines() if "ERRATUM" in line]
    assert len(errata) == 3
    assert any("[s2: dim Der]" in line for line in errata)


def test_codim1_grid_check_finds_no_disagreement():
    result = _run("codim1_grid_check.py", "--count", "5", "--dim", "3")
    assert result.returncode == 0, result.stderr
    assert "0 grid disagreements" in result.stdout


def test_bench_child_row_reports_its_own_peak():
    # one heavy row in a fresh child under its address-space cap
    result = _run("bench.py", "--child", "codim1 W5")
    assert result.returncode == 0, result.stderr
    row = json.loads(result.stdout.splitlines()[-1])
    assert row["peak_rss_mb"] > 0
    assert row["counters"]["found"] == 0
    assert row["counters"]["budget_errors"] == 0
