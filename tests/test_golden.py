"""Golden reports: recorded command lines must reproduce byte for byte.

Two records are replayed through `cli.main`:

* `benchmark/expected.json` (read only): the exit code and the SHA-256 of
  the standard output of every desk request of the benchmark, that is
  every analysis command on every small fixture and the README lines;
* `tests/golden_reports.json`: the commands the desk does not cover
  (`show`, `fixture`, `wn`, `closure`, `twist`, the assertion families and
  the exit paths), with the digest of standard output and standard error,
  plus the codim1 sweep of M(4) through the API.

Regenerate `golden_reports.json`, at a commit whose reports are the record,
with `PYTHONPATH=src python tests/test_golden.py`.
"""

import contextlib
import hashlib
import io
import json
import shlex
from pathlib import Path

import pytest

from kantor import cli, zoo
from kantor.codim1 import codim1_subalgebras

ROOT = Path(__file__).resolve().parents[1]
GOLDEN_PATH = Path(__file__).with_name("golden_reports.json")

with open(ROOT / "benchmark" / "expected.json", encoding="utf-8") as _fh:
    DESK = json.load(_fh)["desk"]

FIXTURES = sorted(zoo.FIXTURES)
DATA_FILES = sorted(p.relative_to(ROOT).as_posix() for p in (ROOT / "src/kantor/data").glob("*.json"))

EXTRA_COMMANDS = (
    [f"show --fixture {f}" for f in FIXTURES]
    + [f"--json show --fixture {f}" for f in FIXTURES]
    + [f"--json show {path}" for path in DATA_FILES]
    + [f"fixture {f}" for f in FIXTURES]
    + [f"--json fixture {f}" for f in FIXTURES]
    + [f"wn {n}" for n in (1, 2, 3)]
    + [f"--json wn {n}" for n in (1, 2, 3)]
    + [
        "wn 0",
        "fixture bogus",
        "show --fixture bogus",
        "show --fixture s2 src/kantor/data/s2.json",
        "--json closure --fixture wn2 --gens a11^2,a12^1 --assert-dim 6",
        "closure --fixture wn2 --gens a11^2 --assert-dim 6",
        "--json closure --fixture m7 --gens h,x",
        "--json closure --fixture sl2 --gens 2,3",
        "closure --fixture sl2 --gens 4",
        "closure --fixture sl2 --gens q",
        "closure --fixture sl2",
        "--json twist quasi --fixture matrix2 --lambda 1/3",
        "twist quasi --fixture matrix2 --lambda -2",
        "--json twist quasi --fixture matrix2 --lambda 0",
        "twist quasi --fixture matrix2 --lambda x",
        "twist quasi --fixture sl2 --lambda 1",
        "--json twist poisson --fixture poisson_trunc",
        "twist poisson --fixture matrix2",
        "--json twist structurable --fixture matrix2"
        " --involution src/kantor/data/involution_transpose_2x2.json",
        "twist structurable --fixture sl2 --involution src/kantor/data/involution_transpose_2x2.json",
        "--json conservative --fixture m7 --assert",
        "conservative --fixture m7 --assert",
        "--json conservative --fixture wn2 --assert",
        "--json conservative --fixture wn2 --assert-not",
        "--json terminal --fixture w2sym --assert",
        "--json terminal --fixture w2sym --convention sym --assert",
        "--json terminal --fixture w2sym --assert --assert-not",
        "--json terminal --fixture w2sym --convention sym --assert --assert-not",
        "--json quasiunit --fixture wn2 --assert-not",
        "--json quasiunit --fixture sl2 --assert",
        "--json identity --fixture m7 --name associative --assert",
        "identity --fixture m7 --name associative --assert-not",
        "--json identity --fixture sl2 --expr '2*(a*b) - 1/2*(b*a)' --vars a,b --assert",
        "--json identity --fixture poisson_trunc --name poisson_leibniz",
        "identity --fixture sl2 --name bogus",
        "identity --fixture sl2 --expr a*b*c",
        "identity --fixture sl2 --name lie --expr a*b",
        "--json derivations --fixture wn2 --assert-dim 3",
        "--json derivations --fixture s2 --assert-dim 2",
        "--json jacobi --fixture wn2 --assert-dim 5",
        "--json annihilator --fixture zero2 --assert-dim 2",
        "annihilator --fixture sl2 --assert-dim 1",
        "--json codim1 --fixture w2sym --assert-count 1",
        "--json codim1 --fixture w2sym --assert-count 2",
        "--json codim1 --fixture wn2 --budget 0",
        "--json codim1 --fixture wn2 --budget 0 --assert-count 1",
        "--json codim1 --fixture wn3",
        "conservative",
        "bogus --fixture sl2",
        "--json",
    ]
)

# W(3) is swept by `--json codim1 --fixture wn3` above
API_CASES = {"codim1_subalgebras(matrix_algebra(4))": lambda: zoo.matrix_algebra(4)}


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def codim1_document(alg):
    """Ideal, Groebner basis and points of every pivot case, as text."""
    return [
        {
            "pivot": c.pivot,
            "ideal": [str(g) for g in c.ideal],
            "groebner": [str(g) for g in c.groebner],
            "points": [[str(x) for x in pt] for pt in c.solutions.points],
        }
        for c in codim1_subalgebras(alg).cases
    ]


def record_extra():
    cli_record = {}
    for line in EXTRA_COMMANDS:
        code, out, err = run_cli(shlex.split(line))
        cli_record[line] = {"exit": code, "stdout": digest(out), "stderr": digest(err)}
    api_record = {name: digest(json.dumps(codim1_document(build()))) for name, build in API_CASES.items()}
    return {"cli": cli_record, "api": api_record}


@pytest.fixture
def at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


def _desk_argv(rid):
    return shlex.split(rid)[1:] if rid.startswith("kantor ") else rid.split(" ")


@pytest.mark.parametrize("rid", sorted(DESK))
def test_desk_report_reproduces(rid, at_root):
    record = DESK[rid]
    argv = _desk_argv(rid)
    code, out, _ = run_cli(argv)
    assert code == record["exit"]
    if record["sha256"] is not None:
        assert digest(out) == record["sha256"]
    else:
        # recorded while `--json` after the subcommand was refused; the
        # report must now equal the one of the `--json`-first form
        json_first = "--json " + " ".join(a for a in argv if a != "--json")
        assert digest(out) == DESK[json_first]["sha256"]


# recording (run as a script) starts from an empty record
GOLDEN = {"cli": {}, "api": {}}
if __name__ != "__main__":
    with open(GOLDEN_PATH, encoding="utf-8") as _fh:
        GOLDEN = json.load(_fh)


@pytest.mark.parametrize("line", sorted(GOLDEN["cli"]))
def test_extra_report_reproduces(line, at_root):
    record = GOLDEN["cli"][line]
    code, out, err = run_cli(shlex.split(line))
    assert (code, digest(out), digest(err)) == (record["exit"], record["stdout"], record["stderr"])


@pytest.mark.parametrize("name", sorted(API_CASES))
def test_codim1_sweep_reproduces(name):
    assert digest(json.dumps(codim1_document(API_CASES[name]()))) == GOLDEN["api"][name]


if __name__ == "__main__":
    import os

    os.chdir(ROOT)
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(record_extra(), fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(EXTRA_COMMANDS)} commands and {len(API_CASES)} sweeps in {GOLDEN_PATH}")
