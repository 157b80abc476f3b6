import hashlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from kantor import cli, zoo
from kantor.errors import AlgebraFormatError
from kantor.identities import MAX_NESTING, load_identity
from kantor.storage import dumps_algebra, parse_algebra_document, save_algebra
from kantor.wn import build_wn

ROOT = Path(__file__).resolve().parents[1]


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _process_env():
    """The environment for `python -m kantor.cli` in a child process."""
    pythonpath = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": pythonpath}


def test_wn_table_matches_recorded(capsys):
    code, out, _ = run_cli(["wn", "2", "--table"], capsys)
    assert code == 0
    assert "a11^1 * a11^1 = -a11^1" in out
    assert "a12^1 * a11^1 = -a12^1 - a21^1" in out
    assert "erratum" not in out


def test_determinism_byte_identical(capsys):
    _, out1, _ = run_cli(["--json", "codim1", "--fixture", "s2"], capsys)
    _, out2, _ = run_cli(["--json", "codim1", "--fixture", "s2"], capsys)
    assert out1 == out2


def test_conservative_assert_not_m7(capsys):
    code, _, _ = run_cli(["conservative", "--fixture", "m7", "--assert-not"], capsys)
    assert code == 0


def test_conservative_assert_failure_exits_nonzero(capsys):
    code, _, err = run_cli(["conservative", "--fixture", "m7", "--assert"], capsys)
    assert code == 1
    assert "assertion" in err


def test_derivations_assert_dim(capsys):
    code, _, _ = run_cli(["derivations", "--fixture", "wn2", "--assert-dim", "2"], capsys)
    assert code == 0


def test_derivations_s2_reports_erratum(capsys):
    code, out, _ = run_cli(["derivations", "--fixture", "s2"], capsys)
    assert code == 0
    assert "erratum" in out and "dim Der" in out


def test_jacobi_dim(capsys):
    code, out, _ = run_cli(["--json", "jacobi", "--fixture", "wn2"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["dim"] == 6


def test_quasiunit(capsys):
    code, out, _ = run_cli(["--json", "quasiunit", "--fixture", "wn2", "--assert"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["particular"] == {"a11^1": "-1"}


def test_annihilator(capsys):
    code, out, _ = run_cli(["--json", "annihilator", "--fixture", "zero2"], capsys)
    assert code == 0
    assert json.loads(out)["result"]["dim"] == 2


def test_closure(capsys):
    code, out, _ = run_cli(
        ["--json", "closure", "--fixture", "wn2", "--gens", "a11^2,a12^1", "--assert-dim", "6"],
        capsys,
    )
    assert code == 0


def test_codim1_assert_count(capsys):
    code, _, _ = run_cli(["codim1", "--fixture", "w2sym", "--assert-count", "1"], capsys)
    assert code == 0


def test_codim1_s2_erratum(capsys):
    code, out, _ = run_cli(["--json", "codim1", "--fixture", "s2"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["count"] == 1
    assert any("claimed codim-1" in e for e in payload["errata"])


def test_identity_builtin(capsys):
    code, _, _ = run_cli(["identity", "--fixture", "m7", "--name", "malcev", "--assert"], capsys)
    assert code == 0
    code, _, _ = run_cli(["identity", "--fixture", "m7", "--name", "associative", "--assert-not"], capsys)
    assert code == 0


def test_identity_expr(capsys):
    code, out, _ = run_cli(
        ["--json", "identity", "--fixture", "sl2", "--expr", "a*b + b*a", "--assert"],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["result"]["holds"] is True


def test_terminal_conventions(capsys):
    code, out, _ = run_cli(["--json", "terminal", "--fixture", "w2sym"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["result"] == {"convention": "left", "terminal": True}
    code, _, _ = run_cli(
        ["terminal", "--fixture", "w2sym", "--convention", "sym", "--assert-not"], capsys
    )
    assert code == 0


def test_twist_quasi(capsys):
    code, out, _ = run_cli(
        ["--json", "twist", "quasi", "--fixture", "matrix2", "--lambda", "1/2"], capsys
    )
    assert code == 0
    doc = json.loads(out)["result"]
    alg, _ = parse_algebra_document(doc)
    assert alg.table == zoo.quasi_mutation(zoo.matrix_algebra(2), "1/2").table


def test_twist_poisson_fixture(capsys):
    code, out, _ = run_cli(["--json", "twist", "poisson", "--fixture", "poisson_trunc"], capsys)
    assert code == 0
    doc = json.loads(out)["result"]
    alg, _ = parse_algebra_document(doc)
    assert alg.table == zoo.fixture("poisson_trunc").table


def _digest(alg):
    return hashlib.sha256(dumps_algebra(alg).encode()).hexdigest()


@pytest.mark.parametrize("command", ["show", "conservative"])
def test_input_digest_is_the_digest_of_the_fixture(command, capsys):
    # twice each, so that the second call reads the digest kept from the first
    for name in sorted(zoo.FIXTURES):
        for _ in range(2):
            _, out, _ = run_cli(["--json", command, "--fixture", name], capsys)
            assert json.loads(out)["input_digest"] == _digest(zoo.fixture(name)), name


def test_input_digest_of_the_poisson_pair_a_file_and_wn(tmp_path, capsys):
    # twist poisson reads poisson_trunc's pair, so its digest is the
    # commutative algebra's, not the fixture's, on every call
    comm, bracket = zoo.truncated_poisson_pair()
    for argv in (["show"], ["twist", "poisson"], ["twist", "poisson"], ["show"]):
        _, out, _ = run_cli(["--json", *argv, "--fixture", "poisson_trunc"], capsys)
        expected = comm if argv == ["twist", "poisson"] else zoo.fixture("poisson_trunc")
        assert json.loads(out)["input_digest"] == _digest(expected), argv
    path = tmp_path / "pair.json"
    save_algebra(comm, path, bracket=bracket)
    _, out, _ = run_cli(["--json", "show", str(path)], capsys)
    assert json.loads(out)["input_digest"] == _digest(comm)
    _, out, _ = run_cli(["--json", "wn", "2"], capsys)
    assert json.loads(out)["input_digest"] == _digest(build_wn(2))


def test_twist_poisson_file(tmp_path, capsys):
    comm, bracket = zoo.truncated_poisson_pair()
    path = tmp_path / "pair.json"
    save_algebra(comm, path, bracket=bracket)
    code, out, _ = run_cli(["--json", "twist", "poisson", str(path)], capsys)
    assert code == 0


def test_twist_structurable(tmp_path, capsys):
    inv = tmp_path / "inv.json"
    inv.write_text(
        json.dumps(
            {
                "dim": 4,
                "matrix": [
                    ["1", "0", "0", "0"],
                    ["0", "0", "1", "0"],
                    ["0", "1", "0", "0"],
                    ["0", "0", "0", "1"],
                ],
            }
        )
    )
    code, out, _ = run_cli(
        ["--json", "twist", "structurable", "--fixture", "matrix2", "--involution", str(inv)],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)["result"]
    alg, _ = parse_algebra_document(doc)
    expected = zoo.structurable_twist(zoo.matrix_algebra(2), zoo.transpose_involution_2x2())
    assert alg.table == expected.table


def test_exit_usage(capsys):
    assert run_cli(["conservative"], capsys)[0] == 64
    assert run_cli(["identity", "--fixture", "sl2"], capsys)[0] == 64


def test_twist_without_kind_exits_64(capsys):
    code, _, err = run_cli(["twist"], capsys)
    assert code == 64
    assert "twist_kind" in err


def test_exit_data_errors(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"dim": 1, "basis": ["e1"], "table": {"e1*e1": {"e1": "1/0"}}}')
    assert run_cli(["show", str(bad)], capsys)[0] == 65
    assert run_cli(["show", str(tmp_path / "missing.json")], capsys)[0] == 65
    assert run_cli(["show", "--fixture", "bogus"], capsys)[0] == 65


def test_exit_budget(capsys):
    code, _, _ = run_cli(["codim1", "--fixture", "wn2", "--budget", "0"], capsys)
    assert code == 69


def test_negative_budget_exits_64(capsys):
    code, out, err = run_cli(["--json", "codim1", "--fixture", "wn2", "--budget", "-1"], capsys)
    assert code == 64
    assert out == "" and "--budget must be nonnegative" in err


@pytest.mark.parametrize("source", [["--name", "lie"], ["--file", "anti.json"]])
def test_vars_without_expr_exits_64(source, tmp_path, capsys, monkeypatch):
    (tmp_path / "anti.json").write_text('{"name": "anti", "vars": ["a", "b"], "zero": "a*b + b*a"}')
    monkeypatch.chdir(tmp_path)
    argv = ["--json", "identity", "--fixture", "sl2", *source, "--vars", "a,b"]
    code, out, err = run_cli(argv, capsys)
    assert code == 64
    assert out == "" and "--vars applies only to --expr" in err


def test_show_file_roundtrip(tmp_path, capsys):
    alg = zoo.fixture("s2")
    path = tmp_path / "s2.json"
    save_algebra(alg, path)
    code, out, _ = run_cli(["--json", "show", str(path)], capsys)
    assert code == 0
    payload = json.loads(out)
    loaded, _ = parse_algebra_document(payload["result"])
    assert loaded.table == alg.table


def test_fixture_command_audits(capsys):
    code, out, _ = run_cli(["fixture", "s2"], capsys)
    assert code == 0
    assert "z4 * z2 = -2*z1" in out
    assert "erratum" not in out


def _readme_commands():
    """(argv, documented exit code) for each line of the README command block."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```")[1]
    commands = []
    for line in block.replace("\\\n", " ").strip().splitlines():
        documented = re.search(r"#.*\bexits (\d+)", line)
        commands.append((shlex.split(line, comments=True)[1:], int(documented.group(1)) if documented else 0))
    return commands


@pytest.mark.parametrize("argv,documented", _readme_commands(), ids=lambda x: " ".join(x) if isinstance(x, list) else str(x))
def test_readme_command_exits_as_documented(argv, documented, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    code, out, _ = run_cli(argv, capsys)
    assert code == documented
    if "--json" in argv[1:]:
        json_first = ["--json"] + [a for a in argv if a != "--json"]
        assert run_cli(json_first, capsys)[:2] == (code, out)


@pytest.mark.parametrize(
    "argv",
    [
        ["twist", "quasi", "--fixture", "matrix2", "--lambda", "1/3", "--json"],
        ["twist", "--json", "quasi", "--fixture", "matrix2", "--lambda", "1/3"],
        ["fixture", "sl2", "--json"],
        ["--json", "wn", "1", "--json"],
    ],
)
def test_json_flag_anywhere_gives_the_same_report(argv, capsys):
    json_first = ["--json"] + [a for a in argv if a != "--json"]
    assert run_cli(argv, capsys)[:2] == run_cli(json_first, capsys)[:2]


def test_involution_matrix_not_a_list_exits_65(tmp_path, capsys):
    inv = tmp_path / "inv.json"
    inv.write_text('{"dim": 4, "matrix": 5}')
    argv = ["twist", "structurable", "--fixture", "matrix2", "--involution", str(inv)]
    assert run_cli(argv, capsys)[0] == 65


def test_involution_row_not_a_list_exits_65(tmp_path, capsys):
    inv = tmp_path / "inv.json"
    inv.write_text('{"dim": 4, "matrix": [5, 5, 5, 5]}')
    argv = ["twist", "structurable", "--fixture", "matrix2", "--involution", str(inv)]
    assert run_cli(argv, capsys)[0] == 65


def test_algebra_dim_true_exits_65(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"dim": true, "basis": ["e1"], "table": {}}')
    assert run_cli(["show", str(bad)], capsys)[0] == 65


def test_involution_dim_true_exits_65(tmp_path, capsys):
    alg = tmp_path / "unit.json"
    alg.write_text('{"dim": 1, "basis": ["e"], "table": {"e*e": {"e": "1"}}}')
    inv = tmp_path / "inv.json"
    inv.write_text('{"dim": 1, "matrix": [["1"]]}')
    argv = ["twist", "structurable", str(alg), "--involution", str(inv)]
    assert run_cli(argv, capsys)[0] == 0
    inv.write_text('{"dim": true, "matrix": [["1"]]}')
    assert run_cli(argv, capsys)[0] == 65


def test_unhashable_basis_name_exits_65(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"dim": 1, "basis": [["e1"]], "table": {}}')
    assert run_cli(["show", str(bad)], capsys)[0] == 65


DEEP_JSON = "[" * 100_000 + "]" * 100_000


def test_deeply_nested_algebra_file_exits_65(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text(DEEP_JSON)
    assert run_cli(["show", str(deep)], capsys)[0] == 65


def test_deeply_nested_involution_file_exits_65(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text(DEEP_JSON)
    argv = ["twist", "structurable", "--fixture", "matrix2", "--involution", str(deep)]
    assert run_cli(argv, capsys)[0] == 65


def test_deeply_nested_identity_file_is_a_format_error(tmp_path):
    deep = tmp_path / "deep.json"
    deep.write_text(DEEP_JSON)
    with pytest.raises(AlgebraFormatError):
        load_identity(deep)


@pytest.mark.parametrize(
    "expr",
    [
        "(" * 3000 + "a*b" + ")" * 3000,
        "{" * 3000 + "a" + ", b}" * 3000,
        "(" * (MAX_NESTING + 1) + "a*b" + ")" * (MAX_NESTING + 1),
    ],
    ids=["parentheses", "brackets", "one-past-the-cap"],
)
def test_deep_expression_exits_65(expr, capsys):
    code, _, err = run_cli(["identity", "--fixture", "sl2", "--expr", expr], capsys)
    assert code == 65
    assert "nested deeper" in err


def test_expression_at_the_nesting_cap_is_checked(capsys):
    expr = "(" * MAX_NESTING + "a*b + b*a" + ")" * MAX_NESTING
    assert run_cli(["identity", "--fixture", "sl2", "--expr", expr, "--assert"], capsys)[0] == 0


def test_long_sum_is_checked(capsys):
    # a sum of any length is one level of nesting; on sl2 every pair cancels
    expr = " + ".join(["a*b", "b*a"] * 1500)
    assert run_cli(["identity", "--fixture", "sl2", "--expr", expr, "--assert"], capsys)[0] == 0


def test_number_past_the_digit_cap_exits_65(capsys):
    expr = "9" * (sys.get_int_max_str_digits() + 1) + "*(a*b)"
    code, out, err = run_cli(["identity", "--fixture", "sl2", "--expr", expr], capsys)
    assert code == 65
    assert out == "" and "number longer than" in err and "(byte 0)" in err


@pytest.mark.parametrize(
    "value", ["1e5000", "0.5", "1_000", " 1", "9" * 5000, "1/" + "7" * 5000]
)
def test_rational_outside_the_documented_form_exits_65(value, tmp_path, capsys):
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"dim": 1, "basis": ["e"], "table": {"e*e": {"e": value}}}))
    for command in ("show", "conservative", "derivations", "codim1"):
        code, out, err = run_cli([command, str(path)], capsys)
        assert code == 65
        assert out == "" and "not a rational" in err
    code, out, err = run_cli(["twist", "quasi", "--fixture", "matrix2", "--lambda", value], capsys)
    assert code == 65
    assert out == "" and "bad rational" in err


def test_json_integer_past_the_digit_cap_exits_65(tmp_path, capsys):
    path = tmp_path / "dim.json"
    path.write_text('{"dim": ' + "9" * 5000 + ', "basis": [], "table": {}}')
    code, out, err = run_cli(["show", str(path)], capsys)
    assert code == 65
    assert out == "" and "integer of more than" in err


@pytest.mark.parametrize(
    "text, argv, key",
    [
        ('{"dim": 2, "basis": ["e1", "e2"], "table": {"e1*e1": {"e1": "1"}, "e1*e1": {"e2": "5"}}}', ["--json", "show"], "e1*e1"),
        ('{"dim": 1, "basis": ["e1"], "table": {"e1*e1": {"e1": "1", "e1": "7"}}}', ["--json", "show"], "e1"),
        ('{"name": "t", "vars": ["a"], "zero": "a*a", "zero": "a"}', ["identity", "--fixture", "sl2", "--file"], "zero"),
    ],
    ids=["product", "coefficient", "identity"],
)
def test_duplicate_json_key_exits_65(text, argv, key, tmp_path, capsys):
    path = tmp_path / "twice.json"
    path.write_text(text)
    code, out, err = run_cli(argv + [str(path)], capsys)
    assert code == 65
    assert out == "" and f"duplicate key {key!r}" in err


NOT_UTF8 = b'{"dim": 1, "basis": ["\xff"], "table": {}}'
SURROGATE_NAME = b'{"dim": 1, "basis": ["\\ud800"], "table": {"\\ud800*\\ud800": {"\\ud800": "1"}}}'


@pytest.mark.parametrize(
    "content, argv, message",
    [
        (NOT_UTF8, ["show"], b"not UTF-8"),
        (NOT_UTF8, ["twist", "structurable", "--fixture", "matrix2", "--involution"], b"not UTF-8"),
        (NOT_UTF8, ["identity", "--fixture", "sl2", "--file"], b"not UTF-8"),
        (SURROGATE_NAME, ["show"], b"lone surrogate"),
        (SURROGATE_NAME, ["--json", "show"], b"lone surrogate"),
    ],
    ids=["algebra-not-utf8", "involution-not-utf8", "identity-not-utf8", "surrogate-name", "surrogate-name-json"],
)
def test_text_that_cannot_be_read_or_written_exits_65(content, argv, message, tmp_path):
    path = tmp_path / "input.json"
    path.write_bytes(content)
    proc = subprocess.run(
        [sys.executable, "-m", "kantor.cli", *argv, str(path)],
        capture_output=True,
        env=_process_env(),
        timeout=120,
    )
    assert proc.returncode == 65
    assert proc.stdout == b"" and message in proc.stderr
    assert b"Traceback" not in proc.stderr


def test_results_print_at_any_size(tmp_path, capsys):
    # a 3000-digit constant c gives (a*a)*a = c^2 a^3, a 6000-digit witness
    c = int("7" * 3000)
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"dim": 1, "basis": ["e"], "table": {"e*e": {"e": str(c)}}}))
    limit = sys.get_int_max_str_digits()
    code, out, _ = run_cli(["--json", "identity", str(path), "--expr", "(a*a)*a"], capsys)
    assert code == 0
    witness = json.loads(out)["result"]["identities"][0]["witness"]
    assert sys.get_int_max_str_digits() == limit
    sys.set_int_max_str_digits(0)
    try:
        assert witness["coefficient"] == str(c * c)
        assert witness["defect"] == {"e": str(c * c)}
    finally:
        sys.set_int_max_str_digits(limit)


def test_identity_beyond_the_language_limits_exits_65(capsys):
    for expr in ("a*b + c*d + e*f", "((((a*a)*a)*a)*a)*a"):
        assert run_cli(["identity", "--fixture", "sl2", "--expr", expr], capsys)[0] == 65


@pytest.mark.parametrize(
    "expr, message",
    [("1/0*a", "zero denominator"), ("\u00b2*a", "unexpected character")],
    ids=["zero-denominator", "superscript-digit"],
)
def test_identity_bad_number_exits_65(expr, message, capsys):
    code, _, err = run_cli(["identity", "--fixture", "sl2", "--expr", expr], capsys)
    assert code == 65
    assert message in err


def test_identity_repeated_variable_exits_65(tmp_path, capsys):
    path = tmp_path / "twice.json"
    path.write_text('{"name": "twice", "vars": ["a", "a"], "zero": "a*a"}')
    for argv in (["--expr", "a*a", "--vars", "a,a"], ["--file", str(path)]):
        code, _, err = run_cli(["identity", "--fixture", "sl2"] + argv, capsys)
        assert code == 65
        assert "repeated variable" in err


def test_identity_variable_that_is_not_a_name_exits_65(tmp_path, capsys):
    path = tmp_path / "spaced.json"
    path.write_text('{"name": "spaced", "vars": ["a", "1 x"], "zero": "a*a"}')
    for argv in (["--expr", "a*b", "--vars", "a,b,,1 x"], ["--file", str(path)]):
        code, out, err = run_cli(["identity", "--fixture", "sl2"] + argv, capsys)
        assert code == 65
        assert out == "" and "is not a variable name" in err



@pytest.mark.parametrize("variables", ["", " , "])
def test_identity_empty_vars_exits_65(variables, capsys):
    # an empty list is a list with an empty name, not an absent --vars
    argv = ["--json", "identity", "--fixture", "sl2", "--expr", "a*b + b*a", "--vars", variables]
    code, out, err = run_cli(argv, capsys)
    assert code == 65
    assert out == "" and "'' is not a variable name" in err

@pytest.mark.parametrize(
    "argv",
    [
        ["terminal", "--fixture", "w2sym", "--convention", "sym"],
        ["conservative", "--fixture", "m7"],
        ["quasiunit", "--fixture", "wn2"],
        ["identity", "--fixture", "sl2", "--name", "lie"],
    ],
)
def test_assert_and_assert_not_together_exit_64(argv, capsys):
    code, out, err = run_cli(["--json"] + argv + ["--assert", "--assert-not"], capsys)
    assert code == 64
    assert out == "" and "not allowed with" in err


def test_identity_file(tmp_path, capsys):
    path = tmp_path / "anti.json"
    path.write_text('{"name": "anticommutative", "vars": ["a", "b"], "zero": "a*b + b*a"}')
    assert run_cli(["identity", "--fixture", "sl2", "--file", str(path), "--assert"], capsys)[0] == 0
    assert run_cli(["identity", "--fixture", "matrix2", "--file", str(path), "--assert"], capsys)[0] == 1
    assert run_cli(["identity", "--fixture", "sl2", "--file", str(path), "--name", "lie"], capsys)[0] == 64


@pytest.mark.parametrize("variables", ["5", '"ab"', '[1, 2]', '["a", null]', '{"a": 1}'])
def test_identity_file_with_bad_vars_exits_65(variables, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(f'{{"name": "x", "vars": {variables}, "zero": "a*b"}}')
    code, _, err = run_cli(["identity", "--fixture", "sl2", "--file", str(path)], capsys)
    assert code == 65
    assert "vars must be a list" in err


# -- robustness: any input ends in a documented exit code -------------------

DOCUMENTED_EXITS = {0, 1, 64, 65, 69}

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats(allow_nan=False) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)


@st.composite
def algebra_documents(draw):
    """A well-formed algebra document of dim <= 3, then one part of it (or
    the whole) replaced by an arbitrary JSON value, or nothing replaced."""
    n = draw(st.integers(1, 3))
    names = ["e1", "e2", "e3"][:n]
    keys = st.sampled_from([f"{a}*{b}" for a in names for b in names])
    combos = st.dictionaries(st.sampled_from(names), st.sampled_from(["1", "-1", "1/2", "2"]), max_size=n)
    doc = {"dim": n, "basis": names, "table": draw(st.dictionaries(keys, combos, max_size=n * n))}
    broken = draw(st.sampled_from([None, "document", "dim", "basis", "table", "entry", "value"]))
    if broken == "document":
        return draw(json_values)
    if broken in doc:
        doc[broken] = draw(json_values)
    elif broken == "entry":
        doc["table"][draw(keys | st.text(max_size=5))] = draw(json_values)
    elif broken == "value":
        doc["table"][draw(keys)] = {draw(st.sampled_from(names) | st.text(max_size=3)): draw(json_values)}
    return doc


FILE_COMMANDS = (
    ["show"],
    ["conservative"],
    ["terminal"],
    ["derivations"],
    ["jacobi"],
    ["quasiunit"],
    ["annihilator"],
    ["closure", "--gens", "e1"],
    ["codim1"],
    ["identity", "--name", "lie"],
    ["twist", "poisson"],
    ["twist", "quasi", "--lambda", "1/2"],
)


def exit_code(argv):
    """cli.main's exit code, its output discarded; any exception propagates."""
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        return cli.main(argv)


@settings(deadline=None, max_examples=40)
@given(doc=algebra_documents(), command=st.sampled_from(FILE_COMMANDS))
def test_any_json_algebra_file_ends_in_a_documented_exit(tmp_path_factory, doc, command):
    path = tmp_path_factory.mktemp("fuzz") / "alg.json"
    path.write_text(json.dumps(doc))
    assert exit_code(command + [str(path)]) in DOCUMENTED_EXITS


@settings(deadline=None, max_examples=60)
@given(
    expr=st.text(alphabet="abxy +-*(){},/0123_", max_size=24) | st.text(max_size=8),
    variables=st.none() | st.text(alphabet="abxy ,1_", max_size=8),
    fixture=st.sampled_from(["sl2", "nilpotent4", "jordan_sym2"]),
)
def test_any_expression_ends_in_a_documented_exit(expr, variables, fixture):
    argv = ["identity", "--fixture", fixture, f"--expr={expr}"]
    if variables is not None:
        argv.append(f"--vars={variables}")
    assert exit_code(argv) in DOCUMENTED_EXITS


def test_the_parser_is_built_once_per_process():
    assert cli._build_parser() is cli._build_parser()


def test_call_order_does_not_change_a_report(capsys):
    first = ["--json", "codim1", "--fixture", "s2"]
    code, before, _ = run_cli(first, capsys)
    assert code == 0
    for argv, expected in (
        (["--json", "codim1", "--fixture", "s2", "--no-such-flag"], 64),
        (["--json", "conservative", "--fixture", "s2", "--assert", "--assert-not"], 64),
        (["--json", "codim1", "--fixture", "nope"], 65),
        (["identity", "--fixture", "m7", "--name", "malcev", "--json"], 0),
    ):
        assert run_cli(argv, capsys)[0] == expected, argv
    code, after, _ = run_cli(first, capsys)
    assert code == 0
    assert after == before


def test_a_closed_stdout_exits_74_without_a_traceback():
    proc = subprocess.Popen(
        [sys.executable, "-m", "kantor.cli", "--json", "wn", "3"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=_process_env(),
    )
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 74
    assert b"Traceback" not in err
