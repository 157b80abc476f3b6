"""The one JSON writer and the one reader of rationals in `storage`.

`storage.dumps_json` must write what `json.dumps(obj, indent=2,
sort_keys=...)` writes, byte for byte (`helpers.dumps_json_by_library` is
that oracle), and `storage._parse_rational` must give the value of
`Fraction(text)` behind the documented gate, as an int where integral,
with the error messages the reader has always given.
"""

import ast
import json
import math
import shlex
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from kantor import cli, storage, zoo
from kantor.errors import AlgebraFormatError
from kantor.linalg import exact
from kantor.storage import MAX_DIGITS, _FORM, algebra_document, dumps_algebra, dumps_json, parse_rational
from kantor.wn import build_wn

from helpers import dumps_json_by_library
from test_golden import DESK, EXTRA_COMMANDS, _desk_argv, run_cli

ROOT = Path(__file__).resolve().parents[1]
COMMAND_LINES = sorted(set(DESK) | set(EXTRA_COMMANDS))


def _same_in_both_modes(obj):
    for sort_keys in (False, True):
        assert dumps_json(obj, sort_keys) == dumps_json_by_library(obj, sort_keys)


# -- the writer ----------------------------------------------------------------


@pytest.mark.parametrize("line", COMMAND_LINES)
def test_every_report_is_written_as_json_writes_it(line, monkeypatch):
    # every document the command writes, its report and its input digest
    # included, in both sort modes
    monkeypatch.chdir(ROOT)
    written = []

    def spy(obj, sort_keys=False):
        written.append(obj)
        return dumps_json(obj, sort_keys)

    monkeypatch.setattr(cli, "dumps_json", spy)
    monkeypatch.setattr(storage, "dumps_json", spy)
    argv = _desk_argv(line) if line in DESK else shlex.split(line)
    code, _, _ = run_cli(argv)
    if "--json" in argv and code in (0, 1, 69):
        assert written  # a report was written
    for obj in written:
        _same_in_both_modes(obj)


def _algebras():
    pair = zoo.truncated_poisson_pair()
    cases = {name: (zoo.fixture(name), None) for name in sorted(zoo.FIXTURES)}
    cases.update({"W3": (build_wn(3), None), "W4": (build_wn(4), None), "poisson pair": pair})
    return cases


@pytest.mark.parametrize("name", list(_algebras()))
def test_dumps_algebra_is_written_as_json_writes_it(name):
    alg, bracket = _algebras()[name]
    doc = algebra_document(alg, bracket)
    assert dumps_algebra(alg, bracket) == dumps_json_by_library(doc) + "\n"
    _same_in_both_modes(doc)


_TRICKY = ["", '"', "\\", "\x00", "\x1f", "\x7f", " ", "é", "é中", "\ud800", "\udfff", "\U0001f600", "a\nb\tc"]
_texts = st.text(st.characters(exclude_categories=())) | st.sampled_from(_TRICKY)
_scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(10**60), max_value=10**60)
    | st.floats()
    | _texts
)
_documents = st.recursive(
    _scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(_texts, inner, max_size=4),
    max_leaves=40,
)


@settings(max_examples=300, deadline=None)
@given(_documents)
def test_any_document_is_written_as_json_writes_it(doc):
    _same_in_both_modes(doc)


def test_keys_other_than_strings_are_written_as_json_writes_them():
    _same_in_both_modes({7: "a", -2: [], 2.5: {}, True: None, -math.inf: 1, math.nan: 2})
    mixed = {None: 1, False: 0, "a": 2, 10**30: 3}
    assert dumps_json(mixed) == dumps_json_by_library(mixed)
    with pytest.raises(TypeError):  # keys that do not sort, as json
        dumps_json_by_library(mixed, sort_keys=True)
    with pytest.raises(TypeError):
        dumps_json(mixed, sort_keys=True)


@pytest.mark.parametrize(
    "obj",
    [Fraction(1, 2), {1, 2}, [1, Fraction(3)], {"a": [{"b": {2}}]}, {(1, 2): 3}, {"a": {Fraction(1): 0}}],
)
def test_what_json_refuses_is_a_type_error(obj):
    with pytest.raises(TypeError) as expected:
        dumps_json_by_library(obj)
    with pytest.raises(TypeError) as got:
        dumps_json(obj)
    assert str(got.value) == str(expected.value)


class _JsonDumps(ast.NodeVisitor):
    """Every `x.dump` and `x.dumps` in a module, with the innermost function
    around it (None at module level)."""

    def __init__(self):
        self.functions, self.found = [], []

    def visit_FunctionDef(self, node):
        self.functions.append(node.name)
        self.generic_visit(node)
        self.functions.pop()

    def visit_Attribute(self, node):
        if node.attr in ("dump", "dumps"):
            self.found.append((self.functions[-1] if self.functions else None, ast.unparse(node)))
        self.generic_visit(node)

    def visit_ImportFrom(self, node):
        if node.module == "json" or (node.module or "").startswith("json."):
            self.found += [(None, f"from {node.module} import {a.name}") for a in node.names if "dump" in a.name]


def test_json_dump_is_called_only_in_the_writers_scalar_fallback():
    found = []
    for path in sorted((ROOT / "src" / "kantor").glob("*.py")):
        finder = _JsonDumps()
        finder.visit(ast.parse(path.read_text(encoding="utf-8")))
        found += [(path.name, *hit) for hit in finder.found]
    assert found == [("storage.py", "_json", "json.dumps")]


# -- the reader ----------------------------------------------------------------

_LONG = "9" * (MAX_DIGITS + 1)
_RATIONALS = [
    ("+3", 3),
    ("-0", 0),
    ("007/014", Fraction(1, 2)),
    ("-12/8", Fraction(-3, 2)),
    ("6/3", 2),
    ("9" * MAX_DIGITS, int("9" * MAX_DIGITS)),
]
_MALFORMED = [
    ("1/0", "not a rational: '1/0' (Fraction(1, 0))"),
    ("-3/0", "not a rational: '-3/0' (Fraction(-3, 0))"),
    ("0/0", "not a rational: '0/0' (Fraction(0, 0))"),
    ("1/-2", f"not a rational: '1/-2' (expected {_FORM})"),
    (" 1", f"not a rational: ' 1' (expected {_FORM})"),
    ("1.5", f"not a rational: '1.5' (expected {_FORM})"),
    ("", f"not a rational: '' (expected {_FORM})"),
    ("²", f"not a rational: '²' (expected {_FORM})"),
    ("١", f"not a rational: '١' (expected {_FORM})"),
    (_LONG, f"not a rational: '{_LONG}' (expected {_FORM})"),
    (3, "rational values must be strings, got 3"),
]


@pytest.mark.parametrize("text, value", _RATIONALS)
def test_a_rational_reads_as_its_exact_value(text, value):
    got = storage._parse_rational(text, "where")
    assert got == value == exact(Fraction(text))
    assert type(got) is type(exact(Fraction(text)))
    assert type(parse_rational(text)) is Fraction and parse_rational(text) == value


@pytest.mark.parametrize("text, message", _MALFORMED, ids=lambda x: repr(x)[:12])
def test_a_malformed_rational_is_refused_as_before(text, message, tmp_path, capsys):
    with pytest.raises(AlgebraFormatError) as refused:
        storage._parse_rational(text, "where")
    assert str(refused.value) == f"{message} (at where)"
    if isinstance(text, str):
        with pytest.raises(ZeroDivisionError if "Fraction(" in message else ValueError):
            parse_rational(text)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"dim": 1, "basis": ["e"], "table": {"e*e": {"e": text}}}))
    assert cli.main(["show", str(path)]) == 65
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"input error: {message} (at {path}.table.e*e.e)\n"
