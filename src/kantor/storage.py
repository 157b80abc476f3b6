"""Reading and writing algebra files.

The on-disk format is UTF-8 JSON:

    {"dim": n,
     "basis": ["e1", ...],
     "table": <products>,
     "bracket_table": <products>}     # optional second product

where <products> is either a dense n x n array of {basis_name: "p/q"}
maps, or a sparse object mapping "ei*ej" to {basis_name: "p/q"}; a key
is read at the one "*" that splits it into two basis names, and a key with
more than one such split is refused on reading and on writing, as is a
key given twice in any object of any file read.  A basis name that holds
a lone surrogate, which no text encoding can write, is refused on reading
and on writing.  Omitted
entries are zero and every rational is a string `p/q` or `p`, the sign on
the numerator; no other form is read, and no integer of more than
MAX_DIGITS digits as written.  `bracket_table` carries a second product
over the same basis (used for Poisson-style input).

This module is the one reader of rationals and the one JSON writer:
`dumps_json` writes every report and algebra file of the package.
"""

from __future__ import annotations

import json
import re
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote

from .algebra import Algebra
from .errors import AlgebraFormatError
from .linalg import Matrix, _exact

# Most digits an integer may have as written in any input: the interpreter's
# int-string limit when this module is imported (0: no cap).  `cli.main`
# lifts that limit while it reports, so that results print at any size.
MAX_DIGITS = sys.get_int_max_str_digits()
_DIGITS = f"[0-9]{{1,{MAX_DIGITS}}}" if MAX_DIGITS else "[0-9]+"
_FORM = f"p/q or p, at most {MAX_DIGITS} digits each" if MAX_DIGITS else "p/q or p"
_RATIONAL = re.compile(f"[+-]?{_DIGITS}(?:/{_DIGITS})?")
_INTEGER = re.compile(f"-?{_DIGITS}")
# A lone surrogate: JSON's \ud800 escape reads as one, but no text encoding
# can write it out.
_SURROGATE = re.compile("[\ud800-\udfff]")


def parse_rational(text) -> Fraction:
    """The documented forms `p/q` and `p`: ASCII digits, at most MAX_DIGITS
    in p and in q, and an optional sign on p.  ValueError or
    ZeroDivisionError otherwise."""
    return Fraction(_rational(text))


def _rational(text):
    """`parse_rational`'s value, an int where it is integral."""
    if not _RATIONAL.fullmatch(text):
        raise ValueError(f"expected {_FORM}")
    p, _, q = text.partition("/")
    return _exact(Fraction(int(p), int(q))) if q else int(p)


def _parse_rational(text, where):
    if not isinstance(text, str):
        raise AlgebraFormatError(f"rational values must be strings, got {text!r}", where)
    try:
        return _rational(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise AlgebraFormatError(f"not a rational: {text!r} ({exc})", where) from None


def _is_count(x):
    return isinstance(x, int) and not isinstance(x, bool) and x >= 0


def _parse_combo(obj, index, where):
    """{k: value} of a {basis_name: rational} map; `index` maps names to
    indices."""
    out = {}
    if not isinstance(obj, dict):
        raise AlgebraFormatError("product entries must be {basis_name: rational} maps", where)
    for name, val in obj.items():
        k = index.get(name)
        if k is None:
            raise AlgebraFormatError(f"unknown basis name {name!r}", where)
        out[k] = _parse_rational(val, f"{where}.{name}")
    return out


def _key_splits(key, index):
    """Every (i, j) with key == name_i + "*" + name_j; `index` maps names to
    indices.  Basis names may contain "*", so a key can split at any of its
    "*"s; only those positions are tried."""
    splits = []
    p = key.find("*")
    while p != -1:
        i, j = index.get(key[:p]), index.get(key[p + 1 :])
        if i is not None and j is not None:
            splits.append((i, j))
        p = key.find("*", p + 1)
    return splits


def _parse_products(obj, names, where):
    """The algebra over `names` with the products `obj`, dense or sparse."""
    n = len(names)
    index = {name: i for i, name in enumerate(names)}
    table = {}
    if isinstance(obj, list):
        if len(obj) != n or any(not isinstance(r, list) or len(r) != n for r in obj):
            raise AlgebraFormatError(f"dense table must be a {n}x{n} array", where)
        for i, row in enumerate(obj):
            for j, cell in enumerate(row):
                table[i, j] = _parse_combo(cell, index, f"{where}[{i}][{j}]")
    elif isinstance(obj, dict):
        for key, cell in obj.items():
            splits = _key_splits(key, index)
            if len(splits) != 1:
                problem = "ambiguous" if splits else "bad"
                raise AlgebraFormatError(f"{problem} product key {key!r}", where)
            table[splits[0]] = _parse_combo(cell, index, f"{where}.{key}")
    else:
        raise AlgebraFormatError("table must be a dense array or a sparse object", where)
    return Algebra.from_products(n, table, names)


def _check_names(names, where=None):
    """Refuse a basis name that holds a lone surrogate, on reading and on
    writing: no file can hold one as text."""
    for name in names:
        if _SURROGATE.search(name):
            raise AlgebraFormatError(f"basis name {name!r} holds a lone surrogate", where)


def parse_algebra_document(doc, where="<algebra>"):
    """Parse a loaded JSON document into (product, bracket-or-None)."""
    if not isinstance(doc, dict):
        raise AlgebraFormatError("top level must be an object", where)
    try:
        dim = doc["dim"]
        basis = doc["basis"]
    except KeyError as exc:
        raise AlgebraFormatError(f"missing field {exc}", where) from None
    if not _is_count(dim):
        raise AlgebraFormatError("dim must be a nonnegative integer", f"{where}.dim")
    if not isinstance(basis, list) or not all(isinstance(b, (str, int, float)) for b in basis):
        raise AlgebraFormatError("basis must be a list of names", f"{where}.basis")
    names = tuple(str(b) for b in basis)
    _check_names(names, f"{where}.basis")
    if len(names) != dim or len(set(names)) != dim:
        raise AlgebraFormatError(f"basis must list {dim} distinct names", f"{where}.basis")
    if "table" not in doc:
        raise AlgebraFormatError("missing field 'table'", where)
    alg = _parse_products(doc["table"], names, f"{where}.table")
    bracket = None
    if "bracket_table" in doc:
        bracket = _parse_products(doc["bracket_table"], names, f"{where}.bracket_table")
    return alg, bracket


def read_json(path):
    """The JSON document in a file; a file that is not UTF-8, malformed or
    too deeply nested JSON, an object with a key given twice, and an integer
    of more than MAX_DIGITS digits, is an AlgebraFormatError."""

    def integer(text):
        if not _INTEGER.fullmatch(text):
            raise AlgebraFormatError(f"integer of more than {MAX_DIGITS} digits", str(path))
        return int(text)

    def unique(pairs):
        obj = dict(pairs)
        if len(obj) < len(pairs):
            seen = set()
            for key, _ in pairs:
                if key in seen:
                    raise AlgebraFormatError(f"duplicate key {key!r}", str(path))
                seen.add(key)
        return obj

    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh, parse_int=integer, object_pairs_hook=unique)
        except json.JSONDecodeError as exc:
            raise AlgebraFormatError(f"invalid JSON: {exc}", f"{path}:{exc.lineno}:{exc.colno}") from None
        except RecursionError:
            raise AlgebraFormatError("JSON nested too deeply", str(path)) from None
        except UnicodeDecodeError as exc:
            raise AlgebraFormatError(f"not UTF-8 ({exc.reason}, byte {exc.start})", str(path)) from None


def load_algebra_pair(path):
    """Load (product, bracket-or-None) from a file."""
    return parse_algebra_document(read_json(path), where=str(path))


def load_algebra(path) -> Algebra:
    return load_algebra_pair(path)[0]


def _products_document(alg: Algebra):
    """The sparse products; a key that would read back as more than one
    basis pair is an AlgebraFormatError; only names with a "*" can make one."""
    out = {}
    names = alg.basis_names
    starred = any("*" in name for name in names)
    index = {name: i for i, name in enumerate(names)}
    for i, row in enumerate(alg.sparse_table):
        for j, outputs in enumerate(row):
            if outputs:
                key = f"{names[i]}*{names[j]}"
                if starred and len(_key_splits(key, index)) > 1:
                    raise AlgebraFormatError(f"ambiguous product key {key!r}: basis names contain '*'")
                out[key] = {names[k]: str(c) for k, c in outputs}
    return out


def algebra_document(alg: Algebra, bracket: Algebra = None):
    """Canonical (sparse, zero-free) JSON document for an algebra; a basis
    name that no file can hold, and a bracket over another basis, which
    the file could not say, are AlgebraFormatErrors."""
    _check_names(alg.basis_names)
    if bracket is not None and bracket.basis_names != alg.basis_names:
        raise AlgebraFormatError(
            f"bracket basis {list(bracket.basis_names)} is not the algebra's basis {list(alg.basis_names)}"
        )
    doc = {
        "dim": alg.dim,
        "basis": list(alg.basis_names),
        "table": _products_document(alg),
    }
    if bracket is not None:
        doc["bracket_table"] = _products_document(bracket)
    return doc


def dumps_json(obj, sort_keys=False) -> str:
    """`json.dumps(obj, indent=2, sort_keys=sort_keys)`, byte for byte.

    json writes an indented document with its pure-Python encoder; here
    strings go through json's C quoting and ints through `int.__repr__`,
    and any other scalar through json itself, so a value json cannot write
    (a Fraction, a set) raises the same TypeError."""
    return _json(obj, "\n", sort_keys)


def _json(obj, newline, sort_keys):
    """`dumps_json` of obj at the indentation that ends `newline`."""
    if isinstance(obj, str):
        return _quote(obj)
    if type(obj) is int:
        return int.__repr__(obj)
    inner = newline + "  "
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        parts = [_json(x, inner, sort_keys) for x in obj]
        return f"[{inner}{(',' + inner).join(parts)}{newline}]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = sorted(obj.items()) if sort_keys else obj.items()
        parts = [
            f"{_quote(k if isinstance(k, str) else _json_key(k))}: {_json(v, inner, sort_keys)}"
            for k, v in items
        ]
        return f"{{{inner}{(',' + inner).join(parts)}{newline}}}"
    return json.dumps(obj)


def _json_key(key):
    """A key other than a str as json writes it: int, float, bool and None
    only."""
    if key is None or isinstance(key, (int, float)):
        return _json(key, "", False)
    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")


def dumps_algebra(alg: Algebra, bracket: Algebra = None) -> str:
    return dumps_json(algebra_document(alg, bracket)) + "\n"


def save_algebra(alg: Algebra, path, bracket: Algebra = None):
    """Write `dumps_algebra` to path; a document it refuses leaves no file."""
    text = dumps_algebra(alg, bracket)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def load_linear_map(path, expected_dim=None) -> Matrix:
    """Load an n x n map from {"dim": n, "matrix": [["p/q", ...], ...]}.

    matrix[i][j] is the coefficient of e_i in the image of e_j, the
    column action of `linalg.Matrix`: column j holds the image of e_j.
    """
    doc = read_json(path)
    if not isinstance(doc, dict) or "matrix" not in doc:
        raise AlgebraFormatError("expected an object with a 'matrix' field", str(path))
    rows = doc["matrix"]
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise AlgebraFormatError("matrix must be a list of rows", f"{path}.matrix")
    n = doc.get("dim", len(rows))
    if not _is_count(n):
        raise AlgebraFormatError("dim must be a nonnegative integer", f"{path}.dim")
    if expected_dim is not None and n != expected_dim:
        raise AlgebraFormatError(f"map has dim {n}, algebra has dim {expected_dim}", str(path))
    if len(rows) != n or any(len(r) != n for r in rows):
        raise AlgebraFormatError(f"matrix must be {n}x{n}", f"{path}.matrix")
    parsed = [
        [_parse_rational(rows[i][j], f"{path}.matrix[{i}][{j}]") for j in range(n)]
        for i in range(n)
    ]
    return Matrix.from_rows(parsed)
