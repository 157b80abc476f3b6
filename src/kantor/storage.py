"""Reading and writing algebra files.

The on-disk format is UTF-8 JSON:

    {"dim": n,
     "basis": ["e1", ...],
     "table": <products>,
     "bracket_table": <products>}     # optional second product

where <products> is either a dense n x n array of {basis_name: "p/q"}
maps, or a sparse object mapping "ei*ej" to {basis_name: "p/q"}; a key
is read at the one "*" that splits it into two basis names, and a key with
more than one such split is refused on reading and on writing.  Omitted
entries are zero and every rational is a string `p/q` or `p`, the sign on
the numerator; no other form is read, and no integer of more than
MAX_DIGITS digits as written.  `bracket_table` carries a second product
over the same basis (used for Poisson-style input).
"""

from __future__ import annotations

import json
import re
import sys
from fractions import Fraction

from .algebra import Algebra
from .errors import AlgebraFormatError
from .linalg import Matrix

# Most digits an integer may have as written in any input: the interpreter's
# int-string limit when this module is imported (0: no cap).  `cli.main`
# lifts that limit while it reports, so that results print at any size.
MAX_DIGITS = sys.get_int_max_str_digits()
_DIGITS = f"[0-9]{{1,{MAX_DIGITS}}}" if MAX_DIGITS else "[0-9]+"
_FORM = f"p/q or p, at most {MAX_DIGITS} digits each" if MAX_DIGITS else "p/q or p"
_RATIONAL = re.compile(f"[+-]?{_DIGITS}(?:/{_DIGITS})?")
_INTEGER = re.compile(f"-?{_DIGITS}")


def parse_rational(text) -> Fraction:
    """The documented forms `p/q` and `p`: ASCII digits, at most MAX_DIGITS
    in p and in q, and an optional sign on p.  ValueError or
    ZeroDivisionError otherwise."""
    if not _RATIONAL.fullmatch(text):
        raise ValueError(f"expected {_FORM}")
    return Fraction(text)


def _parse_rational(text, where):
    if not isinstance(text, str):
        raise AlgebraFormatError(f"rational values must be strings, got {text!r}", where)
    try:
        return parse_rational(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise AlgebraFormatError(f"not a rational: {text!r} ({exc})", where) from None


def _is_count(x):
    return isinstance(x, int) and not isinstance(x, bool) and x >= 0


def _parse_combo(obj, names, where):
    out = {}
    if not isinstance(obj, dict):
        raise AlgebraFormatError("product entries must be {basis_name: rational} maps", where)
    for name, val in obj.items():
        if name not in names:
            raise AlgebraFormatError(f"unknown basis name {name!r}", where)
        out[names.index(name)] = _parse_rational(val, f"{where}.{name}")
    return out


def _key_splits(key, index):
    """Every (i, j) with key == name_i + "*" + name_j; `index` maps names to
    indices.  Basis names may contain "*", so a key can split more ways."""
    return [
        (index[key[:p]], index[key[p + 1 :]])
        for p, ch in enumerate(key)
        if ch == "*" and key[:p] in index and key[p + 1 :] in index
    ]


def _parse_products(obj, names, where):
    """The algebra over `names` with the products `obj`, dense or sparse."""
    n = len(names)
    table = {}
    if isinstance(obj, list):
        if len(obj) != n or any(not isinstance(r, list) or len(r) != n for r in obj):
            raise AlgebraFormatError(f"dense table must be a {n}x{n} array", where)
        for i, row in enumerate(obj):
            for j, cell in enumerate(row):
                table[i, j] = _parse_combo(cell, names, f"{where}[{i}][{j}]")
    elif isinstance(obj, dict):
        index = {name: i for i, name in enumerate(names)}
        for key, cell in obj.items():
            splits = _key_splits(key, index)
            if len(splits) != 1:
                problem = "ambiguous" if splits else "bad"
                raise AlgebraFormatError(f"{problem} product key {key!r}", where)
            table[splits[0]] = _parse_combo(cell, names, f"{where}.{key}")
    else:
        raise AlgebraFormatError("table must be a dense array or a sparse object", where)
    return Algebra.from_products(n, table, names)


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
    """The JSON document in a file; malformed or too deeply nested JSON, and
    an integer of more than MAX_DIGITS digits, is an AlgebraFormatError."""

    def integer(text):
        if not _INTEGER.fullmatch(text):
            raise AlgebraFormatError(f"integer of more than {MAX_DIGITS} digits", str(path))
        return int(text)

    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh, parse_int=integer)
        except json.JSONDecodeError as exc:
            raise AlgebraFormatError(f"invalid JSON: {exc}", f"{path}:{exc.lineno}:{exc.colno}") from None
        except RecursionError:
            raise AlgebraFormatError("JSON nested too deeply", str(path)) from None


def load_algebra_pair(path):
    """Load (product, bracket-or-None) from a file."""
    return parse_algebra_document(read_json(path), where=str(path))


def load_algebra(path) -> Algebra:
    return load_algebra_pair(path)[0]


def _products_document(alg: Algebra):
    """The sparse products; a key that would read back as more than one
    basis pair is an AlgebraFormatError."""
    out = {}
    names = alg.basis_names
    index = {name: i for i, name in enumerate(names)}
    for i, row in enumerate(alg.sparse_table):
        for j, outputs in enumerate(row):
            if outputs:
                key = f"{names[i]}*{names[j]}"
                if len(_key_splits(key, index)) > 1:
                    raise AlgebraFormatError(f"ambiguous product key {key!r}: basis names contain '*'")
                out[key] = {names[k]: str(c) for k, c in outputs}
    return out


def algebra_document(alg: Algebra, bracket: Algebra = None):
    """Canonical (sparse, zero-free) JSON document for an algebra."""
    doc = {
        "dim": alg.dim,
        "basis": list(alg.basis_names),
        "table": _products_document(alg),
    }
    if bracket is not None:
        doc["bracket_table"] = _products_document(bracket)
    return doc


def dumps_algebra(alg: Algebra, bracket: Algebra = None) -> str:
    return json.dumps(algebra_document(alg, bracket), indent=2) + "\n"


def save_algebra(alg: Algebra, path, bracket: Algebra = None):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_algebra(alg, bracket))


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
