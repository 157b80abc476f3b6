import functools
import random
import re
from fractions import Fraction
from itertools import product as iproduct

import pytest
from hypothesis import given, settings, strategies as st
from sympy import QQ, lex, ring

from kantor.algebra import Algebra
from kantor.errors import DimensionMismatchError, ExprSyntaxError, MissingBracketError
from kantor.identities import (
    MAX_DEGREE,
    MAX_NESTING,
    NILPOTENT4,
    Bracket,
    Identity,
    Prod,
    Sum,
    Var,
    builtin_identities,
    check_identity,
    defect_coordinates,
    evaluate_identity,
    free_variables,
    generic_defect,
    identity,
    is_nilpotent4,
    parse_expr,
    product_degree,
    suite_holds,
)
from kantor.linalg import frac, unit_vec
from kantor import identities, wn, zoo

from helpers import expand_whole, typed, whole_defect


def test_parse_associator():
    ast = parse_expr("(a*b)*c - a*(b*c)")
    assert ast == Sum((
        (1, Prod(Prod(Var("a"), Var("b")), Var("c"))),
        (-1, Prod(Var("a"), Prod(Var("b"), Var("c")))),
    ))


def test_parse_poisson_rule():
    ast = parse_expr("{a*b, c} - a*{b,c} - {a,c}*b")
    assert ast == Sum((
        (1, Bracket(Prod(Var("a"), Var("b")), Var("c"))),
        (-1, Prod(Var("a"), Bracket(Var("b"), Var("c")))),
        (-1, Prod(Bracket(Var("a"), Var("c")), Var("b"))),
    ))


def test_parse_left_commutativity():
    ast = parse_expr("a*(b*x) - b*(a*x)")
    assert free_variables(ast) == {"a", "b", "x"}


def test_parse_scalar_prefix():
    ast = parse_expr("2/3*(a*b) - c")
    assert ast == Sum(((Fraction(2, 3), Prod(Var("a"), Var("b"))), (-1, Var("c"))))
    assert all(type(coeff) is Fraction for coeff, _ in ast.terms)
    # one term of coefficient 1 is the bare node, a scaled one a Sum
    assert parse_expr("a*b") == parse_expr("(a*b)") == Prod(Var("a"), Var("b"))
    assert parse_expr("3*(a*b)") == Sum(((3, Prod(Var("a"), Var("b"))),))


def test_parse_errors_carry_offsets():
    with pytest.raises(ExprSyntaxError) as err:
        parse_expr("a*b*c")
    assert err.value.offset == 3
    with pytest.raises(ExprSyntaxError) as err:
        parse_expr("(a*b")
    assert err.value.offset == 4
    with pytest.raises(ExprSyntaxError) as err:
        parse_expr("a?b")
    assert err.value.offset == 1


def test_undeclared_variable_rejected():
    with pytest.raises(ExprSyntaxError):
        identity("bad", ("a",), "a*b")


def test_catalog_contents():
    cat = builtin_identities()
    assert len(cat) >= 10
    for name in (
        "associative", "commutative", "anticommutative", "jordan", "lie",
        "left_leibniz", "malcev", "flexible", "noncommutative_jordan",
        "left_commutative", "poisson_leibniz", "conservative_left_commutative",
    ):
        assert name in cat


def test_jordan_fixture_satisfies_jordan(jordan):
    assert suite_holds(jordan, builtin_identities()["jordan"])


def test_sl2_is_lie(sl2):
    assert suite_holds(sl2, builtin_identities()["lie"])


def test_m7_malcev_but_not_associative(m7):
    cat = builtin_identities()
    assert suite_holds(m7, cat["anticommutative"])
    assert suite_holds(m7, cat["malcev"])
    verdict = check_identity(m7, cat["associative"].identities[0])
    assert not verdict.holds
    w = verdict.witness
    assert w.coefficient != 0
    assert any(w.defect)
    # the witness assignment reproduces the defect through direct evaluation
    again = evaluate_identity(m7, verdict.identity, w.assignment)
    assert again == w.defect


def test_eq4_template_on_nilpotent_fixture(nilp4):
    cat = builtin_identities()
    assert suite_holds(nilp4, cat["left_commutative"])
    assert suite_holds(nilp4, cat["conservative_left_commutative"], bracket=zoo.zero_algebra(3))


def test_suite_holds_builds_no_witness(monkeypatch):
    def no_witness(poly, candidates=()):
        raise AssertionError("a witness was built")

    monkeypatch.setattr(identities, "_find_nonvanishing", no_witness)
    assert not suite_holds(wn.build_wn(2), NILPOTENT4)
    with pytest.raises(MissingBracketError):
        suite_holds(zoo.zero_algebra(3), builtin_identities()["poisson_leibniz"])


def test_missing_bracket_raises(nilp4):
    cat = builtin_identities()
    with pytest.raises(MissingBracketError):
        check_identity(nilp4, cat["poisson_leibniz"].identities[0])
    with pytest.raises(MissingBracketError):
        evaluate_identity(nilp4, cat["poisson_leibniz"].identities[0], {v: unit_vec(3, 0) for v in "abc"})


def _multilinear_all_tuples_oracle(alg, ident):
    """Direct substitution of all basis tuples; valid for multilinear
    identities only, and fully independent of the symbolic expansion."""
    n = alg.dim
    k = len(ident.variables)
    for combo in iproduct(range(n), repeat=k):
        assignment = {
            v: unit_vec(n, i) for v, i in zip(ident.variables, combo)
        }
        if any(evaluate_identity(alg, ident, assignment)):
            return False
    return True


def test_multilinear_agreement_with_basis_oracle(sl2, m7, matrix2):
    cat = builtin_identities()
    multilinear = [
        cat["associative"].identities[0],
        cat["lie"].identities[1],          # jacobi
        cat["left_leibniz"].identities[0],
        cat["left_commutative"].identities[0],
    ]
    fixtures = [sl2, m7, matrix2, zoo.simple_left_commutative(2), zoo.left_leibniz2()]
    for alg in fixtures:
        for ident in multilinear:
            assert check_identity(alg, ident).holds == _multilinear_all_tuples_oracle(alg, ident)


def _random_vectors(alg, variables, rng):
    return {
        v: tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(alg.dim))
        for v in variables
    }


def test_soundness_protocol_random_points():
    rng = random.Random(2024)
    cat = builtin_identities()
    fixtures = [
        zoo.fixture(n)
        for n in ("matrix2", "sl2", "jordan_sym2", "nilpotent4", "m7", "slc2", "leibniz2", "zero2")
    ]
    for alg in fixtures:
        for suite in cat.values():
            if suite.needs_bracket:
                continue
            for ident in suite.identities:
                verdict = check_identity(alg, ident)
                if verdict.holds:
                    for _ in range(25):
                        assignment = _random_vectors(alg, ident.variables, rng)
                        assert not any(evaluate_identity(alg, ident, assignment))
                else:
                    assert any(verdict.witness.defect)


def test_scaled_identity_evaluation():
    alg = zoo.simple_left_commutative(2)
    ident = identity("scaled", ("a", "b"), "2*(a*b) - 2*(a*b)")
    assert check_identity(alg, ident).holds


def test_identity_file_roundtrip(tmp_path):
    import json

    from kantor.identities import load_identity

    path = tmp_path / "flex.json"
    path.write_text(json.dumps({"name": "flex", "vars": ["a", "b"], "zero": "(a*b)*a - a*(b*a)"}))
    ident = load_identity(path)
    assert ident.name == "flex"
    assert check_identity(zoo.jordan_sym2(), ident).holds

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"name": "x", "vars": ["a"]}))
    from kantor.errors import AlgebraFormatError

    with pytest.raises(AlgebraFormatError):
        load_identity(bad)


def test_repeated_variable_rejected():
    with pytest.raises(ExprSyntaxError):
        identity("twice", ("a", "a"), "a*a")


def test_clashing_symbol_names_give_a_reproducible_witness():
    # from dim 11 on, `a` coordinate 11 and `a1` coordinate 1 would both be a11
    w3 = wn.build_wn(3)
    ident = identity("adhoc", ("a", "a1"), "a*a1 - a1*a")
    verdict = check_identity(w3, ident)
    assert not verdict.holds
    w = verdict.witness
    assert len(set(w.symbols)) == len(w.symbols) == 2 * w3.dim
    assert w.symbols[0] == "a_1" and w.symbols[w3.dim] == "a1_1"
    assert any(w.defect) and w.defect[w.coordinate]
    assert evaluate_identity(w3, ident, w.assignment) == w.defect


# -- independent oracle: sympy expansion of generic symbol vectors -------------


def _sympy_defect(alg, ident, bracket=None):
    """Coordinate polynomials of the defect, expanded in a sympy
    polynomial ring (lex, generators in (var, coord) order)."""
    n = alg.dim
    R, *gens = ring([f"s{i}" for i in range(len(ident.variables) * n)], QQ, lex)
    env = {v: [gens[t * n + i] for i in range(n)] for t, v in enumerate(ident.variables)}

    def mul(table, x, y):
        out = [R.zero] * n
        for i in range(n):
            for j in range(n):
                for k, c in enumerate(table[i][j]):
                    if c:
                        out[k] += x[i] * y[j] * QQ(c.numerator, c.denominator)
        return out

    @functools.cache  # a long sum repeats its products
    def ev(node):
        if isinstance(node, Var):
            return env[node.name]
        if isinstance(node, Sum):
            out = [R.zero] * n
            for coeff, arg in node.terms:
                q = QQ(coeff.numerator, coeff.denominator)
                out = [a + q * b for a, b in zip(out, ev(arg))]
            return out
        left, right = ev(node.left), ev(node.right)
        return mul((alg if isinstance(node, Prod) else bracket).table, left, right)

    return ev(ident.expr)


def _fraction(q):
    r = QQ.to_sympy(q)
    return Fraction(int(r.p), int(r.q))


def _decoded_defect(alg, ident, bracket=None):
    """`generic_defect` with every packed monomial decoded to its exponent
    vector: one field of product_degree.bit_length() bits per symbol,
    symbol 0 in the most significant field."""
    width = product_degree(ident.expr).bit_length()
    count = len(ident.variables) * alg.dim
    mask = (1 << width) - 1
    return {
        k: {tuple(m >> width * (count - 1 - s) & mask for s in range(count)): c for m, c in terms.items()}
        for k, terms in generic_defect(alg, ident, bracket).items()
    }


def _assert_agrees_with_sympy(alg, ident, bracket=None):
    verdict = check_identity(alg, ident, bracket)
    coords = _sympy_defect(alg, ident, bracket)
    nonzero = [k for k, c in enumerate(coords) if c]
    expected_terms = {k: {m: _fraction(c) for m, c in coords[k].terms()} for k in nonzero}
    assert _decoded_defect(alg, ident, bracket) == expected_terms
    assert verdict.holds == (not nonzero)
    if verdict.holds:
        return
    w = verdict.witness
    assert w.coordinate == nonzero[0]
    assert w.monomial == coords[w.coordinate].LM
    assert w.coefficient == _fraction(coords[w.coordinate].LC)
    point = [QQ(x.numerator, x.denominator) for v in ident.variables for x in w.assignment[v]]
    expected = [_fraction(c(*point)) if c else Fraction(0) for c in coords]
    assert w.defect == tuple(expected)
    assert expected[w.coordinate] != 0


_CATALOG_IDENTITIES = tuple(dict.fromkeys(i for s in builtin_identities().values() for i in s.identities))
_SMALL_RATIONALS = st.sampled_from([0, 0, 0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 2)])


@settings(deadline=None, max_examples=100)
@given(st.data())
def test_expansion_agrees_with_sympy_on_random_algebras(data):
    n = data.draw(st.integers(1, 4))
    table = [[[data.draw(_SMALL_RATIONALS) for _ in range(n)] for _ in range(n)] for _ in range(n)]
    alg = Algebra.from_table(table)
    scaled = identity("scaled", ("a", "b"), "2/3*(a*(b*a)) - 3*((a*b)*a) + 0*(a*b)")
    ident = data.draw(st.sampled_from([i for i in _CATALOG_IDENTITIES if not i.needs_bracket] + [scaled]))
    _assert_agrees_with_sympy(alg, ident)


def _products(ident):
    """The products of a catalogue identity, as written in its source."""
    return re.split(r" [+-] ", ident.source)


@settings(deadline=None, max_examples=40)
@given(st.data())
def test_long_signed_sums_agree_with_sympy(data):
    # a sum is one node however long, so sums past MAX_NESTING terms parse
    n = data.draw(st.integers(1, 3))
    table = [[[data.draw(_SMALL_RATIONALS) for _ in range(n)] for _ in range(n)] for _ in range(n)]
    alg = Algebra.from_table(table)
    base = data.draw(st.sampled_from([i for i in _CATALOG_IDENTITIES if not i.needs_bracket]))
    length = data.draw(st.one_of(st.integers(1, 6), st.integers(MAX_NESTING + 1, MAX_NESTING + 20)))
    source = ""
    for t in range(length):
        product = data.draw(st.sampled_from(_products(base)))
        coeff = Fraction(data.draw(st.integers(0 if t else 1, 5)), data.draw(st.integers(1, 3)))
        term = product if coeff == 1 else f"{coeff}*({product})"
        source += f" {data.draw(st.sampled_from('+-'))} {term}" if t else term
    ident = identity("sum", base.variables, source)
    if length > 1:
        assert len(ident.expr.terms) == length
    _assert_agrees_with_sympy(alg, ident)


@pytest.mark.parametrize("ident", _CATALOG_IDENTITIES, ids=lambda i: i.name)
def test_expansion_agrees_with_sympy_on_the_truncated_poisson_pair(ident):
    comm, bracket = zoo.truncated_poisson_pair()
    for alg in (comm, zoo.poisson_kantor_product(comm, bracket), bracket):
        _assert_agrees_with_sympy(alg, ident, bracket)


# -- packed monomials -----------------------------------------------------------


def test_a_fifth_power_fills_its_exponent_field():
    # e1 e1 = e1: the defect of a^5 is a1^5, whose exponent takes all three
    # bits of a degree-5 field
    alg = Algebra.from_products(1, {(0, 0): {0: 1}})
    w = check_identity(alg, identity("power", ("a",), "(((a*a)*a)*a)*a")).witness
    assert (w.coordinate, w.monomial, w.coefficient) == (0, (5,), 1)
    assert w.defect == (1,)


@pytest.mark.parametrize(
    "n, products",
    [(1, {(0, 0): {0: 1}}), (2, {(0, 0): {0: 1, 1: 1}, (0, 1): {1: 2}, (1, 0): {0: -1}, (1, 1): {1: Fraction(1, 2)}})],
    ids=["idempotent", "dim2"],
)
def test_fields_widen_with_the_degree_past_max_degree(n, products):
    # identity() caps the degree; an Identity built directly is not capped,
    # and its exponents (8 here) need four bits, not the three of MAX_DEGREE
    source = "((((((a*a)*a)*a)*a)*a)*a)*a - a"
    ident = Identity("power", ("a",), source, parse_expr(source))
    assert product_degree(ident.expr) == 8 > MAX_DEGREE
    alg = Algebra.from_products(n, products)
    _assert_agrees_with_sympy(alg, ident)
    if alg.dim == 1:
        assert check_identity(alg, ident).witness.monomial == (8,)


@pytest.mark.parametrize("name", ["sl2", "matrix2", "m7", "jordan_sym2", "nilpotent4", "wn2"])
def test_generic_defect_is_coordinate_major_and_pruned(name):
    alg = zoo.fixture(name)
    for ident in _CATALOG_IDENTITIES:
        if ident.needs_bracket:
            continue
        defect = generic_defect(alg, ident)
        for k, terms in defect.items():
            assert type(k) is int and 0 <= k < alg.dim
            assert terms and all(type(m) is int and m >= 0 and c for m, c in terms.items())
        assert (not defect) == check_identity(alg, ident).holds


def test_the_w3_malcev_defect_keeps_its_terms():
    # `scripts/bench.py` reports this count as the row's defect_terms
    malcev = builtin_identities()["malcev"].identities[1]
    assert sum(map(len, generic_defect(wn.build_wn(3), malcev).values())) == 33118


def _nilpotent4_by_enumeration(alg):
    """Brute-force reference for `is_nilpotent4`: every 4-fold product of
    basis vectors, in all 5 bracketings, multiplied out through `mul_vec`."""
    n = alg.dim
    basis = [unit_vec(n, i) for i in range(n)]
    m = alg.mul_vec
    pair = [[m(basis[i], basis[j]) for j in range(n)] for i in range(n)]
    for a in range(n):
        for b in range(n):
            ab = pair[a][b]
            for c in range(n):
                for d in range(n):
                    if any(m(m(ab, basis[c]), basis[d])):
                        return False
                    if any(m(ab, pair[c][d])):
                        return False
                    if any(m(m(basis[a], pair[b][c]), basis[d])):
                        return False
                    if any(m(basis[a], m(pair[b][c], basis[d]))):
                        return False
                    if any(m(basis[a], m(basis[b], pair[c][d]))):
                        return False
    return True


_SPARSE_CONSTANTS = st.sampled_from([0] * 8 + [1, -1, 2])


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_is_nilpotent4_matches_the_enumeration(data):
    # sparse random tables are mostly not nilpotent; strictly triangular ones
    # (e_i e_j in the span of the e_k with k > max(i, j)) always are up to
    # dim 3 and need not be from dim 4 on
    if data.draw(st.booleans()):
        n = data.draw(st.integers(1, 4))
        table = [[[data.draw(_SPARSE_CONSTANTS) for _ in range(n)] for _ in range(n)] for _ in range(n)]
    else:
        n = data.draw(st.integers(2, 6))
        table = [
            [[data.draw(_SPARSE_CONSTANTS) if k > max(i, j) else 0 for k in range(n)] for j in range(n)]
            for i in range(n)
        ]
    alg = Algebra.from_table(table)
    assert is_nilpotent4(alg) == _nilpotent4_by_enumeration(alg)


def test_is_nilpotent4_matches_the_enumeration_on_fixtures():
    for name in sorted(zoo.FIXTURES):
        alg = zoo.fixture(name)
        assert is_nilpotent4(alg) == _nilpotent4_by_enumeration(alg), name


# -- coordinate at a time against the whole-expression oracle --------------------

_LEAVES = st.sampled_from([Var("a"), Var("b"), Var("c")])
_TERM_COEFFS = st.sampled_from([Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2), Fraction(-3, 2)])


def _compound(children):
    return st.one_of(
        st.builds(Prod, children, children),
        st.builds(Bracket, children, children),
        st.lists(st.tuples(_TERM_COEFFS, children), min_size=1, max_size=3).map(lambda ts: Sum(tuple(ts))),
    )


_EXPRESSIONS = st.recursive(_LEAVES, _compound, max_leaves=6)


def _raw_identity(expr, source=""):
    """An Identity over a, b and c for an expression built as a tree."""
    return Identity("expr", ("a", "b", "c"), source, expr)


def _whole_at(alg, ident, bracket, point):
    """The defect at a concrete point, {variable: coordinates}, expanded
    whole by `expand_whole`, as a tuple of Fractions."""
    env = {v: {i: {0: c} for i, c in enumerate(point[v]) if c} for v in ident.variables}
    whole = expand_whole(ident.expr, env, alg, bracket)
    return tuple(frac(whole[k][0]) if k in whole else Fraction(0) for k in range(alg.dim))


def _assert_coordinates_match_the_oracle(alg, ident, bracket):
    # values and their types: an int coefficient stays an int
    expected = typed(whole_defect(alg, ident, bracket))
    got = list(defect_coordinates(alg, ident, bracket))
    assert [k for k, _ in got] == sorted(expected)
    assert typed(dict(got)) == expected == typed(generic_defect(alg, ident, bracket))
    # and at a concrete point: coordinate i of the t-th variable is i - t
    point = {v: tuple(frac(i - t) for i in range(alg.dim)) for t, v in enumerate(ident.variables)}
    defect = evaluate_identity(alg, ident, point, bracket)
    assert all(type(c) is Fraction for c in defect)
    assert defect == _whole_at(alg, ident, bracket, point)


def _random_table(data, n):
    return Algebra.from_table(
        [[[data.draw(_SMALL_RATIONALS) for _ in range(n)] for _ in range(n)] for _ in range(n)]
    )


@settings(deadline=None, max_examples=150)
@given(st.data())
def test_defect_coordinates_are_the_oracles_nonzero_coordinates(data):
    n = data.draw(st.integers(1, 3))
    alg, bracket = _random_table(data, n), _random_table(data, n)
    _assert_coordinates_match_the_oracle(alg, _raw_identity(data.draw(_EXPRESSIONS)), bracket)


_SHAPES = {
    "variable": "a",
    "scaled variable": "3/2*a",
    "bare product": "a*b",
    "bare bracket": "{a, b}",
    "sum with a variable": "a*b - 2*a",
    "nested sums": "a - 2*(b - 1/2*(a*c) + 3*(c - {a, b}))",
    "bracket of sums": "{a + b, 2/3*(a*c) - c}",
    "product of products": "(a*b)*(c*a) - 1/2*((a*b)*c)",
}


@pytest.mark.parametrize("source", _SHAPES.values(), ids=_SHAPES.keys())
@pytest.mark.parametrize("name", ["sl2", "m7", "matrix2", "jordan_sym2", "wn2", "poisson_trunc"])
def test_each_top_level_shape_matches_the_oracle(name, source):
    alg = zoo.fixture(name)
    _assert_coordinates_match_the_oracle(alg, _raw_identity(parse_expr(source), source), alg)


_INTEGER_SHAPES = (
    "a*b - 2*(b*a + 3*(a*(b*c)) - c)",
    "{a + 2*b, a*c - 3*c}",
    "(a + b)*(c - 2*a)",
    "1/2*(2*(a*b))",
    "(1/2*(2*a))*b",
)


@pytest.mark.parametrize("source", _INTEGER_SHAPES)
@pytest.mark.parametrize("name", ["sl2", "matrix2", "m7", "nilpotent4", "wn2"])
def test_nested_integer_sums_keep_int_coefficients(name, source):
    # the parser's scalars are Fractions; an integral table and integral
    # scalars, or nested scalars whose product is integral (1/2 of 2), must
    # still give int coefficients at every level, sums inside product
    # operands included
    alg = zoo.fixture(name)
    assert all(type(c) is int for row in alg.sparse_table for outputs in row for _, c in outputs)
    ident = _raw_identity(parse_expr(source), source)
    defect = generic_defect(alg, ident, alg)
    assert typed(defect) == typed(whole_defect(alg, ident, alg))
    assert defect and all(type(c) is int for terms in defect.values() for c in terms.values())


def _oracle_witness(alg, ident, defect):
    """(coordinate, monomial, coefficient, assignment) of the witness, read
    off `defect`, the identity's whole defect, as the witness is defined;
    None when it is empty."""
    if not defect:
        return None
    n, k = alg.dim, min(defect)
    terms = defect[k]
    width, shifts = identities._fields(ident, n)
    leading = max(terms)
    point = identities._find_nonvanishing(terms, width, shifts)
    return (
        k,
        tuple(leading >> shift & (1 << width) - 1 for shift in shifts),
        terms[leading],
        {v: tuple(point.get(t * n + i, 0) for i in range(n)) for t, v in enumerate(ident.variables)},
    )


def _assert_verdict_matches_the_oracle(alg, ident, bracket, defect):
    """check_identity's verdict and witness, the defect at the witness's
    point included, against `defect`, the identity's whole defect."""
    verdict = check_identity(alg, ident, bracket)
    expected = _oracle_witness(alg, ident, defect)
    assert verdict.holds == (expected is None)
    if expected is not None:
        w = verdict.witness
        assert (w.coordinate, w.monomial, w.coefficient, w.assignment) == expected
        assert w.defect == _whole_at(alg, ident, bracket, w.assignment)
    return verdict.holds


@pytest.mark.parametrize("name", sorted(zoo.FIXTURES))
def test_witnesses_and_suite_verdicts_match_the_oracle_on_fixtures(name):
    alg = zoo.fixture(name)
    for suite in builtin_identities().values():
        holds = [
            _assert_verdict_matches_the_oracle(alg, ident, alg, whole_defect(alg, ident, alg))
            for ident in suite.identities
        ]
        assert suite_holds(alg, suite, alg) == all(holds)


_wn = functools.cache(wn.build_wn)


@pytest.mark.parametrize("suite", builtin_identities().values(), ids=lambda s: s.name)
@pytest.mark.parametrize("n", [3, 4])
def test_first_coordinate_and_witness_match_the_oracle_on_wn(n, suite):
    # at the target scale: the first nonzero coordinate, the only one
    # check_identity pulls, and the witness read off it; W(n) is its own
    # bracket
    alg = _wn(n)
    holds = []
    for ident in suite.identities:
        defect = whole_defect(alg, ident, alg)
        first = next(defect_coordinates(alg, ident, alg), None)
        k = min(defect, default=None)
        assert first == (None if k is None else (k, defect[k]))
        if first is not None:
            assert typed(dict([first])) == typed({k: defect[k]})
        holds.append(_assert_verdict_matches_the_oracle(alg, ident, alg, defect))
    assert suite_holds(alg, suite, alg) == all(holds)


def test_bracket_errors_raise_from_every_entry_point():
    alg = zoo.fixture("sl2")
    poisson = builtin_identities()["poisson_leibniz"]
    ident = poisson.identities[0]
    point = {v: unit_vec(3, 0) for v in ident.variables}
    calls = (
        lambda b: check_identity(alg, ident, b),
        lambda b: identities.check_suite(alg, poisson, b),
        lambda b: suite_holds(alg, poisson, b),
        lambda b: generic_defect(alg, ident, b),
        lambda b: defect_coordinates(alg, ident, b),  # raises before iterating
        lambda b: evaluate_identity(alg, ident, point, b),
    )
    for call in calls:
        with pytest.raises(MissingBracketError):
            call(None)
        with pytest.raises(DimensionMismatchError):
            call(zoo.zero_algebra(2))
    with pytest.raises(DimensionMismatchError):
        evaluate_identity(alg, ident, {v: unit_vec(2, 0) for v in ident.variables}, alg)
