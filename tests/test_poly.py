import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from kantor.errors import BudgetExceededError
from kantor.poly import (
    MAX_REDUCTIONS,
    Poly,
    _distinct,
    _substitute_all,
    buchberger,
    normal_form,
    s_polynomial,
    solve_rational,
    univariate_rational_roots,
)

from helpers import distinct_pairwise, evaluate, machine_form, substitute_each


def P(name, variables):
    return Poly.var(name, variables)


def test_square_expansion():
    V = ("x", "y")
    x, y = P("x", V), P("y", V)
    assert (x + y) ** 2 == x**2 + 2 * x * y + y**2


def test_normal_form_basic():
    x = P("x", ("x",))
    assert normal_form(x**2, [x]).is_zero()


def test_integer_coefficients_are_coerced_to_fractions():
    # normal_form divides by leading coefficients: int inputs must not
    # leave it float quotients
    remainder = normal_form(Poly(("x",), {(1,): 1}), [Poly(("x",), {(1,): 3, (0,): 1})])
    assert remainder == Poly.const(Fraction(-1, 3), ("x",))
    assert all(type(c) is Fraction for c in remainder.terms.values())


def _exact_terms(p):
    return all(type(c) in (int, Fraction) for c in p.terms.values())


def test_int_inputs_leave_no_floats_at_the_boundary():
    # coefficients are ints where integral inside; whatever leaves the engine
    # is an int or a Fraction of the exact value (a float quotient would
    # reach a Poly as the float's binary value), and the views are Fractions
    V = ("x", "y")
    x, y = P("x", V), P("y", V)
    f, g = 3 * x * y - 2, 2 * y**2 - 8
    gb = buchberger([f, g])
    assert [str(h) for h in gb] == ["x - 1/6*y", "y^2 - 4"]
    for p, text in (
        *((h, str(h)) for h in gb),
        (normal_form(x * y**2, [f]), "2/3*y"),
        (f.monic(), "x*y - 2/3"),
        (s_polynomial(f, g), "4*x - 2/3*y"),
        (f.substitute("x", Fraction(1, 2)), "3/2*y - 2"),
        (f.substitute("y", 3), "9*x - 2"),
        (g.substitute("y", 2 * x - 1), "8*x^2 - 8*x - 6"),
    ):
        assert str(p) == text and _exact_terms(p)
    assert type(Poly.const(4, V).constant_value()) is Fraction
    assert type(Poly.zero(V).constant_value()) is Fraction
    sols = solve_rational(gb)
    assert sols.points == ((Fraction(-1, 3), Fraction(-2)), (Fraction(1, 3), Fraction(2)))
    assert all(type(v) is Fraction for point in sols.points for v in point)
    roots, _ = univariate_rational_roots([-6, 1, 1])
    assert roots == [-3, 2] and all(type(r) is Fraction for r in roots)
    ints = Poly(V, {(2, 0): 2, (0, 1): -1, (0, 0): 3})
    assert str(ints) == str(Poly(V, {e: Fraction(c) for e, c in ints.terms.items()})) == "2*x^2 - y + 3"


def test_distinct_matches_the_pairwise_scan():
    # zero polys and int, negative and rational multiples mixed in at random
    rng = random.Random(20)
    V = ("x", "y", "z")
    for _ in range(200):
        bases = []
        for _ in range(rng.randint(1, 4)):
            terms = {
                tuple(rng.randint(0, 2) for _ in V): Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                for _ in range(rng.randint(0, 3))
            }
            bases.append(Poly(V, terms))
        gens = []
        for _ in range(rng.randint(0, 12)):
            scale = rng.choice([1, -1, 2, -3, Fraction(1, 2), Fraction(-5, 3), 0])
            gens.append(rng.choice(bases) * scale)
        got = _distinct(gens)
        assert [id(g) for g in got] == [id(g) for g in distinct_pairwise(gens)]


def test_normal_form_evaluates_consistently_on_variety():
    V = ("x", "y")
    x, y = P("x", V), P("y", V)
    target = x**2 * y
    nf = normal_form(target, [x**2 - 1, y - x])
    for root in ((1, 1), (-1, -1)):
        env = dict(zip(V, root))
        assert evaluate(target, env) == evaluate(nf, env)


def test_str_form():
    V = ("a1", "a2", "a3")
    p = Fraction(2, 3) * P("a1", V) ** 2 * P("a3", V) - P("a2", V)
    assert str(p) == "2/3*a1^2*a3 - a2"
    assert machine_form(p)[0]["exponents"] == [2, 0, 1]


def _str_reference(poly):
    if not poly.terms:
        return "0"
    parts = []
    for e, c in poly.sorted_terms():
        factors = []
        for v, x in zip(poly.variables, e):
            if x == 1:
                factors.append(v)
            elif x:
                factors.append(f"{v}^{x}")
        body = "*".join(factors)
        mag = abs(c)
        coeff = "" if (mag == 1 and body) else str(mag)
        piece = "*".join(p for p in (coeff, body) if p) or "1"
        parts.append(("- " if c < 0 else "+ ") + piece)
    s = " ".join(parts)
    return s[2:] if s.startswith("+ ") else "-" + s[2:]


@settings(deadline=None, max_examples=200)
@given(
    # "" and names containing "*" included: the writer takes names as given
    st.lists(st.one_of(st.just(""), st.text(alphabet="ab*", max_size=2)), max_size=3, unique=True).flatmap(
        lambda names: st.tuples(
            st.just(names),
            st.dictionaries(
                st.tuples(*(st.integers(0, 2) for _ in names)),
                st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3)),
                max_size=4,
            ),
        )
    )
)
def test_str_matches_the_reference(case):
    names, terms = case
    p = Poly(names, terms)
    assert str(p) == _str_reference(p)


def test_polynomials_of_different_rings_do_not_mix():
    xyz, xy = ("x", "y", "z"), ("x", "y")
    p = P("x", xyz) * P("y", xyz) + P("z", xyz)
    q = P("x", xy) + 1
    for mixed in (
        lambda: p + q,
        lambda: q + p,
        lambda: p - q,
        lambda: p * q,
        lambda: p.substitute("x", q),
        lambda: s_polynomial(p, q),
        lambda: normal_form(p, [q]),
        lambda: normal_form(q, [p]),
        lambda: normal_form(p, [Poly.zero(xy)]),
        lambda: buchberger([p, q]),
        lambda: buchberger([q], variables=xyz),
    ):
        with pytest.raises(ValueError) as exc:
            mixed()
        assert str(xy) in str(exc.value) and str(xyz) in str(exc.value)
    assert p != q and q != p
    assert P("x", ("x",)) != P("x", xy)
    assert Poly.const(2, ("x",)) != Poly.const(2, ("y",))
    # the ring of a basis is its generators' own, zero generators included
    assert buchberger([Poly.zero(("x",))]).variables == ("x",)


def test_poly_equality_with_foreign_operands():
    one = Poly.const(1, ("x",))
    assert one == 1 and one == Fraction(1) and 1 == one
    assert one != None and None != one  # noqa: E711
    assert one != "abc" and "abc" != one
    assert one != "1"


def test_buchberger_principal():
    x = P("x", ("x",))
    gb = buchberger([x**2 - 1])
    assert [str(g) for g in gb] == ["x^2 - 1"]


def test_buchberger_two_generators():
    V = ("x", "y")
    x, y = P("x", V), P("y", V)
    gb = buchberger([x + y - 2, x * y - 1])
    assert {str(g) for g in gb} == {"x + y - 2", "y^2 - 2*y + 1"}
    sols = solve_rational(gb)
    assert sols.points == ((Fraction(1), Fraction(1)),)
    assert not sols.unresolved


def test_buchberger_s_polynomials_reduce_to_zero():
    V = ("x", "y", "z")
    x, y, z = (P(v, V) for v in V)
    gens = [x * y - z, y * z - x, x * z - y]
    gb = buchberger(gens)
    basis = list(gb)
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            assert normal_form(s_polynomial(basis[i], basis[j]), basis).is_zero()
    # every original generator reduces to zero as well
    for g in gens:
        assert normal_form(g, basis).is_zero()


def _sympy_groebner(gens, names):
    symbols = sympy.symbols(names)
    table = dict(zip(names, symbols))

    def to_sympy(p):
        expr = 0
        for e, c in p.terms.items():
            term = sympy.Rational(c.numerator, c.denominator)
            for v, k in zip(p.variables, e):
                if k:
                    term *= table[v] ** k
            expr += term
        return expr

    gb = sympy.groebner([to_sympy(g) for g in gens], *symbols, order="lex")
    monic = {sympy.expand(e / sympy.LC(e, *symbols, order="lex")) for e in gb.exprs}
    return monic, to_sympy


@settings(deadline=None, max_examples=30)
@given(st.data())
def test_buchberger_matches_sympy(data):
    # degree-1 generators go through the pre-pass's elimination rounds; ones
    # like x + y^2 (x only as c*x) are not linear and go to the S-pair loop
    names = ("x", "y", "z")
    coeff = st.integers(-3, 3)
    exps = st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2))
    linear_exps = st.sampled_from([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])

    def poly(monomials, max_size):
        terms = data.draw(st.dictionaries(monomials, coeff, min_size=1, max_size=max_size))
        return Poly(names, {e: Fraction(c) for e, c in terms.items()})

    def binding():
        i = data.draw(st.integers(0, 2))
        rest = poly(exps.map(lambda e: e[:i] + (0,) + e[i + 1:]), 2)
        unit = tuple(int(k == i) for k in range(3))
        return rest + Poly(names, {unit: Fraction(data.draw(st.sampled_from([-2, -1, 1, 3])))})

    gens = [poly(exps, 3) for _ in range(data.draw(st.integers(1, 3)))]
    gens += [binding() for _ in range(data.draw(st.integers(0, 2)))]
    gens += [poly(linear_exps, 3) for _ in range(data.draw(st.integers(0, 2)))]
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return
    # the degree cap is a guardrail with its own test; some of these bases
    # pass through degree 13
    gb = buchberger(gens, variables=names, max_degree=40)
    expected, to_sympy = _sympy_groebner(gens, names)
    got = {sympy.expand(to_sympy(g)) for g in gb}
    assert got == expected


@settings(deadline=None, max_examples=30)
@given(st.data())
def test_normal_form_by_a_basis_matches_sympy(data):
    # by a Groebner basis the remainder is unique, whatever divisor each
    # step picks, so sympy's division is an oracle for ours
    names = ("x", "y")
    exps = st.tuples(st.integers(0, 3), st.integers(0, 3))

    def poly():
        terms = data.draw(st.dictionaries(exps, st.integers(-3, 3), min_size=1, max_size=4))
        return Poly(names, {e: Fraction(c) for e, c in terms.items()})

    gens = [poly() for _ in range(data.draw(st.integers(1, 2)))]
    gb = buchberger(gens, variables=names, max_degree=40)  # the cap has its own test
    if not gb.generators:
        return
    p = poly()
    basis = [_as_sympy(g) for g in gb]
    _, expected = sympy.reduced(_as_sympy(p), basis, *sympy.symbols(names), order="lex")
    assert sympy.expand(_as_sympy(normal_form(p, list(gb))) - expected) == 0


@pytest.mark.parametrize("gens", [
    # a linear round; what it leaves, y + z^2 among them, goes to the S-pairs
    lambda x, y, z: [x - y + 1, y + z**2, z**2 + y + z, x * z - y],
    # no linear generator, though x occurs only as c*x in two of them
    lambda x, y, z: [x + y**2 - z, y**2 - 1 + x, z * y - y, z**2 - 1],
    # an inconsistent linear round
    lambda x, y, z: [x + y - 1, x + y - 2, x * y * z - 3],
    # a scalar multiple dropped before the round
    lambda x, y, z: [2 * x - 4 * y, x - 2 * y, y * z - 1, z**3 - z],
])
def test_linear_prepass_paths_match_sympy(gens):
    names = ("x", "y", "z")
    gens = gens(*(P(v, names) for v in names))
    gb = buchberger(gens, variables=names)
    expected, to_sympy = _sympy_groebner(gens, names)
    assert {sympy.expand(to_sympy(g)) for g in gb} == expected


@pytest.mark.parametrize("k", [1, 2, 5])
def test_budget_charges_one_unit_per_eliminated_variable(k):
    names = tuple(f"x{i}" for i in range(k))
    gens = [P(v, names) - i for i, v in enumerate(names)]
    assert buchberger(gens, variables=names, max_reductions=k).reductions_used == k
    with pytest.raises(BudgetExceededError):
        buchberger(gens, variables=names, max_reductions=k - 1)


def test_inconsistency_with_nothing_eliminated_costs_nothing():
    names = ("x",)
    gb = buchberger([Poly.const(1, names), P("x", names) ** 2], variables=names, max_reductions=0)
    assert [str(g) for g in gb] == ["1"]
    assert gb.reductions_used == 0


@settings(deadline=None, max_examples=50)
@given(st.integers(-3, 3), st.integers(1, 3))
def test_constants_equal_their_value_in_every_ring(num, den):
    c = Fraction(num, den)
    for names in (("x", "y"), ("z",), ()):
        assert Poly.const(c, names) == c and c == Poly.const(c, names)


def test_solve_rational_principal():
    x = P("x", ("x",))
    sols = solve_rational(buchberger([x**2 - 1]))
    assert sols.points == ((Fraction(-1),), (Fraction(1),))


def test_solve_rational_irrational_reported():
    x = P("x", ("x",))
    sols = solve_rational(buchberger([x**2 - 2]))
    assert sols.points == ()
    assert len(sols.unresolved) == 1
    assert sols.unresolved[0].kind == "irrational-factor"


def test_solve_rational_positive_dimensional():
    gb = buchberger([], variables=("x",))
    sols = solve_rational(gb)
    assert sols.points == ()
    assert sols.unresolved[0].kind == "positive-dimensional"


def test_empty_ring_without_generators_has_the_one_point():
    gb = buchberger([], variables=())
    assert gb.variables == () and gb.generators == ()
    sols = solve_rational(gb)
    assert sols.points == ((),)
    assert not sols.unresolved


def test_unit_ideal_of_the_empty_ring_has_no_points():
    gb = buchberger([Poly.const(1, ())])
    assert gb.variables == ()
    assert [str(g) for g in gb] == ["1"]
    sols = solve_rational(gb)
    assert sols.points == () and not sols.unresolved


def test_zero_generator_leaves_a_positive_dimensional_component():
    gb = buchberger([Poly.zero(("x",))], variables=("x",))
    assert gb.generators == ()
    sols = solve_rational(gb)
    assert sols.points == ()
    assert [u.kind for u in sols.unresolved] == ["positive-dimensional"]


def test_solve_rational_line_component():
    V = ("x", "y")
    x, y = P("x", V), P("y", V)
    sols = solve_rational(buchberger([x - y], variables=V))
    assert sols.points == ()
    assert sols.unresolved[0].kind == "positive-dimensional"


def test_solve_rational_shares_the_budget():
    # the basis costs 2 units and the bases after substituting the roots of
    # x cost 2 more: one budget caps the whole solve
    V = ("x", "y")
    x, y = P("x", V), P("y", V)
    gens = [(x - 1) * (x - 2) * (x - 3), y**2 - x * y - 1 + x]
    for cap in (2, 3):
        with pytest.raises(BudgetExceededError):
            solve_rational(buchberger(gens, variables=V, max_reductions=cap))
    gb = buchberger(gens, variables=V, max_reductions=4)
    sols = solve_rational(gb)
    assert (gb.reductions_used, sols.reductions_used) == (2, 4)
    assert sols.points == tuple(
        (Fraction(a), Fraction(b)) for a, b in ((1, 0), (1, 1), (2, 1), (3, 1), (3, 2))
    )


def test_solve_rational_takes_its_cap_from_the_basis():
    # the basis fits a cap of 2; root extraction trips on its third step
    V = ("x", "y")
    x, y = P("x", V), P("y", V)
    gens = [(x - 1) * (x - 2) * (x - 3), y**2 - x * y - 1 + x]
    assert buchberger(gens, variables=V).max_reductions == MAX_REDUCTIONS
    gb = buchberger(gens, variables=V, max_reductions=2)
    assert (gb.max_reductions, gb.reductions_used) == (2, 2)
    with pytest.raises(BudgetExceededError) as trip:
        solve_rational(gb)
    assert trip.value.reductions == 3


def test_solve_rational_takes_its_degree_cap_from_the_basis():
    # root extraction substitutes y = 1 and meets x^13 - 1, of degree 13:
    # past the default cap of 12, within the cap of 40 the basis was built under
    V = ("x", "y")
    x, y = P("x", V), P("y", V)
    gb = buchberger([y - 1, x**13 - y], variables=V, max_degree=40)
    assert gb.max_degree == 40
    sols = solve_rational(gb)
    assert sols.points == ((Fraction(1), Fraction(1)),)
    assert [(u.kind, u.partial) for u in sols.unresolved] == [("irrational-factor", (("y", Fraction(1)),))]
    assert "degree-12 factor" in sols.unresolved[0].detail


def test_solutions_satisfy_generators():
    V = ("x", "y")
    x, y = P("x", V), P("y", V)
    gens = [x**2 - 4, y - x**2]
    sols = solve_rational(buchberger(gens))
    assert len(sols.points) == 2
    for pt in sols.points:
        env = dict(zip(V, pt))
        for g in gens:
            assert evaluate(g, env) == 0


def test_random_products_of_linear_forms_recover_roots():
    rng = random.Random(11)
    names = ("x", "y", "z")
    for _ in range(10):
        roots = {v: Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for v in names}
        gens = [P(v, names) - Poly.const(roots[v], names) for v in names]
        extra = gens[0] * gens[1]  # redundant product keeps the ideal intact
        sols = solve_rational(buchberger(gens + [extra]))
        assert sols.points == (tuple(roots[v] for v in names),)


def test_rational_roots_helper():
    roots, leftover = univariate_rational_roots([1, -5, 6])  # 6x^2 - 5x + 1
    assert roots == [Fraction(1, 3), Fraction(1, 2)]
    assert leftover == 0
    roots, leftover = univariate_rational_roots([-2, 0, 1])  # x^2 - 2
    assert roots == []
    assert leftover == 2
    roots, leftover = univariate_rational_roots([0, 0, 1])  # x^2
    assert roots == [Fraction(0)]
    assert leftover == 0


def test_budget_exceeded_is_loud():
    V = ("x", "y")
    x, y = P("x", V), P("y", V)
    with pytest.raises(BudgetExceededError):
        buchberger([x**3 * y - 1, x * y**3 - x - 1], max_reductions=1)


def test_degree_cap_is_loud():
    x = P("x", ("x",))
    with pytest.raises(BudgetExceededError):
        buchberger([x**13 - 1])


def test_substitute():
    V = ("x", "y")
    x, y = P("x", V), P("y", V)
    p = x**2 + x * y
    q = p.substitute("x", y + 1)
    assert q == (y + 1) ** 2 + (y + 1) * y


def test_s2_pivot4_system_variety_is_origin(s2):
    from kantor.codim1 import pivot_system

    variables, gens = pivot_system(s2, 4)
    gb = buchberger(gens, variables=variables)
    assert [str(g) for g in gb] == ["a1", "a2", "a3"]
    sols = solve_rational(gb)
    assert sols.points == ((Fraction(0), Fraction(0), Fraction(0)),)


def test_univariate_products_of_linear_forms_all_roots_found():
    rng = random.Random(3)
    for _ in range(10):
        qs = set()
        while len(qs) < 3:
            qs.add(Fraction(rng.randint(-6, 6), rng.randint(1, 4)))
        x = P("x", ("x",))
        poly = Poly.const(1, ("x",))
        for q in qs:
            poly = poly * (x - Poly.const(q, ("x",)))
        sols = solve_rational(buchberger([poly]))
        assert sols.points == tuple(sorted((q,) for q in qs))
        assert not sols.unresolved


def _as_sympy(p):
    return sympy.Add(*(
        sympy.Rational(c.numerator, c.denominator)
        * sympy.Mul(*(sympy.Symbol(v) ** k for v, k in zip(p.variables, e)))
        for e, c in p.terms.items()
    ))


@settings(deadline=None, max_examples=80)
@given(st.data())
def test_substitute_matches_sympy(data):
    coeff = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))

    def poly(names, max_exp):
        exps = st.tuples(*[st.integers(0, max_exp)] * len(names))
        return Poly(names, data.draw(st.dictionaries(exps, coeff, max_size=5)))

    p = poly(("x", "y", "z"), 3)
    name = data.draw(st.sampled_from(p.variables))
    if data.draw(st.booleans()):
        value = poly(p.variables, 2)
        symbolic = _as_sympy(value)
    else:
        value = data.draw(coeff)
        symbolic = sympy.Rational(value.numerator, value.denominator)
    q = p.substitute(name, value)
    assert q.variables == p.variables
    expected = sympy.expand(_as_sympy(p).subs(sympy.Symbol(name), symbolic))
    assert sympy.expand(_as_sympy(q) - expected) == 0
    if name not in p.support_variables():
        assert q is p


# -- one-pass substitution against one `Poly.substitute` per variable ---------


def _poly_strategy(names, max_degree=3):
    n = len(names)
    exponent = st.lists(st.integers(0, max_degree), min_size=n, max_size=n).filter(lambda e: sum(e) <= max_degree)
    coeff = st.one_of(st.integers(-3, 3), st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3)))
    return st.dictionaries(exponent.map(tuple), coeff, max_size=6).map(lambda t: Poly(names, t))


@settings(deadline=None, max_examples=200)
@given(st.data())
def test_one_pass_substitution_matches_one_variable_at_a_time(data):
    names = tuple(f"x{i}" for i in range(data.draw(st.integers(1, 5))))
    polys = data.draw(st.lists(_poly_strategy(names), min_size=1, max_size=4))
    bound = data.draw(st.lists(st.sampled_from(names), min_size=1, unique=True))
    free = [v for v in names if v not in bound]
    values = {}
    for v in bound:
        # a rational, or a linear polynomial in the free variables, as the
        # linear round binds them; int and Fraction coefficients both
        c = data.draw(st.one_of(st.integers(-3, 3), st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))))
        if free and data.draw(st.booleans()):
            value = Poly.const(c, names)
            for w in data.draw(st.lists(st.sampled_from(free), max_size=2)):
                value = value + data.draw(st.integers(-2, 2)) * Poly.var(w, names)
            values[v] = value
        else:
            values[v] = c
    got = _substitute_all(polys, values)
    assert len(got) == len(polys)
    for p, g in zip(polys, got):
        expected = substitute_each(p, values)
        assert g == expected
        assert {e: type(c) for e, c in g.terms.items()} == {e: type(c) for e, c in expected.terms.items()}
        assert all(type(c) is int for c in g.terms.values() if Fraction(c).denominator == 1)
        assert not g.support_variables() & set(bound)


def test_one_pass_substitution_of_variables_the_polynomial_lacks():
    V = ("x", "y", "z")
    p = P("x", V) ** 2 + 3
    (same,) = _substitute_all([p], {"y": 5, "z": P("x", V)})
    assert same == p
    assert _substitute_all([], {"x": 1}) == []
