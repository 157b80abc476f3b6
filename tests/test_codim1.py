import random
from fractions import Fraction

import pytest

from kantor import codim1, poly
from kantor.algebra import Algebra, verify_subalgebra
from kantor.codim1 import (
    _linear_rows,
    _nonzero_products,
    codim1_subalgebras,
    hyperplane_basis,
    pivot_system,
)
from kantor.errors import BudgetExceededError
from kantor.linalg import Subspace, unit_vec
from kantor.poly import MAX_REDUCTIONS, _distinct, buchberger, unit_basis_of_linear
from kantor import zoo
from kantor.wn import build_wn

from helpers import (
    codim1_in_full,
    distinct_pairwise,
    dot,
    evaluate,
    grid_hyperplane_oracle,
    groebner_distinct_first,
    labelled_pivot_system,
    normal_vector,
    pivot_system_by_exponents,
)


def drop(dim, i0):
    return Subspace.from_spanning(dim, [unit_vec(dim, k) for k in range(dim) if k != i0])


def test_pivot_system_zero_algebra():
    z = zoo.zero_algebra(3)
    for p in (1, 2, 3):
        variables, gens = pivot_system(z, p)
        assert gens == ()
        assert variables == tuple(f"a{j}" for j in range(1, p))


def test_pivot_system_bad_pivot(s2):
    with pytest.raises(ValueError):
        pivot_system(s2, 0)
    with pytest.raises(ValueError):
        pivot_system(s2, 5)


@pytest.mark.parametrize("name", [*sorted(zoo.FIXTURES), "W3", "M4"])
def test_distinct_matches_the_pairwise_scan_on_every_pivot_system(name):
    alg = {"W3": lambda: build_wn(3), "M4": lambda: zoo.matrix_algebra(4)}.get(name, lambda: zoo.fixture(name))()
    for p in range(1, alg.dim + 1):
        _, gens = pivot_system(alg, p)
        assert [id(g) for g in _distinct(gens)] == [id(g) for g in distinct_pairwise(gens)]


def test_wn2_pivot5_origin_satisfies_all_generators(wn2):
    variables, gens = pivot_system(wn2, 5)
    origin = {v: 0 for v in variables}
    for g in gens:
        assert evaluate(g, origin) == 0


def test_s2_pivot4_chain(s2):
    variables, gens = pivot_system(s2, 4)
    assert variables == ("a1", "a2", "a3")
    # alpha = 0 solves the system and nothing else does (see test_poly)
    origin = {v: 0 for v in variables}
    for g in gens:
        assert evaluate(g, origin) == 0


def test_codim1_wn2(wn2):
    report = codim1_subalgebras(wn2)
    assert len(report.subalgebras) == 1
    assert report.subalgebras[0] == drop(8, 4)
    assert not report.budget_errors
    for case in report.cases:
        assert case.solutions is not None
        assert not case.solutions.unresolved


def test_codim1_w2sym(w2sym):
    report = codim1_subalgebras(w2sym)
    assert len(report.subalgebras) == 1
    assert report.subalgebras[0] == drop(6, 3)


def test_codim1_s2(s2):
    report = codim1_subalgebras(s2)
    assert len(report.subalgebras) == 1
    assert report.subalgebras[0] == drop(4, 3)
    # the recorded second subalgebra fails closure
    assert not verify_subalgebra(s2, drop(4, 2))


def test_codim1_verified_and_disjoint(wn2, w2sym, s2):
    for alg in (wn2, w2sym, s2):
        report = codim1_subalgebras(alg)
        assert [c.pivot for c in report.cases] == list(range(1, alg.dim + 1))
        assert report.subalgebras == tuple(sub for c in report.cases for sub in c.subalgebras)
        seen = set()
        for sub in report.subalgebras:
            assert verify_subalgebra(alg, sub)
            free = tuple(c for c in range(alg.dim) if c not in sub.pivot_columns)
            assert len(free) == 1
            assert free[0] not in seen  # one pivot case per hyperplane
            seen.add(free[0])


def test_codim1_wn4_decided_at_default_budget():
    # W(4), dim 64: every pivot ideal is (1), within the default budget
    report = codim1_subalgebras(build_wn(4))
    assert len(report.subalgebras) == 0
    assert not report.budget_errors
    assert all([str(g) for g in c.groebner] == ["1"] for c in report.cases)


def test_cubic_pivot_ideal_decided_within_the_degree_cap():
    # a dim-5 algebra from a seeded random sweep; its pivot-5 ideal has 16
    # cubic generators in a1..a4 and no linear one, so all of it goes to the
    # S-pair loop, which finds 1 without passing degree 12
    products = {
        (0, 1): {3: -2}, (0, 2): {1: 1}, (1, 0): {2: -2}, (1, 1): {3: 1, 4: 1},
        (1, 2): {3: 2, 4: 1}, (1, 3): {2: 2}, (1, 4): {3: 2}, (2, 0): {0: -1},
        (2, 1): {1: 1, 2: -1}, (2, 3): {0: 2, 4: 2}, (2, 4): {1: 1}, (3, 0): {2: -2},
        (3, 1): {2: -1}, (3, 4): {1: 2, 4: 1}, (4, 0): {1: -2, 2: 2},
        (4, 2): {0: -2, 2: 1, 3: -2}, (4, 3): {0: 2}, (4, 4): {0: -1},
    }
    alg = Algebra.from_products(5, products)
    variables, gens = pivot_system(alg, 5)
    assert variables == ("a1", "a2", "a3", "a4")
    assert len(gens) == 16 and all(g.total_degree() == 3 for g in gens)
    case = codim1_subalgebras(alg).cases[4]
    assert case.error is None
    assert [str(g) for g in case.groebner] == ["1"]
    assert case.solutions.points == () and case.solutions.unresolved == ()


def test_codim1_budget_isolated_per_pivot(wn2):
    report = codim1_subalgebras(wn2, max_reductions=0)
    assert report.budget_errors
    assert all(isinstance(e, BudgetExceededError) for e in report.budget_errors)
    # pivot 1 has no unknowns and cannot fail
    assert report.cases[0].error is None


def test_hyperplane_basis_shape():
    rows = hyperplane_basis(4, 2, [Fraction(7)])
    assert rows == [
        [1, 7, 0, 0],
        [0, 0, 1, 0],
        [0, 0, 0, 1],
    ]


def test_normal_vector_roundtrip():
    sub = Subspace.from_spanning(3, hyperplane_basis(3, 2, [Fraction(1, 2)]))
    normal = normal_vector(sub)
    # the normal annihilates the hyperplane and is primitive integer
    for row in sub.basis:
        assert dot(normal, row) == 0
    from math import gcd

    g = 0
    for c in normal:
        g = gcd(g, int(c))
    assert g == 1


def _random_algebra(rng, n, lo=-2, hi=2):
    return Algebra.from_table(
        [
            [[Fraction(rng.randint(lo, hi)) for _ in range(n)] for _ in range(n)]
            for _ in range(n)
        ]
    )


@pytest.mark.parametrize("dim,count,seed", [(2, 20, 5), (3, 12, 6)])
def test_grid_oracle_agreement_random_algebras(dim, count, seed):
    rng = random.Random(seed)
    for _ in range(count):
        alg = _random_algebra(rng, dim)
        report = codim1_subalgebras(alg)
        grid = grid_hyperplane_oracle(alg, bound=3)
        reported = set()
        for sub in report.subalgebras:
            normal = normal_vector(sub)
            if max(abs(int(c)) for c in normal) <= 3:
                reported.add(normal)
        grid_normals = {normal_vector(s) for s in grid}
        assert reported == grid_normals
        for sub in report.subalgebras:
            assert verify_subalgebra(alg, sub)


def _named(name):
    if name.startswith("random"):
        return _equivalence_algebra(name, int(name[len("random"):]))
    builders = {"W3": lambda: build_wn(3), "W4": lambda: build_wn(4), "M4": lambda: zoo.matrix_algebra(4)}
    return builders.get(name, lambda: zoo.fixture(name))()


@pytest.mark.parametrize("name", [*sorted(zoo.FIXTURES), "W3", "M4"])
def test_pivot_generators_match_the_exponent_keyed_sum(name):
    # summed on short keys, each generator is the oracle's term for term,
    # in the same order, with its degree known and its integral
    # coefficients ints
    alg = _named(name)
    products = _nonzero_products(alg)
    for p in range(1, alg.dim + 1):
        variables, gens = pivot_system(alg, p)
        expected_variables, expected = pivot_system_by_exponents(products, p)
        assert variables == expected_variables
        assert len(gens) == len(expected)
        for g, h in zip(gens, expected):
            assert g.variables == h.variables
            assert [(e, type(c), c) for e, c in g.terms.items()] == [(e, type(c), c) for e, c in h.terms.items()]
            assert g.total_degree() == max(map(sum, g.terms))
            assert all(type(c) is int for c in g.terms.values() if Fraction(c).denominator == 1)


def _case_view(case):
    """Everything a pivot case reports, as comparable values."""
    sols = case.solutions
    return (
        case.pivot,
        case.variables,
        [str(g) for g in case.ideal],
        None if case.groebner is None else ([str(g) for g in case.groebner], case.groebner.reductions_used),
        None if sols is None else (sols.points, sols.unresolved, sols.reductions_used),
        case.subalgebras,
        None if case.error is None else (type(case.error), str(case.error)),
    )


def _sparse_random_algebra(rng, n):
    products = {}
    for i in range(n):
        for j in range(n):
            if rng.random() < 0.6:
                products[(i, j)] = {
                    k: Fraction(rng.randint(-2, 2), rng.choice((1, 1, 2))) for k in range(n) if rng.random() < 0.5
                }
    return Algebra.from_products(n, products)


_EQUIVALENCE_ALGEBRAS = [(name, None) for name in sorted(zoo.FIXTURES)] + [(f"random{s}", s) for s in range(100)]


def _equivalence_algebra(name, seed):
    if seed is None:
        return zoo.fixture(name)
    rng = random.Random(seed)
    return _sparse_random_algebra(rng, rng.randint(2, 5))


@pytest.mark.parametrize("name,seed", _EQUIVALENCE_ALGEBRAS)
def test_every_pivot_matches_the_distinct_first_solver(name, seed, monkeypatch):
    # the linear round deciding before scalar multiples are dropped, the
    # generators built ready and the one-pass substitution change no
    # pivot's ideal, basis, spend, points, unresolved parts or error
    alg = _equivalence_algebra(name, seed)
    budgets = (0, 1, 3, MAX_REDUCTIONS)
    got = [[_case_view(c) for c in codim1_subalgebras(alg, b).cases] for b in budgets]
    monkeypatch.setattr(poly, "_groebner", groebner_distinct_first)
    monkeypatch.setattr(codim1, "_pivot_system", pivot_system_by_exponents)
    expected = [[_case_view(c) for c in codim1_in_full(alg, b).cases] for b in budgets]
    assert got == expected


@pytest.mark.parametrize("name,seed", _EQUIVALENCE_ALGEBRAS)
def test_every_pivot_matches_the_full_sweep(name, seed):
    # deciding a pivot from its linear rows first changes no pivot's ideal,
    # basis, spend, points, unresolved parts or error, at any budget
    alg = _equivalence_algebra(name, seed)
    for budget in (0, 1, 3, MAX_REDUCTIONS):
        got = [_case_view(c) for c in codim1_subalgebras(alg, budget).cases]
        assert got == [_case_view(c) for c in codim1_in_full(alg, budget).cases]


@pytest.mark.parametrize("name", ["M4", "W3", "W4"])
def test_every_pivot_matches_the_full_sweep_at_the_default_budget(name):
    alg = _named(name)
    got = codim1_subalgebras(alg)
    expected = codim1_in_full(alg)
    assert [_case_view(c) for c in got.cases] == [_case_view(c) for c in expected.cases]
    assert got.subalgebras == expected.subalgebras


def _pivot_rows(alg):
    """Per pivot p: (p, its linear rows, its generators keyed (i, j))."""
    products = _nonzero_products(alg)
    for p in range(1, alg.dim + 1):
        yield p, _linear_rows(alg.sparse_table, products, p), labelled_pivot_system(products, p)


def _as_row(g):
    """A generator of degree <= 1 as a row {m: coefficient of a_(m+1), q: constant term}."""
    q = len(g.variables)
    return {e.index(1) if any(e) else q: c for e, c in g.terms.items()}


_ROW_ALGEBRAS = [*sorted(zoo.FIXTURES), "W3", "M4", *(f"random{s}" for s in range(40))]


@pytest.mark.parametrize("name", _ROW_ALGEBRAS)
def test_nonzero_products_are_the_table_by_smallest_output(name):
    # the sweep's one product list: each nonzero entry of the table once,
    # ordered by (smallest output, i, j)
    alg = _named(name)
    table = alg.sparse_table
    products = _nonzero_products(alg)
    expected = sorted((outputs[0][0], i, j) for i, row in enumerate(table) for j, outputs in enumerate(row) if outputs)
    assert [(outputs[0][0], i, j) for i, j, outputs in products] == expected
    assert all(outputs is table[i][j] for i, j, outputs in products)


def _linear_by_construction(table, p, i, j):
    """Whether generator (i, j) of pivot p can have no term of degree above
    1: no output below q = p - 1 of e_i e_q (if j < q) or of e_q e_j (if
    i < q), and none at or below q of e_q e_q (if i, j < q)."""
    q = p - 1

    def low(outputs):
        return outputs[0][0] if outputs else len(table)

    return not (
        j < q and low(table[i][q]) < q or i < q and low(table[q][j]) < q or i < q and j < q and low(table[q][q]) <= q
    )


@pytest.mark.parametrize("name", _ROW_ALGEBRAS)
def test_linear_rows_are_their_generators(name):
    # the rows are the generators linear by construction, each its
    # pivot_system generator term for term (a row whose entries all cancel
    # is a generator that vanishes), or None when none of those has a
    # constant term; a generator whose terms of degree above 1 cancel
    # (w2sym pivot 5, (1, 1)) is linear but not a row
    alg = _named(name)
    for p, rows, generators in _pivot_rows(alg):
        linear = {ij: g for ij, g in generators.items() if _linear_by_construction(alg.sparse_table, p, *ij)}
        assert all(g.total_degree() <= 1 for g in linear.values())
        if rows is None:
            assert not any(_as_row(g).get(p - 1) for g in linear.values())
            continue
        nonzero = {ij: {m: c for m, c in row.items() if c} for ij, row in rows.items()}
        assert {ij for ij, row in nonzero.items() if row} == set(linear)
        for ij, g in linear.items():
            assert nonzero[ij] == _as_row(g)
            assert [type(c) for c in nonzero[ij].values()] == [type(c) for c in _as_row(g).values()]


@pytest.mark.parametrize("name", _ROW_ALGEBRAS)
def test_inconsistent_linear_rows_mean_the_full_basis_is_one(name):
    # the rows' verdict (1) is the full system's, at the same spend
    alg = _named(name)
    for p, rows, generators in _pivot_rows(alg):
        variables = tuple(f"a{j}" for j in range(1, p))
        unit = None if rows is None else unit_basis_of_linear(rows.values(), variables)
        if unit is None:
            continue
        full = buchberger(generators.values(), variables=variables)
        assert [str(g) for g in unit] == [str(g) for g in full] == ["1"]
        assert unit.reductions_used == full.reductions_used


@pytest.mark.parametrize("name,decided", [("W3", 26), ("M4", 15), ("W4", 63)])
def test_linear_rows_decide_nearly_every_pivot(name, decided, monkeypatch):
    # the full system is built only for the pivots the rows leave open, and
    # each pivot's ideal at most once more, on first reading
    alg = _named(name)
    builds = []
    real = codim1._pivot_system
    monkeypatch.setattr(codim1, "_pivot_system", lambda products, p: builds.append(p) or real(products, p))
    report = codim1_subalgebras(alg)
    assert len(builds) == alg.dim - decided
    ideals = [c.ideal for c in report.cases]
    assert [c.ideal for c in report.cases] == ideals and len(builds) == alg.dim
    monkeypatch.undo()
    assert ideals == [pivot_system(alg, p)[1] for p in range(1, alg.dim + 1)]
