from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from kantor.algebra import Algebra
from kantor.conservative import (
    DEFAULT_TERMINAL_CONVENTION,
    TERMINAL_CONVENTIONS,
    _bracket_system,
    conservativity,
    is_terminal,
    jacobi_space,
    quasi_units,
    verify_associated,
)
from kantor.identities import defect_coordinates
from kantor.linalg import AffineSolutionSet, Subspace, fredholm_certificate, solve_columns, unit_vec
from kantor.multiops import MultilinearOp
from kantor.wn import build_wn, w2sym_associated_F, wn_associated_F
from kantor import zoo

from helpers import (
    TERMINAL_IDENTITIES,
    bracket_columns,
    bracket_targets,
    conservativity_by_brackets,
    jacobi_space_by_brackets,
    pair,
    quasi_units_by_brackets,
    same_set,
    verify_associated_by_brackets,
)


def test_zero_algebra_f_zero():
    z = zoo.zero_algebra(2)
    assert verify_associated(z, MultilinearOp.zero(2, 2))


def test_wn2_formula_is_associated(wn2):
    assert verify_associated(wn2, wn_associated_F(2))


def test_w2sym_formula_is_associated(w2sym):
    assert verify_associated(w2sym, w2sym_associated_F())


def test_wrong_f_rejected(wn2):
    wrong = MultilinearOp.zero(2, 8)
    assert not verify_associated(wn2, wrong)


def test_m7_not_conservative(m7):
    verdict = conservativity(m7)
    assert not verdict.conservative
    assert verdict.f is None
    w = verdict.witness
    # Fredholm certificate: kills the bracket-map columns, pairs to 1 with
    # the target of the failing pair
    _, _, columns = bracket_columns(m7)
    for column in columns:
        assert pair(w.certificate, column.coeffs) == 0
    assert pair(w.certificate, w.target) == 1


@pytest.mark.parametrize("n", [2, 3])
def test_simple_left_commutative_not_conservative(n):
    verdict = conservativity(zoo.simple_left_commutative(n))
    assert not verdict.conservative
    assert verdict.witness is not None


def test_nilpotent4_conservative_with_zero_f(nilp4):
    verdict = conservativity(nilp4)
    assert verdict.conservative
    assert verdict.f.is_zero()
    assert verify_associated(nilp4, MultilinearOp.zero(2, 3))


def test_canonical_f_satisfies_equation(wn2):
    verdict = conservativity(wn2)
    assert verdict.conservative
    assert verify_associated(wn2, verdict.f)
    assert verdict.kernel == jacobi_space(wn2)


def test_jacobi_space_wn2(wn2):
    js = jacobi_space(wn2)
    expected = Subspace.from_spanning(8, [unit_vec(8, i) for i in (1, 2, 3, 5, 6, 7)])
    assert js == expected
    assert js.dim == 6
    assert 8 - js.dim == 2


def test_jacobi_space_trivial_cases(sl2):
    assert jacobi_space(zoo.zero_algebra(3)) == Subspace.full(3)
    assert jacobi_space(sl2) == Subspace.full(3)


def test_quasi_unit_unital(matrix2):
    qs = quasi_units(matrix2)
    assert qs.feasible
    unit = zoo.find_unit(matrix2)
    # the unit solves the defining identity, so it lies in the coset
    assert same_set(qs, AffineSolutionSet(unit, qs.kernel))


def test_quasi_unit_wn2(wn2):
    qs = quasi_units(wn2)
    assert qs.feasible
    minus_e1 = tuple(-x for x in unit_vec(8, 0))
    assert qs.particular == minus_e1
    assert qs.kernel == jacobi_space(wn2)
    # -e1 is a left quasi-unit but not a left unit
    e2 = unit_vec(8, 1)
    assert wn2.mul_vec(minus_e1, e2) != e2


def test_quasi_unit_zero_algebra():
    qs = quasi_units(zoo.zero_algebra(2))
    assert qs.feasible
    assert qs.kernel == Subspace.full(2)


@pytest.mark.parametrize("name", ["sl2", "nilpotent4", "leibniz2", "m7", "slc2", "slc3"])
def test_quasi_unit_certificate(name):
    alg = zoo.fixture(name)
    qs = quasi_units(alg)
    assert not qs.feasible
    # y.[L_z, P] = 0 for every z, so y kills every column, and y.(-P) = 1
    P, _, columns = bracket_columns(alg)
    for column in columns:
        assert pair(qs.certificate, column.coeffs) == 0
    assert pair(qs.certificate, (-P).coeffs) == 1
    assert qs.certificate and all(type(y) is Fraction for y in qs.certificate.values())


def test_quasi_unit_defining_identity(wn2):
    e = quasi_units(wn2).particular
    mul = wn2.mul_vec
    for i in range(8):
        for j in range(8):
            x, y = unit_vec(8, i), unit_vec(8, j)
            xy = mul(x, y)
            rhs = zip(mul(mul(e, x), y), mul(x, mul(e, y)), xy)
            assert mul(e, xy) == tuple(a + b - c for a, b, c in rhs)


@settings(deadline=None, max_examples=15)
@given(st.data())
def test_conservativity_invariant_under_basis_permutation(data):
    n = data.draw(st.integers(1, 3))
    entries = st.integers(-2, 2)
    table = data.draw(
        st.lists(
            st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    )
    perm = data.draw(st.permutations(range(n)))
    alg = Algebra.from_table(table)
    permuted = Algebra.from_table(
        [
            [[table[perm[i]][perm[j]][perm[k]] for k in range(n)] for j in range(n)]
            for i in range(n)
        ]
    )
    assert conservativity(alg).conservative == conservativity(permuted).conservative


@settings(deadline=None, max_examples=15)
@given(st.data())
def test_kernel_is_jacobi_space(data):
    n = data.draw(st.integers(1, 3))
    entries = st.integers(-2, 2)
    table = data.draw(
        st.lists(
            st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    )
    alg = Algebra.from_table(table)
    assert conservativity(alg).kernel == jacobi_space(alg)
    qs = quasi_units(alg)
    assert qs.kernel == jacobi_space(alg)


@settings(deadline=None, max_examples=25)
@given(st.data())
def test_verify_associated_routes_agree(data):
    n = data.draw(st.integers(1, 3))
    cube = st.lists(
        st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n), min_size=n, max_size=n),
        min_size=n,
        max_size=n,
    )
    alg = Algebra.from_table(data.draw(cube))
    f = MultilinearOp.from_algebra(Algebra.from_table(data.draw(cube)))
    # both routes run; a disagreement raises
    verify_associated(alg, f)
    verdict = conservativity(alg)
    if verdict.conservative:
        assert verify_associated(alg, verdict.f)


def test_terminal_calibration_w2sym(w2sym):
    winners = [c for c in TERMINAL_CONVENTIONS if is_terminal(w2sym, c)]
    assert winners == [DEFAULT_TERMINAL_CONVENTION]


def test_terminal_s2_h1(s2, h1):
    assert is_terminal(s2)
    assert is_terminal(h1)


def test_terminal_trivial_and_negative_cases(sl2, m7, wn2):
    assert is_terminal(zoo.zero_algebra(2))
    assert is_terminal(sl2, "sym")  # [P,x] = 0 for anticommutative products
    assert is_terminal(sl2)
    assert not is_terminal(m7)
    # computed verdict for the full bilinear-operations algebra
    assert not is_terminal(wn2)


def test_terminal_fixtures_are_conservative():
    for name in sorted(zoo.FIXTURES):
        if name == "wn3":
            continue
        alg = zoo.fixture(name)
        if is_terminal(alg):
            assert conservativity(alg).conservative, name


def test_unknown_convention_rejected(w2sym):
    with pytest.raises(ValueError):
        is_terminal(w2sym, "both")


def test_wn1():
    w1 = build_wn(1)
    assert w1.dim == 1
    assert w1.mul_vec((1,), (1,)) == (-1,)
    assert conservativity(w1).conservative


def _conservativity_by_solutions(alg):
    """(F's coefficients, the witness) read pair by pair from the dense
    canonical solutions, the first infeasible pair being the witness."""
    n = alg.dim
    rhs = bracket_targets(alg)
    columns = [op.coeffs for op in bracket_columns(alg)[2]]
    system = solve_columns(columns, [op.coeffs for op in rhs])
    coeffs = {}
    for idx in range(n * n):
        a, b = divmod(idx, n)
        sol = system.solution(n + idx)
        if sol is None:
            target = rhs[idx].coeffs
            return None, (a, b, target, fredholm_certificate(columns, target))
        for k, c in enumerate(sol):
            if c:
                coeffs[((a, b), k)] = c
    return list(MultilinearOp(2, n, coeffs).coeffs.items()), None


def _check_against_solutions(alg):
    verdict = conservativity(alg)
    coeffs, witness = _conservativity_by_solutions(alg)
    if verdict.conservative:
        assert witness is None
        assert [(key, type(c), c) for key, c in verdict.f.coeffs.items()] == [(key, type(c), c) for key, c in coeffs]
    else:
        w = verdict.witness
        assert (w.a, w.b, w.target, w.certificate) == witness


@pytest.mark.parametrize("name", [*sorted(zoo.FIXTURES), "W3", "M4"])
def test_f_and_witness_match_the_dense_solutions(name):
    alg = {"W3": lambda: build_wn(3), "M4": lambda: zoo.matrix_algebra(4)}.get(name, lambda: zoo.fixture(name))()
    _check_against_solutions(alg)


# pairs (1, 2) and (2, 2) are infeasible and (0, 0) is not
PAST_THE_FIRST = Algebra.from_products(3, {(1, 0): {0: 1}, (2, 1): {0: -1, 1: 1, 2: -1}, (2, 2): {0: -1, 1: 1}})


def test_the_witness_is_the_first_infeasible_pair_past_the_first():
    alg = PAST_THE_FIRST
    w = conservativity(alg).witness
    assert (w.a, w.b) == (1, 2)
    _check_against_solutions(alg)


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_f_and_witness_match_the_dense_solutions_on_random_algebras(data):
    n = data.draw(st.integers(1, 3))
    entry = st.one_of(st.just(0), st.just(0), st.fractions(min_value=-2, max_value=2, max_denominator=2))
    table = data.draw(st.lists(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n), min_size=n, max_size=n))
    _check_against_solutions(Algebra.from_table(table))


def _typed(coefficients):
    return {key: (type(c), c) for key, c in coefficients.items()}


def _keyed(n, coefficients):
    """A map labelled (x*n + y)*n + o, keyed ((x, y), o)."""
    return {(divmod(label // n, n), label % n): c for label, c in coefficients.items()}


def _check_against_brackets(alg):
    """The closed-form columns, targets and every verdict built on them
    against the `kantor_bracket` route, value types included."""
    n = alg.dim
    minus_p, columns, targets = _bracket_system(alg)
    assert _typed(_keyed(n, minus_p)) == _typed({key: -c for key, c in MultilinearOp.from_algebra(alg).coeffs.items()})
    assert [_typed(_keyed(n, c)) for c in columns] == [_typed(op.coeffs) for op in bracket_columns(alg)[2]]
    assert [_typed(_keyed(n, t)) for t in targets] == [_typed(op.coeffs) for op in bracket_targets(alg)]

    verdict, expected = conservativity(alg), conservativity_by_brackets(alg)
    assert verdict == expected
    if verdict.conservative:
        assert _typed(verdict.f.coeffs) == _typed(expected.f.coeffs)
    else:
        w, v = verdict.witness, expected.witness
        assert (_typed(w.target), _typed(w.certificate)) == (_typed(v.target), _typed(v.certificate))
        assert list(w.certificate) == list(v.certificate)
    qs, expected_qs = quasi_units(alg), quasi_units_by_brackets(alg)
    assert qs == expected_qs
    if not qs.feasible:
        assert list(qs.certificate.items()) == list(expected_qs.certificate.items())
        assert _typed(qs.certificate) == _typed(expected_qs.certificate)
    assert jacobi_space(alg) == jacobi_space_by_brackets(alg)

    # F = 0, the canonical F when there is one, and F perturbed at one pair
    candidates = [MultilinearOp.zero(2, n)]
    if verdict.conservative:
        candidates.append(verdict.f)
    base = verdict.f or MultilinearOp.zero(2, n)
    candidates.append(base + MultilinearOp(2, n, {((n - 1, 0), 0): 1}))
    for f in candidates:
        assert verify_associated(alg, f, cross_check=False) == verify_associated_by_brackets(alg, f)


EXTRA = {
    "M4": lambda: zoo.matrix_algebra(4),
    "W4": lambda: build_wn(4),
    "slc20": lambda: zoo.simple_left_commutative(20),
    "past_the_first": lambda: PAST_THE_FIRST,
}


@pytest.mark.parametrize("name", [*sorted(zoo.FIXTURES), *EXTRA])
def test_bracket_system_matches_the_bracket_route(name):
    _check_against_brackets(EXTRA.get(name, lambda: zoo.fixture(name))())


def test_the_right_f_of_w3_is_accepted_and_a_wrong_one_rejected():
    w3 = zoo.fixture("wn3")
    right = wn_associated_F(3)
    wrong = right + MultilinearOp(2, 27, {((26, 0), 0): 1})
    assert verify_associated(w3, right, cross_check=False) and verify_associated_by_brackets(w3, right)
    assert not verify_associated(w3, wrong, cross_check=False) and not verify_associated_by_brackets(w3, wrong)


def _draw_algebra(data):
    """An algebra of dim 1-4 whose constants are mostly 0, else Fractions
    in [-2, 2] with denominators up to 3."""
    n = data.draw(st.integers(1, 4))
    entry = st.one_of(st.just(0), st.just(0), st.just(0), st.fractions(min_value=-2, max_value=2, max_denominator=3))
    products = {}
    for i in range(n):
        for j in range(n):
            products[i, j] = dict(enumerate(data.draw(st.lists(entry, min_size=n, max_size=n))))
    return Algebra.from_products(n, products)


@settings(deadline=None, max_examples=40)
@given(st.data())
def test_bracket_system_matches_the_bracket_route_on_random_algebras(data):
    _check_against_brackets(_draw_algebra(data))


def _check_terminal_against_identity(alg, convention):
    holds = next(defect_coordinates(alg, TERMINAL_IDENTITIES[convention]), None) is None
    assert is_terminal(alg, convention) == holds, convention


@pytest.mark.parametrize("name", [*sorted(zoo.FIXTURES), *EXTRA])
@pytest.mark.parametrize("convention", TERMINAL_CONVENTIONS)
def test_terminal_matches_the_multiplied_out_identity(convention, name):
    _check_terminal_against_identity(EXTRA.get(name, lambda: zoo.fixture(name))(), convention)


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_terminal_matches_the_multiplied_out_identity_on_random_algebras(data):
    alg = _draw_algebra(data)
    for convention in TERMINAL_CONVENTIONS:
        _check_terminal_against_identity(alg, convention)
