from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from kantor.algebra import Algebra
from kantor.conservative import (
    DEFAULT_TERMINAL_CONVENTION,
    TERMINAL_CONVENTIONS,
    _bracket_columns,
    conservativity,
    is_terminal,
    jacobi_space,
    quasi_units,
    verify_associated,
)
from kantor.linalg import AffineSolutionSet, Subspace, unit_vec
from kantor.multiops import MultilinearOp
from kantor.wn import build_wn, w2sym_associated_F, wn_associated_F
from kantor import zoo

from helpers import pair, same_set


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
    _, _, columns = _bracket_columns(m7)
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
    e1 = wn2.gen(0)
    e2 = wn2.gen(1)
    assert (-e1) * e2 != e2


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
    P, _, columns = _bracket_columns(alg)
    for column in columns:
        assert pair(qs.certificate, column.coeffs) == 0
    assert pair(qs.certificate, (-P).coeffs) == 1
    assert qs.certificate and all(type(y) is Fraction for y in qs.certificate.values())


def test_quasi_unit_defining_identity(wn2):
    e = wn2.element(quasi_units(wn2).particular)
    for i in range(8):
        for j in range(8):
            x, y = wn2.gen(i), wn2.gen(j)
            assert e * (x * y) == (e * x) * y + x * (e * y) - x * y


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
    u = w1.gen(0)
    assert u * u == -u
    assert conservativity(w1).conservative


@pytest.mark.parametrize("name", sorted(zoo.FIXTURES))
def test_left_multiplications_are_the_partials_of_the_product(name):
    # each L_{e_z}, grouped from P's coefficients by first input, is
    # P.partial(e_z): the same coefficients, of the same types, in order
    alg = zoo.fixture(name)
    P, L, _ = _bracket_columns(alg)
    assert len(L) == alg.dim
    for z, Lz in enumerate(L):
        expected = P.partial(unit_vec(alg.dim, z))
        assert (Lz.arity, Lz.dim) == (expected.arity, expected.dim)
        assert [(key, type(c), c) for key, c in Lz.coeffs.items()] == [
            (key, type(c), c) for key, c in expected.coeffs.items()
        ]
