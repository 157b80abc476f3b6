from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from kantor.algebra import Algebra
from kantor.errors import DimensionMismatchError
from kantor.linalg import Matrix, unit_vec
from kantor.multiops import MultilinearOp, insertion_product, kantor_bracket

from helpers import as_matrix, insertion_by_slots, left_mul_operator, mat_apply, mat_col, mat_mul

rationals = st.fractions(min_value=-3, max_value=3, max_denominator=2)


def random_op(data, arity, dim):
    coeffs = {}
    n_entries = data.draw(st.integers(0, 6))
    for _ in range(n_entries):
        inputs = tuple(data.draw(st.integers(0, dim - 1)) for _ in range(arity))
        out = data.draw(st.integers(0, dim - 1))
        coeffs[(inputs, out)] = data.draw(rationals)
    return MultilinearOp(arity, dim, coeffs)


def test_linear_into_bilinear_is_composition():
    # A . B = A o B and B . A = B(A.,.) + B(.,A.) for linear A, bilinear B
    A = Matrix.from_rows([[1, 2], [0, 1]])
    alg = Algebra.from_products(2, {(0, 0): {1: 1}, (1, 0): {0: 3}})
    Aop = MultilinearOp.from_matrix(A)
    Bop = MultilinearOp.from_algebra(alg)
    ab = insertion_product(Aop, Bop)
    ba = insertion_product(Bop, Aop)
    for i in range(2):
        for j in range(2):
            b_val = alg.mul_vec(unit_vec(2, i), unit_vec(2, j))
            assert ab.apply_basis((i, j)) == mat_apply(A, b_val)
            expected = tuple(
                x + y
                for x, y in zip(
                    alg.mul_vec(mat_col(A, i), unit_vec(2, j)),
                    alg.mul_vec(unit_vec(2, i), mat_col(A, j)),
                )
            )
            assert ba.apply_basis((i, j)) == expected


def _square_matrices(data, n):
    return Matrix.from_rows(data.draw(st.lists(st.lists(rationals, min_size=n, max_size=n), min_size=n, max_size=n)))


@settings(deadline=None, max_examples=40)
@given(st.data())
def test_linear_into_linear_is_composition(data):
    # A . B = A o B, the dense product; a map's images of e_j and of x are
    # the columns of its matrix and the matrix times x
    n = data.draw(st.integers(1, 4))
    A, B = _square_matrices(data, n), _square_matrices(data, n)
    Aop, Bop = MultilinearOp.from_matrix(A), MultilinearOp.from_matrix(B)
    assert as_matrix(insertion_product(Aop, Bop)) == mat_mul(A, B)
    x = tuple(data.draw(st.lists(rationals, min_size=n, max_size=n)))
    assert Aop.partial(x).as_element() == mat_apply(A, x)
    for j in range(n):
        assert Aop.apply_basis((j,)) == mat_col(A, j)


def test_bilinear_with_element():
    alg = Algebra.from_products(2, {(0, 0): {1: 1}, (1, 0): {0: 1}})
    P = MultilinearOp.from_algebra(alg)
    x = MultilinearOp.from_element(unit_vec(2, 0))
    px = insertion_product(P, x)
    for j in range(2):
        expected = tuple(
            a + b
            for a, b in zip(
                alg.mul_vec(unit_vec(2, 0), unit_vec(2, j)),
                alg.mul_vec(unit_vec(2, j), unit_vec(2, 0)),
            )
        )
        assert px.apply_basis((j,)) == expected
    assert insertion_product(x, P).is_zero()


def test_identity_composition():
    I = MultilinearOp.identity(3)
    assert insertion_product(I, I) == I


def test_bracket_identity_with_bilinear():
    alg = Algebra.from_products(2, {(0, 1): {0: 2}, (1, 1): {1: -1}})
    P = MultilinearOp.from_algebra(alg)
    assert kantor_bracket(MultilinearOp.identity(2), P) == -P


def test_bracket_anticommutative_with_element(sl2):
    P = MultilinearOp.from_algebra(sl2)
    for i in range(3):
        x = MultilinearOp.from_element(unit_vec(3, i))
        assert kantor_bracket(P, x).is_zero()


def test_left_leibniz_left_mults_bracket_to_zero():
    from kantor.zoo import left_leibniz2

    alg = left_leibniz2()
    P = MultilinearOp.from_algebra(alg)
    for i in range(2):
        L = MultilinearOp.from_matrix(left_mul_operator(alg, unit_vec(2, i)))
        assert kantor_bracket(L, P).is_zero()


def test_bilinear_bilinear_shuffle_terms():
    # (C . P)(x,y,z) = C(P(x,y),z) + C(x,P(y,z)) + C(y,P(x,z))
    dim = 2
    C = MultilinearOp(2, dim, {((0, 1), 0): Fraction(1)})
    P = MultilinearOp(2, dim, {((1, 1), 0): Fraction(1)})
    cp = insertion_product(C, P)
    # C(P(y,z),x)-style terms must not appear; expand by brute force instead
    def brute(x, y, z):
        out = [Fraction(0)] * dim
        def add(vec):
            for k in range(dim):
                out[k] += vec[k]
        def c_of(u, v):
            return tuple(sum(C.coeff((a, b), k) * u[a] * v[b] for a in range(dim) for b in range(dim)) for k in range(dim))
        def p_of(u, v):
            return tuple(sum(P.coeff((a, b), k) * u[a] * v[b] for a in range(dim) for b in range(dim)) for k in range(dim))
        add(c_of(p_of(x, y), z))
        add(c_of(x, p_of(y, z)))
        add(c_of(y, p_of(x, z)))
        return tuple(out)

    for i in range(dim):
        for j in range(dim):
            for k in range(dim):
                got = cp.apply_basis((i, j, k))
                want = brute(unit_vec(dim, i), unit_vec(dim, j), unit_vec(dim, k))
                assert got == want


@settings(deadline=None, max_examples=50)
@given(st.data())
def test_bracket_antisymmetric_all_arities(data):
    dim = data.draw(st.integers(1, 3))
    pa = data.draw(st.integers(0, 2))
    pb = data.draw(st.integers(0, 2))
    a = random_op(data, pa, dim)
    b = random_op(data, pb, dim)
    assert kantor_bracket(a, b) == -kantor_bracket(b, a)


@settings(deadline=None, max_examples=50)
@given(st.data())
def test_bracket_bilinear_in_operands(data):
    dim = data.draw(st.integers(1, 3))
    pa = data.draw(st.integers(0, 2))
    pb = data.draw(st.integers(0, 2))
    a1 = random_op(data, pa, dim)
    a2 = random_op(data, pa, dim)
    b = random_op(data, pb, dim)
    c = data.draw(rationals)
    lhs = kantor_bracket(a1 + a2.scale(c), b)
    rhs = kantor_bracket(a1, b) + kantor_bracket(a2, b).scale(c)
    assert lhs == rhs


def test_transpose():
    op = MultilinearOp(2, 2, {((0, 1), 0): Fraction(2)})
    assert op.transpose() == MultilinearOp(2, 2, {((1, 0), 0): Fraction(2)})
    with pytest.raises(ValueError):
        MultilinearOp.identity(2).transpose()


coefficients = st.one_of(st.integers(-3, 3), rationals)


def typed(op):
    """op's coefficients with their types, so that 2 and Fraction(2) differ."""
    return {key: (type(c), c) for key, c in op.coeffs.items()}


@settings(deadline=None, max_examples=200)
@given(st.data())
def test_kernel_matches_the_slot_by_slot_oracle(data):
    dim = data.draw(st.integers(1, 4))
    index = st.integers(0, dim - 1)

    def draw_op():
        arity = data.draw(st.integers(0, 3))
        keys = st.tuples(st.tuples(*[index] * arity), index)
        return MultilinearOp(arity, dim, data.draw(st.dictionaries(keys, coefficients, max_size=8)))

    a, b = draw_op(), draw_op()
    ab, ba = insertion_by_slots(a, b), insertion_by_slots(b, a)
    product, bracket = insertion_product(a, b), kantor_bracket(a, b)
    assert (product.arity, typed(product)) == (ab.arity, typed(ab))
    difference = ab - ba
    assert (bracket.arity, typed(bracket)) == (difference.arity, typed(difference))
    for op in (product, bracket):
        for c in op.coeffs.values():
            assert c and (type(c) is int or c.denominator > 1)


def test_dim_mismatch():
    with pytest.raises(DimensionMismatchError):
        insertion_product(MultilinearOp.identity(2), MultilinearOp.identity(3))


def test_dim_mismatch_in_the_bracket_and_with_elements():
    # an arity-0 left operand contributes nothing, yet the dims are checked
    for fn in (insertion_product, kantor_bracket):
        with pytest.raises(DimensionMismatchError):
            fn(MultilinearOp.from_element((1, 0)), MultilinearOp.from_element((1, 0, 0)))
    with pytest.raises(DimensionMismatchError):
        kantor_bracket(MultilinearOp.identity(2), MultilinearOp.identity(3))


def test_bracket_with_an_element_on_either_side():
    # [P, x] = P . x: y -> P(x, y) + P(y, x), and [x, P] = -[P, x]
    alg = Algebra.from_products(2, {(0, 0): {1: 1}, (0, 1): {0: 2}, (1, 0): {1: Fraction(1, 2)}})
    P = MultilinearOp.from_algebra(alg)
    x = MultilinearOp.from_element(unit_vec(2, 0))
    px = MultilinearOp(1, 2, {((0,), 1): 2, ((1,), 0): 2, ((1,), 1): Fraction(1, 2)})
    assert kantor_bracket(P, x) == px
    assert kantor_bracket(x, P) == -px
    # a linear map against an element: [A, x] = A(x), an element
    A = MultilinearOp.from_matrix(Matrix.from_rows([[1, 2], [3, 4]]))
    y = MultilinearOp.from_element((Fraction(1), Fraction(-1)))
    assert kantor_bracket(A, y).as_element() == (Fraction(-1), Fraction(-1))
    assert kantor_bracket(y, A).as_element() == (Fraction(1), Fraction(1))


def test_bracket_of_two_elements_is_the_zero_element():
    x = MultilinearOp.from_element((1, 2, 0))
    y = MultilinearOp.from_element((0, 1, 1))
    bracket = kantor_bracket(x, y)
    assert bracket.arity == 0 and bracket.is_zero()
    assert insertion_product(x, y) == MultilinearOp.zero(0, 3)


def test_roundtrip_algebra_matrix_element(wn2):
    P = MultilinearOp.from_algebra(wn2)
    assert P.as_algebra(wn2.basis_names).table == wn2.table
    m = Matrix.from_rows([[1, 2], [3, 4]])
    assert as_matrix(MultilinearOp.from_matrix(m)) == m
    e = (Fraction(1), Fraction(0), Fraction(-2))
    assert MultilinearOp.from_element(e).as_element() == e
