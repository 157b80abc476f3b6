import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from kantor.algebra import Algebra, generated_subalgebra, induced_algebra
from kantor.claims import (
    audit_derivations,
    wn2_derivation_display,
    wn2_derivation_relations,
)
from kantor.derivations import (
    DerivationAlgebra,
    _leibniz_rows,
    derivation_algebra,
    derived_series,
    inner_derivations,
    is_derivation,
    is_solvable,
)
from kantor.errors import NotClosedError
from kantor.linalg import Matrix, Subspace, eliminate, unit_vec
from kantor.multiops import MultilinearOp, kantor_bracket
from kantor.wn import build_wn
from kantor import zoo

from helpers import (
    commutator,
    dense_derived_series,
    dense_generated_subalgebra,
    dense_induced_algebra,
    dense_inner_derivations,
    derivation_algebra_by_columns,
    derivation_columns,
    identity_matrix,
    left_mul_operator,
    mat_combination,
    zero_matrix,
)


def test_zero_map_is_derivation(wn2):
    assert is_derivation(wn2, zero_matrix(8, 8))


def test_identity_not_derivation(wn2):
    assert not is_derivation(wn2, identity_matrix(8))


def test_relations_family_are_derivations(wn2):
    assert is_derivation(wn2, wn2_derivation_relations(1, 0))
    assert is_derivation(wn2, wn2_derivation_relations(0, 1))
    assert is_derivation(wn2, wn2_derivation_relations(3, Fraction(-1, 2)))


def test_display_family_z_direction_is_derivation(wn2):
    # with w = 0 the display matrix coincides with the relations family
    assert is_derivation(wn2, wn2_derivation_display(1, 0))


def test_display_family_w_direction_is_not(wn2):
    # the stray w in row 4, column 2 of the display breaks the Leibniz rule
    assert not is_derivation(wn2, wn2_derivation_display(0, 1))


def test_der_wn2(wn2):
    der = derivation_algebra(wn2)
    assert der.dim == 2
    assert derived_series(der) == [2, 1, 0]
    assert is_solvable(der)
    relations_span = Subspace.from_spanning(
        64,
        [
            wn2_derivation_relations(1, 0).entries,
            wn2_derivation_relations(0, 1).entries,
        ],
    )
    assert der.subspace == relations_span
    # the display family differs (the audit reports it as an erratum)
    errata = audit_derivations("wn2", der)
    assert any("stray w" in e.computed for e in errata)


def test_der_w2sym(w2sym):
    der = derivation_algebra(w2sym)
    assert der.dim == 2
    assert derived_series(der) == [2, 1, 0]


def test_der_s2_computed_truth(s2):
    # The recorded claim says zero; the Leibniz system says otherwise, and
    # every basis solution re-verifies.  The audit carries the discrepancy.
    der = derivation_algebra(s2)
    assert der.dim == 2
    for d in der.basis:
        assert is_derivation(s2, d)
    errata = audit_derivations("s2", der)
    assert any("dim Der" in e.subject for e in errata)
    # the inner derivation by z2 is one of them
    Lz2 = left_mul_operator(s2, unit_vec(4, 1))
    assert is_derivation(s2, Lz2)
    assert der.subspace.contains(Lz2.entries)


def test_der_zero_algebra_is_full_matrix_space():
    der = derivation_algebra(zoo.zero_algebra(2))
    assert der.dim == 4
    # the series of gl_2 stabilizes at sl_2: not solvable
    assert derived_series(der) == [4, 3]
    assert not is_solvable(der)


def test_derivation_basis_passes_leibniz(wn2, w2sym, s2, m7):
    for alg in (wn2, w2sym, s2, m7):
        der = derivation_algebra(alg)
        for d in der.basis:
            assert is_derivation(alg, d)


@settings(deadline=None, max_examples=40)
@given(st.data())
def test_is_derivation_is_membership_in_der(data):
    # sparse constants leave Der(A) nonzero often; a random combination of
    # its basis is a derivation, and one perturbed entry usually is not
    n = data.draw(st.integers(1, 3))
    constant = st.sampled_from([1, 0, 0, -1, 0, 2])
    products = {
        (i, j): {k: data.draw(constant) for k in range(n)} for i in range(n) for j in range(n)
    }
    alg = Algebra.from_products(n, products)
    der = derivation_algebra(alg)
    entries = [Fraction(0)] * (n * n)
    for basis in der.basis:
        c = data.draw(st.integers(-2, 2))
        entries = [a + c * b for a, b in zip(entries, basis.entries)]
    if data.draw(st.booleans()):
        pos = data.draw(st.integers(0, n * n - 1))
        entries[pos] += data.draw(st.fractions(-2, 2, max_denominator=3).filter(bool))
    d = Matrix(n, n, tuple(entries))
    assert is_derivation(alg, d) == der.subspace.contains(d.entries)


def _sparse_algebra(data, max_dim):
    """At most 3n nonzero constants, so Der(A) is often non-abelian."""
    n = data.draw(st.integers(1, max_dim))
    index = st.integers(0, n - 1)
    constant = st.sampled_from([1, -1, 2, Fraction(1, 2)])
    products = {}
    for _ in range(data.draw(st.integers(0, 3 * n))):
        i, j, k = data.draw(index), data.draw(index), data.draw(index)
        products.setdefault((i, j), {})[k] = data.draw(constant)
    return Algebra.from_products(n, products)


@settings(deadline=None, max_examples=40)
@given(st.data())
def test_derivation_columns_are_the_brackets_with_the_matrix_units(data):
    alg = _sparse_algebra(data, 4)
    n = alg.dim
    P = MultilinearOp.from_algebra(alg)
    columns = derivation_columns(alg)
    for r in range(n):
        for s in range(n):
            e_rs = MultilinearOp(1, n, {((s,), r): 1})
            column = {key: c for key, c in columns[r * n + s].items() if c}
            assert column == kantor_bracket(e_rs, P).coeffs


def _assert_rows_are_the_columns_transposed(alg):
    n = alg.dim
    transposed = {}
    for z, column in enumerate(derivation_columns(alg)):
        for ((i, j), t), c in column.items():
            if c:
                transposed.setdefault((i * n + j) * n + t, {})[z] = c
    rows = {label: {z: c for z, c in row.items() if c} for label, row in _leibniz_rows(alg).items()}
    assert {label: row for label, row in rows.items() if row} == transposed


def test_leibniz_rows_are_the_derivation_columns_transposed():
    for name in sorted(zoo.FIXTURES):
        _assert_rows_are_the_columns_transposed(zoo.fixture(name))
    _assert_rows_are_the_columns_transposed(build_wn(3))
    _assert_rows_are_the_columns_transposed(zoo.matrix_algebra(4))


@settings(deadline=None, max_examples=40)
@given(st.data())
def test_leibniz_rows_are_the_derivation_columns_transposed_on_random_algebras(data):
    _assert_rows_are_the_columns_transposed(_sparse_algebra(data, 4))


def test_derivation_system_of_w3_stays_in_int_arithmetic():
    # W(3)'s structure constants are integers and every pivot of its
    # Leibniz system, shortest row first as `derivation_algebra` hands it
    # over, normalises to an integral row
    system = eliminate(sorted(_leibniz_rows(build_wn(3)).values(), key=len), 27 * 27)
    assert len(system.rows) == 27 * 27 - 6
    assert all(type(x) is int for row in system.rows for x in row.values())


def test_derivation_algebra_is_the_kernel_over_the_columns():
    for alg in (build_wn(3), zoo.matrix_algebra(4), build_wn(4)):
        assert derivation_algebra(alg) == derivation_algebra_by_columns(alg)


def _assert_lie_table_is_the_matrix_commutator(alg):
    der = derivation_algebra(alg)
    for i, di in enumerate(der.basis):
        for j, dj in enumerate(der.basis):
            assert mat_combination(der.lie.table[i][j], der.basis) == commutator(di, dj)


@settings(deadline=None, max_examples=40)
@given(st.data())
def test_lie_table_is_the_matrix_commutator_on_random_algebras(data):
    _assert_lie_table_is_the_matrix_commutator(_sparse_algebra(data, 4))


def test_lie_table_is_the_matrix_commutator(wn2, m7):
    for alg in (zoo.matrix_algebra(3), m7, wn2):
        _assert_lie_table_is_the_matrix_commutator(alg)


def test_lie_closure(wn2):
    der = derivation_algebra(wn2)
    k = der.dim
    for i in range(k):
        for j in range(k):
            br = commutator(der.basis[i], der.basis[j])
            assert der.subspace.contains(br.entries)


def test_inner_derivations_wn2(wn2):
    inner = inner_derivations(wn2)
    der = derivation_algebra(wn2)
    assert all(der.subspace.contains(v) for v in inner.basis)
    L2 = left_mul_operator(wn2, unit_vec(8, 1))
    L6 = left_mul_operator(wn2, unit_vec(8, 5))
    assert inner.contains(L2.entries)
    assert inner.contains(L6.entries)
    # the recorded relation, with operators composing as right actions
    assert commutator(L2, L6) == L2


def test_inner_derivations_w2sym(w2sym):
    M2 = left_mul_operator(w2sym, unit_vec(6, 1))
    M5 = left_mul_operator(w2sym, unit_vec(6, 4))
    assert commutator(M2, M5) == M2
    inner = inner_derivations(w2sym)
    assert inner.dim == 2


def test_inner_derivations_zero_algebra():
    assert inner_derivations(zoo.zero_algebra(2)).dim == 0


def test_derived_series_abelian():
    abelian = DerivationAlgebra(
        2,
        (identity_matrix(2), Matrix.from_rows([[0, 1], [0, 0]])),
        Subspace.from_spanning(4, [(1, 0, 0, 1), (0, 1, 0, 0)]),
        Algebra.zero(2, ["D1", "D2"]),
    )
    assert derived_series(abelian) == [2, 0]
    assert is_solvable(abelian)


def _seeded_algebra(seed):
    """A random algebra of dim 1-5, about half its products nonzero, with
    constants in -2..2 over denominators 1 and 2."""
    rng = random.Random(seed)
    n = rng.randint(1, 5)
    products = {
        (i, j): {k: Fraction(rng.randint(-2, 2), rng.choice((1, 1, 2))) for k in range(n) if rng.random() < 0.5}
        for i in range(n)
        for j in range(n)
        if rng.random() < 0.5
    }
    return Algebra.from_products(n, products)


_NAMED = {
    **{name: lambda name=name: zoo.fixture(name) for name in sorted(zoo.FIXTURES)},
    "M4": lambda: zoo.matrix_algebra(4),
    "W3": lambda: build_wn(3),
    "W4": lambda: build_wn(4),
    "zero0": lambda: Algebra.zero(0),
    "dim1": lambda: Algebra.from_products(1, {(0, 0): {0: 2}}),
    **{f"random{seed}": lambda seed=seed: _seeded_algebra(seed) for seed in range(40)},
}


def _outcome(fn, *args):
    """fn's value, or the pair and product of the `NotClosedError` it raises."""
    try:
        return fn(*args)
    except NotClosedError as err:
        return ("not closed", err.i, err.j, err.product)


@pytest.mark.parametrize("name", list(_NAMED))
def test_sparse_products_match_the_dense_routes(name):
    # the derived series, inner derivations, generated subalgebras and
    # induced tables from sparse `basis_products` rows equal those of
    # dense `mul_vec` products re-spanned, and of `as_matrix` for L_a
    alg = _NAMED[name]()
    n = alg.dim
    da = derivation_algebra(alg)
    assert derived_series(da) == dense_derived_series(da)
    assert inner_derivations(alg) == dense_inner_derivations(alg)
    gens = [unit_vec(n, 0), tuple(Fraction(i % 3 - 1, 2) for i in range(n))] if n else []
    sub = generated_subalgebra(alg, gens)
    assert sub == dense_generated_subalgebra(alg, gens)
    for s in (sub, Subspace.full(n), Subspace.from_spanning(n, gens)):
        assert _outcome(induced_algebra, alg, s) == _outcome(dense_induced_algebra, alg, s)
