from fractions import Fraction

import pytest

from kantor.claims import (
    S2_RECORDED,
    W2SYM_RECORDED,
    WN2_RECORDED,
    audit_table,
    recorded_algebra,
)
from kantor.conservative import conservativity, jacobi_space
from kantor.linalg import F0, F1, Subspace, sub_vec, unit_vec
from kantor.multiops import MultilinearOp
from kantor.wn import (
    Z_LABELS,
    build_wn,
    skew_invariance_subspace,
    trace_zero_subspace,
    w2sym_subspace,
    wn_associated_F,
    wn_basis_labels,
    wn_product,
)

from helpers import wn_by_bracket


def test_wn2_regenerates_recorded_table(wn2):
    assert audit_table(wn2, "wn2") == []
    assert wn2.table == recorded_algebra("wn2").table


def test_w2sym_regenerates_recorded_table(w2sym):
    assert audit_table(w2sym, "w2sym") == []


def test_s2_regenerates_recorded_table(s2):
    assert audit_table(s2, "s2") == []


def test_recorded_tables_have_all_printed_products():
    assert len(WN2_RECORDED) == 32  # 4 printed rows x 8 columns
    assert len(W2SYM_RECORDED) == 24  # 4 printed rows x 6 columns
    assert len(S2_RECORDED) == 12  # 3 printed rows x 4 columns


def test_wn_labels():
    assert wn_basis_labels(2) == (
        "a11^1", "a12^1", "a21^1", "a22^1", "a11^2", "a12^2", "a21^2", "a22^2",
    )


def test_wn_rejects_nonpositive():
    with pytest.raises(ValueError):
        build_wn(0)


def _delta_product(n, left, right):
    """Hand-derived closed form for the basis products of W(n).

    With a_{ab}^c indexed 1-based, the defining formula collapses to
    a_{ab}^c . a_{de}^f = [a=1]([b=f] a_{de}^c - [c=d] a_{be}^f - [c=e] a_{db}^f),
    an oracle independent of the bracket-based builder.
    """
    (a, b, c), (d, e, f) = left, right
    out = {}
    if a != 1:
        return out

    def add(i, j, k, coeff):
        key = (i, j, k)
        out[key] = out.get(key, 0) + coeff
        if not out[key]:
            del out[key]

    if b == f:
        add(d, e, c, 1)
    if c == d:
        add(b, e, f, -1)
    if c == e:
        add(d, b, f, -1)
    return out


def _label_index(n, i, j, k):
    return ((k - 1) * n + (i - 1)) * n + (j - 1)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_wn_matches_delta_oracle(n):
    alg = build_wn(n)
    triples = [(i, j, k) for k in range(1, n + 1) for i in range(1, n + 1) for j in range(1, n + 1)]
    for li, left in enumerate(triples):
        for ri, right in enumerate(triples):
            expected = [F0] * (n**3)
            for (i, j, k), coeff in _delta_product(n, left, right).items():
                expected[_label_index(n, i, j, k)] = Fraction(coeff)
            assert alg.table[li][ri] == tuple(expected), (left, right)


def test_wn2_zero_rows_for_second_index(wn2):
    # operations a_{2j}^k kill the distinguished vector, so they multiply to 0
    for name in ("a21^1", "a22^1", "a21^2", "a22^2"):
        i = wn2.index_of(name)
        for j in range(8):
            assert not any(wn2.table[i][j])


def test_wn_associated_f_star_tilde_properties():
    # symmetric A has A* = 2A; antisymmetric B has B~ = -3B
    sym = MultilinearOp(2, 2, {((0, 1), 0): F1, ((1, 0), 0): F1})
    assert sym + sym.transpose() == sym.scale(2)
    anti = MultilinearOp(2, 2, {((0, 1), 0): F1, ((1, 0), 0): -F1})
    assert anti.transpose().scale(2) - anti == anti.scale(-3)


def test_wn3_formula_is_associated():
    w3 = build_wn(3)
    F = wn_associated_F(3)
    from kantor.conservative import verify_associated

    assert verify_associated(w3, F, cross_check=False)


def test_w2sym_subspace_closure(wn2):
    sub = w2sym_subspace()
    from kantor.algebra import verify_subalgebra

    assert verify_subalgebra(wn2, sub)


def test_trace_zero_equals_skew_invariance():
    assert trace_zero_subspace() == skew_invariance_subspace()
    expected = Subspace.from_spanning(
        6,
        [(1, 0, 0, 0, -1, 0), (0, 1, 0, 0, 0, -1), (0, 0, 1, 0, 0, 0), (0, 0, 0, 1, 0, 0)],
    )
    assert trace_zero_subspace() == expected


def test_h1_equals_s2(s2, h1):
    assert h1.table == s2.table
    assert h1.basis_names == Z_LABELS


def test_xi1_not_in_s2():
    # trace of x -> xi1(e1, x) is 1, so xi1 violates the trace-zero condition
    sub = trace_zero_subspace()
    assert not sub.contains(unit_vec(6, 0))


def test_w2sym_table_spot_values(w2sym):
    i2, i4 = 1, 3
    assert w2sym.table[i2][i4] == (1, 0, 0, 0, -1, 0)  # xi2 xi4 = xi1 - xi5
    i3 = 2
    for j in range(6):
        assert not any(w2sym.table[i3][j])  # xi3 left-multiplies to zero


def test_s2_table_spot_values(s2):
    assert s2.table[0][3] == (0, 0, 0, -3)  # z1 z4 = -3 z4
    assert s2.table[3][0] == (0, 0, 0, 3)   # z4 z1 = 3 z4


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_closed_form_matches_the_product_of_operations(n):
    assert build_wn(n) == wn_by_bracket(n)


def test_wn_envelope_n4_builds():
    w4 = build_wn(4)
    assert w4.dim == 64
    assert w4.basis_names[0] == "a11^1" and w4.basis_names[-1] == "a44^4"
    # spot-check a handful of products against the closed-form oracle
    triples = [(i, j, k) for k in range(1, 5) for i in range(1, 5) for j in range(1, 5)]
    import random

    rng = random.Random(4)
    for _ in range(25):
        li = rng.randrange(64)
        ri = rng.randrange(64)
        expected = [F0] * 64
        for (i, j, k), coeff in _delta_product(4, triples[li], triples[ri]).items():
            expected[_label_index(4, i, j, k)] = Fraction(coeff)
        assert w4.table[li][ri] == tuple(expected)


def test_wn3_jacobi_codimension():
    w3 = build_wn(3)
    js = jacobi_space(w3)
    assert 27 - js.dim == 3


def test_wn4_conservative_and_formula_f_agrees_up_to_the_kernel():
    # dim 64: the bracket system has 64 unknowns and 262144 equations.  F is
    # unique up to the kernel, so the canonical F and the closed-form
    # wn_associated_F(4) must differ by kernel elements on every basis pair.
    w4 = build_wn(4)
    verdict = conservativity(w4)
    assert verdict.conservative
    assert verdict.kernel.dim == 60
    assert jacobi_space(w4) == verdict.kernel
    formula = wn_associated_F(4)
    for a in range(64):
        for b in range(64):
            diff = sub_vec(verdict.f.apply_basis((a, b)), formula.apply_basis((a, b)))
            assert verdict.kernel.contains(diff), (a, b)


def _associated_F_by_pairs(n):
    """Per-pair reference for `wn_associated_F`: F(A, B) = (1/3)(A* . B +
    B~ . A), with A* = A + A^T and B~ = 2B^T - B, bracketed one pair of
    basis operations a_ij^k at a time through `wn_product`."""
    ops = [
        MultilinearOp(2, n, {((i, j), k): F1})
        for k in range(n)
        for i in range(n)
        for j in range(n)
    ]
    coeffs = {}
    for ai, A in enumerate(ops):
        a_star = A + A.transpose()
        for bi, B in enumerate(ops):
            b_tilde = B.transpose().scale(2) - B
            value = (wn_product(a_star, B) + wn_product(b_tilde, A)).scale(Fraction(1, 3))
            for ((i, j), k), c in value.coeffs.items():
                coeffs[((ai, bi), (k * n + i) * n + j)] = c
    return MultilinearOp(2, len(ops), coeffs)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_wn_associated_F_matches_the_per_pair_formula(n):
    assert wn_associated_F(n) == _associated_F_by_pairs(n)
