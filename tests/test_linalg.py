from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from kantor.errors import DimensionMismatchError
from kantor.linalg import (
    AffineSolutionSet,
    Matrix,
    Subspace,
    eliminate,
    fredholm_certificate,
    solve_columns,
    unit_vec,
)

from helpers import coordinates_by_reduction, eliminate_in_full, identity_matrix, mat_apply, mat_col, pair, row_list, same_set, zero_matrix, zero_vec

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=4)


def small_matrices(max_dim=4):
    return st.integers(1, max_dim).flatmap(
        lambda r: st.integers(1, max_dim).flatmap(
            lambda c: st.lists(
                st.lists(rationals, min_size=c, max_size=c), min_size=r, max_size=r
            ).map(Matrix.from_rows)
        )
    )


def _sparse(vectors):
    return [{j: x for j, x in enumerate(v) if x} for v in vectors]


def _columns(m):
    return _sparse(mat_col(m, j) for j in range(m.cols))


def _echelon_form(m):
    """``(R, pivot_columns, rank)`` from `eliminate`, R padded with zero rows
    to the shape of m."""
    e = eliminate(_sparse(row_list(m)), m.cols)
    rows = [[r.get(j, Fraction(0)) for j in range(m.cols)] for r in e.rows]
    rows += [zero_vec(m.cols)] * (m.rows - len(rows))
    return Matrix(m.rows, m.cols, tuple(x for r in rows for x in r)), e.pivots, len(e.pivots)


def _certificate(m, b):
    """`fredholm_certificate` over the columns of m and target b, checked
    against them: yᵀA = 0 and yᵀb = 1."""
    columns, (target,) = _columns(m), _sparse([b])
    y = fredholm_certificate(columns, target)
    assert all(pair(y, column) == 0 for column in columns)
    assert pair(y, target) == 1
    return y


def _solve(m, targets):
    """`solve_columns` over the columns of m: the Echelon, and per target its
    canonical solution or None."""
    e = solve_columns(_columns(m), _sparse(targets))
    return e, [e.solution(m.cols + t) for t in range(len(targets))]


def oracle_row_echelon_rank(rows):
    """Independent plain forward elimination, used only as a rank oracle."""
    rows = [list(r) for r in rows]
    if not rows:
        return 0
    ncols = len(rows[0])
    rank = 0
    for col in range(ncols):
        pivot = None
        for i in range(rank, len(rows)):
            if rows[i][col] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(rank + 1, len(rows)):
            if rows[i][col] != 0:
                f = rows[i][col] / rows[rank][col]
                for k in range(col, ncols):
                    rows[i][k] -= f * rows[rank][k]
        rank += 1
    return rank


def test_rref_identity():
    m = identity_matrix(2)
    r, pivots, rank = _echelon_form(m)
    assert r == m
    assert pivots == (0, 1)
    assert rank == 2


def test_rref_proportional_rows():
    m = Matrix.from_rows([[1, 2], [2, 4]])
    r, pivots, rank = _echelon_form(m)
    assert r == Matrix.from_rows([[1, 2], [0, 0]])
    assert rank == 1


def _derivation_system_rows(table):
    """Leibniz equations of a structure tensor, assembled independently."""
    n = len(table)
    rows = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                row = [Fraction(0)] * (n * n)
                for s in range(n):
                    row[k * n + s] += table[i][j][s]
                for r in range(n):
                    row[r * n + i] -= table[r][j][k]
                    row[r * n + j] -= table[i][r][k]
                rows.append(row)
    return rows


def test_rank_cross_checked_by_independent_elimination():
    # derivation-equation system of a pseudo-random 2-dim algebra
    import random

    rng = random.Random(7)
    for _ in range(10):
        table = [
            [[Fraction(rng.randint(-3, 3)) for _ in range(2)] for _ in range(2)]
            for _ in range(2)
        ]
        rows = _derivation_system_rows(table)
        rank = len(eliminate(_sparse(rows), 4).pivots)
        assert rank == oracle_row_echelon_rank(rows)


@settings(deadline=None, max_examples=60)
@given(small_matrices())
def test_rref_idempotent_and_rank_matches_oracle(m):
    r, pivots, rank = _echelon_form(m)
    r2, pivots2, rank2 = _echelon_form(r)
    assert r == r2 and pivots == pivots2 and rank == rank2
    assert rank == oracle_row_echelon_rank(row_list(m))


def test_solve_identity():
    a = identity_matrix(3)
    b = (1, 2, 3)
    e, (particular,) = _solve(a, [b])
    assert particular == tuple(Fraction(x) for x in b)
    assert e.kernel().dim == 0


def test_solve_zero_system():
    a = zero_matrix(2, 2)
    e, (particular,) = _solve(a, [(0, 0)])
    assert particular == (0, 0)
    assert e.kernel() == Subspace.full(2)


def test_solve_underdetermined():
    a = Matrix.from_rows([[1, 1]])
    e, (particular,) = _solve(a, [(2,)])
    kernel = e.kernel()
    assert particular == (2, 0)
    assert kernel.dim == 1
    assert kernel.contains((-1, 1))
    # substitution check
    assert mat_apply(a, particular) == (2,)
    for k in kernel.basis:
        assert mat_apply(a, k) == (0,)


def test_solve_infeasible_gives_certificate():
    a = Matrix.from_rows([[1, 0], [1, 0]])
    _, (particular,) = _solve(a, [(1, 2)])
    assert particular is None
    # y kills every column of a but pairs to 1 with the target
    y = _certificate(a, (1, 2))
    assert y and all(type(x) is Fraction for x in y.values())


def test_certificate_requires_infeasible():
    with pytest.raises(ValueError):
        fredholm_certificate(_columns(identity_matrix(2)), {0: 1, 1: 1})


@settings(deadline=None, max_examples=60)
@given(small_matrices(), st.data())
def test_solve_exactness(m, data):
    b = data.draw(st.lists(rationals, min_size=m.rows, max_size=m.rows))
    e, (particular,) = _solve(m, [b])
    if particular is not None:
        assert mat_apply(m, particular) == tuple(Fraction(x) for x in b)
        for k in e.kernel().basis:
            assert mat_apply(m, k) == (Fraction(0),) * m.rows
    else:
        _certificate(m, b)


def test_solve_columns_many_targets_match_one_at_a_time():
    a = Matrix.from_rows([[1, 2], [2, 4], [0, 1]])
    targets = [(1, 2, 0), (1, 2, 3), (0, 0, 1)]
    _, many = _solve(a, targets)
    for t, got in zip(targets, many):
        _, (single,) = _solve(a, [t])
        assert got == single


def test_back_substitution_follows_fill_in():
    # pivot 1 writes -1 into column 2 of row 0, so pivot 2 must find row 0
    e = eliminate([{0: 1, 1: 1}, {1: 1, 2: 1}, {2: 1}], 3)
    assert e.pivots == (0, 1, 2)
    assert e.rows == ({0: 1}, {1: 1}, {2: 1})


def test_back_substitution_forgets_a_cancelled_entry():
    # pivot 1 cancels column 2 of row 0, so pivot 2 must leave row 0 alone
    e = eliminate([{0: 1, 1: 1, 2: 1}, {1: 1, 2: 1}, {2: 1, 3: 5}], 3)
    assert e.pivots == (0, 1, 2)
    assert e.rows == ({0: 1}, {1: 1, 3: -5}, {2: 1, 3: 5})
    assert e.solution(3) == (0, -5, 5)


def test_integral_rows_stay_int_inside_and_leave_as_fractions():
    # pivots of -1, 2 (dividing its row) and 1, and an integral Fraction
    e = eliminate([{0: -1, 1: 2, 3: 4}, {1: 2, 2: -6}, {0: Fraction(1), 2: -5}], 3)
    assert e.rows == ({0: 1, 3: 20}, {1: 1, 3: 12}, {2: 1, 3: 4})
    assert all(type(x) is int for row in e.rows for x in row.values())
    assert e.solution(3) == (20, 12, 4)
    assert all(type(x) is Fraction for x in e.solution(3))
    assert all(type(x) is Fraction for v in e.kernel().basis for x in v)


@st.composite
def _int_systems(draw):
    """Sparse integral rows of ``[A | b]``, A with 1-5 columns, and how
    to reorder them and which entries to hand over as Fractions."""
    cols = draw(st.integers(1, 5))
    entry = st.sampled_from([0, 0, 0, 1, -1, 2, -3])
    rows = draw(st.lists(st.lists(entry, min_size=cols + 1, max_size=cols + 1), min_size=1, max_size=6))
    order = draw(st.permutations(range(len(rows))))
    as_fraction = draw(st.lists(st.booleans(), min_size=len(rows) * (cols + 1), max_size=len(rows) * (cols + 1)))
    return cols, _sparse(rows), order, as_fraction


@pytest.mark.parametrize("value", [0.5, "1/2"])
@pytest.mark.parametrize(
    "solve",
    [
        lambda rows: eliminate(rows, 1),
        lambda rows: solve_columns(rows).kernel(),
        lambda rows: fredholm_certificate(rows, {1: 1}),
    ],
    ids=["eliminate", "solve_columns", "fredholm_certificate"],
)
def test_a_value_that_is_not_rational_is_a_type_error(solve, value):
    with pytest.raises(TypeError, match="is not an int or a Fraction"):
        solve([{0: value}])


@settings(deadline=None, max_examples=100)
@given(_int_systems())
def test_eliminate_ignores_row_order_and_value_type(system):
    cols, rows, order, as_fraction = system
    flags = iter(as_fraction)
    copy = [
        {c: Fraction(x) if next(flags) else x for c, x in rows[i].items()}
        for i in order
    ]
    first, second = eliminate(rows, cols), eliminate(copy, cols)
    assert second.pivots == first.pivots
    assert second.inconsistent == first.inconsistent
    assert second.solution(cols) == first.solution(cols)
    assert second.kernel() == first.kernel()
    if not first.inconsistent:
        # the RREF of a consistent [A | b] is unique; an infeasible b
        # column depends on which rows came first
        assert second.rows == first.rows


def _typed(echelon):
    """An Echelon's pivots, rows with each entry's type, and inconsistent
    columns."""
    rows = [sorted((c, x, type(x)) for c, x in row.items()) for row in echelon.rows]
    return echelon.pivots, rows, echelon.inconsistent


def test_single_entry_pivot_rows_drop_their_column_on_entry():
    # back-substitution of {1: 1} leaves row 0 as {0: 1}, so the third row
    # enters without columns 0 and 1 and the fourth enters empty
    rows = [{0: 1, 1: 2}, {1: 3}, {0: 5, 1: 7, 2: 2, 3: 4}, {0: -1, 1: Fraction(1, 2)}]
    e = eliminate(rows, 3)
    assert e.rows == ({0: 1}, {1: 1}, {2: 1, 3: 2})
    assert _typed(e) == _typed(eliminate_in_full(rows, 3))


@st.composite
def _row_lists(draw):
    """Rows over 1-5 unknowns and 0-2 right-hand sides, int and Fraction
    entries, explicit zeros among them: single-entry rows, sparse rows,
    repeats and sums of earlier rows (which reduce to empty, or to their
    right-hand sides alone), and pairs {a, b}, {b} whose back-substitution
    leaves the pivot row of a with one entry, or with one more entry c
    when the first row is {a, b, c}."""
    cols = draw(st.integers(1, 5))
    column = st.integers(0, cols + draw(st.integers(0, 2)) - 1)
    unknown = st.integers(0, cols - 1)
    value = st.sampled_from([1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3), Fraction(4)])
    rows = []
    for _ in range(draw(st.integers(1, 10))):
        kind = draw(st.sampled_from(["single", "sparse", "repeat", "sum", "pair"]))
        if kind == "single":
            rows.append({draw(column): draw(value)})
        elif kind == "sparse":
            rows.append({draw(column): draw(st.one_of(value, st.just(0))) for _ in range(draw(st.integers(1, 4)))})
        elif kind == "repeat" and rows:
            f = draw(value)
            rows.append({c: f * x for c, x in draw(st.sampled_from(rows)).items()})
        elif kind == "sum" and rows:
            first, second = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            rows.append({c: first.get(c, 0) + second.get(c, 0) for c in {*first, *second}})
        else:
            a, b = sorted((draw(unknown), draw(unknown)))
            extra = draw(st.lists(column, max_size=1))
            rows.append({a: draw(value), b: draw(value), **{c: draw(value) for c in extra}})
            rows.append({b: draw(value)})
    return cols, rows


@settings(deadline=None, max_examples=300)
@given(_row_lists())
def test_eliminate_matches_the_full_reduction(system):
    cols, rows = system
    assert _typed(eliminate(rows, cols)) == _typed(eliminate_in_full(rows, cols))


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        Subspace.from_spanning(2, [(1, 2, 3)])


def test_subspace_spanning_full():
    s = Subspace.from_spanning(2, [(1, 0), (1, 1)])
    assert s == Subspace.full(2)


def test_subspace_scaling_invariance():
    assert Subspace.from_spanning(2, [(1, 1)]) == Subspace.from_spanning(2, [(2, 2)])


def test_subspace_intersection():
    e = lambda i: unit_vec(3, i)
    s1 = Subspace.from_spanning(3, [e(0), e(1)])
    s2 = Subspace.from_spanning(3, [e(1), e(2)])
    assert s1.intersection(s2) == Subspace.from_spanning(3, [e(1)])


def test_subspace_sum_and_contains():
    s1 = Subspace.from_spanning(3, [(1, 0, 0)])
    s2 = Subspace.from_spanning(3, [(0, 1, 1)])
    total = s1.sum(s2)
    assert total.dim == 2
    assert total.contains((1, 1, 1))
    assert not total.contains((0, 1, 0))


def test_subspace_coordinates_roundtrip():
    s = Subspace.from_spanning(3, [(1, 0, 2), (0, 1, -1)])
    v = (3, 2, 4)
    coords = s.coordinates(v)
    assert coords is not None
    rebuilt = [Fraction(0)] * 3
    for c, row in zip(coords, s.basis):
        for k, x in enumerate(row):
            rebuilt[k] += c * x
    assert tuple(rebuilt) == tuple(Fraction(x) for x in v)
    assert s.coordinates((0, 0, 1)) is None


@settings(deadline=None, max_examples=100)
@given(st.integers(1, 4).flatmap(
    lambda n: st.tuples(
        st.lists(st.lists(rationals, min_size=n, max_size=n), max_size=n),
        st.lists(rationals, min_size=n, max_size=n),
        st.lists(st.integers(-2, 2), min_size=n, max_size=n),
    )
))
def test_subspace_coordinates_match_the_in_place_reduction(case):
    gens, drawn, weights = case
    n = len(drawn)
    s = Subspace.from_spanning(n, gens)
    normals = s.orthogonal_complement().basis
    # a combination of the spanning set lies inside s, and over Q a nonzero
    # normal of s lies outside it; a drawn vector may lie either side
    inside = [sum((w * g[k] for w, g in zip(weights, gens)), Fraction(0)) for k in range(n)]
    assert s.coordinates(inside) is not None
    assert all(s.coordinates(nu) is None for nu in normals)
    for v in (inside, drawn, [0] * n, *normals):
        coords = s.coordinates(v)
        assert coords == coordinates_by_reduction(s, v)
        assert coords is None or (len(coords) == s.dim and all(type(c) is Fraction for c in coords))
    for v in ([0] * (n + 1), [1] * (n - 1)):
        with pytest.raises(DimensionMismatchError):
            s.coordinates(v)


@pytest.mark.parametrize("v", [(1,), (1, 0, 0)])
def test_subspace_coordinates_and_contains_check_the_length(v):
    s = Subspace.full(2)
    with pytest.raises(DimensionMismatchError):
        s.coordinates(v)
    with pytest.raises(DimensionMismatchError):
        s.contains(v)


@settings(deadline=None, max_examples=40)
@given(
    st.lists(st.lists(rationals, min_size=3, max_size=3), min_size=1, max_size=4),
    st.permutations(range(4)),
    rationals.filter(lambda q: q != 0),
)
def test_spanning_invariant_under_scaling_and_permutation(vecs, perm, scale):
    s1 = Subspace.from_spanning(3, vecs)
    shuffled = [vecs[i % len(vecs)] for i in perm][: len(vecs)]
    # permuting (with repeats allowed) and rescaling never changes the span
    rescaled = [tuple(scale * x for x in v) for v in vecs] + shuffled
    s2 = Subspace.from_spanning(3, rescaled)
    assert s1 == s2


def test_affine_same_set():
    kernel = Subspace.from_spanning(2, [(0, 1)])
    a = AffineSolutionSet((1, 0), kernel)
    b = AffineSolutionSet((1, 5), kernel)
    c = AffineSolutionSet((0, 0), kernel)
    assert same_set(a, b)
    assert not same_set(a, c)


def test_nullspace_orthogonal_complement_dimensions():
    m = Matrix.from_rows([[1, 1, 0], [0, 1, 1]])
    ker = Subspace.from_spanning(3, row_list(m)).orthogonal_complement()
    assert ker.dim == 1
    assert ker.contains((1, -1, 1))


# -- sympy as the oracle for the one elimination routine ----------------------


def _sympy_matrix(m):
    return sympy.Matrix(m.rows, m.cols, [sympy.Rational(x.numerator, x.denominator) for x in m.entries])


def _fractions(sm):
    return tuple(Fraction(int(x.p), int(x.q)) for x in sm)


@st.composite
def oracle_matrices(draw):
    """Rational matrices up to 5 x 5, including empty, zero-row, all-zero,
    sparse and dense ones; some rows are combinations of earlier rows, so
    rank deficiency is common."""
    nrows, ncols = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    entry = draw(st.sampled_from([
        st.just(Fraction(0)),
        st.one_of(st.just(Fraction(0)), st.just(Fraction(0)), st.just(Fraction(0)), rationals),
        rationals,
    ]))
    rows = []
    for _ in range(nrows):
        if rows and draw(st.booleans()):
            coeffs = draw(st.lists(rationals, min_size=len(rows), max_size=len(rows)))
            rows.append([sum((c * r[j] for c, r in zip(coeffs, rows)), Fraction(0)) for j in range(ncols)])
        else:
            rows.append(draw(st.lists(entry, min_size=ncols, max_size=ncols)))
    return Matrix(nrows, ncols, tuple(x for r in rows for x in r))


@settings(deadline=None, max_examples=100)
@given(oracle_matrices())
def test_rref_matches_sympy(m):
    r, pivots, rank = _echelon_form(m)
    expected, expected_pivots = _sympy_matrix(m).rref()
    assert r.entries == _fractions(expected)
    assert (r.rows, r.cols) == (m.rows, m.cols)
    assert pivots == tuple(expected_pivots) and rank == len(expected_pivots)


@settings(deadline=None, max_examples=100)
@given(oracle_matrices())
def test_nullspace_matches_sympy(m):
    # the kernel of the rows, both ways the package forms it
    ker = Subspace.from_spanning(m.cols, row_list(m)).orthogonal_complement()
    assert solve_columns(_columns(m)).kernel() == ker
    vectors = _sympy_matrix(m).nullspace()
    assert ker.dim == len(vectors)
    if vectors:
        # the canonical basis is the RREF of any spanning set of the kernel
        canonical, pivots = sympy.Matrix.hstack(*vectors).T.rref()
        assert ker.basis == tuple(_fractions(canonical.row(i)) for i in range(len(pivots)))
        assert ker.pivot_columns == tuple(pivots)
    for v in ker.basis:
        assert mat_apply(m, v) == zero_vec(m.rows)


@settings(deadline=None, max_examples=100)
@given(oracle_matrices(), st.data())
def test_solve_columns_matches_sympy(m, data):
    # half the targets are images A x (feasible), the rest arbitrary
    targets = []
    for _ in range(data.draw(st.integers(0, 4))):
        if data.draw(st.booleans()):
            x = data.draw(st.lists(rationals, min_size=m.cols, max_size=m.cols))
            targets.append(mat_apply(m, tuple(x)))
        else:
            targets.append(tuple(data.draw(st.lists(rationals, min_size=m.rows, max_size=m.rows))))
    sm = _sympy_matrix(m)
    _, pivots = sm.rref()
    free = [j for j in range(m.cols) if j not in pivots]
    for t, x in zip(targets, _solve(m, targets)[1]):
        column = sympy.Matrix(m.rows, 1, [sympy.Rational(c.numerator, c.denominator) for c in t])
        feasible = sympy.Matrix.hstack(sm, column).rank() == sm.rank()
        assert (x is not None) == feasible
        if feasible:
            assert mat_apply(m, x) == t
            assert all(x[j] == 0 for j in free)
        else:
            y = _certificate(m, t)
            # the canonical solution of [Aᵀ; bᵀ] y = (0, ..., 0, 1): every
            # free coordinate zero, the pivots read off the RREF
            transposed = sympy.Matrix.vstack(sm.T, column.T)
            rhs = sympy.Matrix([0] * m.cols + [1])
            reduced, pivots = sympy.Matrix.hstack(transposed, rhs).rref()
            expected = [Fraction(0)] * m.rows
            for r, p in enumerate(pivots):
                expected[p] = Fraction(int(reduced[r, m.rows].p), int(reduced[r, m.rows].q))
            assert [y.get(i, 0) for i in range(m.rows)] == expected
