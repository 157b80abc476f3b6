import json
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from kantor import cli
from kantor.algebra import (
    Algebra,
    annihilator,
    closure_witness,
    format_combination,
    generated_subalgebra,
    induced_algebra,
    two_sided_columns,
    verify_subalgebra,
)
from kantor.claims import audit_table
from kantor.codim1 import codim1_subalgebras
from kantor.conservative import conservativity, quasi_units
from kantor.derivations import derivation_algebra
from kantor.errors import AlgebraFormatError, NotClosedError
from kantor.identities import is_nilpotent4
from kantor.linalg import Matrix, Subspace, solve_columns, unit_vec
from kantor.multiops import MultilinearOp
from kantor.storage import (
    MAX_DIGITS,
    dumps_algebra,
    load_algebra_pair,
    parse_algebra_document,
    parse_rational,
    save_algebra,
)
from kantor.wn import XI_LABELS, Z_LABELS, build_wn, w2sym_subspace, wn_associated_F
from kantor import zoo

from helpers import left_mul_operator, right_mul_operator

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=3)


def drop(dim, i0):
    return Subspace.from_spanning(dim, [unit_vec(dim, k) for k in range(dim) if k != i0])


def test_zero_algebra_products():
    z = zoo.zero_algebra(3)
    x = z.element((1, 2, 3))
    y = z.element((4, 5, 6))
    assert (x * y).is_zero()


def test_wn2_e1_squared(wn2):
    e1 = wn2.gen(0)
    assert e1 * e1 == -e1


def test_m7_h_action(m7):
    h = m7.gen("h")
    x = m7.gen("x")
    assert h * x == 2 * x
    assert x * h == -2 * x


def test_left_mul_operator_diagonal_on_wn2(wn2):
    L = left_mul_operator(wn2, wn2.gen(0))
    expected = [-1, 0, 0, 1, -2, -1, -1, 0]
    for j in range(8):
        col = [L[i, j] for i in range(8)]
        want = [Fraction(0)] * 8
        want[j] = Fraction(expected[j])
        assert col == want


def test_unital_left_mul_is_identity(matrix2):
    unit = zoo.find_unit(matrix2)
    assert left_mul_operator(matrix2, unit) == Matrix.identity(4)
    assert right_mul_operator(matrix2, unit) == Matrix.identity(4)


@settings(deadline=None, max_examples=30)
@given(st.data())
def test_multiply_bilinear_and_operator_consistency(data):
    n = data.draw(st.integers(1, 3))
    table = data.draw(
        st.lists(
            st.lists(
                st.lists(rationals, min_size=n, max_size=n), min_size=n, max_size=n
            ),
            min_size=n,
            max_size=n,
        )
    )
    alg = Algebra.from_table(table)
    vec3 = st.lists(rationals, min_size=n, max_size=n)
    x, xp, y = (tuple(data.draw(vec3)) for _ in range(3))
    a, b = data.draw(rationals), data.draw(rationals)
    combo = tuple(a * u + b * v for u, v in zip(x, xp))
    left = alg.mul_vec(combo, y)
    right = tuple(
        a * u + b * v for u, v in zip(alg.mul_vec(x, y), alg.mul_vec(xp, y))
    )
    assert left == right
    # L_{x+xp} = L_x + L_xp, and L_a e_j = a e_j products
    Lsum = left_mul_operator(alg, tuple(u + v for u, v in zip(x, xp)))
    assert Lsum == left_mul_operator(alg, x) + left_mul_operator(alg, xp)
    for j in range(n):
        assert Lsum.col(j) == alg.mul_vec(tuple(u + v for u, v in zip(x, xp)), unit_vec(n, j))


def _random_algebra(data, max_dim):
    """An algebra of dim <= max_dim whose constants are often zero."""
    n = data.draw(st.integers(1, max_dim))
    entries = st.one_of(st.just(0), rationals)
    cube = st.lists(
        st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n),
        min_size=n,
        max_size=n,
    )
    return Algebra.from_table(data.draw(cube))


@settings(deadline=None, max_examples=20)
@given(st.data())
def test_sparse_table_lists_the_nonzero_constants(data):
    alg = _random_algebra(data, 4)
    for row, sparse_row in zip(alg.table, alg.sparse_table):
        for product, outputs in zip(row, sparse_row):
            assert list(outputs) == [(k, c) for k, c in enumerate(product) if c]


@settings(deadline=None, max_examples=20)
@given(st.data())
def test_mul_vec_is_the_triple_sum(data):
    alg = _random_algebra(data, 4)
    n = alg.dim
    x, y = (tuple(data.draw(st.lists(rationals, min_size=n, max_size=n))) for _ in range(2))
    expected = tuple(
        sum((x[i] * y[j] * alg.table[i][j][k] for i in range(n) for j in range(n)), Fraction(0))
        for k in range(n)
    )
    product = alg.mul_vec(x, y)
    assert product == expected
    assert all(isinstance(c, Fraction) for c in product)


@settings(deadline=None, max_examples=20)
@given(st.data())
def test_partial_of_the_product_is_left_multiplication(data):
    alg = _random_algebra(data, 4)
    x = tuple(data.draw(st.lists(rationals, min_size=alg.dim, max_size=alg.dim)))
    P = MultilinearOp.from_algebra(alg)
    assert P.partial(x) == MultilinearOp.from_matrix(left_mul_operator(alg, x))


def _two_sided_matrix(alg):
    """x -> (x e_j, e_j x)_j as a dense sympy matrix read cell by cell from
    alg.table: rows alternate coordinate k of x e_j and of e_j x."""
    n = alg.dim
    rows = []
    for j in range(n):
        for k in range(n):
            rows.append([alg.table[i][j][k] for i in range(n)])
            rows.append([alg.table[j][i][k] for i in range(n)])
    return sympy.Matrix(len(rows), n, [sympy.Rational(x.numerator, x.denominator) for r in rows for x in r])


def _fraction(x):
    return Fraction(int(x.p), int(x.q))


def _dense_kernel(alg):
    """The kernel of the dense two-sided matrix, by sympy, in canonical
    form: the RREF of any spanning set."""
    vectors = _two_sided_matrix(alg).nullspace()
    if not vectors:
        return Subspace.zero(alg.dim)
    canonical, pivots = sympy.Matrix.hstack(*vectors).T.rref()
    return Subspace(alg.dim, tuple(tuple(map(_fraction, canonical.row(i))) for i in range(len(pivots))), tuple(pivots))


def _dense_unit(alg):
    """The canonical solution of the dense two-sided system for the unit
    (free coordinates zero) by sympy's RREF of [A | b], or None."""
    n = alg.dim
    target = [1 if j == k else 0 for j in range(n) for k in range(n) for _ in range(2)]
    a = _two_sided_matrix(alg)
    reduced, pivots = a.row_join(sympy.Matrix(len(target), 1, target)).rref()
    if n in pivots:
        return None
    x = [Fraction(0)] * n
    for r, p in enumerate(pivots):
        x[p] = _fraction(reduced[r, n])
    return tuple(x)


@pytest.mark.parametrize("name", sorted(zoo.FIXTURES))
def test_annihilator_matches_the_dense_two_sided_kernel_on_fixtures(name):
    alg = zoo.fixture(name)
    assert annihilator(alg) == _dense_kernel(alg)
    assert zoo.find_unit(alg) == _dense_unit(alg)


@settings(deadline=None, max_examples=40)
@given(st.data())
def test_two_sided_solves_match_the_dense_oracle(data):
    # half the algebras get e1 as a two-sided unit, so find_unit is
    # feasible as often as not
    alg = _random_algebra(data, 4)
    n = alg.dim
    if data.draw(st.booleans()):
        table = [list(row) for row in alg.table]
        for j in range(n):
            table[0][j] = table[j][0] = unit_vec(n, j)
        alg = Algebra.from_table(table)
    assert annihilator(alg) == _dense_kernel(alg)
    assert zoo.find_unit(alg) == _dense_unit(alg)


@pytest.mark.parametrize("name", ["wn2", "matrix2", "sl2", "nilpotent4"])
def test_public_results_hold_fractions_on_int_tables(name):
    # sparse_table keeps integral constants as ints; every vector handed
    # back across the public boundary holds Fractions all the same
    alg = zoo.fixture(name)
    n = alg.dim
    assert any(type(c) is int for row in alg.sparse_table for p in row for _, c in p)
    columns = two_sided_columns(alg)
    system = solve_columns(columns, [columns[0]])
    kernel = system.kernel()
    spanned = Subspace.from_spanning(n, [[dict(p).get(k, 0) for k in range(n)] for row in alg.sparse_table for p in row])
    induced = induced_algebra(alg, Subspace.full(n))
    qu = quasi_units(alg)
    vectors = [system.solution(n), *kernel.basis, *spanned.basis, *qu.kernel.basis]
    vectors += [p for row in induced.table for p in row]
    if name == "wn2":
        assert qu.feasible
    if qu.feasible:
        vectors.append(qu.particular)
    der = derivation_algebra(alg)
    vectors += [d.entries for d in der.basis]
    vectors += [p for row in der.lie.table for p in row]
    f = conservativity(alg).f
    if name == "wn2":
        assert f is not None
    if f is not None:
        e1 = unit_vec(n, 0)
        vectors += [f.apply_basis((0, 0)), (f.coeff((0, 0), 0),)]
        vectors += [f.partial(e1).as_matrix().entries, f.partial(e1).partial(e1).as_element()]
        vectors += [p for row in f.as_algebra().table for p in row]
    assert vectors and all(type(x) is Fraction for v in vectors for x in v)


@pytest.mark.parametrize(
    "build",
    [
        lambda: zoo.quasi_mutation(zoo.fixture("matrix2"), Fraction(1, 3)),
        lambda: zoo.poisson_kantor_product(*zoo.truncated_poisson_pair()),
        lambda: zoo.structurable_twist(zoo.fixture("matrix2"), zoo.transpose_involution_2x2()),
        lambda: build_wn(3),
        lambda: wn_associated_F(2).as_algebra(),
        lambda: wn_associated_F(3).as_algebra(),
    ],
    ids=["quasi", "poisson", "structurable", "wn3", "wn2_F", "wn3_F"],
)
def test_tables_built_from_operations_hold_fractions(build):
    # W(n), its F and the twists are sums of operations whose integral
    # coefficients are ints; their tables hold Fractions all the same
    table = build().table
    assert all(type(x) is Fraction for row in table for p in row for x in p)


def test_annihilator_zero_algebra():
    assert annihilator(zoo.zero_algebra(2)) == Subspace.full(2)


def test_annihilator_simple_left_commutative():
    assert annihilator(zoo.simple_left_commutative(2)).dim == 0


def test_annihilator_nilpotent_contains_top(nilp4):
    ann = annihilator(nilp4)
    assert ann.contains((0, 0, 1))


def test_annihilator_elements_kill_operators(nilp4):
    ann = annihilator(nilp4)
    for v in ann.basis:
        assert left_mul_operator(nilp4, v).is_zero()
        assert right_mul_operator(nilp4, v).is_zero()


def test_subalgebra_drop_e5(wn2):
    assert verify_subalgebra(wn2, drop(8, 4))


def test_subalgebra_drop_e1_fails_with_witness(wn2):
    sub = drop(8, 0)
    witness = closure_witness(wn2, sub)
    assert witness is not None
    i, j, product = witness
    # the product genuinely leaves the subspace
    assert not sub.contains(product)
    # and the recorded escape route exists: e5 e2 = -e1 + e6
    e5e2 = wn2.mul_vec(unit_vec(8, 4), unit_vec(8, 1))
    assert e5e2 == tuple(Fraction(c) for c in (-1, 0, 0, 0, 0, 1, 0, 0))
    assert not sub.contains(e5e2)


def test_subalgebra_s2_claimed_span_fails(s2):
    claimed = Subspace.from_spanning(4, [unit_vec(4, 0), unit_vec(4, 1), unit_vec(4, 3)])
    witness = closure_witness(s2, claimed)
    assert witness is not None
    _, _, product = witness
    # z2 z2 = -3 z3 escapes span{z1, z2, z4}
    assert s2.mul_vec(unit_vec(4, 1), unit_vec(4, 1)) == (0, 0, -3, 0)
    assert product == (0, 0, -3, 0)


def test_generated_subalgebra_e5_e2(wn2):
    # iterating products from {e5, e2} closes at dimension 6:
    # span{e2, e4, e5, e7, e1 - e6, e3 - e8}
    sub = generated_subalgebra(wn2, [unit_vec(8, 4), unit_vec(8, 1)])
    assert sub.dim == 6
    expected = Subspace.from_spanning(
        8,
        [
            unit_vec(8, 1),
            unit_vec(8, 3),
            unit_vec(8, 4),
            unit_vec(8, 6),
            (1, 0, 0, 0, 0, -1, 0, 0),
            (0, 0, 1, 0, 0, 0, 0, -1),
        ],
    )
    assert sub == expected
    assert verify_subalgebra(wn2, sub)


def test_generated_subalgebra_escalation_to_whole(wn2):
    # adjoining e5 e2 = -e1 + e6 to the drop-e1 hyperplane recovers everything
    gens = [unit_vec(8, k) for k in range(1, 8)]
    sub = generated_subalgebra(wn2, gens)
    assert sub == Subspace.full(8)


def test_generated_subalgebra_empty(wn2):
    assert generated_subalgebra(wn2, []) == Subspace.zero(8)


def test_generated_subalgebra_w2sym_five_gens(w2sym):
    gens = [unit_vec(6, i) for i in (0, 1, 2, 4, 5)]
    sub = generated_subalgebra(w2sym, gens)
    assert sub == Subspace.from_spanning(6, gens)
    assert verify_subalgebra(w2sym, sub)


@settings(deadline=None, max_examples=20)
@given(st.data())
def test_generated_subalgebra_always_closed(data):
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
    gens = data.draw(st.lists(st.lists(entries, min_size=n, max_size=n), max_size=2))
    sub = generated_subalgebra(alg, gens)
    assert verify_subalgebra(alg, sub)


def test_induced_restrict_full_space_is_identity(s2):
    full = Subspace.full(4)
    again = induced_algebra(s2, full, basis=[unit_vec(4, i) for i in range(4)], names=s2.basis_names)
    assert again.table == s2.table


def test_induced_s2_table_entry(w2sym):
    zvecs = [(1, 0, 0, 0, -1, 0), (0, 1, 0, 0, 0, -1), (0, 0, 1, 0, 0, 0), (0, 0, 0, 1, 0, 0)]
    sub = Subspace.from_spanning(6, zvecs)
    alg = induced_algebra(w2sym, sub, basis=zvecs, names=Z_LABELS)
    assert alg.table[3][1] == (-2, 0, 0, 0)  # z4 z2 = -2 z1


def test_induced_w2sym_from_wn2(wn2):
    xi = [
        (1, 0, 0, 0, 0, 0, 0, 0),
        (0, 1, 1, 0, 0, 0, 0, 0),
        (0, 0, 0, 1, 0, 0, 0, 0),
        (0, 0, 0, 0, 1, 0, 0, 0),
        (0, 0, 0, 0, 0, 1, 1, 0),
        (0, 0, 0, 0, 0, 0, 0, 1),
    ]
    alg = induced_algebra(wn2, w2sym_subspace(), basis=xi, names=XI_LABELS)
    assert alg.table[3][1] == (-2, 0, 0, 0, 1, 0)  # xi4 xi2 = -2 xi1 + xi5


def test_induced_not_closed_raises(wn2):
    sub = drop(8, 0)
    with pytest.raises(NotClosedError):
        induced_algebra(wn2, sub)


def test_induced_respects_products(s2, w2sym):
    # iota(z . z') computed downstairs equals the ambient product upstairs
    zvecs = [(1, 0, 0, 0, -1, 0), (0, 1, 0, 0, 0, -1), (0, 0, 1, 0, 0, 0), (0, 0, 0, 1, 0, 0)]
    for i in range(4):
        for j in range(4):
            down = s2.table[i][j]
            up = [Fraction(0)] * 6
            for c, vec in zip(down, zvecs):
                for k, x in enumerate(vec):
                    up[k] += c * x
            assert tuple(up) == w2sym.mul_vec(zvecs[i], zvecs[j])


def test_is_nilpotent4(nilp4, wn2):
    assert is_nilpotent4(zoo.zero_algebra(2))
    assert is_nilpotent4(nilp4)
    assert not is_nilpotent4(wn2)
    # e1(e1(e1 e1)) = -e1 on the bilinear-operations algebra
    e1 = wn2.gen(0)
    assert e1 * (e1 * (e1 * e1)) == -e1


def test_storage_roundtrip(tmp_path, wn2):
    path = tmp_path / "wn2.json"
    save_algebra(wn2, path)
    loaded, bracket = load_algebra_pair(path)
    assert loaded.table == wn2.table
    assert loaded.basis_names == wn2.basis_names
    assert bracket is None


def test_storage_bracket_roundtrip(tmp_path):
    comm, bracket = zoo.truncated_poisson_pair()
    path = tmp_path / "poisson.json"
    save_algebra(comm, path, bracket=bracket)
    c2, b2 = load_algebra_pair(path)
    assert c2.table == comm.table
    assert b2.table == bracket.table


def test_storage_rejects_zero_denominator():
    doc = {"dim": 1, "basis": ["e1"], "table": {"e1*e1": {"e1": "1/0"}}}
    with pytest.raises(AlgebraFormatError):
        parse_algebra_document(doc)


def test_rationals_are_read_in_the_documented_form_only():
    assert parse_rational("-12/8") == Fraction(-3, 2)
    assert parse_rational("+7") == 7 and type(parse_rational("7")) is Fraction
    assert parse_rational("9" * MAX_DIGITS) == int("9" * MAX_DIGITS)
    # twelve bytes that would expand to a billion digits are refused unread
    for text in ("1e999999999", "1.5", "1/-2", "1 / 2", "", "٣", "9" * (MAX_DIGITS + 1)):
        with pytest.raises(ValueError):
            parse_rational(text)
    with pytest.raises(ZeroDivisionError):
        parse_rational("1/0")


@pytest.mark.parametrize("products", [{(-1, 0): {-2: 3}}, {(0, 0): {2: 1}}, {(0, 2): {0: 1}}, {(0, 0): {-1: 1}}])
def test_from_products_refuses_indices_out_of_range(products):
    with pytest.raises(ValueError):
        Algebra.from_products(2, products)


@pytest.mark.parametrize("entry", [((2, 1),), ((-1, 1),), ((0, 0),), ((1, 1), (0, 1)), ((0, 1), (0, 2))])
def test_the_constructor_checks_the_sparse_form(entry):
    with pytest.raises(ValueError, match="structure constant"):
        Algebra(("a", "b"), ((entry, ()), ((), ())))


def test_the_constructor_checks_n_rows_of_n_products():
    for table in [((),), (((), ()),), (((), ()), ((),))]:
        with pytest.raises(ValueError, match="2 x 2 products"):
            Algebra(("a", "b"), table)


def test_the_package_never_derives_the_dense_view(capsys):
    """Every reader in the package works on `sparse_table`: showing,
    writing, reading back and auditing a fixture, its verdicts and the
    involution gate leave the dense `table` view underived."""
    zoo.fixture.cache_clear()  # fresh fixtures, with no view an earlier test derived
    for name in sorted(zoo.FIXTURES):
        assert cli.main(["--json", "show", "--fixture", name]) == 0
        alg = zoo.fixture(name)
        loaded, _ = parse_algebra_document(json.loads(dumps_algebra(alg)))
        assert loaded == alg and "table" not in loaded.__dict__, name
        audit_table(alg, name)
        conservativity(alg)
        derivation_algebra(alg)
        codim1_subalgebras(alg)
        assert "table" not in alg.__dict__, name
    capsys.readouterr()
    matrix2 = zoo.fixture("matrix2")
    zoo.validate_involution(matrix2, zoo.transpose_involution_2x2())
    assert "table" not in matrix2.__dict__
    w8 = build_wn(8)
    assert sum(len(p) for row in w8.sparse_table for p in row) == 11992
    assert "table" not in w8.__dict__


def test_storage_rejects_bad_shape():
    doc = {"dim": 2, "basis": ["e1", "e2"], "table": [[{"e1": "1"}]]}
    with pytest.raises(AlgebraFormatError):
        parse_algebra_document(doc)
    doc = {"dim": 2, "basis": ["e1"], "table": {}}
    with pytest.raises(AlgebraFormatError):
        parse_algebra_document(doc)


def test_storage_sparse_left_commutative_example():
    doc = {
        "dim": 2,
        "basis": ["e1", "e2"],
        "table": {
            "e1*e1": {"e1": "1"},
            "e1*e2": {"e2": "2"},
            "e2*e1": {"e1": "1"},
            "e2*e2": {"e2": "2"},
        },
    }
    alg, _ = parse_algebra_document(doc)
    assert alg.table == zoo.simple_left_commutative(2).table


def test_storage_basis_names_with_star_roundtrip(tmp_path):
    alg = Algebra.from_products(2, {(0, 1): {1: 1}, (1, 0): {0: 2}, (0, 0): {0: -1}}, names=["x*y", "z"])
    path = tmp_path / "star.json"
    save_algebra(alg, path)
    loaded, _ = load_algebra_pair(path)
    assert loaded == alg


def test_storage_ambiguous_product_key_is_a_format_error(tmp_path):
    # "a*a*a" reads as a * (a*a) and as (a*a) * a
    doc = {"dim": 2, "basis": ["a", "a*a"], "table": {"a*a*a": {"a": "1"}}}
    with pytest.raises(AlgebraFormatError, match="ambiguous"):
        parse_algebra_document(doc)
    alg = Algebra.from_products(2, {(0, 1): {0: 1}}, names=["a", "a*a"])
    with pytest.raises(AlgebraFormatError, match="ambiguous"):
        save_algebra(alg, tmp_path / "ambiguous.json")


def _readings(name_i, name_j, names):
    key = f"{name_i}*{name_j}"
    return sum(1 for p, ch in enumerate(key) if ch == "*" and key[:p] in names and key[p + 1 :] in names)


@settings(deadline=None, max_examples=100)
@given(
    # any characters, with "*" and short names common enough to collide
    st.lists(
        st.text(alphabet=st.one_of(st.sampled_from("ab*"), st.characters()), max_size=4),
        min_size=1,
        max_size=4,
        unique=True,
    ).flatmap(
        lambda names: st.tuples(
            st.just(names),
            st.dictionaries(
                st.tuples(st.integers(0, len(names) - 1), st.integers(0, len(names) - 1)),
                st.dictionaries(st.integers(0, len(names) - 1), st.fractions(max_denominator=5), max_size=2),
                max_size=4,
            ),
        )
    )
)
def test_storage_roundtrip_over_arbitrary_basis_names(tmp_path_factory, case):
    names, products = case
    alg = Algebra.from_products(len(names), products, names=names)
    path = tmp_path_factory.mktemp("names") / "alg.json"
    nonzero = [(i, j) for i in range(alg.dim) for j in range(alg.dim) if any(alg.table[i][j])]
    if any(_readings(names[i], names[j], set(names)) > 1 for i, j in nonzero):
        with pytest.raises(AlgebraFormatError):
            save_algebra(alg, path)
        return
    save_algebra(alg, path)
    loaded, _ = load_algebra_pair(path)
    assert loaded == alg


def test_element_printing(wn2):
    e = wn2.element((-1, 0, 0, 0, 0, 2, 0, 0))
    assert str(e) == "-a11^1 + 2*a12^2"


# -- references: the writer and the loop that the shared helpers replaced ---

coefficients = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
# "" and names containing "*" are legal basis names, and bodies all the same
basis_names = st.one_of(st.just(""), st.text(alphabet="e1*", max_size=3))


def _format_combination_reference(coords, names):
    parts = []
    for name, c in zip(names, coords):
        if not c:
            continue
        mag = "" if abs(c) == 1 else f"{abs(c)}*"
        parts.append(("+ " if c > 0 else "- ") + mag + name)
    if not parts:
        return "0"
    s = " ".join(parts)
    return s[2:] if s.startswith("+ ") else "-" + s[2:]


def _closure_witness_reference(alg, s):
    for i, bi in enumerate(s.basis):
        for j, bj in enumerate(s.basis):
            p = alg.mul_vec(bi, bj)
            if not s.contains(p):
                return (i, j, p)
    return None


def test_format_combination_writes_an_empty_name_as_a_body():
    assert format_combination((2, -1, 1), ("", "*", "e")) == "2* - * + e"
    assert format_combination((0, 0), ("", "e")) == "0"


@settings(deadline=None, max_examples=200)
@given(st.lists(st.tuples(coefficients, basis_names), max_size=5))
def test_format_combination_matches_the_reference(terms):
    coords = [c for c, _ in terms]
    names = [name for _, name in terms]
    assert format_combination(coords, names) == _format_combination_reference(coords, names)


@settings(deadline=None, max_examples=40)
@given(st.data())
def test_closure_witness_matches_the_double_loop(data):
    alg = _random_algebra(data, 4)
    n = alg.dim
    gens = data.draw(st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n), max_size=n))
    # a closed subspace, a random span, and every span of basis vectors:
    # these often hold the squares of their vectors but not a cross product
    spaces = [generated_subalgebra(alg, gens), Subspace.from_spanning(n, gens)]
    spaces += [
        Subspace.from_spanning(n, [unit_vec(n, k) for k in range(n) if mask >> k & 1])
        for mask in range(1 << n)
    ]
    assert closure_witness(alg, spaces[0]) is None
    for s in spaces:
        assert closure_witness(alg, s) == _closure_witness_reference(alg, s)
