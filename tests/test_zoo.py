import dataclasses
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from kantor.algebra import Algebra
from kantor.conservative import conservativity
from kantor.errors import GateError
from kantor.identities import builtin_identities, suite_holds
from kantor.linalg import Matrix, unit_vec
from kantor import identities, zoo

from helpers import identity_matrix, matrix_unit, opposite, rename


def test_m7_products(m7):
    names = ("x", "y", "z", "x'", "y'", "z'", "h")
    x, y, z, xp, yp, zp, h = (unit_vec(7, m7.basis_names.index(name)) for name in names)
    mul = m7.mul_vec
    assert mul(x, xp) == h
    assert mul(xp, yp) == tuple(-2 * c for c in z)
    assert mul(x, h) == tuple(-2 * c for c in x)  # anticommutative completion of h x = 2x
    assert mul(y, x) == tuple(-2 * c for c in zp)


def test_simple_left_commutative_values():
    alg = zoo.simple_left_commutative(2)
    e1, e2 = unit_vec(2, 0), unit_vec(2, 1)
    assert alg.mul_vec(e1, e2) == (0, 2)
    assert alg.mul_vec(e2, e2) == (0, 2)
    assert suite_holds(alg, builtin_identities()["left_commutative"])


def test_simple_left_commutative_one_dimensional():
    alg = zoo.simple_left_commutative(1)
    assert alg.mul_vec((1,), (1,)) == (1,)
    assert suite_holds(alg, builtin_identities()["associative"])
    assert conservativity(alg).conservative


def test_quasi_mutation_extremes(matrix2):
    assert zoo.quasi_mutation(matrix2, 1).table == matrix2.table
    sym = zoo.quasi_mutation(matrix2, Fraction(1, 2))
    assert suite_holds(sym, builtin_identities()["commutative"])
    opp = zoo.quasi_mutation(matrix2, 0)
    assert opp.table == opposite(matrix2).table


def test_quasi_mutation_opposite_property(matrix2):
    lam = Fraction(2, 5)
    # swapping the parameter lambda <-> 1 - lambda is exactly opposition,
    # and mutating the opposite algebra at 1 - lambda undoes both swaps
    assert opposite(zoo.quasi_mutation(matrix2, lam)).table == zoo.quasi_mutation(matrix2, 1 - lam).table
    assert zoo.quasi_mutation(opposite(matrix2), 1 - lam).table == zoo.quasi_mutation(matrix2, lam).table


@settings(deadline=None, max_examples=20)
@given(k=st.sampled_from([2, 3]), lam=st.fractions(-3, 3, max_denominator=5))
def test_quasi_mutation_mixes_the_product_and_its_opposite(k, lam):
    alg = zoo.matrix_algebra(k)
    mutated = zoo.quasi_mutation(alg, lam)
    n = alg.dim
    for i in range(n):
        for j in range(n):
            for m in range(n):
                want = lam * alg.table[i][j][m] + (1 - lam) * alg.table[j][i][m]
                assert mutated.table[i][j][m] == want
    assert mutated.basis_names == alg.basis_names


def test_quasi_mutation_requires_associative(sl2):
    with pytest.raises(GateError):
        zoo.quasi_mutation(sl2, Fraction(1, 3))


def test_quasi_mutation_third_is_conservative(matrix2):
    assert conservativity(zoo.quasi_mutation(matrix2, Fraction(1, 3))).conservative


def test_poisson_fixture_preconditions_and_product():
    comm, bracket = zoo.truncated_poisson_pair()
    cat = builtin_identities()
    assert suite_holds(comm, cat["associative"])
    assert suite_holds(comm, cat["commutative"])
    assert suite_holds(bracket, cat["lie"])
    assert suite_holds(comm, cat["poisson_leibniz"], bracket=bracket)
    star = zoo.poisson_kantor_product(comm, bracket)
    assert conservativity(star).conservative


def test_poisson_zero_bracket_is_commutative_product():
    comm, _ = zoo.truncated_poisson_pair()
    star = zoo.poisson_kantor_product(comm, rename(zoo.zero_algebra(4), comm.basis_names))
    assert star.table == comm.table


def test_poisson_rejects_bad_bracket():
    comm, _ = zoo.truncated_poisson_pair()
    bad = Algebra.from_products(4, {(1, 2): {0: 1}, (2, 1): {0: -1}}, comm.basis_names)
    # {x,y} = 1 does not satisfy the Leibniz compatibility on the quotient
    with pytest.raises(GateError) as err:
        zoo.poisson_kantor_product(comm, bad)
    assert err.value.check == "poisson_leibniz"


def test_gate_stops_at_the_first_failing_identity(monkeypatch):
    # M(2) as a bracket fails both identities of "lie"; only the first,
    # anticommutativity, is reported, and only its witness is built
    matrix2 = zoo.matrix_algebra(2)
    find, witnesses = identities._find_nonvanishing, []

    def counted(poly, *args):
        witnesses.append(poly)
        return find(poly, *args)

    monkeypatch.setattr(identities, "_find_nonvanishing", counted)
    with pytest.raises(GateError) as err:
        zoo.poisson_kantor_product(zoo.zero_algebra(4), matrix2)
    assert err.value.check == "anticommutative"
    assert len(witnesses) == 1


def test_nilpotent4_gate_names_the_failing_bracketing():
    # e1 e1 = e2, e2 e2 = e3: of the 4-fold products only (e1 e1)(e1 e1) is nonzero
    alg = Algebra.from_products(3, {(0, 0): {1: 1}, (1, 1): {2: 1}})
    with pytest.raises(GateError) as err:
        zoo._gate(alg, "nilpotent4")
    assert err.value.check == "(a*b)*(c*d)"
    assert "witness" in str(err.value)


def test_structurable_identity_involution():
    # the identity map is an involution only of a commutative algebra;
    # there the twist changes nothing (x - conj(x) = 0)
    diag = Algebra.from_products(2, {(0, 0): {0: 1}, (1, 1): {1: 1}})
    twisted = zoo.structurable_twist(diag, Matrix.from_rows([[1, 0], [0, 1]]))
    assert twisted.table == diag.table


def test_structurable_identity_involution_needs_commutative(matrix2):
    with pytest.raises(GateError) as err:
        zoo.structurable_twist(matrix2, identity_matrix(4))
    assert err.value.check == "involution-antiautomorphism"


def test_structurable_transpose_twist_conservative(matrix2):
    twisted = zoo.structurable_twist(matrix2, zoo.transpose_involution_2x2())
    assert conservativity(twisted).conservative


def test_structurable_rejects_non_antiautomorphism(matrix2):
    bad = Matrix.from_rows(
        [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]
    )  # an involutive permutation that is not an anti-automorphism
    with pytest.raises(GateError) as err:
        zoo.structurable_twist(matrix2, bad)
    assert err.value.check == "involution-antiautomorphism"


def test_involution_gate_rejects_a_map_of_the_wrong_size(matrix2):
    with pytest.raises(GateError) as err:
        zoo.validate_involution(matrix2, Matrix.from_rows([[0, 1], [1, 0]]))
    assert err.value.check == "involution-shape"


def test_involution_gate_rejects_an_algebra_with_no_unit():
    # the identity map is an involution of the commutative zero algebra,
    # which has no two-sided unit
    with pytest.raises(GateError) as err:
        zoo.validate_involution(zoo.zero_algebra(2), identity_matrix(2))
    assert err.value.check == "unital"


def test_structurable_rejects_non_involution(matrix2):
    not_square_root = Matrix.from_rows(
        [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    )
    with pytest.raises(GateError) as err:
        zoo.structurable_twist(matrix2, not_square_root)
    assert err.value.check == "involution-squares-to-identity"


def test_find_unit(matrix2, sl2):
    unit = zoo.find_unit(matrix2)
    assert unit == matrix_unit(2)
    m3 = zoo.matrix_algebra(3)
    assert zoo.find_unit(m3) == matrix_unit(3)
    assert zoo.find_unit(sl2) is None
    for name in ("slc2", "zero2"):
        assert zoo.find_unit(zoo.fixture(name)) is None


def test_matrix_algebra_associative(matrix2):
    assert suite_holds(matrix2, builtin_identities()["associative"])


def test_fixture_registry():
    assert "m7" in zoo.FIXTURES
    with pytest.raises(KeyError):
        zoo.fixture("nope")
    for name in sorted(zoo.FIXTURES):
        if name == "wn3":
            continue
        alg = zoo.fixture(name)
        assert alg.dim >= 1


def test_a_fixture_is_built_once_per_process():
    for name in sorted(zoo.FIXTURES):
        assert zoo.fixture(name) is zoo.fixture(name), name


def test_a_cached_fixture_is_frozen():
    alg = zoo.fixture("s2")
    with pytest.raises(dataclasses.FrozenInstanceError):
        alg.table = ()
    assert zoo.fixture("s2") is alg


def test_an_unknown_fixture_raises_on_every_call():
    for _ in range(2):
        with pytest.raises(KeyError, match="unknown fixture 'nope'"):
            zoo.fixture("nope")


def test_a_failed_gate_is_not_cached(monkeypatch):
    builds = []

    def not_lie():
        builds.append(1)
        alg = Algebra.from_products(2, {(0, 0): {1: 1}})
        zoo._gate(alg, "lie")
        return alg

    monkeypatch.setitem(zoo.FIXTURES, "bad", not_lie)
    for _ in range(2):
        with pytest.raises(GateError):
            zoo.fixture("bad")
    assert len(builds) == 2


def test_bundled_data_files_match_constructors():
    import pathlib

    from kantor.storage import load_algebra_pair, load_linear_map

    data = pathlib.Path(zoo.__file__).parent / "data"
    for name in ("m7", "wn2", "w2sym", "s2", "nilpotent4", "slc2"):
        alg, bracket = load_algebra_pair(data / f"{name}.json")
        built = zoo.fixture(name)
        assert alg.table == built.table and alg.basis_names == built.basis_names
        assert bracket is None
    comm, bracket = load_algebra_pair(data / "truncated_poisson.json")
    c2, b2 = zoo.truncated_poisson_pair()
    assert comm.table == c2.table and bracket.table == b2.table
    sigma = load_linear_map(data / "involution_transpose_2x2.json", expected_dim=4)
    assert sigma == zoo.transpose_involution_2x2()
