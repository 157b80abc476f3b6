"""Constructors for the concrete algebras and twists used throughout.

Every constructor validates its own defining identities through the
identity engine before returning (a transcription slip in a table fails
fast, at the source).

`fixture(name)` builds and gates each named fixture once per process and
hands every later caller the same immutable `Algebra`.  A build that
fails is not remembered: an unknown name or a failed gate raises on every
call.
"""

from __future__ import annotations

import functools
from fractions import Fraction

from .algebra import Algebra, two_sided_columns
from .errors import GateError
from .linalg import F1, Matrix, _dense, frac, solve_columns
from .identities import NILPOTENT4, builtin_identities, check_identity
from .multiops import MultilinearOp
from .wn import build_h1, build_s2, build_w2sym, build_wn


_GATES = {**builtin_identities(), NILPOTENT4.name: NILPOTENT4}


def _gate(alg: Algebra, suite_name: str, bracket: Algebra = None):
    """Raise GateError at the first identity of the suite that fails."""
    for ident in _GATES[suite_name].identities:
        verdict = check_identity(alg, ident, bracket)
        if not verdict.holds:
            raise GateError(verdict.identity.name, f"witness {verdict.witness.assignment}")


def zero_algebra(n: int) -> Algebra:
    return Algebra.zero(n)


def matrix_algebra(k: int) -> Algebra:
    """k x k matrix units E_ab with E_ab E_cd = delta_bc E_ad."""
    n = k * k
    names = [f"E{a + 1}{b + 1}" for a in range(k) for b in range(k)]
    products = {}
    for a in range(k):
        for b in range(k):
            for c in range(k):
                for d in range(k):
                    if b == c:
                        products[(a * k + b, c * k + d)] = {a * k + d: 1}
    alg = Algebra.from_products(n, products, names)
    _gate(alg, "associative")
    return alg


def sl2() -> Algebra:
    """The 3-dimensional simple Lie algebra: [h,e]=2e, [h,f]=-2f, [e,f]=h."""
    alg = Algebra.from_products(
        3,
        {
            (0, 1): {1: 2},
            (1, 0): {1: -2},
            (0, 2): {2: -2},
            (2, 0): {2: 2},
            (1, 2): {0: 1},
            (2, 1): {0: -1},
        },
        names=("h", "e", "f"),
    )
    _gate(alg, "lie")
    return alg


def jordan_sym2() -> Algebra:
    """Symmetric 2x2 matrices under a o b = (ab + ba)/2."""
    half = Fraction(1, 2)
    alg = Algebra.from_products(
        3,
        {
            (0, 0): {0: 1},
            (1, 1): {1: 1},
            (2, 2): {0: 1, 1: 1},
            (0, 2): {2: half},
            (2, 0): {2: half},
            (1, 2): {2: half},
            (2, 1): {2: half},
        },
        names=("u", "v", "s"),
    )
    _gate(alg, "jordan")
    return alg


def nilpotent4_example() -> Algebra:
    """dim 3, e1 e1 = e2, e1 e2 = e2 e1 = e3, everything else zero."""
    alg = Algebra.from_products(3, {(0, 0): {1: 1}, (0, 1): {2: 1}, (1, 0): {2: 1}})
    _gate(alg, "nilpotent4")
    return alg


def left_leibniz2() -> Algebra:
    """Smallest non-Lie left Leibniz algebra: e1 e1 = e2."""
    alg = Algebra.from_products(2, {(0, 0): {1: 1}})
    _gate(alg, "left_leibniz")
    return alg


def malcev_m7() -> Algebra:
    """The simple 7-dimensional Malcev algebra.

    The printed products are completed by anticommutativity; all other
    products of basis elements are zero.  The constructor asserts
    anticommutativity and the Malcev identity as a transcription gate.
    """
    names = ("h", "x", "y", "z", "x'", "y'", "z'")
    idx = {n: i for i, n in enumerate(names)}
    given = {
        ("h", "x"): {"x": 2},
        ("h", "y"): {"y": 2},
        ("h", "z"): {"z": 2},
        ("h", "x'"): {"x'": -2},
        ("h", "y'"): {"y'": -2},
        ("h", "z'"): {"z'": -2},
        ("x", "x'"): {"h": 1},
        ("y", "y'"): {"h": 1},
        ("z", "z'"): {"h": 1},
        ("x", "y"): {"z'": 2},
        ("y", "z"): {"x'": 2},
        ("z", "x"): {"y'": 2},
        ("x'", "y'"): {"z": -2},
        ("y'", "z'"): {"x": -2},
        ("z'", "x'"): {"y": -2},
    }
    products = {}
    for (a, b), combo in given.items():
        out = {idx[c]: frac(v) for c, v in combo.items()}
        products[(idx[a], idx[b])] = out
        products[(idx[b], idx[a])] = {k: -v for k, v in out.items()}
    alg = Algebra.from_products(7, products, names)
    _gate(alg, "malcev")
    return alg


def simple_left_commutative(n: int) -> Algebra:
    """Basis e_1..e_n with e_i e_j = j e_j."""
    if n < 1:
        raise ValueError("n must be at least 1")
    products = {(i, j): {j: j + 1} for i in range(n) for j in range(n)}
    alg = Algebra.from_products(n, products)
    _gate(alg, "left_commutative")
    return alg


def quasi_mutation(alg: Algebra, lam) -> Algebra:
    """a o b = lambda ab + (1 - lambda) ba on an associative algebra."""
    _gate(alg, "associative")
    lam = frac(lam)
    p = MultilinearOp.from_algebra(alg)
    return (p.scale(lam) + p.transpose().scale(F1 - lam)).as_algebra(alg.basis_names)


def poisson_kantor_product(comm: Algebra, bracket: Algebra) -> Algebra:
    """a * b = ab + {a,b} for a Poisson pair (validated before summing)."""
    if comm.dim != bracket.dim:
        raise GateError("dimension-match", "product and bracket tables differ in dim")
    _gate(comm, "associative")
    _gate(comm, "commutative")
    _gate(bracket, "lie")
    _gate(comm, "poisson_leibniz", bracket=bracket)
    total = MultilinearOp.from_algebra(comm) + MultilinearOp.from_algebra(bracket)
    return total.as_algebra(comm.basis_names)


def truncated_poisson_pair():
    """A Poisson structure on Q[x,y]/(x^2, y^2): basis 1, x, y, xy.

    The symplectic bracket {x,y} = 1 does not survive the truncation (with
    x^2 = 0 the rule would force {x^2, y} = 2x != 0), so the bracket here is
    {x,y} = xy, extended by the Leibniz rule in the quotient: {x,xy} =
    x{x,y} = 0, {y,xy} = {y,x}y = 0, {1,.} = 0.
    """
    names = ("1", "x", "y", "xy")
    comm = Algebra.from_products(
        4,
        {
            (0, 0): {0: 1},
            (0, 1): {1: 1},
            (1, 0): {1: 1},
            (0, 2): {2: 1},
            (2, 0): {2: 1},
            (0, 3): {3: 1},
            (3, 0): {3: 1},
            (1, 2): {3: 1},
            (2, 1): {3: 1},
        },
        names,
    )
    bracket = Algebra.from_products(
        4,
        {
            (1, 2): {3: 1},
            (2, 1): {3: -1},
        },
        names,
    )
    return comm, bracket


def find_unit(alg: Algebra):
    """Coordinates of the two-sided unit, or None."""
    # u e_j = e_j u = e_j: coordinate k of both products is delta_jk
    target = {(j, side, j): F1 for j in range(alg.dim) for side in (0, 1)}
    return solve_columns(two_sided_columns(alg), [target]).solution(alg.dim)


def validate_involution(alg: Algebra, sigma: Matrix):
    """Check sigma^2 = id, sigma(xy) = sigma(y) sigma(x), sigma(unit) = unit."""
    n = alg.dim
    if sigma.rows != n or sigma.cols != n:
        raise GateError("involution-shape", f"expected {n}x{n}")
    if sigma @ sigma != Matrix.identity(n):
        raise GateError("involution-squares-to-identity")
    for i, row in enumerate(alg.sparse_table):
        si = sigma.col(i)
        for j, outputs in enumerate(row):
            lhs = sigma.apply(_dense(dict(outputs), n))
            rhs = alg.mul_vec(sigma.col(j), si)
            if lhs != rhs:
                raise GateError(
                    "involution-antiautomorphism", f"fails on basis pair ({i}, {j})"
                )
    unit = find_unit(alg)
    if unit is None:
        raise GateError("unital", "algebra has no two-sided unit")
    if sigma.apply(unit) != unit:
        raise GateError("involution-fixes-unit")
    return unit


def structurable_twist(alg: Algebra, sigma: Matrix) -> Algebra:
    """x * y = xy + y(x - sigma(x)) on a unital algebra with involution."""
    validate_involution(alg, sigma)
    p = MultilinearOp.from_algebra(alg)
    pt = p.transpose()
    # y sigma(x) = P^T(sigma x, y); its e_i slice is P^T with sigma(e_i) fixed.
    y_sigma_x = {
        ((i,) + inputs, k): c
        for i in range(alg.dim)
        for (inputs, k), c in pt.partial(sigma.col(i)).coeffs.items()
    }
    return (p + pt - MultilinearOp(2, alg.dim, y_sigma_x)).as_algebra(alg.basis_names)


def transpose_involution_2x2() -> Matrix:
    """Matrix transpose as an involution of the 2x2 matrix-units basis."""
    rows = [
        [1, 0, 0, 0],
        [0, 0, 1, 0],
        [0, 1, 0, 0],
        [0, 0, 0, 1],
    ]
    return Matrix.from_rows(rows)


def _poisson_star():
    comm, bracket = truncated_poisson_pair()
    return poisson_kantor_product(comm, bracket)


FIXTURES = {
    "zero2": lambda: zero_algebra(2),
    "zero3": lambda: zero_algebra(3),
    "matrix2": lambda: matrix_algebra(2),
    "sl2": sl2,
    "jordan_sym2": jordan_sym2,
    "nilpotent4": nilpotent4_example,
    "leibniz2": left_leibniz2,
    "m7": malcev_m7,
    "slc2": lambda: simple_left_commutative(2),
    "slc3": lambda: simple_left_commutative(3),
    "poisson_trunc": _poisson_star,
    "wn2": lambda: build_wn(2),
    "wn3": lambda: build_wn(3),
    "w2sym": build_w2sym,
    "s2": build_s2,
    "h1": build_h1,
}


@functools.cache
def fixture(name: str) -> Algebra:
    try:
        ctor = FIXTURES[name]
    except KeyError:
        raise KeyError(
            f"unknown fixture {name!r}; available: {', '.join(sorted(FIXTURES))}"
        ) from None
    return ctor()
