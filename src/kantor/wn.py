"""The Kantor algebra W(n) of bilinear operations and its distinguished
subalgebras.

W(n) lives on the space of all bilinear operations on an n-dimensional
space E with basis e_1..e_n.  Fixing the vector e_1, the product is

    (A . B)(x, y) = A(e_1, B(x, y)) - B(A(e_1, x), y) - B(x, A(e_1, y)),

which is the bracket [A(e_1, .), B] of the partial map A(e_1, .) with B.
The basis consists of the coordinate operations a_ij^k with
a_ij^k(e_t, e_l) = delta_it delta_jl e_k, ordered with the output index
outermost: for n = 2 that is

    e1..e4 = a11^1, a12^1, a21^1, a22^1,   e5..e8 = a11^2, a12^2, a21^2, a22^2.

W2 is the analogue on commutative operations (spanned by the symmetrized
xi basis inside W(2)); S2 is its trace-zero subalgebra and H1 the
subalgebra preserving a fixed nondegenerate skew form.  Over a
2-dimensional symplectic space those two constraints cut out the same
subspace, so H1 and S2 coincide as induced algebras.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

from .algebra import Algebra, induced_algebra
from .linalg import Subspace, unit_vec
from .multiops import MultilinearOp, kantor_bracket

THIRD = Fraction(1, 3)


def wn_basis_labels(n: int):
    """Labels a<i><j>^<k> in (k,i,j)-major order."""
    return tuple(
        f"a{i}{j}^{k}"
        for k in range(1, n + 1)
        for i in range(1, n + 1)
        for j in range(1, n + 1)
    )


def _index(n, i, j, k):
    """The coordinate of a_ij^k (0-based) in the basis of W(n)."""
    return (k * n + i) * n + j


def wn_product(a: MultilinearOp, b: MultilinearOp) -> MultilinearOp:
    """(a.b)(x,y) = a(e_1,b(x,y)) - b(a(e_1,x),y) - b(x,a(e_1,y))."""
    return kantor_bracket(a.partial(unit_vec(a.dim, 0)), b)


def build_wn(n: int) -> Algebra:
    """W(n): all bilinear operations on an n-dimensional space, from the
    closed form of `wn_product` on the basis.  Only A = a_1j^k acts on the
    left, as the matrix unit e_j -> e_k, so

        a_1j^k . a_lm^r = delta_jr a_lm^k - delta_kl a_jm^r - delta_km a_lj^r,

    coincident terms summed and zero sums dropped."""
    if n < 1:
        raise ValueError("n must be at least 1")
    products = {}
    for j, k, s, t in product(range(n), repeat=4):
        for right, target, sign in (
            (_index(n, s, t, j), _index(n, s, t, k), 1),  # r = j: (l, m) = (s, t)
            (_index(n, k, s, t), _index(n, j, s, t), -1),  # l = k: (m, r) = (s, t)
            (_index(n, s, k, t), _index(n, s, j, t), -1),  # m = k: (l, r) = (s, t)
        ):
            out = products.setdefault((_index(n, 0, j, k), right), {})
            out[target] = out.get(target, 0) + sign
    return Algebra.from_products(n**3, products, wn_basis_labels(n))


def wn_associated_F(n: int) -> MultilinearOp:
    """F(A,B) = (1/3)(A* . B + B~ . A) with A* = A + A^T, B~ = 2B^T - B.

    With P(A, B) = A . B, the product of W(n), and Q(A, B) = A^T . B, this
    is (P + Q + (2Q - P)^T) / 3, where ^T swaps F's two inputs.  Q is P
    with its first input relabelled by A -> A^T, the swap a_ij^k <-> a_ji^k.
    """
    p = MultilinearOp.from_algebra(build_wn(n))
    swap = [_index(n, j, i, k) for k in range(n) for i in range(n) for j in range(n)]
    q = MultilinearOp(2, p.dim, {((swap[a], b), k): c for ((a, b), k), c in p.coeffs.items()})
    return (p + q + (q.scale(2) - p).transpose()).scale(THIRD)


# The symmetrized basis of the commutative-operations subspace of W(2):
# xi1 = a11^1, xi2 = a12^1 + a21^1, xi3 = a22^1,
# xi4 = a11^2, xi5 = a12^2 + a21^2, xi6 = a22^2.
_XI_VECTORS = (
    (1, 0, 0, 0, 0, 0, 0, 0),
    (0, 1, 1, 0, 0, 0, 0, 0),
    (0, 0, 0, 1, 0, 0, 0, 0),
    (0, 0, 0, 0, 1, 0, 0, 0),
    (0, 0, 0, 0, 0, 1, 1, 0),
    (0, 0, 0, 0, 0, 0, 0, 1),
)

XI_LABELS = ("xi1", "xi2", "xi3", "xi4", "xi5", "xi6")


def w2sym_subspace() -> Subspace:
    return Subspace.from_spanning(8, _XI_VECTORS)


def build_w2sym() -> Algebra:
    """W2: commutative bilinear operations on the 2-dimensional space,
    as the induced algebra of W(2) on the symmetrized basis."""
    return induced_algebra(build_wn(2), w2sym_subspace(), basis=_XI_VECTORS, names=XI_LABELS)


def w2sym_associated_F() -> MultilinearOp:
    """F(A,B) = (1/3)(2 A.B + B.A) on W2."""
    p = MultilinearOp.from_algebra(build_w2sym())
    return (p.scale(2) + p.transpose()).scale(THIRD)


Z_LABELS = ("z1", "z2", "z3", "z4")

# z1 = xi1 - xi5, z2 = xi2 - xi6, z3 = xi3, z4 = xi4.
_Z_VECTORS = (
    (1, 0, 0, 0, -1, 0),
    (0, 1, 0, 0, 0, -1),
    (0, 0, 1, 0, 0, 0),
    (0, 0, 0, 1, 0, 0),
)


def trace_zero_subspace() -> Subspace:
    """Operations A on E_2 with trace(A(a, .)) = 0 for every a, in the xi
    basis (each xi vector holds W(2) coordinates)."""
    rows = [[sum(v[_index(2, a, s, s)] for s in range(2)) for v in _XI_VECTORS] for a in range(2)]
    return Subspace.from_spanning(len(_XI_VECTORS), rows).orthogonal_complement()


def skew_invariance_subspace() -> Subspace:
    """Operations A with <A(x,y),z> + <y,A(x,z)> = 0 for the form <e1,e2>=1,
    in the xi basis."""
    form = ((0, 1), (-1, 0))
    rows = [
        [
            sum(v[_index(2, x, y, o)] * form[o][z] + form[y][o] * v[_index(2, x, z, o)] for o in range(2))
            for v in _XI_VECTORS
        ]
        for x, y, z in product(range(2), repeat=3)
    ]
    return Subspace.from_spanning(len(_XI_VECTORS), rows).orthogonal_complement()


def build_s2() -> Algebra:
    """S2: the trace-zero subalgebra of W2, in the z basis."""
    return induced_algebra(build_w2sym(), trace_zero_subspace(), basis=_Z_VECTORS, names=Z_LABELS)


def build_h1() -> Algebra:
    """H1: the skew-form-preserving subalgebra of W2, in its RREF basis."""
    w2s = build_w2sym()
    sub = skew_invariance_subspace()
    return induced_algebra(w2s, sub, names=Z_LABELS[: sub.dim])
