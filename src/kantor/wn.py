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

from .algebra import Algebra, induced_algebra
from .linalg import F0, F1, Subspace, frac, unit_vec
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


def _alpha_op(n, i, j, k) -> MultilinearOp:
    """The coordinate operation sending (e_i, e_j) to e_k (0-based)."""
    return MultilinearOp(2, n, {((i, j), k): F1})


def _wn_basis_ops(n):
    return [
        _alpha_op(n, i, j, k)
        for k in range(n)
        for i in range(n)
        for j in range(n)
    ]


def wn_product(a: MultilinearOp, b: MultilinearOp) -> MultilinearOp:
    """(a.b)(x,y) = a(e_1,b(x,y)) - b(a(e_1,x),y) - b(x,a(e_1,y))."""
    return kantor_bracket(a.partial(unit_vec(a.dim, 0)), b)


def _op_coords(op: MultilinearOp):
    """Coordinates of a bilinear operation in the a_ij^k basis."""
    n = op.dim
    out = [F0] * (n * n * n)
    for (inputs, k), c in op.coeffs.items():
        i, j = inputs
        out[(k * n + i) * n + j] = frac(c)
    return tuple(out)


def build_wn(n: int) -> Algebra:
    """W(n): all bilinear operations on an n-dimensional space."""
    if n < 1:
        raise ValueError("n must be at least 1")
    ops = _wn_basis_ops(n)
    table = tuple(
        tuple(_op_coords(wn_product(a, b)) for b in ops) for a in ops
    )
    return Algebra(wn_basis_labels(n), table)


def wn_associated_F(n: int) -> MultilinearOp:
    """F(A,B) = (1/3)(A* . B + B~ . A) with A* = A + A^T, B~ = 2B^T - B.

    With P(A, B) = A . B, the product of W(n), and Q(A, B) = A^T . B, this
    is (P + Q + (2Q - P)^T) / 3, where ^T swaps F's two inputs.  Q is P
    with its first input relabelled by A -> A^T, the swap a_ij^k <-> a_ji^k.
    """
    p = MultilinearOp.from_algebra(build_wn(n))
    swap = [(k * n + j) * n + i for k in range(n) for i in range(n) for j in range(n)]
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


def _xi_ops():
    """The xi basis as bilinear operations on the underlying 2-space."""
    alphas = _wn_basis_ops(2)
    return tuple(
        sum((alphas[t].scale(c) for t, c in enumerate(v) if c), MultilinearOp.zero(2, 2))
        for v in _XI_VECTORS
    )


def trace_zero_subspace() -> Subspace:
    """Operations A on E_2 with trace(A(a, .)) = 0 for every a."""
    xi = _xi_ops()
    rows = []
    for a in range(2):
        rows.append([sum((op.coeff((a, s), s) for s in range(2)), F0) for op in xi])
    return Subspace.from_spanning(len(xi), rows).orthogonal_complement()


def skew_invariance_subspace() -> Subspace:
    """Operations A with <A(x,y),z> + <y,A(x,z)> = 0 for the form <e1,e2>=1."""
    form = ((F0, F1), (-F1, F0))
    xi = _xi_ops()
    rows = []
    for x in range(2):
        for y in range(2):
            for z in range(2):
                row = []
                for op in xi:
                    s = F0
                    for out in range(2):
                        c = op.coeff((x, y), out)
                        if c:
                            s += c * form[out][z]
                        c = op.coeff((x, z), out)
                        if c:
                            s += form[y][out] * c
                    row.append(s)
                rows.append(row)
    return Subspace.from_spanning(len(xi), rows).orthogonal_complement()


def build_s2() -> Algebra:
    """S2: the trace-zero subalgebra of W2, in the z basis."""
    return induced_algebra(build_w2sym(), trace_zero_subspace(), basis=_Z_VECTORS, names=Z_LABELS)


def build_h1() -> Algebra:
    """H1: the skew-form-preserving subalgebra of W2, in its RREF basis."""
    w2s = build_w2sym()
    sub = skew_invariance_subspace()
    return induced_algebra(w2s, sub, names=Z_LABELS[: sub.dim])
