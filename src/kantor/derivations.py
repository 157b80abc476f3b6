"""Derivation algebras: solving the Leibniz equations and the induced Lie
structure.

A derivation is a linear map D with D(xy) = D(x)y + x D(y).  Writing the
unknown matrix entries as a vector, the Leibniz condition on all basis
pairs is one linear system (n^3 equations in n^2 unknowns); its kernel is
Der(A).  Matrices act on coordinate columns: D(e_j) is column j.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from .algebra import Algebra
from .errors import DimensionMismatchError
from .linalg import F0, Matrix, Subspace, eliminate
from .multiops import MultilinearOp, kantor_bracket


def is_derivation(alg: Algebra, d: Matrix) -> bool:
    """True iff [D, P] = D(xy) - (Dx)y - x(Dy) is the zero operation, P the
    product of alg."""
    n = alg.dim
    if d.rows != n or d.cols != n:
        raise DimensionMismatchError.of(n, (d.rows, d.cols))
    return kantor_bracket(MultilinearOp.from_matrix(d), MultilinearOp.from_algebra(alg)).is_zero()


def _derivation_system(alg: Algebra) -> list:
    """Rows of the Leibniz equations over the unknowns D[r][s] (row-major).

    Unknown index r*n + s is the matrix entry D[r][s]; the equation for
    basis pair (i, j) and output coordinate k reads

        sum_s D[k][s] c_ijs  -  sum_r D[r][i] c_rjk  -  sum_r D[r][j] c_irk  = 0.

    Each row is a sparse {unknown: coefficient} dict built from the nonzero
    structure constants only, so an equation no constant touches never
    appears.
    """
    n = alg.dim
    nonzero = alg.sparse_table
    rows = []
    for i in range(n):
        for j in range(n):
            eqs = defaultdict(lambda: defaultdict(lambda: F0))
            for s, c in nonzero[i][j]:
                for k in range(n):
                    eqs[k][k * n + s] += c
            for r in range(n):
                for k, c in nonzero[r][j]:
                    eqs[k][r * n + i] -= c
                for k, c in nonzero[i][r]:
                    eqs[k][r * n + j] -= c
            rows.extend(eqs.values())
    return rows


@dataclass(frozen=True)
class DerivationAlgebra:
    amb_dim: int
    basis: tuple       # matrices, canonical as RREF n^2-vectors
    subspace: Subspace
    lie: Algebra       # bracket [D, D'] = DD' - D'D in this basis

    @property
    def dim(self) -> int:
        return len(self.basis)


def derivation_algebra(alg: Algebra) -> DerivationAlgebra:
    n = alg.dim
    ker = eliminate(_derivation_system(alg), n * n).kernel()
    basis = tuple(Matrix(n, n, v) for v in ker.basis)
    k = len(basis)
    table = [[None] * k for _ in range(k)]
    for i in range(k):
        for j in range(k):
            sol = ker.coordinates(basis[i].commutator(basis[j]).flatten())
            if sol is None:
                raise RuntimeError("derivation space not closed under commutator")
            table[i][j] = sol
    lie = Algebra.from_table(table, names=[f"D{i + 1}" for i in range(k)]) if k else Algebra.zero(0, [])
    return DerivationAlgebra(n, basis, ker, lie)


def derived_series(da: DerivationAlgebra):
    """Dimensions of g, [g,g], [[g,g],[g,g]], ... until they stabilize."""
    lie = da.lie
    dims = [lie.dim]
    current = Subspace.full(lie.dim) if lie.dim else Subspace.zero(0)
    while True:
        products = []
        for bi in current.basis:
            for bj in current.basis:
                products.append(lie.mul_vec(bi, bj))
        nxt = Subspace.from_spanning(lie.dim, products)
        if nxt.dim == current.dim:
            break
        dims.append(nxt.dim)
        current = nxt
    return dims


def is_solvable(da: DerivationAlgebra) -> bool:
    return derived_series(da)[-1] == 0


def inner_derivations(alg: Algebra) -> Subspace:
    """{L_a : a in the Jacobi space}, as a subspace of n^2-vectors."""
    from .conservative import jacobi_space

    js = jacobi_space(alg)
    vecs = [alg.left_mul_operator(v).flatten() for v in js.basis]
    return Subspace.from_spanning(alg.dim * alg.dim, vecs)
