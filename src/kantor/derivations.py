"""Derivation algebras: solving the Leibniz equations and the induced Lie
structure.

A derivation is a linear map D with [D, P] = D(xy) - D(x)y - x D(y) = 0,
P the product.  D -> [D, P] is linear, with columns the [E_rs, P] over the
matrix units; Der(A) is the kernel of that system (n^3 equations in n^2
unknowns), and its Lie table is one more solve, of every commutator in the
basis.  Matrices act on coordinate columns: D(e_j) is column j.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from .algebra import Algebra, basis_products
from .conservative import jacobi_space
from .errors import DimensionMismatchError
from .linalg import Matrix, Subspace, solve_columns
from .multiops import MultilinearOp, kantor_bracket


def is_derivation(alg: Algebra, d: Matrix) -> bool:
    """True iff [D, P] = D(xy) - (Dx)y - x(Dy) is the zero operation, P the
    product of alg."""
    n = alg.dim
    if d.rows != n or d.cols != n:
        raise DimensionMismatchError.of(n, (d.rows, d.cols))
    return kantor_bracket(MultilinearOp.from_matrix(d), MultilinearOp.from_algebra(alg)).is_zero()


def _derivation_columns(alg: Algebra) -> list:
    """The columns [E_rs, P] of D -> [D, P], column r*n + s for the entry
    D[r][s], in closed form: each nonzero c_ijk and each t give +c at
    ((i, j), t) in column t*n + k, -c at ((t, j), k) in column i*n + t and
    -c at ((i, t), k) in column j*n + t, keyed as `kantor_bracket` keys its
    coefficients.  Entries that cancel stay as zeros, which `eliminate`
    drops.
    """
    n = alg.dim
    columns = [defaultdict(int) for _ in range(n * n)]
    for i, row in enumerate(alg.sparse_table):
        for j, outputs in enumerate(row):
            for k, c in outputs:
                for t in range(n):
                    columns[t * n + k][((i, j), t)] += c
                    columns[i * n + t][((t, j), k)] -= c
                    columns[j * n + t][((i, t), k)] -= c
    return columns


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
    """Der(A) as the kernel over the columns [E_rs, P], and its Lie table:
    every [D_i, D_j] as a sparse `kantor_bracket`, all written in the basis
    by one `solve_columns`."""
    n = alg.dim
    ker = solve_columns(_derivation_columns(alg)).kernel()
    basis = tuple(Matrix(n, n, v) for v in ker.basis)
    k = len(basis)
    ops = [MultilinearOp.from_matrix(d) for d in basis]
    brackets = [kantor_bracket(ops[i], ops[j]).coeffs for i in range(k) for j in range(k)]
    system = solve_columns([op.coeffs for op in ops], brackets)
    coords = [system.solution(k + idx) for idx in range(k * k)]
    if None in coords:
        raise RuntimeError("derivation space not closed under commutator")
    products = {divmod(idx, k): dict(enumerate(c)) for idx, c in enumerate(coords)}
    lie = Algebra.from_products(k, products, names=[f"D{i + 1}" for i in range(k)])
    return DerivationAlgebra(n, basis, ker, lie)


def derived_series(da: DerivationAlgebra):
    """Dimensions of g, [g,g], [[g,g],[g,g]], ... until they stabilize."""
    lie = da.lie
    dims = [lie.dim]
    current = Subspace.full(lie.dim)
    while True:
        nxt = Subspace.from_spanning(lie.dim, basis_products(lie, current.basis))
        if nxt.dim == current.dim:
            break
        dims.append(nxt.dim)
        current = nxt
    return dims


def is_solvable(da: DerivationAlgebra) -> bool:
    return derived_series(da)[-1] == 0


def inner_derivations(alg: Algebra) -> Subspace:
    """{L_a : a in the Jacobi space}, as a subspace of n^2-vectors; L_a is
    the product P with its first input fixed at a."""
    p = MultilinearOp.from_algebra(alg)
    vecs = [p.partial(v).as_matrix().flatten() for v in jacobi_space(alg).basis]
    return Subspace.from_spanning(alg.dim * alg.dim, vecs)
