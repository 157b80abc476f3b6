"""Derivation algebras: solving the Leibniz equations and the induced Lie
structure.

A derivation is a linear map D with [D, P] = D(xy) - D(x)y - x D(y) = 0,
P the product.  D -> [D, P] is linear; Der(A) is the kernel of that
system, n^3 equations in the n^2 unknowns D[r][s], whose rows are summed
straight from the nonzero structure constants (`_leibniz_rows`), and its
Lie table is one more solve, of every commutator in the basis.  Matrices
act on coordinate columns: D(e_j) is column j.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import Algebra, basis_products
from .conservative import jacobi_space
from .errors import DimensionMismatchError
from .linalg import Matrix, Subspace, _subspace, eliminate, solve_columns
from .multiops import MultilinearOp, kantor_bracket


def is_derivation(alg: Algebra, d: Matrix) -> bool:
    """True iff [D, P] = D(xy) - (Dx)y - x(Dy) is the zero operation, P the
    product of alg."""
    n = alg.dim
    if d.rows != n or d.cols != n:
        raise DimensionMismatchError.of(n, (d.rows, d.cols))
    return kantor_bracket(MultilinearOp.from_matrix(d), MultilinearOp.from_algebra(alg)).is_zero()


def _leibniz_rows(alg: Algebra) -> dict:
    """The equations of D -> [D, P] = 0 as sparse rows, equation ((i, j), t)
    (the t-th coordinate of [D, P](e_i, e_j)) keyed (i*n + j)*n + t, entry
    r*n + s the coefficient of D[r][s], in closed form: each nonzero c_ijk
    and each t give +c at column t*n + k of row ((i, j), t), -c at column
    i*n + t of row ((t, j), k) and -c at column j*n + t of row ((i, t), k).

    The rows are filled one unknown at a time, in ascending order, so each
    row is created at its first unknown and a stable sort by length breaks
    ties by it; in that order the RREF of W(3) to W(5) holds ints only.
    Entries that cancel stay as zeros, which `eliminate` drops.
    """
    n = alg.dim
    # each c_ijk's terms by the index the unknown fixes, with the part of
    # the row label that does not depend on the unknown
    by_k, by_i, by_j = ([[] for _ in range(n)] for _ in range(3))
    for i, row in enumerate(alg.sparse_table):
        for j, outputs in enumerate(row):
            for k, c in outputs:
                by_k[k].append(((i * n + j) * n, c))
                by_i[i].append((j * n + k, -c))
                by_j[j].append((i * n * n + k, -c))
    rows = {}
    for r in range(n):
        for s in range(n):
            z = r * n + s
            for terms, shift in ((by_k[s], r), (by_i[r], s * n * n), (by_j[r], s * n)):
                for label, c in terms:
                    row = rows.get(label + shift)
                    if row is None:
                        rows[label + shift] = {z: c}
                    else:
                        row[z] = row.get(z, 0) + c
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
    """Der(A) as the kernel of the `_leibniz_rows`, eliminated shortest
    first (the system has no right-hand side, so its RREF and kernel are
    unique whatever the order), and its Lie table: every [D_i, D_j] as a
    `kantor_bracket` of operations read off the kernel vectors' nonzeros,
    all written in the basis by one `solve_columns`."""
    n = alg.dim
    ker = eliminate(sorted(_leibniz_rows(alg).values(), key=len), n * n).kernel()
    basis = tuple(Matrix(n, n, v) for v in ker.basis)
    k = len(basis)
    ops = [MultilinearOp(1, n, {((z % n,), z // n): c for z, c in enumerate(v) if c}) for v in ker.basis]
    brackets = [kantor_bracket(ops[i], ops[j]).coeffs for i in range(k) for j in range(k)]
    system = solve_columns([op.coeffs for op in ops], brackets)
    coords = [system.solution(k + idx) for idx in range(k * k)]
    if None in coords:
        raise RuntimeError("derivation space not closed under commutator")
    products = {divmod(idx, k): dict(enumerate(c)) for idx, c in enumerate(coords)}
    lie = Algebra.from_products(k, products, names=[f"D{i + 1}" for i in range(k)])
    return DerivationAlgebra(n, basis, ker, lie)


def derived_series(da: DerivationAlgebra):
    """Dimensions of g, [g,g], [[g,g],[g,g]], ... until they stabilize,
    each the rank of the sparse products of the last one's RREF rows."""
    lie = da.lie
    rows = [{i: 1} for i in range(lie.dim)]
    dims = [lie.dim]
    while True:
        rows = eliminate(basis_products(lie, rows), lie.dim).rows
        if len(rows) == dims[-1]:
            return dims
        dims.append(len(rows))


def is_solvable(da: DerivationAlgebra) -> bool:
    return derived_series(da)[-1] == 0


def inner_derivations(alg: Algebra) -> Subspace:
    """{L_a : a in the Jacobi space}, as a subspace of n^2-vectors; L_a is
    the product P with its first input fixed at a."""
    n = alg.dim
    p = MultilinearOp.from_algebra(alg)
    rows = [{out * n + s: c for ((s,), out), c in p.partial(v).coeffs.items()} for v in jacobi_space(alg).basis]
    return _subspace(n * n, rows)
