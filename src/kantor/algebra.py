"""Finite-dimensional algebras presented by structure constants.

An `Algebra` is a based rational vector space with a bilinear product given
by its structure constants: e_i e_j = sum_k c_ijk e_k.  They are stored in
one form, `sparse_table`, which lists only the nonzero c_ijk; the dense
n x n x n `table` is a view derived from it on request.  Nothing here
assumes associativity, commutativity, or anything else about the product,
so the same object doubles as an arbitrary bilinear map V x V -> V.

A concrete vector enters a product as the sparse row {i: c} of its
nonzero coordinates, as `linalg._sparse` gives it.  `mul_sparse`
multiplies two such rows, walking the nonzero constants of `sparse_table`
once pair by pair of nonzero input coordinates and pushing each term into
its output; it is the one kernel for concrete products.  `mul_vec` is it
on coordinate vectors, and every product of two subspace rows is one of
`basis_products`: generated subalgebras, the derived series, induced
tables and `closure_witness` all read them there.  The identity engine
pulls by output instead, over polynomials of its own: `by_output` files
the same constants under their output coordinate, so that coordinate k
of a product is read without building the others, nor more of its
operands than k needs.  `conservative` reads the same index for its
closed-form brackets.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import DimensionMismatchError, NotClosedError
from .linalg import (
    Subspace,
    _dense,
    _exact,
    _sparse,
    _subspace,
    frac,
    solve_columns,
    vec,
)


def default_names(n: int):
    return tuple(f"e{i + 1}" for i in range(n))


@dataclass(frozen=True)
class Algebra:
    basis_names: tuple
    # sparse_table[i][j] lists (k, c_ijk) over the nonzero constants of
    # e_i e_j, k ascending, each c as `linalg.exact` gives it
    sparse_table: tuple

    def __post_init__(self):
        n = len(self.basis_names)
        if len(set(self.basis_names)) != n:
            raise ValueError("basis labels must be unique")
        if len(self.sparse_table) != n or any(len(row) != n for row in self.sparse_table):
            raise ValueError(f"structure constants must form {n} x {n} products")
        for row in self.sparse_table:
            for outputs in row:
                last = -1
                for k, c in outputs:
                    if type(c) is not int and type(c) is not Fraction:
                        raise TypeError(f"structure constant {c!r} is not an int or a Fraction")
                    if not (type(k) is int and last < k < n) or not c:
                        raise ValueError(f"bad structure constant ({k!r}, {c!r}) for dim {n}")
                    last = k

    @classmethod
    def from_table(cls, table, names=None) -> "Algebra":
        """Build from a dense table: table[i][j][k] = c_ijk."""
        n = len(table)
        if any(len(row) != n or any(len(p) != n for p in row) for row in table):
            raise ValueError("structure tensor must have shape n x n x n")
        products = {(i, j): dict(enumerate(p)) for i, row in enumerate(table) for j, p in enumerate(row)}
        return cls.from_products(n, products, names)

    @classmethod
    def from_products(cls, n, products, names=None) -> "Algebra":
        """Build from a sparse {(i, j): {k: coeff}} description (0-based);
        zero coefficients are dropped."""
        table = [[()] * n for _ in range(n)]
        for (i, j), out in products.items():
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"product index ({i!r}, {j!r}) out of range for dim {n}")
            out = {k: c if type(c) is int else _exact(frac(c)) for k, c in out.items() if c}
            table[i][j] = tuple(sorted((k, c) for k, c in out.items() if c))
        return cls(tuple(names) if names else default_names(n), tuple(map(tuple, table)))

    @classmethod
    def zero(cls, n, names=None) -> "Algebra":
        return cls.from_products(n, {}, names)

    @property
    def dim(self) -> int:
        return len(self.basis_names)

    @cached_property
    def table(self) -> tuple:
        """The dense view: table[i][j] is the coordinate vector of e_i e_j,
        as Fractions, derived from `sparse_table` on first use.  Nothing in
        the package reads it; it stays for the benchmark's checker and for
        tests that state a product as a whole vector."""
        n = self.dim
        return tuple(tuple(_dense(dict(p), n) for p in row) for row in self.sparse_table)

    @cached_property
    def by_output(self) -> tuple:
        """The nonzero structure constants filed by output coordinate:
        by_output[k] lists (i, j, c_ijk) over the nonzero c_ijk, i then j
        ascending, built from `sparse_table` on first use and kept with
        the algebra."""
        meets = [[] for _ in range(self.dim)]
        for i, row in enumerate(self.sparse_table):
            for j, outputs in enumerate(row):
                for k, c in outputs:
                    meets[k].append((i, j, c))
        return tuple(map(tuple, meets))

    def mul_sparse(self, a, b):
        """Product of two sparse rows {i: c}, as the {k: c} of its nonzero
        coordinates, k ascending.

        This is the package's one walk over `sparse_table` that multiplies
        concrete vectors: a pair of coordinates (i, j) with no nonzero
        constant costs one lookup and no multiplication, and each other
        pair forms x * y once before adding its multiple of each constant.
        Values may be ints or Fractions, and each output keeps the type
        that arithmetic gives it."""
        table = self.sparse_table
        out = {}
        for i, x in a.items():
            row = table[i]
            for j, y in b.items():
                outputs = row[j]
                if not outputs:
                    continue
                xy = x * y
                for k, c in outputs:
                    out[k] = out.get(k, 0) + xy * c
        return {k: out[k] for k in sorted(out) if out[k]}

    def mul_vec(self, x, y):
        """Product of two coordinate vectors, as Fractions: `mul_sparse` on
        the sparse rows that `linalg._sparse` makes of them."""
        n = self.dim
        if len(x) != n or len(y) != n:
            raise DimensionMismatchError.of(n, (len(x), len(y)))
        return _dense(self.mul_sparse(_sparse(x), _sparse(y)), n)


def _signed_sum(terms) -> str:
    """(coefficient, body) terms as text, e.g. ``-x + 2/3*y``; ``0`` when
    every coefficient is zero.  A body of None marks a constant term, which
    shows its coefficient alone; any string, even "", is a body."""
    parts = []
    for c, body in terms:
        if not c:
            continue
        mag = abs(c)
        piece = str(mag) if body is None else (body if mag == 1 else f"{mag}*{body}")
        parts.append(("+ " if c > 0 else "- ") + piece)
    if not parts:
        return "0"
    s = " ".join(parts)
    return s[2:] if s.startswith("+ ") else "-" + s[2:]


def format_combination(coords, names) -> str:
    """A linear combination as text, e.g. ``-e1 + 2/3*e3``; ``0`` when zero."""
    return _signed_sum(zip(coords, names))


def format_sparse(outputs, names) -> str:
    """The (k, c) pairs of a `sparse_table` entry as text, as
    `format_combination` writes the same vector."""
    return _signed_sum((c, names[k]) for k, c in outputs)


def combination_document(coords, names) -> dict:
    """The sparse {basis_name: "p/q"} map of the nonzero coordinates."""
    return {name: str(c) for name, c in zip(names, coords) if c}


def two_sided_columns(alg: Algebra) -> list:
    """The columns of x -> (x e_j, e_j x)_j, for `linalg.solve_columns`.

    Column i holds the image of e_i: coordinate k of e_i e_j under the
    label (j, 0, k) and coordinate k of e_j e_i under (j, 1, k).
    """
    columns = [{} for _ in range(alg.dim)]
    for i, row in enumerate(alg.sparse_table):
        for j, outputs in enumerate(row):
            for k, c in outputs:
                columns[i][(j, 0, k)] = c
                columns[j][(i, 1, k)] = c
    return columns


def annihilator(alg: Algebra) -> Subspace:
    """{x : x v = v x = 0 for every v}, via one linear solve over the basis."""
    return solve_columns(two_sided_columns(alg)).kernel()


def basis_products(alg: Algebra, rows) -> Iterator[dict]:
    """Every product of two of the sparse rows {i: c}, lazily, as
    `Algebra.mul_sparse` gives it; rows[i] rows[j] comes at index
    i * len(rows) + j."""
    return (alg.mul_sparse(a, b) for a in rows for b in rows)


def closure_witness(alg: Algebra, s: Subspace):
    """(i, j, product) for the first basis product of s that leaves s, in
    the order of `basis_products`, or None.

    A product lies in s iff every normal of s, a basis vector of
    `s.orthogonal_complement()` taken through `_sparse`, vanishes on it.
    """
    if s.ambient_dim != alg.dim:
        raise DimensionMismatchError.of(alg.dim, s.ambient_dim)
    normals = [_sparse(nu) for nu in s.orthogonal_complement().basis]
    for idx, product in enumerate(basis_products(alg, [_sparse(r) for r in s.basis])):
        if any(sum(c * nu[k] for k, c in product.items() if k in nu) for nu in normals):
            return (*divmod(idx, s.dim), _dense(product, alg.dim))
    return None


def verify_subalgebra(alg: Algebra, s: Subspace) -> bool:
    return closure_witness(alg, s) is None


def generated_subalgebra(alg: Algebra, generators) -> Subspace:
    """Least subspace containing the generators, coordinate sequences, and
    closed under the product.

    Iterates span-then-add-products; terminates because the dimension grows
    strictly until the fixed point.
    """
    current = Subspace.from_spanning(alg.dim, [vec(g) for g in generators])
    while True:
        rows = [_sparse(r) for r in current.basis]
        grown = _subspace(alg.dim, [*rows, *basis_products(alg, rows)])
        if grown.dim == current.dim:
            return current
        current = grown


def induced_algebra(alg: Algebra, s: Subspace, basis=None, names=None) -> Algebra:
    """The restricted product on a closed subspace, in a chosen basis.

    The default basis is the canonical RREF basis of s; passing `basis`
    (rows spanning s) reproduces hand-picked presentations.
    """
    if basis is None:
        if s.ambient_dim != alg.dim:
            raise DimensionMismatchError.of(alg.dim, s.ambient_dim)
        rows = list(s.basis)
    else:
        rows = [vec(b) for b in basis]
        if Subspace.from_spanning(alg.dim, rows) != s or len(rows) != s.dim:
            raise ValueError("supplied basis does not span the subspace")
    k = len(rows)
    rows = [_sparse(r) for r in rows]
    products = list(basis_products(alg, rows))
    system = solve_columns(rows, products)
    table = {}
    for idx, product in enumerate(products):
        coords = system.solution(k + idx)
        if coords is None:
            raise NotClosedError(*divmod(idx, k), _dense(product, alg.dim))
        table[divmod(idx, k)] = dict(enumerate(coords))
    return Algebra.from_products(k, table, names)
