"""Finite-dimensional algebras presented by structure constants.

An `Algebra` is a based rational vector space with a bilinear product given
by its structure constants: e_i e_j = sum_k c_ijk e_k.  They are stored in
one form, `sparse_table`, which lists only the nonzero c_ijk; the dense
n x n x n `table` is a view derived from it on request.  Nothing here
assumes associativity, commutativity, or anything else about the product,
so the same object doubles as an arbitrary bilinear map V x V -> V.

`Algebra.mul_expanded` is the package's one product kernel: it multiplies
coordinate-major vectors {coordinate: {monomial: coefficient}} by walking
the nonzero structure constants of `sparse_table`.  A monomial is a packed
int, so the product of two monomials is their sum.  The identity evaluator
multiplies generic (symbolic) vectors with it, and `mul_vec` is the same
kernel on concrete coordinate vectors, at the constant monomial 0.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm

from .errors import DimensionMismatchError, NotClosedError
from .linalg import (
    F0,
    Subspace,
    _dense,
    _exact,
    _sparse,
    add_vec,
    frac,
    is_zero_vec,
    scale_vec,
    solve_columns,
    sub_vec,
    unit_vec,
    vec,
)


def default_names(n: int):
    return tuple(f"e{i + 1}" for i in range(n))


def _prune(vector):
    """Drop zero coefficients, then coordinates left without monomials."""
    out = {}
    for k, terms in vector.items():
        if not all(terms.values()):
            terms = {m: c for m, c in terms.items() if c}
        if terms:
            out[k] = terms
    return out


def _numerators(x):
    """A coordinate vector as ({i: {0: numerator}}, d): coordinate i is
    numerator / d, d being the least common denominator."""
    x = {i: frac(c) for i, c in enumerate(x) if c}
    d = lcm(*(c.denominator for c in x.values()))
    return {i: {0: c.numerator * (d // c.denominator)} for i, c in x.items()}, d


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
            out = {k: _exact(frac(c)) for k, c in out.items() if c}
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

    def index_of(self, name: str) -> int:
        try:
            return self.basis_names.index(name)
        except ValueError:
            raise KeyError(f"no basis element named {name!r}") from None

    def gen(self, i) -> "Element":
        if isinstance(i, str):
            i = self.index_of(i)
        return Element(self, unit_vec(self.dim, i))

    def element(self, coords) -> "Element":
        coords = vec(coords)
        if len(coords) != self.dim:
            raise DimensionMismatchError.of(self.dim, len(coords))
        return Element(self, coords)

    def mul_expanded(self, a, b):
        """Product of two vectors stored as {coordinate: {monomial: coeff}}.

        A monomial is a packed int: one fixed-width field per symbol holds
        its exponent, symbol 0 in the most significant field, so the product
        of monomials m1 and m2 is m1 + m2 (the caller picks fields wide
        enough that no exponent carries) and int order is lex order of
        exponent vectors.  A pair of coordinates (i, j) with no nonzero
        constant is skipped before any monomial is touched.  Coefficients
        may be ints or Fractions; the result keeps only nonzero ones."""
        table = self.sparse_table
        out = {}
        for i, u in a.items():
            row = table[i]
            for j, v in b.items():
                outputs = row[j]
                if not outputs:
                    continue
                products = [(m1 + m2, x * y) for m1, x in u.items() for m2, y in v.items()]
                for k, c in outputs:
                    acc = out.get(k)
                    if acc is None:
                        acc = out[k] = {}
                    for m, xy in products:
                        acc[m] = acc.get(m, 0) + xy * c
        return _prune(out)

    def mul_vec(self, x, y):
        """Product of two coordinate vectors, as Fractions: `mul_expanded`
        on the constant monomial 0, fed each vector's integer numerators
        over their common denominator, so that only the structure constants
        can bring a Fraction into the products."""
        n = self.dim
        if len(x) != n or len(y) != n:
            raise DimensionMismatchError.of(n, (len(x), len(y)))
        (a, dx), (b, dy) = _numerators(x), _numerators(y)
        d = dx * dy
        out = [F0] * n
        for k, terms in self.mul_expanded(a, b).items():
            out[k] = frac(terms[0]) if d == 1 else Fraction(terms[0], d)
        return tuple(out)

    def multiply(self, x: "Element", y: "Element") -> "Element":
        if x.algebra is not self and x.algebra != self:
            raise DimensionMismatchError("element does not belong to this algebra")
        if y.algebra is not self and y.algebra != self:
            raise DimensionMismatchError("element does not belong to this algebra")
        return Element(self, self.mul_vec(x.coords, y.coords))


@dataclass(frozen=True)
class Element:
    algebra: Algebra
    coords: tuple

    def __add__(self, other: "Element") -> "Element":
        self._check(other)
        return Element(self.algebra, add_vec(self.coords, other.coords))

    def __sub__(self, other: "Element") -> "Element":
        self._check(other)
        return Element(self.algebra, sub_vec(self.coords, other.coords))

    def __neg__(self) -> "Element":
        return Element(self.algebra, tuple(-c for c in self.coords))

    def __mul__(self, other):
        if isinstance(other, Element):
            return self.algebra.multiply(self, other)
        return Element(self.algebra, scale_vec(frac(other), self.coords))

    def __rmul__(self, other):
        return Element(self.algebra, scale_vec(frac(other), self.coords))

    def is_zero(self) -> bool:
        return is_zero_vec(self.coords)

    def __str__(self):
        return format_combination(self.coords, self.algebra.basis_names)

    def _check(self, other: "Element"):
        if self.algebra is not other.algebra and self.algebra != other.algebra:
            raise DimensionMismatchError("elements of different algebras")


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


def basis_products(alg: Algebra, rows) -> Iterator[tuple]:
    """Every product of two of the rows, computed lazily; rows[i] rows[j]
    comes at index i * len(rows) + j."""
    return (alg.mul_vec(a, b) for a in rows for b in rows)


def closure_witness(alg: Algebra, s: Subspace):
    """(i, j, product) for the first basis product of s that leaves s, or None."""
    if s.ambient_dim != alg.dim:
        raise DimensionMismatchError.of(alg.dim, s.ambient_dim)
    for idx, p in enumerate(basis_products(alg, s.basis)):
        if not s.contains(p):
            return (*divmod(idx, s.dim), p)
    return None


def verify_subalgebra(alg: Algebra, s: Subspace) -> bool:
    return closure_witness(alg, s) is None


def generated_subalgebra(alg: Algebra, generators) -> Subspace:
    """Least subspace containing the generators and closed under the product.

    Iterates span-then-add-products; terminates because the dimension grows
    strictly until the fixed point.
    """
    gens = [g.coords if isinstance(g, Element) else vec(g) for g in generators]
    current = Subspace.from_spanning(alg.dim, gens)
    while True:
        extra = [p for p in basis_products(alg, current.basis) if not current.contains(p)]
        if not extra:
            return current
        current = Subspace.from_spanning(alg.dim, list(current.basis) + extra)


def induced_algebra(alg: Algebra, s: Subspace, basis=None, names=None) -> Algebra:
    """The restricted product on a closed subspace, in a chosen basis.

    The default basis is the canonical RREF basis of s; passing `basis`
    (rows spanning s) reproduces hand-picked presentations.
    """
    if basis is None:
        rows = list(s.basis)
    else:
        rows = [b.coords if isinstance(b, Element) else vec(b) for b in basis]
        if Subspace.from_spanning(alg.dim, rows) != s or len(rows) != s.dim:
            raise ValueError("supplied basis does not span the subspace")
    k = len(rows)
    products = list(basis_products(alg, rows))
    system = solve_columns([_sparse(r) for r in rows], [_sparse(p) for p in products])
    table = {}
    for idx, product in enumerate(products):
        coords = system.solution(k + idx)
        if coords is None:
            raise NotClosedError(*divmod(idx, k), product)
        table[divmod(idx, k)] = dict(enumerate(coords))
    return Algebra.from_products(k, table, names)
