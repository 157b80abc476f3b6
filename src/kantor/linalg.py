"""Exact linear algebra over the rationals.

Scalars are `fractions.Fraction` throughout; there is no floating point
anywhere in this package.  Everything here is immutable after construction
and all operations are pure, so values can be shared freely.

The canonical forms used everywhere else in the package are fixed here:

* matrices reduce to the unique reduced row echelon form (RREF);
* subspaces are stored as the RREF basis of their row space;
* affine solution sets use the particular solution with every free
  variable set to zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DimensionMismatchError

F0 = Fraction(0)
F1 = Fraction(1)

Vec = tuple  # tuple[Fraction, ...]


def frac(x) -> Fraction:
    """Coerce ints, strings like ``"2/3"``, and Fractions to Fraction."""
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


def vec(values) -> Vec:
    return tuple(frac(v) for v in values)


def zero_vec(n: int) -> Vec:
    return (F0,) * n


def unit_vec(n: int, i: int) -> Vec:
    return tuple(F1 if j == i else F0 for j in range(n))


def add_vec(x: Vec, y: Vec) -> Vec:
    return tuple(a + b for a, b in zip(x, y))


def sub_vec(x: Vec, y: Vec) -> Vec:
    return tuple(a - b for a, b in zip(x, y))


def scale_vec(c: Fraction, x: Vec) -> Vec:
    return tuple(c * a for a in x)


def dot(x: Vec, y: Vec) -> Fraction:
    s = F0
    for a, b in zip(x, y):
        if a and b:
            s += a * b
    return s


def is_zero_vec(x: Vec) -> bool:
    return not any(x)


@dataclass(frozen=True)
class Matrix:
    """Dense rational matrix, row-major."""

    rows: int
    cols: int
    entries: tuple

    def __post_init__(self):
        if len(self.entries) != self.rows * self.cols:
            raise ValueError("entry count does not match shape")

    @classmethod
    def from_rows(cls, rows) -> "Matrix":
        rows = [vec(r) for r in rows]
        ncols = len(rows[0]) if rows else 0
        if any(len(r) != ncols for r in rows):
            raise ValueError("ragged rows")
        return cls(len(rows), ncols, tuple(x for r in rows for x in r))

    @classmethod
    def from_cols(cls, cols) -> "Matrix":
        cols = [vec(c) for c in cols]
        m = cls.from_rows(cols)
        return m.transpose()

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls.from_rows([unit_vec(n, i) for i in range(n)])

    @classmethod
    def zero(cls, rows: int, cols: int) -> "Matrix":
        return cls(rows, cols, (F0,) * (rows * cols))

    def row(self, i: int) -> Vec:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def col(self, j: int) -> Vec:
        return self.entries[j :: self.cols]

    def row_list(self):
        return [list(self.row(i)) for i in range(self.rows)]

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i * self.cols + j]

    def transpose(self) -> "Matrix":
        return Matrix(
            self.cols,
            self.rows,
            tuple(self.entries[i * self.cols + j] for j in range(self.cols) for i in range(self.rows)),
        )

    def apply(self, v: Vec) -> Vec:
        """Matrix times coordinate column."""
        if len(v) != self.cols:
            raise ValueError("dimension mismatch in apply")
        out = []
        for i in range(self.rows):
            base = i * self.cols
            s = F0
            for j, x in enumerate(v):
                if x:
                    e = self.entries[base + j]
                    if e:
                        s += e * x
            out.append(s)
        return tuple(out)

    def __add__(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return Matrix(self.rows, self.cols, tuple(a + b for a, b in zip(self.entries, other.entries)))

    def __sub__(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return Matrix(self.rows, self.cols, tuple(a - b for a, b in zip(self.entries, other.entries)))

    def __neg__(self) -> "Matrix":
        return Matrix(self.rows, self.cols, tuple(-a for a in self.entries))

    def scale(self, c) -> "Matrix":
        c = frac(c)
        return Matrix(self.rows, self.cols, tuple(c * a for a in self.entries))

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in product")
        cols = [other.col(j) for j in range(other.cols)]
        out = []
        for i in range(self.rows):
            r = self.row(i)
            out.append([dot(r, c) for c in cols])
        return Matrix.from_rows(out)

    def commutator(self, other: "Matrix") -> "Matrix":
        return self @ other - other @ self

    def trace(self) -> Fraction:
        return sum((self[i, i] for i in range(min(self.rows, self.cols))), F0)

    def flatten(self) -> Vec:
        return self.entries

    def is_zero(self) -> bool:
        return not any(self.entries)


def _rref_inplace(rows, pivot_limit=None):
    """Reduce `rows` (lists of Fractions) in place.

    Pivots are chosen only among the first `pivot_limit` columns, which lets
    callers reduce an augmented block ``[A | B]`` while confining pivots to A.
    Returns the list of pivot columns.
    """
    if not rows:
        return []
    ncols = len(rows[0])
    limit = ncols if pivot_limit is None else pivot_limit
    nrows = len(rows)
    pivots = []
    r = 0
    for c in range(limit):
        pivot_row = None
        for i in range(r, nrows):
            if rows[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        if pivot_row != r:
            rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        p = rows[r][c]
        if p != F1:
            inv = F1 / p
            rr = rows[r]
            for k in range(c, ncols):
                if rr[k]:
                    rr[k] *= inv
        rr = rows[r]
        for i in range(nrows):
            if i == r:
                continue
            fac = rows[i][c]
            if fac:
                ri = rows[i]
                for k in range(c, ncols):
                    v = rr[k]
                    if v:
                        ri[k] -= fac * v
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots


def rref(m: Matrix):
    """Reduced row echelon form.

    Returns ``(R, pivot_columns, rank)`` where R is the unique RREF of m.
    """
    rows = m.row_list()
    pivots = _rref_inplace(rows)
    return Matrix.from_rows(rows), tuple(pivots), len(pivots)


@dataclass(frozen=True)
class Subspace:
    """A linear subspace in canonical form.

    `basis` holds the nonzero RREF rows of any spanning set, so two subspaces
    are equal as sets of vectors iff they are equal as dataclasses.
    """

    ambient_dim: int
    basis: tuple
    pivot_columns: tuple

    @classmethod
    def from_spanning(cls, ambient_dim: int, vectors) -> "Subspace":
        rows = [[frac(x) for x in v] for v in vectors]
        for r in rows:
            if len(r) != ambient_dim:
                raise DimensionMismatchError.of(ambient_dim, len(r))
        pivots = _rref_inplace(rows)
        keep = tuple(tuple(r) for r in rows[: len(pivots)])
        return cls(ambient_dim, keep, tuple(pivots))

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, (), ())

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls.from_spanning(ambient_dim, [unit_vec(ambient_dim, i) for i in range(ambient_dim)])

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, v) -> bool:
        v = list(vec(v))
        if len(v) != self.ambient_dim:
            raise DimensionMismatchError.of(self.ambient_dim, len(v))
        for row, p in zip(self.basis, self.pivot_columns):
            c = v[p]
            if c:
                for k in range(p, self.ambient_dim):
                    if row[k]:
                        v[k] -= c * row[k]
        return not any(v)

    def contains_subspace(self, other: "Subspace") -> bool:
        return all(self.contains(b) for b in other.basis)

    def coordinates(self, v):
        """Coordinates of v in the RREF basis, or None if v is outside.

        Valid because each basis row is the unique one with a nonzero entry
        in its pivot column.
        """
        v = vec(v)
        coords = tuple(v[p] for p in self.pivot_columns)
        residual = list(v)
        for c, row in zip(coords, self.basis):
            if c:
                for k, x in enumerate(row):
                    if x:
                        residual[k] -= c * x
        if any(residual):
            return None
        return coords

    def sum(self, other: "Subspace") -> "Subspace":
        self._check_ambient(other)
        return Subspace.from_spanning(self.ambient_dim, list(self.basis) + list(other.basis))

    def intersection(self, other: "Subspace") -> "Subspace":
        # x lies in a row space iff x is orthogonal to the row space's
        # complement; stacking both complements cuts out the intersection.
        self._check_ambient(other)
        c1 = self.orthogonal_complement()
        c2 = other.orthogonal_complement()
        stacked = Matrix.from_rows(list(c1.basis) + list(c2.basis) or [zero_vec(self.ambient_dim)])
        return nullspace(stacked)

    def orthogonal_complement(self) -> "Subspace":
        if not self.basis:
            return Subspace.full(self.ambient_dim)
        return nullspace(Matrix.from_rows(self.basis))

    def _check_ambient(self, other: "Subspace"):
        if self.ambient_dim != other.ambient_dim:
            raise DimensionMismatchError.of(self.ambient_dim, other.ambient_dim)


def nullspace(m: Matrix) -> Subspace:
    """Kernel of m, as a canonical Subspace of the column-coordinate space."""
    rows = m.row_list()
    pivots = _rref_inplace(rows)
    pivot_set = set(pivots)
    free = [c for c in range(m.cols) if c not in pivot_set]
    basis = []
    for f in free:
        v = [F0] * m.cols
        v[f] = F1
        for r, p in enumerate(pivots):
            v[p] = -rows[r][f]
        basis.append(v)
    return Subspace.from_spanning(m.cols, basis)


@dataclass(frozen=True)
class AffineSolutionSet:
    """Solutions of a linear system ``A x = b``.

    `particular` is None when infeasible; otherwise it is the canonical
    solution with every free variable zero.  `certificate`, present exactly
    when infeasible, is a vector y with yᵀA = 0 and yᵀb = 1, which any
    reader can verify independently.
    """

    particular: object
    kernel: Subspace
    certificate: object = None

    @property
    def feasible(self) -> bool:
        return self.particular is not None

    def same_set(self, other: "AffineSolutionSet") -> bool:
        if self.feasible != other.feasible:
            return False
        if not self.feasible:
            return self.kernel == other.kernel
        return self.kernel == other.kernel and self.kernel.contains(
            sub_vec(self.particular, other.particular)
        )


def solve_many(a: Matrix, targets):
    """Solve ``a x = t`` for many right-hand sides with one elimination.

    Returns a list with, per target, the canonical particular solution
    (free variables zero) or None when that target is infeasible.
    """
    targets = [vec(t) for t in targets]
    for t in targets:
        if len(t) != a.rows:
            raise DimensionMismatchError.of(a.rows, len(t))
    n = a.cols
    rows = [list(a.row(i)) + [t[i] for t in targets] for i in range(a.rows)]
    pivots = _rref_inplace(rows, pivot_limit=n)
    rank = len(pivots)
    out = []
    for j in range(len(targets)):
        col = n + j
        if any(rows[i][col] for i in range(rank, a.rows)):
            out.append(None)
            continue
        x = [F0] * n
        for r, p in enumerate(pivots):
            x[p] = rows[r][col]
        out.append(tuple(x))
    return out


def infeasibility_certificate(a: Matrix, b) -> Vec:
    """A vector y with yᵀA = 0 and yᵀb = 1 (requires the system infeasible).

    Exists by the Fredholm alternative: b lies outside the column space of A
    iff some functional kills every column of A but not b.
    """
    b = vec(b)
    rows = [list(a.col(j)) for j in range(a.cols)] + [list(b)]
    rhs = unit_vec(a.cols + 1, a.cols)
    sol = solve_many(Matrix.from_rows(rows), [rhs])[0]
    if sol is None:
        raise ValueError("system is feasible; no certificate exists")
    return sol


def solve_linear(a: Matrix, b) -> AffineSolutionSet:
    """Solve ``a x = b`` exactly.

    Canonical output: the particular solution has zero in every free
    coordinate, and the kernel comes back as a canonical Subspace.  When the
    system is infeasible the result carries a Fredholm certificate instead.
    """
    b = vec(b)
    if len(b) != a.rows:
        raise DimensionMismatchError.of(a.rows, len(b))
    particular = solve_many(a, [b])[0]
    kernel = nullspace(a)
    if particular is None:
        return AffineSolutionSet(None, kernel, infeasibility_certificate(a, b))
    return AffineSolutionSet(particular, kernel)
