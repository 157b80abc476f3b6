"""Exact linear algebra over the rationals.

Values are exact rationals, with no floating point anywhere in this
package (`frac` refuses a float): inside, an integral value stays an
`int` (`exact`); every vector handed back across the public boundary
holds `fractions.Fraction`s.
Everything here is immutable after construction and all operations are
pure, so values can be shared freely.

The canonical forms used everywhere else in the package are fixed here:

* matrices reduce to the unique reduced row echelon form (RREF);
* subspaces are stored as the RREF basis of their row space;
* affine solution sets use the particular solution with every free
  variable set to zero.

Every elimination runs through one routine, `eliminate`: Gauss–Jordan
elimination over sparse rows stored as ``{column: value}`` dicts, which
returns the unique RREF and so the same canonical forms whatever the
storage or row order.  A pivot row that is exactly ``{p: 1}`` pins
unknown p to zero, so later rows drop column p as they are read in
instead of being reduced by it.  Every system given by its columns,
sparse ``{equation label: coefficient}`` dicts, becomes rows in one
builder, `solve_columns`.  Systems built from structure constants are
almost all zeros (the Leibniz system of W(3) has 15615 nonzeros among
14.3M cells), so Der(A)'s Lie table, conservativity, the Jacobi space,
quasi-units, induced tables and the two-sided annihilator and unit hand
it sparse columns, and Der(A) itself hands `eliminate` the Leibniz
equations as sparse rows.  A kernel of dense rows is the orthogonal
complement of their span,
`Subspace.from_spanning(n, rows).orthogonal_complement()`, and the
coordinates of a vector in a subspace are the canonical solution with
the basis rows as columns.
A Fredholm certificate, `fredholm_certificate`, is the canonical solution
of the transposed system, solved from the same sparse columns and
computed only when a system is infeasible; it comes back keyed by the
equation labels.  A `Matrix`, with no arithmetic, is only the dense form
of a linear map: it enters by `MultilinearOp.from_matrix`, the one dense
entry, and every computation on a map is on an arity-1 `MultilinearOp`.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction

from .errors import DimensionMismatchError

F0 = Fraction(0)
F1 = Fraction(1)

Vec = tuple  # tuple[Fraction, ...]


def frac(x) -> Fraction:
    """Coerce ints, strings like ``"2/3"``, and Fractions to Fraction; a
    float is a TypeError, for its value is a binary fraction near the
    rational it was written as."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        raise TypeError(f"expected an exact rational, got the float {x!r}")
    return Fraction(x)


def exact(x):
    """A rational as an int when integral, else as a Fraction: exact either
    way, and an int is many times cheaper to multiply and add."""
    return x if type(x) is int else _exact(frac(x))


def _exact(x):
    """`exact` of an int or a Fraction, private so that the benchmark tracer
    leaves the per-entry loops of `eliminate` and `MultilinearOp` alone; any
    other value, a float or a string among them, is a TypeError."""
    if type(x) is int:
        return x
    try:
        return x.numerator if x.denominator == 1 else x
    except AttributeError:
        raise TypeError(f"{x!r} is not an int or a Fraction") from None


def vec(values) -> Vec:
    return tuple(frac(v) for v in values)


def unit_vec(n: int, i: int) -> Vec:
    return tuple(F1 if j == i else F0 for j in range(n))


@dataclass(frozen=True)
class Matrix:
    """Dense rational matrix, row-major, acting on coordinate columns;
    `MultilinearOp.from_matrix` is its one conversion."""

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

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i * self.cols + j]


def _sparse(values) -> dict:
    """The ``{column: value}`` row of a dense vector's nonzero coordinates,
    each as `exact` gives it: the one conversion of a concrete vector for
    `eliminate` and for the product kernel."""
    row = {}
    for j, x in enumerate(values):
        x = frac(x)
        if x:
            row[j] = _exact(x)
    return row


def _dense(row, n: int) -> Vec:
    out = [F0] * n
    for j, x in row.items():
        out[j] = frac(x)
    return tuple(out)


def _add_multiple(row, f, other, holders, at):
    """``row += f * other`` in place for f != 0, keeping no zero entries;
    for each column c that `holders` indexes, `holders[c]` gains `at` when
    c appears in row and loses it when c cancels."""
    for c, x in other.items():
        old = row.get(c)
        if old is None:
            row[c] = f * x
            if c in holders:
                holders[c].add(at)
            continue
        y = old + f * x
        if y:
            row[c] = y
        else:
            del row[c]
            if c in holders:
                holders[c].discard(at)


def eliminate(rows, cols: int) -> "Echelon":
    """Sparse Gauss–Jordan elimination, the one elimination routine.

    `rows` are ``{column: value}`` dicts of Fractions or ints.  Columns
    below `cols` are the unknowns of a system ``[A | B]`` and the only ones
    that take pivots; columns from `cols` on are right-hand sides carried
    along.  Each row is reduced by the pivot rows found so far, normalised
    on its first remaining unknown and substituted back into the earlier
    pivot rows that hold it (an index maps each unknown column to them),
    so after every row the pivot rows are exactly the nonzero rows of the
    unique RREF of the rows seen.  Only nonzero entries are stored or
    touched, each as `exact` gives it: a pivot of ±1 normalises by sign
    alone, so integral rows stay ints.  A pivot row that is exactly
    ``{p: 1}``, made so or left so by back-substitution, pins unknown p
    to zero for good: reducing by it only deletes column p, so each later
    row drops p as it is read in, and a row left empty is skipped.
    """
    pivot_rows = {}
    holders = defaultdict(set)  # unknown column -> pivots whose rows hold it
    zeros = set()  # pivots whose rows are exactly {p: 1}
    inconsistent = set()
    for row in rows:
        row = {c: _exact(x) for c, x in row.items() if x and c not in zeros}
        if not row:
            continue
        for c in [c for c in row if c in pivot_rows]:
            # pivot rows vanish on each other's pivots, so one pass suffices
            _add_multiple(row, -row[c], pivot_rows[c], {}, None)
        unknowns = [c for c in row if c < cols]
        if not unknowns:
            inconsistent.update(row)
            continue
        p = min(unknowns)
        pivot = row[p]
        if pivot == -1:
            row = {c: -x for c, x in row.items()}
        elif pivot != 1:
            inv = F1 / pivot
            row = {c: _exact(x * inv) for c, x in row.items()}
        for c in unknowns:
            if c != p:
                holders[c].add(p)
        for q in holders.pop(p, ()):
            other = pivot_rows[q]
            _add_multiple(other, -other[p], row, holders, q)
            if len(other) == 1:
                zeros.add(q)
        if len(row) == 1:
            zeros.add(p)
        pivot_rows[p] = row
    pivots = tuple(sorted(pivot_rows))
    return Echelon(cols, pivots, tuple(pivot_rows[p] for p in pivots), frozenset(inconsistent))


@dataclass(frozen=True)
class Echelon:
    """The reduced row echelon form of ``[A | B]``, as left by `eliminate`.

    `rows[r]` is the sparse RREF row of A with its leading 1 in column
    `pivots[r]`, carrying its entries in the B columns, as `exact` values.
    `inconsistent` holds the B columns on which some combination of the
    rows vanishing on A is nonzero: exactly the right-hand sides with no
    solution.  `solution` and `kernel` hand back Fractions.
    """

    cols: int
    pivots: tuple
    rows: tuple
    inconsistent: frozenset

    def solution(self, col: int):
        """The canonical solution of ``A x = `` column `col` of B, every
        free coordinate zero; None when that right-hand side is infeasible.
        """
        if col in self.inconsistent:
            return None
        x = [F0] * self.cols
        for p, row in zip(self.pivots, self.rows):
            c = row.get(col)
            if c:
                x[p] = frac(c)
        return tuple(x)

    def kernel(self) -> "Subspace":
        """Kernel of A as a canonical Subspace: one vector per free column
        f, with 1 at f and minus column f of the RREF at the pivots."""
        pivot_set = set(self.pivots)
        basis = {f: {f: 1} for f in range(self.cols) if f not in pivot_set}
        for p, row in zip(self.pivots, self.rows):
            for c, x in row.items():
                if c in basis:
                    basis[c][p] = -x
        return _subspace(self.cols, basis.values())


def _subspace(ambient_dim: int, rows) -> "Subspace":
    e = eliminate(rows, ambient_dim)
    return Subspace(ambient_dim, tuple(_dense(r, ambient_dim) for r in e.rows), e.pivots)


def solve_columns(columns, targets=()) -> Echelon:
    """Elimination of ``sum_z x_z columns[z] = t`` for each target t.

    Columns and targets are sparse ``{label: coefficient}`` dicts, a label
    (any hashable) naming one equation.  Target t's canonical solution is
    ``solution(len(columns) + t)``.
    """
    rows = {}
    for z, column in enumerate(columns):
        for label, c in column.items():
            rows.setdefault(label, {})[z] = c
    for t, target in enumerate(targets, len(columns)):
        for label, c in target.items():
            rows.setdefault(label, {})[t] = c
    # shortest first: short pivot rows keep later reductions short
    return eliminate(sorted(rows.values(), key=len), len(columns))


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
        rows = []
        for v in vectors:
            if len(v) != ambient_dim:
                raise DimensionMismatchError.of(ambient_dim, len(v))
            rows.append(_sparse(v))
        return _subspace(ambient_dim, rows)

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
        return self.coordinates(v) is not None

    def coordinates(self, v):
        """Coordinates of v in the RREF basis, or None if v is outside: the
        canonical solution of ``sum_r x_r basis[r] = v``."""
        v = vec(v)
        if len(v) != self.ambient_dim:
            raise DimensionMismatchError.of(self.ambient_dim, len(v))
        return solve_columns([_sparse(r) for r in self.basis], [_sparse(v)]).solution(self.dim)

    def sum(self, other: "Subspace") -> "Subspace":
        self._check_ambient(other)
        return Subspace.from_spanning(self.ambient_dim, list(self.basis) + list(other.basis))

    def intersection(self, other: "Subspace") -> "Subspace":
        # x lies in a row space iff x is orthogonal to the row space's
        # complement; stacking both complements cuts out the intersection.
        self._check_ambient(other)
        stacked = self.orthogonal_complement().basis + other.orthogonal_complement().basis
        return eliminate(map(_sparse, stacked), self.ambient_dim).kernel()

    def orthogonal_complement(self) -> "Subspace":
        return eliminate(map(_sparse, self.basis), self.ambient_dim).kernel()

    def _check_ambient(self, other: "Subspace"):
        if self.ambient_dim != other.ambient_dim:
            raise DimensionMismatchError.of(self.ambient_dim, other.ambient_dim)


@dataclass(frozen=True)
class AffineSolutionSet:
    """Solutions of a linear system ``A x = b``.

    `particular` is None when infeasible; otherwise it is the canonical
    solution with every free variable zero.  `certificate`, present exactly
    when infeasible, is a functional y with yᵀA = 0 and yᵀb = 1, which any
    reader can verify independently: the ``{equation label: Fraction}`` map
    of its nonzeros, from `fredholm_certificate`.
    """

    particular: object
    kernel: Subspace
    certificate: object = None

    @property
    def feasible(self) -> bool:
        return self.particular is not None


def fredholm_certificate(columns, target) -> dict:
    """A functional y with y . column = 0 for every column and y . target = 1,
    as the ``{label: Fraction}`` map of its nonzeros.

    Columns and target are sparse ``{label: coefficient}`` dicts as in
    `solve_columns`, with sortable labels.  y exists exactly when the
    system ``sum_z x_z columns[z] = target`` is infeasible (the Fredholm
    alternative: the target lies outside the span of the columns iff some
    functional kills every column but not the target); a feasible system
    raises ValueError.  y is the canonical solution of the transposed
    system, solved by `solve_columns`: its unknowns are the labels, sorted,
    and its equations are the columns, each equal to 0, and the target,
    equal to 1.
    """
    equations = [*columns, target]
    labels = sorted({label for equation in equations for label in equation})
    transposed = [
        {e: equation[label] for e, equation in enumerate(equations) if label in equation}
        for label in labels
    ]
    sol = solve_columns(transposed, [{len(columns): F1}]).solution(len(labels))
    if sol is None:
        raise ValueError("system is feasible; no certificate exists")
    return {label: y for label, y in zip(labels, sol) if y}
