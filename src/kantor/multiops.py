"""Multilinear operations on a based space, and the bracket between them.

A `MultilinearOp` of arity k on an n-dimensional space is stored sparsely:
coeffs maps (inputs, out) -> coefficient, meaning

    Op(e_{i_1}, ..., e_{i_k}) = sum_out coeffs[(i_1..i_k), out] * e_out.

Each coefficient is exact, as `linalg.exact` gives it: an int where
integral, else a Fraction, as in `Algebra.sparse_table`.  Ints keep the
arithmetic of the structure constants cheap; the views (`coeff`,
`as_element`, `as_matrix`, `as_algebra`, `apply_basis`) hand back
Fractions.

Arity 0 is an element, arity 1 a linear map, arity 2 a bilinear map (the
same data as an Algebra's structure tensor).  `partial(x)` fixes the first
input at a coordinate vector x; on the product P of an algebra, P.partial(x)
is left multiplication L_x, the one construction of it in the package
(the tests compare it against a dense reference built from `mul_vec`).

The composition used throughout is the sign-free shuffle insertion: with
p = arity(a) and q = arity(b) >= 1,

    (a . b)(x_1..x_{p+q-1}) = sum_S a(..., b(x_{s_1}, ..., x_{s_q}), ...),

summing over the increasing q-element subsets S = {s_1 < ... < s_q} of the
variables; b consumes the variables of S in order, the remaining variables
fill the other slots of a, and all p arguments are ordered by their largest
variable index.  For q = 0 the value of b is instead inserted into each
slot of a in turn.  The bracket is the antisymmetrization
[a, b] = a . b - b . a; for a linear A and bilinear B this is exactly
A(B(x,y)) - B(Ax,y) - B(x,Ay), and on symmetric operations the composition
polarizes the evaluation of homogeneous polynomial maps on the diagonal.

The non-adjacent insertions matter: dropping them breaks the triple-bracket
vanishing that characterizes the commutative-operations algebra built in
`wn` (and with them, exactly one of the two element-bracket conventions
recovers it -- see `conservative.is_terminal`).
"""

from __future__ import annotations

from collections import defaultdict
from itertools import combinations
from fractions import Fraction

from .algebra import Algebra
from .errors import DimensionMismatchError
from .linalg import F0, Matrix, _exact, frac, vec


class MultilinearOp:
    __slots__ = ("arity", "dim", "coeffs")

    def __init__(self, arity, dim, coeffs=None):
        if arity < 0:
            raise ValueError("arity must be nonnegative")
        self.arity = arity
        self.dim = dim
        self.coeffs = {k: _exact(v) for k, v in (coeffs or {}).items() if v}

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, arity, dim) -> "MultilinearOp":
        return cls(arity, dim)

    @classmethod
    def from_element(cls, coords) -> "MultilinearOp":
        coords = vec(coords)
        return cls(0, len(coords), {((), k): c for k, c in enumerate(coords) if c})

    @classmethod
    def from_matrix(cls, m: Matrix) -> "MultilinearOp":
        if m.rows != m.cols:
            raise ValueError("linear operations must be square")
        coeffs = {}
        for j in range(m.cols):
            for i in range(m.rows):
                c = m[i, j]
                if c:
                    coeffs[((j,), i)] = c
        return cls(1, m.rows, coeffs)

    @classmethod
    def from_algebra(cls, alg: Algebra) -> "MultilinearOp":
        coeffs = {
            ((i, j), k): c
            for i, row in enumerate(alg.sparse_table)
            for j, outputs in enumerate(row)
            for k, c in outputs
        }
        return cls(2, alg.dim, coeffs)

    @classmethod
    def identity(cls, dim) -> "MultilinearOp":
        return cls(1, dim, {((i,), i): 1 for i in range(dim)})

    # -- views ---------------------------------------------------------

    def coeff(self, inputs, out) -> Fraction:
        return frac(self.coeffs.get((tuple(inputs), out), 0))

    def is_zero(self) -> bool:
        return not self.coeffs

    def as_element(self):
        if self.arity != 0:
            raise ValueError("not an arity-0 operation")
        return tuple(self.coeff((), k) for k in range(self.dim))

    def as_matrix(self) -> Matrix:
        if self.arity != 1:
            raise ValueError("not an arity-1 operation")
        return Matrix.from_rows(
            [[self.coeff((j,), i) for j in range(self.dim)] for i in range(self.dim)]
        )

    def as_algebra(self, names=None) -> Algebra:
        if self.arity != 2:
            raise ValueError("not an arity-2 operation")
        products = {}
        for ((i, j), k), c in self.coeffs.items():
            products.setdefault((i, j), {})[k] = c
        return Algebra.from_products(self.dim, products, names)

    def apply_basis(self, inputs):
        """Value on a tuple of basis indices, as a coordinate vector."""
        inputs = tuple(inputs)
        out = [F0] * self.dim
        for k in range(self.dim):
            c = self.coeffs.get((inputs, k))
            if c:
                out[k] = frac(c)
        return tuple(out)

    def partial(self, x) -> "MultilinearOp":
        """The operation (y_2, ..., y_k) -> self(x, y_2, ..., y_k), one arity
        lower, for a coordinate vector x."""
        if self.arity < 1:
            raise ValueError("an element has no input to fix")
        if len(x) != self.dim:
            raise DimensionMismatchError.of(self.dim, len(x))
        acc = defaultdict(int)
        for (inputs, out), c in self.coeffs.items():
            xi = x[inputs[0]]
            if xi:
                acc[(inputs[1:], out)] += xi * c
        return MultilinearOp(self.arity - 1, self.dim, acc)

    def transpose(self) -> "MultilinearOp":
        """Swap the two inputs of a bilinear operation."""
        if self.arity != 2:
            raise ValueError("transpose only applies to bilinear operations")
        return MultilinearOp(
            2, self.dim, {((j, i), k): c for ((i, j), k), c in self.coeffs.items()}
        )

    # -- linear structure ----------------------------------------------

    def _check_shape(self, other: "MultilinearOp"):
        if self.dim != other.dim:
            raise DimensionMismatchError.of(self.dim, other.dim)
        if self.arity != other.arity:
            raise ValueError(f"arity mismatch: {self.arity} vs {other.arity}")

    def __add__(self, other: "MultilinearOp") -> "MultilinearOp":
        self._check_shape(other)
        coeffs = dict(self.coeffs)
        for key, c in other.coeffs.items():
            coeffs[key] = coeffs.get(key, 0) + c
        return MultilinearOp(self.arity, self.dim, coeffs)

    def __sub__(self, other: "MultilinearOp") -> "MultilinearOp":
        return self + (-other)

    def __neg__(self) -> "MultilinearOp":
        return MultilinearOp(self.arity, self.dim, {k: -c for k, c in self.coeffs.items()})

    def scale(self, c) -> "MultilinearOp":
        c = Fraction(c)
        return MultilinearOp(self.arity, self.dim, {k: c * v for k, v in self.coeffs.items()})

    def __eq__(self, other):
        return (
            isinstance(other, MultilinearOp)
            and self.arity == other.arity
            and self.dim == other.dim
            and self.coeffs == other.coeffs
        )

    def __repr__(self):
        return f"MultilinearOp(arity={self.arity}, dim={self.dim}, nnz={len(self.coeffs)})"


def _subset_layouts(m, p, q):
    """Argument layouts for inserting an arity-q block among m variables.

    Yields (subset, block_slot, single_positions): the variables of `subset`
    feed the block, the block sits in slot `block_slot` of the outer
    operation, and the remaining slots read the variables listed in
    `single_positions`, everything ordered by largest variable index.
    """
    for S in combinations(range(m), q):
        chosen = set(S)
        singles = [i for i in range(m) if i not in chosen]
        keys = sorted(singles + [m + 1], key=lambda t: S[-1] if t == m + 1 else t)
        block_slot = keys.index(m + 1)
        yield S, block_slot, [k for k in keys if k != m + 1]


def insertion_product(a: MultilinearOp, b: MultilinearOp) -> MultilinearOp:
    """Shuffle insertion of b into a (no signs); arity p + q - 1.

    For arity(b) >= 1 this sums over every increasing subset of the result
    variables feeding b, with the outer arguments ordered by largest index;
    for arity(b) = 0 the constant value of b is inserted into each slot of a
    in turn.  An arity-0 left operand has no slots, so the result is then
    the zero operation (of arity max(arity(b) - 1, 0)).
    """
    if a.dim != b.dim:
        raise DimensionMismatchError.of(a.dim, b.dim)
    p, q = a.arity, b.arity
    if p == 0:
        return MultilinearOp.zero(max(p + q - 1, 0), a.dim)
    m = p + q - 1
    acc = defaultdict(int)
    if q == 0:
        for (u, out), ca in a.coeffs.items():
            for i in range(p):
                cb = b.coeffs.get(((), u[i]))
                if cb:
                    acc[(u[:i] + u[i + 1 :], out)] += ca * cb
        return MultilinearOp(m, a.dim, acc)
    by_out = defaultdict(list)
    for (inputs, out), c in b.coeffs.items():
        by_out[out].append((inputs, c))
    for S, block_slot, single_positions in _subset_layouts(m, p, q):
        for (u, out), ca in a.coeffs.items():
            matches = by_out.get(u[block_slot])
            if not matches:
                continue
            for v, cb in matches:
                w = [0] * m
                for j, pos in enumerate(S):
                    w[pos] = v[j]
                for slot, pos in enumerate(single_positions):
                    src = slot if slot < block_slot else slot + 1
                    w[pos] = u[src]
                acc[(tuple(w), out)] += ca * cb
    return MultilinearOp(m, a.dim, acc)


def kantor_bracket(a: MultilinearOp, b: MultilinearOp) -> MultilinearOp:
    """[a, b] = a . b - b . a (antisymmetrized insertion product)."""
    return insertion_product(a, b) - insertion_product(b, a)
