"""Multilinear operations on a based space, and the bracket between them.

A `MultilinearOp` of arity k on an n-dimensional space is stored sparsely:
coeffs maps (inputs, out) -> coefficient, meaning

    Op(e_{i_1}, ..., e_{i_k}) = sum_out coeffs[(i_1..i_k), out] * e_out.

Each coefficient is exact, as `linalg.exact` gives it: an int where
integral, else a Fraction, as in `Algebra.sparse_table`.  Ints keep the
arithmetic of the structure constants cheap; the views (`coeff`,
`as_element`, `as_algebra`, `apply_basis`) hand back Fractions.

Arity 0 is an element, arity 1 a linear map, arity 2 a bilinear map (the
same data as an Algebra's structure tensor).  `partial(x)` fixes the first
input at a coordinate vector x; on the product P of an algebra, P.partial(x)
is left multiplication L_x (the tests compare it against a dense reference
built from `mul_vec`).  Arity 1 is the package's one arithmetic on linear maps
(a . b is the composition a(b(x))); `from_matrix` is the one dense entry,
from a `linalg.Matrix`, and a map leaves as its sparse `coeffs`.

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

Both `insertion_product` and `kantor_bracket` run one kernel, `_insert`,
which adds a signed product into the caller's accumulator.  The argument
layouts of each (p, q) are a cached table: per term, the slot b fills and
one `itemgetter` that reads the result's inputs off b's and a's inputs.
The bracket adds a . b and -(b . a) into one accumulator and normalizes
its coefficients once.

The non-adjacent insertions matter: dropping them breaks the triple-bracket
vanishing that characterizes the commutative-operations algebra built in
`wn` (and with them, exactly one of the two element-bracket conventions
recovers it -- see `conservative.is_terminal`).
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from functools import cache
from itertools import combinations
from operator import itemgetter

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
            for i, c in enumerate(m.entries[j :: m.cols]):
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
        return self.apply_basis(())

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
        c = frac(c)
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


@cache
def _layouts(p, q):
    """The argument layouts of inserting an arity-q operation into an
    arity-p one (p >= 1), computed once per (p, q).

    One layout per term of the shuffle insertion: (block_slot, pick), where
    the inner operation's value fills slot `block_slot` of the outer one and
    pick(v + u), for inner inputs v and outer inputs u, is the result's
    input tuple.  For q >= 1 the terms are the increasing q-subsets S of the
    p + q - 1 variables, whose block sits among the remaining variables by
    its largest one; for q = 0 they are the p slots of the outer operation.
    """
    m = p + q - 1
    layouts = []
    for term, S in enumerate(combinations(range(m), q) if q else [()] * p):
        singles = [i for i in range(m) if i not in S]
        block_slot = sum(i < S[-1] for i in singles) if q else term
        source = [0] * m
        for j, var in enumerate(S):
            source[var] = j
        for slot, var in enumerate(singles):
            source[var] = q + (slot if slot < block_slot else slot + 1)
        layouts.append((block_slot, _picker(source)))
    return tuple(layouts)


def _picker(source):
    """t -> tuple(t[i] for i in source), as one itemgetter call."""
    if len(source) == 1:  # itemgetter of one index returns the item itself
        return itemgetter(slice(source[0], source[0] + 1))
    return itemgetter(*source) if source else itemgetter(slice(0))


def _insert(acc, a: MultilinearOp, b: MultilinearOp, sign: int):
    """Add sign * (a . b) into acc, a ``{(inputs, out): coefficient}`` map
    with default 0.  An arity-0 a has no slots and adds nothing."""
    if not a.arity:
        return
    by_out = defaultdict(list)
    for (v, out), c in b.coeffs.items():
        by_out[out].append((v, sign * c))
    items = a.coeffs.items()
    for block_slot, pick in _layouts(a.arity, b.arity):
        for (u, out), ca in items:
            matches = by_out.get(u[block_slot])
            if matches:
                for v, cb in matches:
                    acc[(pick(v + u), out)] += ca * cb


def _result_arity(a: MultilinearOp, b: MultilinearOp) -> int:
    """The arity of a . b and of [a, b]; their dims must agree."""
    if a.dim != b.dim:
        raise DimensionMismatchError.of(a.dim, b.dim)
    return max(a.arity + b.arity - 1, 0)


def insertion_product(a: MultilinearOp, b: MultilinearOp) -> MultilinearOp:
    """Shuffle insertion of b into a (no signs); arity p + q - 1.

    For arity(b) >= 1 this sums over every increasing subset of the result
    variables feeding b, with the outer arguments ordered by largest index;
    for arity(b) = 0 the constant value of b is inserted into each slot of a
    in turn.  An arity-0 left operand has no slots, so the result is then
    the zero operation (of arity max(arity(b) - 1, 0)).
    """
    arity = _result_arity(a, b)
    acc = defaultdict(int)
    _insert(acc, a, b, 1)
    return MultilinearOp(arity, a.dim, acc)


def kantor_bracket(a: MultilinearOp, b: MultilinearOp) -> MultilinearOp:
    """[a, b] = a . b - b . a (antisymmetrized insertion product), summed
    in one accumulator."""
    arity = _result_arity(a, b)
    acc = defaultdict(int)
    _insert(acc, a, b, 1)
    _insert(acc, b, a, -1)
    return MultilinearOp(arity, a.dim, acc)
