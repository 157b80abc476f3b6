"""Sparse multivariate polynomials over the rationals and a small Groebner
engine.

A coefficient is held exact as `linalg.exact` gives it, an int when
integral and a Fraction otherwise, so integral systems stay in int
arithmetic; every division has a Fraction operand.  The views hand back
rationals as Fractions: `constant_value`, solution points and roots.

A computation lives in one ring, named by its caller's variable tuple;
mixing rings raises ValueError.  Monomial order is lexicographic in that
order (first variable largest), which makes zero-dimensional bases
triangular so rational points can be read off by univariate root search
plus back-substitution.  A basis is computed on one path: rounds of linear
elimination, then Buchberger's S-pair loop, then inter-reduction.  The
engine is guarded by hard budgets on the number of reduction steps
(eliminated variables plus S-polynomial reductions) and on total degree:
exceeding either raises BudgetExceededError, never silently degrades.  One
reduction budget covers a basis and the root extraction from it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from operator import add

from .algebra import _signed_sum
from .errors import BudgetExceededError
from .linalg import F0, F1, eliminate, exact, frac

MAX_REDUCTIONS = 10_000  # reduction steps per pivot: eliminated variables plus S-polynomial reductions
MAX_TOTAL_DEGREE = 12


class Poly:
    """Polynomial as {exponent tuple: nonzero coefficient} in the ring over
    `variables`; it adds and multiplies with rationals and that ring only.
    A coefficient is an int when integral, else a Fraction; the total
    degree is computed on first request and kept."""

    __slots__ = ("variables", "terms", "_degree")

    def __init__(self, variables, terms=None):
        self.variables = tuple(variables)
        self.terms = {e: exact(c) for e, c in (terms or {}).items() if c}
        self._degree = None

    # -- constructors ----------------------------------------------------

    @classmethod
    def _from_exact(cls, variables, terms, degree) -> "Poly":
        """A polynomial taking `terms` as they are: nonzero coefficients, each
        as `linalg.exact` gives it, and `degree` their total degree; no pass
        over the terms.  Only `codim1._pivot_system` builds one this way."""
        p = cls.__new__(cls)
        p.variables = variables
        p.terms = terms
        p._degree = degree
        return p

    @classmethod
    def zero(cls, variables) -> "Poly":
        return cls(variables)

    @classmethod
    def const(cls, c, variables) -> "Poly":
        c = exact(c)
        z = (0,) * len(tuple(variables))
        return cls(variables, {z: c} if c else {})

    @classmethod
    def var(cls, name, variables) -> "Poly":
        variables = tuple(variables)
        e = [0] * len(variables)
        e[variables.index(name)] = 1
        return cls(variables, {tuple(e): 1})

    # -- ring operations --------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Poly):
            _same_ring(self.variables, other)
            return other
        return Poly.const(other, self.variables)

    def __add__(self, other):
        terms = dict(self.terms)
        for e, c in self._coerce(other).terms.items():
            terms[e] = terms.get(e, 0) + c
        return Poly(self.variables, terms)

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.variables, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Poly):
            c = exact(other)
            return Poly(self.variables, {e: c * v for e, v in self.terms.items()})
        _same_ring(self.variables, other)
        return Poly(self.variables, _multiply_terms(self.terms, other.terms))

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative power")
        out = Poly.const(1, self.variables)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.variables == other.variables and self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self.is_constant() and self.constant_value() == other
        return NotImplemented

    def __bool__(self):
        return bool(self.terms)

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(not any(e) for e in self.terms)

    def constant_value(self) -> Fraction:
        return frac(self.terms.get((0,) * len(self.variables), 0))

    def total_degree(self) -> int:
        if self._degree is None:
            self._degree = max(map(sum, self.terms), default=0)
        return self._degree

    def degree_in(self, name) -> int:
        i = self.variables.index(name)
        return max((e[i] for e in self.terms), default=0)

    def leading(self):
        """(exponent, coefficient) of the lex-largest term."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        e = max(self.terms)
        return e, self.terms[e]

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        _, c = self.leading()
        inv = F1 / c
        return Poly(self.variables, {e: inv * v for e, v in self.terms.items()})

    def support_variables(self):
        used = set()
        for e in self.terms:
            for i, x in enumerate(e):
                if x:
                    used.add(self.variables[i])
        return used

    def substitute(self, name, value) -> "Poly":
        """Replace a variable by a rational or by a polynomial of the same
        ring (exact, no remainder)."""
        return _substitute_all([self], {name: value})[0]

    # -- printing -----------------------------------------------------------

    def sorted_terms(self):
        return sorted(self.terms.items(), reverse=True)

    def __str__(self):
        terms = []
        for e, c in self.sorted_terms():
            factors = [v if x == 1 else f"{v}^{x}" for v, x in zip(self.variables, e) if x]
            terms.append((c, "*".join(factors) or None))  # no factors: the constant term
        return _signed_sum(terms)

    def __repr__(self):
        return f"Poly({self})"


def _same_ring(variables, p):
    if p.variables is not variables and p.variables != variables:
        raise ValueError(f"polynomial over {p.variables} in a computation over {variables}")


def _divides(ea, eb):
    return all(x <= y for x, y in zip(ea, eb))


def normal_form(p: Poly, basis) -> Poly:
    """Remainder of p on division by a basis of p's ring (lex order): the
    leading term of what is left is cancelled by the first basis element
    whose leading monomial divides it, or else moved to the remainder."""
    basis = list(basis)
    for b in basis:
        _same_ring(p.variables, b)
    lead = [(*b.leading(), b.terms) for b in basis if b]
    if not lead:
        return p
    work = dict(p.terms)
    remainder = {}
    while work:
        e = max(work)
        c = work.pop(e)
        for eb, cb, terms in lead:
            if _divides(eb, e):
                q = c if cb == 1 else Fraction(c) / cb
                for t, x in terms.items():
                    if t != eb:
                        k = tuple(a + b - d for a, b, d in zip(t, e, eb))
                        v = work.get(k, 0) - q * x
                        if v:
                            work[k] = v
                        else:
                            del work[k]
                break
        else:
            remainder[e] = c
    return Poly(p.variables, remainder)


def s_polynomial(f: Poly, g: Poly) -> Poly:
    _same_ring(f.variables, g)
    ef, cf = f.leading()
    eg, cg = g.leading()
    lcm = tuple(max(a, b) for a, b in zip(ef, eg))
    mf = Poly(f.variables, {tuple(a - b for a, b in zip(lcm, ef)): F1 / cf})
    mg = Poly(f.variables, {tuple(a - b for a, b in zip(lcm, eg)): F1 / cg})
    return mf * f - mg * g


@dataclass(frozen=True)
class GroebnerBasis:
    variables: tuple
    generators: tuple  # reduced, monic, sorted by leading monomial descending
    reductions_used: int = 0
    max_reductions: int = MAX_REDUCTIONS  # the caps it was built under
    max_degree: int = MAX_TOTAL_DEGREE

    def __iter__(self):
        return iter(self.generators)


@dataclass
class _Budget:
    """Reduction steps spent on one pivot's solve: one per variable a linear
    round eliminates and one per S-polynomial reduced, in the basis and in
    every basis that root extraction computes after substituting a root."""

    max_reductions: int = MAX_REDUCTIONS
    max_degree: int = MAX_TOTAL_DEGREE
    reductions: int = 0

    def spend(self):
        self.reductions += 1
        if self.reductions > self.max_reductions:
            raise BudgetExceededError(
                f"exceeded {self.max_reductions} S-polynomial reductions",
                reductions=self.reductions,
            )

    def check_degree(self, p: Poly):
        d = p.total_degree()
        if d > self.max_degree:
            raise BudgetExceededError(
                f"intermediate degree {d} exceeds cap {self.max_degree}",
                degree=d,
            )


def _primitive(terms):
    """The frozenset of (exponent, int) of the primitive integer multiple of
    nonzero `terms`: scaled by the lcm of the denominators, divided by the
    content, its lex-largest coefficient positive.  Two polynomials share
    it exactly when each is a rational multiple of the other."""
    den = 1
    for c in terms.values():
        if type(c) is not int:
            den = lcm(den, c.denominator)
    if den == 1:
        ints = terms
    else:
        ints = {e: c.numerator * (den // c.denominator) for e, c in terms.items()}
    g = gcd(*ints.values())
    if ints[max(ints)] < 0:
        g = -g
    return frozenset((e, c // g) for e, c in ints.items())


def _distinct(gens):
    """The nonzero generators in input order, keeping the first of each
    class of scalar multiples: one set lookup of its primitive form each."""
    seen = set()
    out = []
    for g in gens:
        if g:
            key = _primitive(g.terms)
            if key not in seen:
                seen.add(key)
                out.append(g)
    return out


def _linear_round(rows, n, budget):
    """`eliminate` of linear generators over n variables, each a row
    {variable index: coefficient, n: constant term}, charging one budget
    unit per pivot."""
    ech = eliminate(rows, n)
    for _ in ech.pivots:
        budget.spend()
    return ech


def _linear_bindings(linear, variables, budget):
    """Solve the generators of degree <= 1 together in one linear round.

    Returns {pivot variable: its value in the free variables}, read off the
    RREF rows, or None when the system is inconsistent, i.e. the ideal is
    (1).  Each pivot costs one budget unit.
    """
    n = len(variables)
    rows = [{e.index(1) if any(e) else n: c for e, c in g.terms.items()} for g in linear]
    ech = _linear_round(rows, n, budget)
    if ech.inconsistent:
        return None
    return {
        variables[p]: Poly(variables, {
            **{(0,) * c + (1,) + (0,) * (n - 1 - c): -x for c, x in row.items() if c < n and c != p},
            (0,) * n: -row.get(n, 0),
        })
        for p, row in zip(ech.pivots, ech.rows)
    }


def unit_basis_of_linear(rows, variables, max_reductions=MAX_REDUCTIONS):
    """The basis [1] of any ideal over `variables` that holds the linear
    generators `rows` (each {variable index: coefficient, len(variables):
    constant term}) when they are inconsistent; None when they are not.

    The rows are solved as one linear round of `buchberger`, one reduction
    per RREF pivot, so past `max_reductions` the same BudgetExceededError
    is raised; the basis records that spend.
    """
    budget = _Budget(max_reductions)
    if not _linear_round(rows, len(variables), budget).inconsistent:
        return None
    return GroebnerBasis(variables, (Poly.const(1, variables),), budget.reductions, max_reductions)


def _substitute_all(polys, values):
    """`polys` with every variable named in `values` replaced by its value,
    a rational or a polynomial of the same ring, exactly.  Each polynomial
    is rewritten in one pass over its terms: a term's bound factors become
    the product of the matching powers of their values, and each power is
    computed once for all of `polys`."""
    if not polys or not values:
        return list(polys)
    variables = polys[0].variables
    bound = [variables.index(v) for v in values]
    one = Poly.const(1, variables).terms
    powers = {i: [one, polys[0]._coerce(value).terms] for i, value in zip(bound, values.values())}

    def power(i, k):
        pw = powers[i]
        while len(pw) <= k:
            pw.append(_multiply_terms(pw[-1], pw[1]))
        return pw[k]

    out = []
    for p in polys:
        _same_ring(variables, p)
        terms = {}
        changed = False
        for e, c in p.terms.items():
            hits = [(i, e[i]) for i in bound if e[i]]
            if not hits:
                terms[e] = terms.get(e, 0) + c
                continue
            changed = True
            rest = list(e)
            for i, _ in hits:
                rest[i] = 0
            part = {tuple(rest): c}
            for i, k in hits:
                part = _multiply_terms(part, power(i, k))
            for t, x in part.items():
                terms[t] = terms.get(t, 0) + x
        out.append(Poly(variables, terms) if changed else p)
    return out


def _multiply_terms(a, b):
    """The product of two {exponent: coefficient} maps, zeros kept."""
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(map(add, e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return out


def _linear_prepass(gens, variables, budget):
    """Eliminate the variables that the linear generators fix, round by
    round, until no generator of total degree <= 1 is left.

    A round solves every linear generator at once: an inconsistent round
    means the ideal is (1); otherwise each pivot variable is bound to its
    RREF row.  Scalar multiples of one generator give the same row space,
    so the round decides before they are dropped; they are dropped from
    the nonlinear generators only once it is consistent, keeping the first
    of each class.  The bound values involve free variables only, so each
    remaining generator is substituted into once per round, in one pass.
    The bindings join the generating set, so the ideal is unchanged; the
    budget is charged one unit per eliminated variable.  Whatever is left
    goes to the S-pair loop, no two of it scalar multiples.
    """
    bindings = []
    while True:
        linear = [g for g in gens if g.total_degree() <= 1]
        if not linear:
            return bindings + _distinct(gens)
        values = _linear_bindings(linear, variables, budget)
        if values is None:
            return [Poly.const(1, variables)]
        nonlinear = _distinct([g for g in gens if g.total_degree() > 1])
        substituted = _substitute_all(nonlinear + bindings, values)
        gens = substituted[: len(nonlinear)]
        for g in gens:
            budget.check_degree(g)
        gens = [g for g in gens if g]
        bindings = substituted[len(nonlinear) :]
        bindings += [Poly.var(v, variables) - value for v, value in values.items()]


def _interreduce(gens):
    gens = [g.monic() for g in gens if not g.is_zero()]
    changed = True
    while changed:
        changed = False
        for i in range(len(gens)):
            rest = gens[:i] + gens[i + 1 :]
            r = normal_form(gens[i], rest)
            if r.is_zero():
                gens = rest
                changed = True
                break
            r = r.monic()
            if r.terms != gens[i].terms:
                gens[i] = r
                changed = True
                break
    return sorted(gens, key=lambda g: g.leading()[0], reverse=True)


def _groebner(polys, variables, budget):
    """Generators of the reduced lex basis of the nonzero `polys`, all over
    `variables`, charging `budget`: every generator is degree-checked in
    input order, then the linear pre-pass, Buchberger's algorithm with the
    coprime-leading-terms criterion, and inter-reduction.  Scalar multiples
    share a degree and a linear row space, so they are dropped only after
    the first linear round, and only if it is consistent."""
    for p in polys:
        budget.check_degree(p)
    basis = _linear_prepass(polys, variables, budget)
    basis = [g.monic() for g in basis if not g.is_zero()]
    # Constant in the ideal: the whole ring; basis is just {1}.
    if any(g.is_constant() for g in basis):
        return (Poly.const(1, variables),)
    pairs = deque(combinations(range(len(basis)), 2))
    while pairs:
        i, j = pairs.popleft()
        f, g = basis[i], basis[j]
        ef, _ = f.leading()
        eg, _ = g.leading()
        if all(a == 0 or b == 0 for a, b in zip(ef, eg)):
            continue  # coprime leading terms: S-poly reduces to zero
        budget.spend()
        r = normal_form(s_polynomial(f, g), basis)
        if r.is_zero():
            continue
        budget.check_degree(r)
        if r.is_constant():
            return (Poly.const(1, variables),)
        basis.append(r.monic())
        k = len(basis) - 1
        pairs.extend((t, k) for t in range(k))
    return tuple(_interreduce(basis))


def buchberger(generators, variables=(), max_reductions=MAX_REDUCTIONS, max_degree=MAX_TOTAL_DEGREE) -> GroebnerBasis:
    """Reduced lexicographic Groebner basis of the given ideal.

    `variables` names the ring and its lex order: needed only without
    generators, it must otherwise match theirs.  Raises ValueError on a
    ring mismatch and BudgetExceededError when a guardrail trips.
    """
    generators = list(generators)
    variables = tuple(variables) or (generators[0].variables if generators else ())
    for p in generators:
        _same_ring(variables, p)
    polys = [p for p in generators if not p.is_zero()]
    budget = _Budget(max_reductions, max_degree)
    return GroebnerBasis(variables, _groebner(polys, variables, budget), budget.reductions, max_reductions, max_degree)


# -- rational solutions ------------------------------------------------------


@dataclass(frozen=True)
class UnresolvedComponent:
    """A solution component not resolved into rational points.

    kind is "positive-dimensional" (free variables remain) or
    "irrational-factor" (a univariate factor with no rational root);
    `partial` fixes the already-extracted coordinates and `detail` shows the
    offending data verbatim.
    """

    kind: str
    partial: tuple  # ((var, value), ...)
    detail: str


@dataclass(frozen=True)
class SolutionSet:
    variables: tuple
    points: tuple      # tuples of Fractions, aligned with `variables`
    unresolved: tuple  # UnresolvedComponent entries
    reductions_used: int  # the basis's count plus root extraction's


def _integer_divisors(n):
    n = abs(n)
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            out.append(n // d)
        d += 1
    return sorted(set(out))


def univariate_rational_roots(coeffs):
    """All rational roots (with multiplicity collapsed) of sum c_i x^i.

    Works on the primitive integer multiple of the polynomial, testing
    candidates p/q with p | constant term and q | leading term.  Returns
    (roots, leftover_degree): leftover_degree > 0 means a nontrivial factor
    without rational roots remains.
    """
    coeffs = [frac(c) for c in coeffs]
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    if not coeffs:
        raise ValueError("zero polynomial")
    if len(coeffs) == 1:
        return [], 0
    den = 1
    for c in coeffs:
        den = lcm(den, c.denominator)
    ints = [int(c * den) for c in coeffs]
    content = 0
    for c in ints:
        content = gcd(content, c)
    ints = [c // content for c in ints]
    roots = []
    while len(ints) > 1 and ints[0] == 0:
        if Fraction(0) not in roots:
            roots.append(Fraction(0))
        ints = ints[1:]
    if len(ints) > 1:
        a0, an = ints[0], ints[-1]
        candidates = set()
        for p in _integer_divisors(a0):
            for q in _integer_divisors(an):
                g = gcd(p, q)
                candidates.add(Fraction(p // g, q // g))
                candidates.add(Fraction(-(p // g), q // g))
        for r in sorted(candidates):
            while True:
                # synthetic division; keep dividing to strip multiplicity
                acc = F0
                quotient = []
                for c in reversed(ints):
                    acc = acc * r + c
                    quotient.append(acc)
                if acc != 0:
                    break
                ints = [int(x) for x in reversed(quotient[:-1])]
                if r not in roots:
                    roots.append(r)
                if len(ints) == 1:
                    break
            if len(ints) == 1:
                break
    leftover = len(ints) - 1
    return sorted(roots), leftover


def _solve_recursive(basis, variables, fixed, budget):
    """Points and unresolved components of a reduced lex basis in which the
    coordinates `fixed` are already substituted."""
    if any(g.is_constant() for g in basis):
        return [], []
    remaining = [v for v in variables if v not in dict(fixed)]
    if not basis:
        if remaining:
            return [], [
                UnresolvedComponent(
                    "positive-dimensional",
                    tuple(fixed),
                    f"free variables: {', '.join(remaining)}",
                )
            ]
        return [dict(fixed)], []
    # eliminate from the lex-smallest variable upward; a reduced basis holds
    # at most one generator in a single variable
    for v in reversed(remaining):
        univ = [g for g in basis if g.support_variables() <= {v}]
        if univ:
            break
    else:
        return [], [
            UnresolvedComponent(
                "positive-dimensional",
                tuple(fixed),
                "no univariate eliminant; generators: "
                + "; ".join(str(g) for g in basis),
            )
        ]
    (g,) = univ
    i = g.variables.index(v)
    coeffs = [F0] * (g.degree_in(v) + 1)
    for e, c in g.terms.items():
        coeffs[e[i]] += c
    roots, leftover = univariate_rational_roots(coeffs)
    points, unresolved = [], []
    if leftover:
        unresolved.append(UnresolvedComponent(
            "irrational-factor",
            tuple(fixed),
            f"{g} has a degree-{leftover} factor with no rational root",
        ))
    for r in roots:
        sub = _substitute_all(list(basis), {v: r})
        sub_basis = _groebner([h for h in sub if h], variables, budget)
        p, u = _solve_recursive(sub_basis, variables, fixed + ((v, r),), budget)
        points.extend(p)
        unresolved.extend(u)
    return points, unresolved


def solve_rational(gb: GroebnerBasis) -> SolutionSet:
    """All rational points of a reduced lex Groebner basis.

    Solves from `gb` as given: takes the rational roots of its generator in
    a single variable, the lex-smallest that has one, and for each root
    computes the basis of the substituted generators and solves from that.
    Those bases charge one budget that continues from `gb.reductions_used`,
    under the caps `gb.max_reductions` and `gb.max_degree` the basis was
    built under, so that one pair of caps bounds the whole solve.
    Zero-dimensional triangular systems resolve completely; positive-
    dimensional or irrational components come back as unresolved
    descriptors, never guessed.
    """
    budget = _Budget(gb.max_reductions, gb.max_degree, gb.reductions_used)
    points, unresolved = _solve_recursive(gb.generators, gb.variables, (), budget)
    pts = tuple(
        tuple(p.get(v, F0) for v in gb.variables)
        for p in points
    )
    return SolutionSet(gb.variables, tuple(sorted(set(pts))), tuple(unresolved), budget.reductions)
