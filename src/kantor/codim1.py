"""Complete enumeration of codimension-1 subalgebras.

Every hyperplane of an n-space has a unique reduced-echelon basis whose
single non-pivot column is some p (1-based here): rows e_j + a_j e_p for
j < p and e_j for j > p.  The pivot cases are disjoint and jointly cover
all hyperplanes, so closure of the hyperplane under the product becomes,
per pivot, a polynomial system in the a_j, solved exactly by the Groebner
engine; rational solutions are materialized as subspaces and re-verified,
anything else is reported unresolved, never guessed.

A pivot is first decided from the generators that are linear by
construction, summed straight from the structure constants: when they are
inconsistent the ideal is (1), and the full system is built only if the
case's `ideal` is read.  Such a pivot spends the rank of those rows from
its reduction budget, as the first linear round of the full system would.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property

from .algebra import Algebra, verify_subalgebra
from .errors import BudgetExceededError
from .linalg import F0, F1, Subspace, exact
from .poly import MAX_REDUCTIONS, Poly, buchberger, solve_rational, unit_basis_of_linear


def _pivot_variables(p: int):
    return tuple(f"a{j}" for j in range(1, p))


def hyperplane_basis(n: int, p: int, alphas):
    """Echelon basis rows of the hyperplane for pivot p (1-based)."""
    alphas = list(alphas)
    rows = []
    for j in range(1, n + 1):
        if j == p:
            continue
        row = [F0] * n
        row[j - 1] = F1
        if j < p:
            row[p - 1] = alphas[j - 1]
        rows.append(row)
    return rows


def pivot_system(alg: Algebra, p: int):
    """Closure generators for the pivot-p hyperplane family.

    Unknowns a_j (j < p); with a_m := 0 for m > p the hyperplane is spanned
    by h_j = e_j + a_j e_p (j != p), and v lies in it iff the linear form
    phi(v) = v_p - sum_{m < p} v_m a_m vanishes.  Each basis pair contributes

        phi(h_i h_j) = phi(e_i e_j) + a_j phi(e_i e_p) + a_i phi(e_p e_j)
                       + a_i a_j phi(e_p e_p),

    a generator of degree <= 3.  Its terms are summed in ints (Fractions
    only where a structure constant is one) straight from the nonzero
    structure constants (`Algebra.sparse_table`): phi of each product,
    shifted by the unit monomial a_j, a_i or a_i a_j.  A product whose phi
    vanishes (every output coordinate above p) adds nothing.
    """
    n = alg.dim
    if not 1 <= p <= n:
        raise ValueError(f"pivot must be in 1..{n}")
    return _pivot_system(_nonzero_products(alg), p)


def _nonzero_products(alg: Algebra):
    """(i, j, outputs) for each nonzero product e_i e_j, outputs as
    `Algebra.sparse_table` lists them, sorted by smallest output and then
    by (i, j): a sweep over every pivot lists them once, and the products
    that can touch pivot p's generators, those with an output at or below
    p - 1, are the prefix `_reaching` cuts."""
    products = [(i, j, outputs) for i, row in enumerate(alg.sparse_table) for j, outputs in enumerate(row) if outputs]
    return sorted(products, key=_smallest_output)


def _smallest_output(product):
    return product[2][0][0]


def _reaching(products, q):
    """The prefix of `_nonzero_products` with an output at or below q."""
    return products[: bisect_right(products, q, key=_smallest_output)]


def _pivot_system(products, p):
    """`pivot_system` for pivot p from `_nonzero_products`.

    Each generator is summed on short keys, the sorted a-indices of a
    term, and each key becomes its exponent tuple once per pivot; the
    generators leave with exact coefficients and their total degree, the
    length of their longest key."""
    variables = _pivot_variables(p)
    q = p - 1  # 0-based pivot column; variable a_{m+1} has index m < q
    pending = {}  # (i, j) -> {sorted a-indices: coefficient} of generator phi(h_i h_j)
    keys = {}  # a-indices in the order summed -> sorted

    def phi(outputs):
        """phi(e_r e_s) as (a-indices, coefficient) terms, given the nonzero
        coordinates of e_r e_s."""
        return [((k,), -c) if k < q else ((), c) for k, c in outputs if k <= q]

    def add(i, j, factors, form):
        """Add a_(factors) * form to generator (i, j)."""
        terms = pending.setdefault((i, j), {})
        for key, c in form:
            if factors:
                raw = factors + key
                key = keys.get(raw)
                if key is None:
                    key = keys[raw] = tuple(sorted(raw))
            terms[key] = terms.get(key, 0) + c

    for i, j, outputs in _reaching(products, q):
        form = phi(outputs)
        if i != q and j != q:
            add(i, j, (), form)
        elif i != q:
            for m in range(q):
                add(i, m, (m,), form)
        elif j != q:
            for m in range(q):
                add(m, j, (m,), form)
        else:
            for m in range(q):
                for m2 in range(q):
                    add(m, m2, (m, m2), form)
    exponents = {}  # sorted a-indices -> exponent tuple of their product
    generators = []
    for ij in sorted(pending):
        terms = {}
        degree = 0
        for key, c in pending[ij].items():
            if not c:
                continue
            e = exponents.get(key)
            if e is None:
                e = [0] * q
                for m in key:
                    e[m] += 1
                e = exponents[key] = tuple(e)
            terms[e] = exact(c)
            if len(key) > degree:
                degree = len(key)
        if terms:
            generators.append(Poly._from_exact(variables, terms, degree))
    return variables, tuple(generators)


def _linear_rows(table, products, p):
    """The generators of pivot p that are linear by construction, as
    `eliminate` rows {m: coefficient of a_(m+1), p - 1: constant term}
    keyed by the basis pair (i, j) of phi(h_i h_j), summed straight from
    `table` (`Algebra.sparse_table`) and `_nonzero_products`' products;
    a row may hold zeros, and one whose entries all vanish is a generator
    that cancels to zero.  None when no row has a constant term: the origin
    then solves them, so they leave the pivot open.

    With q = p - 1, generator phi(h_i h_j) has a term of degree above 1
    only if e_i e_q (when j < q) or e_q e_j (when i < q) has an output
    below q, or e_q e_q (when i, j < q) one at or below q.  Every other
    generator is linear: phi(e_i e_j), plus c a_j for the output c e_q of
    e_i e_q when j < q, plus c a_i for that of e_q e_j when i < q.  Only
    phi(e_i e_j) has a constant term, so those terms are summed first.
    """
    q = p - 1
    top = table[q]  # e_q e_j
    square = bool(top[q]) and top[q][0][0] <= q  # rows (m < q, m2 < q) not linear
    rows = {}
    for i, j, outputs in _reaching(products, q):
        if i == q or j == q:
            continue
        if j < q and (i < q and square or table[i][q] and table[i][q][0][0] < q):
            continue  # e_q e_q at or below q, or e_i e_q below q
        if i < q and top[j] and top[j][0][0] < q:
            continue  # e_q e_j below q
        rows[i, j] = {k: -c if k < q else c for k, c in outputs if k <= q}
    if not any(q in row for row in rows.values()):
        return None
    column = [row[q] for row in table]  # e_i e_q
    left = [bool(out) and out[0][0] < q for out in column]  # rows (i, m < q) not linear
    right = [bool(out) and out[0][0] < q for out in top]  # rows (m < q, j) not linear
    for s in range(len(table)):
        if s == q or s < q and square:
            continue
        if column[s] and column[s][0][0] == q:  # c a_m in row (s, m)
            c = column[s][0][1]
            for m in range(q):
                if not (s < q and right[m]):
                    row = rows.setdefault((s, m), {})
                    row[m] = row.get(m, 0) + c
        if top[s] and top[s][0][0] == q:  # c a_m in row (m, s)
            c = top[s][0][1]
            for m in range(q):
                if not (s < q and left[m]):
                    row = rows.setdefault((m, s), {})
                    row[m] = row.get(m, 0) + c
    return rows


@dataclass(frozen=True)
class PivotCase:
    pivot: int
    variables: tuple
    groebner: object           # GroebnerBasis, or None on budget failure
    solutions: object          # SolutionSet, or None on budget failure
    subalgebras: tuple         # verified Subspaces, solution order
    error: object = None       # BudgetExceededError when the pivot failed
    products: object = field(default=(), compare=False, repr=False)  # the sweep's, for `ideal`
    generators: object = field(default=None, compare=False, repr=False)  # when the pivot built them

    @cached_property
    def ideal(self):
        """The closure generators (`pivot_system`): `generators` if the
        pivot built them, else built from `products` on first read."""
        if self.generators is not None:
            return self.generators
        return _pivot_system(self.products, self.pivot)[1]


@dataclass(frozen=True)
class Codim1Report:
    algebra_dim: int
    cases: tuple

    @property
    def subalgebras(self):
        """Every case's subalgebras, pivots ascending then lex solution order."""
        return tuple(sub for c in self.cases for sub in c.subalgebras)

    @property
    def budget_errors(self):
        return tuple(c.error for c in self.cases if c.error is not None)


def codim1_subalgebras(alg: Algebra, max_reductions=MAX_REDUCTIONS) -> Codim1Report:
    """Search every pivot case; verify every rational solution.

    Each pivot is first decided from its generators that are linear by
    construction (`_linear_rows`): if they are inconsistent, its ideal is
    (1), and its full system is built only if `PivotCase.ideal` is read.
    Otherwise the full system goes to the Groebner engine.
    `max_reductions` caps each pivot's whole solve, its basis and the root
    extraction from it; a pivot decided by its linear rows spends their
    rank.  A budget failure in one pivot is recorded on that case and the
    sweep continues; every returned subspace passes verify_subalgebra.
    """
    n = alg.dim
    cases = []
    products = _nonzero_products(alg)
    for p in range(1, n + 1):
        gens = gb = None
        try:
            rows = _linear_rows(alg.sparse_table, products, p)
            if rows is not None:
                variables = _pivot_variables(p)
                gb = unit_basis_of_linear(rows.values(), variables, max_reductions)
            if gb is None:  # the generators' own tuple: ring checks then match by identity
                variables, gens = _pivot_system(products, p)
                gb = buchberger(gens, variables=variables, max_reductions=max_reductions)
            sols = solve_rational(gb)
        except BudgetExceededError as exc:
            cases.append(PivotCase(p, variables, None, None, (), exc, products, gens))
            continue
        subs = []
        for point in sols.points:
            sub = Subspace.from_spanning(n, hyperplane_basis(n, p, point))
            if not verify_subalgebra(alg, sub):  # pragma: no cover - solver guarantee
                raise RuntimeError(f"pivot {p}: solution fails closure re-verification")
            subs.append(sub)
        cases.append(PivotCase(p, variables, gb, sols, tuple(subs), None, products, gens))
    return Codim1Report(n, tuple(cases))
