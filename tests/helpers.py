"""Dense reference constructions that the tests compare the package against.

None of these has a caller in the package: each is the plain, direct
version of something the package computes another way (left and right
multiplication for `MultilinearOp.partial`, the unit for `zoo.find_unit`,
W(n) product by product for `wn.build_wn`'s closed form, the slot-by-slot
insertion loop for `multiops`' cached layouts, the scatter loop for
`Algebra.mul_sparse`, the whole-expression evaluator for the identity
engine's defect pulled one coordinate at a time, the witness search that
substitutes every candidate value, 0 included, into the whole polynomial,
a polynomial's value for the Groebner solver, the pairwise scan that
`poly._distinct` replaced with a hash key, the per-variable substitution
and the distinct-first basis that `poly._groebner`'s linear round
replaced, the exponent-keyed pivot system that `codim1._pivot_system`
replaced, the codim1 sweep that built and solved every pivot's full system
before the linear rows decided pivots first, the elimination that reduced every row in full before
`linalg.eliminate` dropped the unknowns pinned to zero, the in-place
reduction that `Subspace.coordinates` replaced with `solve_columns`,
the columns [E_rs, P] that `derivations._leibniz_rows` replaced and the
Der(A) solved from them, the `kantor_bracket` columns [L_z, P] and targets
[[L_a, P], L_b] that `conservative._bracket_system` replaced and the
conservativity, Jacobi space, quasi-units and tensor route solved from
them, the triple bracket [[[P, x], P], P] multiplied out as an identity
under each reading of [P, x] for `conservative.is_terminal`'s brackets,
the dense matrix arithmetic that arity-1 `MultilinearOp`s
replaced, the one-variable substitution that `Poly.substitute` now leaves
to `poly._substitute_all`, the grid hyperplane oracle of
`scripts/codim1_grid_check.py`, and the dense routes that sparse
`algebra.basis_products` rows replaced: `mul_vec` products re-spanned for
the derived series, generated subalgebras and induced tables, and
`as_matrix` for the inner derivations, and the library JSON writer that
`storage.dumps_json` replaced), or a view the tests use to state what they
check.
"""

import json
from collections import defaultdict, deque
from fractions import Fraction
from itertools import combinations, product
from math import gcd, lcm

from kantor import codim1
from kantor.algebra import Algebra, verify_subalgebra
from kantor.codim1 import Codim1Report, PivotCase, hyperplane_basis
from kantor.conservative import TERMINAL_CONVENTIONS, ConservativityVerdict, InfeasibilityWitness, jacobi_space
from kantor.derivations import DerivationAlgebra
from kantor.errors import BudgetExceededError, DimensionMismatchError, NotClosedError
from kantor.identities import Prod, Sum, Var, _fields, identity
from kantor.linalg import (
    F0,
    F1,
    AffineSolutionSet,
    Echelon,
    Matrix,
    Subspace,
    _add_multiple,
    _exact,
    _sparse,
    frac,
    fredholm_certificate,
    solve_columns,
    unit_vec,
    vec,
)
from kantor.multiops import MultilinearOp, kantor_bracket
from kantor.poly import (
    MAX_REDUCTIONS,
    Poly,
    _distinct,
    _interreduce,
    _linear_bindings,
    buchberger,
    normal_form,
    s_polynomial,
    solve_rational,
)
from kantor.wn import wn_basis_labels, wn_product


def left_mul_operator(alg: Algebra, a) -> Matrix:
    """Matrix of x -> a x; column j holds the coordinates of a e_j."""
    av = vec(a)
    return Matrix.from_rows(zip(*(alg.mul_vec(av, unit_vec(alg.dim, j)) for j in range(alg.dim))))


def right_mul_operator(alg: Algebra, a) -> Matrix:
    """Matrix of x -> x a; column j holds the coordinates of e_j a."""
    av = vec(a)
    return Matrix.from_rows(zip(*(alg.mul_vec(unit_vec(alg.dim, j), av) for j in range(alg.dim))))


def opposite(alg: Algebra) -> Algebra:
    """The algebra with product x . y = y x."""
    return Algebra(alg.basis_names, tuple(zip(*alg.sparse_table)))


def rename(alg: Algebra, names) -> Algebra:
    return Algebra(tuple(names), alg.sparse_table)


def wn_by_bracket(n: int) -> Algebra:
    """W(n) with every basis product computed by `wn_product` on the
    coordinate operations a_ij^k and read back into coordinates."""
    ops = [MultilinearOp(2, n, {((i, j), k): F1}) for k in range(n) for i in range(n) for j in range(n)]
    products = {
        (a, b): {(k * n + i) * n + j: c for ((i, j), k), c in wn_product(x, y).coeffs.items()}
        for a, x in enumerate(ops)
        for b, y in enumerate(ops)
    }
    return Algebra.from_products(n**3, products, wn_basis_labels(n))


def insertion_by_slots(a: MultilinearOp, b: MultilinearOp) -> MultilinearOp:
    """The shuffle insertion a . b term by term: for each increasing subset
    S of the result variables feeding b (for an arity-0 b, each slot of a),
    every matching pair of entries fills the result's inputs slot by slot."""
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
    for S in combinations(range(m), q):
        singles = [i for i in range(m) if i not in S]
        keys = sorted(singles + [m + 1], key=lambda t: S[-1] if t == m + 1 else t)
        block_slot = keys.index(m + 1)
        for (u, out), ca in a.coeffs.items():
            for v, cb in by_out.get(u[block_slot], ()):
                w = [0] * m
                for j, pos in enumerate(S):
                    w[pos] = v[j]
                for slot, pos in enumerate(singles):
                    w[pos] = u[slot if slot < block_slot else slot + 1]
                acc[(tuple(w), out)] += ca * cb
    return MultilinearOp(m, a.dim, acc)


def mul_by_scatter(alg: Algebra, a, b):
    """The product of two sparse rows {i: c}: for each pair of coordinates
    (i, j), x * y times each constant of e_i e_j scattered into its output
    k; zeros dropped."""
    out = {}
    for i, x in a.items():
        for j, y in b.items():
            for k, c in alg.sparse_table[i][j]:
                out[k] = out.get(k, 0) + x * y * c
    return {k: c for k, c in out.items() if c}


def find_nonvanishing(terms, width, shifts):
    """The point, {symbol: Fraction}, that the identity engine's witness
    search finds on the packed polynomial {monomial: coefficient}, symbol s
    having the `width`-bit field at bit shifts[s]: each symbol the
    polynomial uses, in increasing order, takes the first of 0, 1, -1, 2,
    -2, 3 that leaves it nonzero, the whole polynomial substituted for each
    value tried."""
    used = 0
    for m in terms:
        used |= m
    assignment = {}
    for s, shift in enumerate(shifts):
        if not used >> shift & (1 << width) - 1:
            continue
        for c in (0, 1, -1, 2, -2, 3):
            fixed = {}
            for m, coeff in terms.items():
                e = m >> shift
                rest = m - (e << shift)
                fixed[rest] = fixed.get(rest, 0) + coeff * c**e
            fixed = {m: coeff for m, coeff in fixed.items() if coeff}
            if fixed:
                assignment[s] = Fraction(c)
                terms = fixed
                break
        else:
            raise RuntimeError("no non-vanishing point found")
    return assignment


def typed(vector):
    """A vector {coordinate: {monomial: coeff}} with each coefficient paired
    with its type, so that comparing two compares int against Fraction."""
    return {k: {m: (type(c), c) for m, c in terms.items()} for k, terms in vector.items()}


def _pruned(vector):
    out = {}
    for k, terms in vector.items():
        terms = {m: c for m, c in terms.items() if c}
        if terms:
            out[k] = terms
    return out


def expand_whole(node, env, alg: Algebra, bracket: Algebra = None):
    """The value of an identity's expression over the vectors in env, every
    node built whole: the products and variables reached from it through
    sums are scattered into one vector, each times f, the product of the sum
    coefficients on the way, made exact at each step as the identity engine
    makes it; a product's operands are built whole first.  Zeros are
    dropped from a whole node's value only, so a coefficient is a Fraction
    exactly where one of its terms has a Fraction factor, as in the
    engine."""
    acc = {}
    _scatter_whole(acc, node, 1, env, alg, bracket)
    return _pruned(acc)


def _scatter_whole(acc, node, f, env, alg, bracket):
    """Add f * node into acc, as `expand_whole` says."""
    if isinstance(node, Sum):
        for coeff, arg in node.terms:
            _scatter_whole(acc, arg, _exact(f * _exact(coeff)), env, alg, bracket)
    elif isinstance(node, Var):
        for k, terms in env[node.name].items():
            row = acc.setdefault(k, {})
            for m, x in terms.items():
                row[m] = row.get(m, 0) + f * x
    else:
        left = expand_whole(node.left, env, alg, bracket)
        right = expand_whole(node.right, env, alg, bracket)
        table = (alg if isinstance(node, Prod) else bracket).sparse_table
        for i, u in left.items():
            for j, v in right.items():
                for k, c in table[i][j]:
                    row = acc.setdefault(k, {})
                    for m1, x in u.items():
                        for m2, y in v.items():
                            row[m1 + m2] = row.get(m1 + m2, 0) + f * c * x * y


def generic_env(alg: Algebra, ident):
    """Each free variable of ident as a generic vector over alg, its
    coordinates packed as the identity engine packs them."""
    n = alg.dim
    _, shifts = _fields(ident, n)
    return {v: {i: {1 << shifts[t * n + i]: 1} for i in range(n)} for t, v in enumerate(ident.variables)}


def whole_defect(alg: Algebra, ident, bracket: Algebra = None):
    """The generic defect of ident, expanded whole by `expand_whole`."""
    return expand_whole(ident.expr, generic_env(alg, ident), alg, bracket)


def matrix_unit(k: int):
    """Coordinates of the identity matrix in the k x k matrix-units basis."""
    return tuple(F1 if i % k == i // k else F0 for i in range(k * k))


# -- dense matrices: the arithmetic that `linalg.Matrix` leaves to arity-1
# `MultilinearOp`s, kept here as the tests' independent reference ----------


def identity_matrix(n: int) -> Matrix:
    return Matrix.from_rows([unit_vec(n, i) for i in range(n)])


def zero_matrix(rows: int, cols: int) -> Matrix:
    return Matrix.from_rows([[0] * cols] * rows)


def mat_row(m: Matrix, i: int):
    return m.entries[i * m.cols : (i + 1) * m.cols]


def mat_col(m: Matrix, j: int):
    return m.entries[j :: m.cols]


def row_list(m: Matrix):
    return [list(mat_row(m, i)) for i in range(m.rows)]


def mat_apply(m: Matrix, v):
    """m times the coordinate column v."""
    return tuple(dot(mat_row(m, i), vec(v)) for i in range(m.rows))


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    return Matrix.from_rows([[dot(mat_row(a, i), mat_col(b, j)) for j in range(b.cols)] for i in range(a.rows)])


def mat_combination(coeffs, matrices) -> Matrix:
    """sum_i coeffs[i] * matrices[i], all of one shape."""
    first = matrices[0]
    entries = [F0] * (first.rows * first.cols)
    for c, m in zip(coeffs, matrices):
        entries = [x + frac(c) * y for x, y in zip(entries, m.entries)]
    return Matrix(first.rows, first.cols, tuple(entries))


def commutator(a: Matrix, b: Matrix) -> Matrix:
    """ab - ba."""
    return mat_combination((1, -1), (mat_mul(a, b), mat_mul(b, a)))


def zero_vec(n: int):
    return (F0,) * n


def sub_vec(x, y):
    return tuple(a - b for a, b in zip(x, y))


def dot(x, y):
    return sum((a * b for a, b in zip(x, y)), F0)


def pair(y, column):
    """A sparse functional ``{label: value}`` applied to a sparse column."""
    return sum(y[label] * c for label, c in column.items() if label in y)


def same_set(a, b) -> bool:
    """Whether two `AffineSolutionSet`s describe the same set of solutions."""
    if a.feasible != b.feasible:
        return False
    if not a.feasible:
        return a.kernel == b.kernel
    return a.kernel == b.kernel and a.kernel.contains(sub_vec(a.particular, b.particular))


def evaluate(p, assignment):
    """Value of a `Poly` at {variable: rational}; unbound variables are 0."""
    vals = [frac(assignment.get(v, 0)) for v in p.variables]
    out = F0
    for e, c in p.terms.items():
        t = c
        for x, v in zip(e, vals):
            if x:
                t *= v**x
        out += t
    return out


def machine_form(p):
    """A `Poly`'s exponent-vector/coefficient pairs, lex-descending."""
    return [{"exponents": list(e), "coeff": str(c)} for e, c in p.sorted_terms()]


def distinct_pairwise(gens):
    """The nonzero generators, dropping each scalar multiple of one kept,
    found by cross-multiplying against every kept generator of the same
    support."""
    kept = {}  # support -> the kept generators with that support
    out = []
    for g in gens:
        if not g:
            continue
        same = kept.setdefault(frozenset(g.terms), [])
        e0 = next(iter(g.terms))
        if not any(
            all(c * h.terms[e0] == h.terms[e] * g.terms[e0] for e, c in g.terms.items())
            for h in same
        ):
            same.append(g)
            out.append(g)
    return out


def substitute_one(p, name, value):
    """p with one variable replaced by a rational or by a polynomial of p's
    ring, through the powers of the value, term by term."""
    value = p._coerce(value)
    i = p.variables.index(name)
    top = max((e[i] for e in p.terms), default=0)
    if not top:
        return p
    powers = [Poly.const(1, p.variables)]
    for _ in range(top):
        powers.append(powers[-1] * value)
    terms = {}
    for e, c in p.terms.items():
        rest = e[:i] + (0,) + e[i + 1:]
        for pe, pc in powers[e[i]].terms.items():
            t = tuple(x + y for x, y in zip(rest, pe))
            terms[t] = terms.get(t, 0) + c * pc
    return Poly(p.variables, terms)


def substitute_each(p, values):
    """p with each variable of `values` that p uses replaced by its value,
    one `substitute_one` per variable."""
    for v in p.support_variables() & values.keys():
        p = substitute_one(p, v, values[v])
    return p


def labelled_pivot_system(products, p):
    """`codim1._pivot_system` summed straight on exponent tuples: each
    nonzero generator phi(h_i h_j) by the public `Poly` constructor, keyed
    (i, j) in ascending order."""
    variables = tuple(f"a{j}" for j in range(1, p))
    q = p - 1
    monomials = {}
    pending = {}

    def phi(outputs):
        return [((k,), -c) if k < q else ((), c) for k, c in outputs if k <= q]

    def add(i, j, factors, form):
        terms = pending.setdefault((i, j), {})
        for key, c in form:
            key = factors + key
            e = monomials.get(key)
            if e is None:
                e = [0] * q
                for m in key:
                    e[m] += 1
                e = monomials[key] = tuple(e)
            terms[e] = terms[e] + c if e in terms else c

    for i, j, outputs in products:
        form = phi(outputs)
        if not form:
            continue
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
    generators = {}
    for key in sorted(pending):
        g = Poly(variables, pending[key])
        if g:
            generators[key] = g
    return generators


def pivot_system_by_exponents(products, p):
    """`codim1._pivot_system` as `labelled_pivot_system` sums it."""
    return tuple(f"a{j}" for j in range(1, p)), tuple(labelled_pivot_system(products, p).values())


def codim1_in_full(alg: Algebra, max_reductions=MAX_REDUCTIONS) -> Codim1Report:
    """`codim1.codim1_subalgebras` building every pivot's full system
    (`codim1._pivot_system`, looked up at each call) and solving it with
    `buchberger`, whatever its linear rows say."""
    n = alg.dim
    cases = []
    products = codim1._nonzero_products(alg)
    for p in range(1, n + 1):
        variables, gens = codim1._pivot_system(products, p)
        try:
            gb = buchberger(gens, variables=variables, max_reductions=max_reductions)
            sols = solve_rational(gb)
        except BudgetExceededError as exc:
            cases.append(PivotCase(p, variables, None, None, (), exc, generators=gens))
            continue
        subs = tuple(Subspace.from_spanning(n, hyperplane_basis(n, p, point)) for point in sols.points)
        assert all(verify_subalgebra(alg, sub) for sub in subs)
        cases.append(PivotCase(p, variables, gb, sols, subs, generators=gens))
    return Codim1Report(n, tuple(cases))


def linear_prepass_distinct_first(gens, budget):
    """The linear pre-pass over generators no two of which are scalar
    multiples, substituting one variable at a time."""
    bindings = []
    while gens:
        variables = gens[0].variables
        linear = [g for g in gens if g.total_degree() <= 1]
        if not linear:
            break
        values = _linear_bindings(linear, variables, budget)
        if values is None:
            return [Poly.const(1, variables)]
        substituted = []
        for g in gens:
            if g.total_degree() > 1:
                s = substitute_each(g, values)
                budget.check_degree(s)
                substituted.append(s)
        gens = _distinct(substituted)
        bindings = [substitute_each(b, values) for b in bindings]
        bindings += [Poly.var(v, variables) - value for v, value in values.items()]
    return bindings + gens


def groebner_distinct_first(polys, variables, budget):
    """`poly._groebner` with the scalar multiples dropped before the degree
    check and the linear pre-pass."""
    polys = _distinct(polys)
    for p in polys:
        budget.check_degree(p)
    basis = linear_prepass_distinct_first(polys, budget)
    basis = [g.monic() for g in basis if not g.is_zero()]
    if any(g.is_constant() for g in basis):
        return (Poly.const(1, variables),)
    pairs = deque(combinations(range(len(basis)), 2))
    while pairs:
        i, j = pairs.popleft()
        f, g = basis[i], basis[j]
        ef, _ = f.leading()
        eg, _ = g.leading()
        if all(a == 0 or b == 0 for a, b in zip(ef, eg)):
            continue
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


def eliminate_in_full(rows, cols: int) -> Echelon:
    """`linalg.eliminate` reducing every row by every pivot row it holds,
    the single-entry ones included."""
    pivot_rows = {}
    holders = defaultdict(set)  # unknown column -> pivots whose rows hold it
    inconsistent = set()
    for row in rows:
        row = {c: _exact(x) for c, x in row.items() if x}
        for c in [c for c in row if c in pivot_rows]:
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
        pivot_rows[p] = row
    pivots = tuple(sorted(pivot_rows))
    return Echelon(cols, pivots, tuple(pivot_rows[p] for p in pivots), frozenset(inconsistent))


def coordinates_by_reduction(s: Subspace, v):
    """`Subspace.coordinates` reducing v in place by the RREF rows: each
    basis row is the only one nonzero in its pivot column, and zero before
    it, so v's pivot entries are its coordinates."""
    v = list(vec(v))
    if len(v) != s.ambient_dim:
        raise DimensionMismatchError.of(s.ambient_dim, len(v))
    coords = tuple(v[p] for p in s.pivot_columns)
    for c, row, p in zip(coords, s.basis, s.pivot_columns):
        if c:
            for k in range(p, s.ambient_dim):
                if row[k]:
                    v[k] -= c * row[k]
    if any(v):
        return None
    return coords


def derivation_columns(alg: Algebra) -> list:
    """The columns [E_rs, P] of D -> [D, P], column r*n + s for the entry
    D[r][s], in closed form: each nonzero c_ijk and each t give +c at
    ((i, j), t) in column t*n + k, -c at ((t, j), k) in column i*n + t and
    -c at ((i, t), k) in column j*n + t, keyed as `kantor_bracket` keys its
    coefficients.  Entries that cancel stay as zeros.
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


def derivation_algebra_by_columns(alg: Algebra) -> DerivationAlgebra:
    """Der(A) as the kernel of `solve_columns` over `derivation_columns`,
    with its Lie table solved as `derivations.derivation_algebra` solves it."""
    n = alg.dim
    ker = solve_columns(derivation_columns(alg)).kernel()
    basis = tuple(Matrix(n, n, v) for v in ker.basis)
    k = len(basis)
    ops = [MultilinearOp.from_matrix(d) for d in basis]
    brackets = [kantor_bracket(ops[i], ops[j]).coeffs for i in range(k) for j in range(k)]
    system = solve_columns([op.coeffs for op in ops], brackets)
    products = {divmod(idx, k): dict(enumerate(system.solution(k + idx))) for idx in range(k * k)}
    lie = Algebra.from_products(k, products, names=[f"D{i + 1}" for i in range(k)])
    return DerivationAlgebra(n, basis, ker, lie)


def bracket_columns(alg: Algebra):
    """P, the operations L_{e_z} = P.partial(e_z), and the columns
    [L_{e_z}, P] of z -> [L_z, P], each a `kantor_bracket`."""
    P = MultilinearOp.from_algebra(alg)
    L = [P.partial(unit_vec(alg.dim, z)) for z in range(alg.dim)]
    return P, L, [kantor_bracket(Lz, P) for Lz in L]


def bracket_targets(alg: Algebra) -> list:
    """The targets [[L_a, P], L_b], a*n + b ascending, each a `kantor_bracket`."""
    _, L, inner = bracket_columns(alg)
    return [kantor_bracket(Ia, Lb) for Ia in inner for Lb in L]


def _terminal_identity(convention: str):
    """[[[P, x], P], P](y, z, w) multiplied out, each bracket in `multiops`'
    insertion order: t = [[P, x], P] and t . P - P . t."""

    def t(a, b):
        value = f"x*(({a})*({b})) - (x*({a}))*({b}) - ({a})*(x*({b}))"
        if convention == "sym":
            value += f" + (({a})*({b}))*x - (({a})*x)*({b}) - ({a})*(({b})*x)"
        return f"({value})"

    return identity(
        f"terminal_{convention}",
        ("x", "y", "z", "w"),
        f"{t('y*z', 'w')} + {t('z', 'y*w')} + {t('y', 'z*w')}"
        f" - {t('y', 'z')}*w - z*{t('y', 'w')} - y*{t('z', 'w')}",
    )


# `conservative.is_terminal` under each element-bracket reading, as an
# identity of degree 4 in 4 variables.
TERMINAL_IDENTITIES = {c: _terminal_identity(c) for c in TERMINAL_CONVENTIONS}


def conservativity_by_brackets(alg: Algebra) -> ConservativityVerdict:
    """`conservative.conservativity` solved over `bracket_columns` and
    `bracket_targets`, keyed ``((x, y), o)`` throughout."""
    n = alg.dim
    columns = [op.coeffs for op in bracket_columns(alg)[2]]
    targets = [op.coeffs for op in bracket_targets(alg)]
    system = solve_columns(columns, targets)
    kernel = system.kernel()
    if system.inconsistent:
        a, b = divmod(min(system.inconsistent) - n, n)
        target = targets[a * n + b]
        witness = InfeasibilityWitness(a, b, target, fredholm_certificate(columns, target))
        return ConservativityVerdict(False, None, kernel, witness)
    coeffs = {}
    for k, row in zip(system.pivots, system.rows):
        for col, c in row.items():
            if col >= n:
                coeffs[(divmod(col - n, n), k)] = c
    return ConservativityVerdict(True, MultilinearOp(2, n, dict(sorted(coeffs.items()))), kernel)


def jacobi_space_by_brackets(alg: Algebra) -> Subspace:
    return solve_columns([op.coeffs for op in bracket_columns(alg)[2]]).kernel()


def quasi_units_by_brackets(alg: Algebra) -> AffineSolutionSet:
    P, _, inner = bracket_columns(alg)
    columns, target = [op.coeffs for op in inner], (-P).coeffs
    system = solve_columns(columns, [target])
    particular = system.solution(alg.dim)
    certificate = None if particular is not None else fredholm_certificate(columns, target)
    return AffineSolutionSet(particular, system.kernel(), certificate)


def verify_associated_by_brackets(alg: Algebra, f: MultilinearOp) -> bool:
    """The tensor route of `conservative.verify_associated`:
    [L_b, [L_a, P]] == -sum_z F(a,b)_z [L_z, P] for every basis pair."""
    n = alg.dim
    _, L, inner = bracket_columns(alg)
    for a in range(n):
        for b in range(n):
            acc = defaultdict(int)
            for z in range(n):
                w = f.coeffs.get(((a, b), z))
                if w:
                    for key, c in inner[z].coeffs.items():
                        acc[key] -= w * c
            if kantor_bracket(L[b], inner[a]) != MultilinearOp(2, n, acc):
                return False
    return True


def as_matrix(op: MultilinearOp) -> Matrix:
    """An arity-1 operation's dense matrix, every cell read through `coeff`:
    row i, column j holds the coefficient of e_i in op(e_j)."""
    if op.arity != 1:
        raise ValueError("not an arity-1 operation")
    return Matrix.from_rows([[op.coeff((j,), i) for j in range(op.dim)] for i in range(op.dim)])


def dense_basis_products(alg: Algebra, rows) -> list:
    """Every product of two dense rows by `mul_vec`; rows[i] rows[j] comes
    at index i * len(rows) + j."""
    return [alg.mul_vec(a, b) for a in rows for b in rows]


def dense_derived_series(da: DerivationAlgebra) -> list:
    """The dimensions of g, [g,g], ... until they stabilize, each step the
    span of the dense products of the last step's basis, from the whole
    space on."""
    lie = da.lie
    dims = [lie.dim]
    current = Subspace.full(lie.dim)
    while True:
        nxt = Subspace.from_spanning(lie.dim, dense_basis_products(lie, current.basis))
        if nxt.dim == current.dim:
            return dims
        dims.append(nxt.dim)
        current = nxt


def dense_inner_derivations(alg: Algebra) -> Subspace:
    """The span of every L_a over the Jacobi space, each L_a read off
    `MultilinearOp.partial` as a dense `as_matrix`."""
    p = MultilinearOp.from_algebra(alg)
    vecs = [as_matrix(p.partial(v)).entries for v in jacobi_space(alg).basis]
    return Subspace.from_spanning(alg.dim * alg.dim, vecs)


def dense_generated_subalgebra(alg: Algebra, generators) -> Subspace:
    """The span of the generators, grown by every dense product outside it
    until none is."""
    current = Subspace.from_spanning(alg.dim, [vec(g) for g in generators])
    while True:
        extra = [p for p in dense_basis_products(alg, current.basis) if not current.contains(p)]
        if not extra:
            return current
        current = Subspace.from_spanning(alg.dim, list(current.basis) + extra)


def dense_induced_algebra(alg: Algebra, s: Subspace, names=None) -> Algebra:
    """The product restricted to s in its RREF basis, every product dense;
    the first product outside s raises `NotClosedError` with it."""
    rows = list(s.basis)
    k = len(rows)
    products = dense_basis_products(alg, rows)
    system = solve_columns([_sparse(r) for r in rows], [_sparse(p) for p in products])
    table = {}
    for idx, product in enumerate(products):
        coords = system.solution(k + idx)
        if coords is None:
            raise NotClosedError(*divmod(idx, k), product)
        table[divmod(idx, k)] = dict(enumerate(coords))
    return Algebra.from_products(k, table, names)


def _primitive_normal(v):
    """The primitive integer multiple of a nonzero rational vector whose
    first nonzero entry is positive."""
    den = lcm(*(Fraction(c).denominator for c in v))
    ints = [int(c * den) for c in v]
    g = gcd(*ints)
    sign = 1 if next(c for c in ints if c) > 0 else -1
    return tuple(sign * c // g for c in ints)


def grid_hyperplane_oracle(alg: Algebra, bound: int = 3):
    """All closed hyperplanes whose normal has coordinates in [-bound, bound].

    Brute-force necessary-condition oracle for small examples: enumerates
    primitive integer normals up to sign, takes each kernel hyperplane, and
    keeps the ones closed under the product.  Exhaustive over the grid, so
    any reported subalgebra with a small normal must appear here too.
    """
    seen = set()
    found = []
    for coords in product(range(-bound, bound + 1), repeat=alg.dim):
        if not any(coords):
            continue
        prim = _primitive_normal(coords)
        if prim in seen:
            continue
        seen.add(prim)
        sub = Subspace.from_spanning(alg.dim, [prim]).orthogonal_complement()
        if verify_subalgebra(alg, sub):
            found.append(sub)
    return found


def normal_vector(sub: Subspace):
    """Primitive integer normal of a hyperplane subspace."""
    if sub.dim != sub.ambient_dim - 1:
        raise ValueError("not a hyperplane")
    (v,) = sub.orthogonal_complement().basis
    return _primitive_normal(v)


def dumps_json_by_library(obj, sort_keys=False) -> str:
    """The writer `storage.dumps_json` replaced: json's own indented dump,
    which runs its pure-Python encoder."""
    return json.dumps(obj, indent=2, sort_keys=sort_keys)
