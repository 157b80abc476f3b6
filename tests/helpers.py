"""Dense reference constructions that the tests compare the package against.

None of these has a caller in the package: each is the plain, direct
version of something the package computes another way (left and right
multiplication for `MultilinearOp.partial`, the unit for `zoo.find_unit`,
a polynomial's value for the Groebner solver, the pairwise scan that
`poly._distinct` replaced with a hash key), or a view the tests use to
state what they check.
"""

from kantor.algebra import Algebra, Element
from kantor.linalg import F0, F1, Matrix, frac, sub_vec, unit_vec, vec


def _coords(a):
    return a.coords if isinstance(a, Element) else vec(a)


def left_mul_operator(alg: Algebra, a) -> Matrix:
    """Matrix of x -> a x; column j holds the coordinates of a e_j."""
    av = _coords(a)
    return Matrix.from_rows([alg.mul_vec(av, unit_vec(alg.dim, j)) for j in range(alg.dim)]).transpose()


def right_mul_operator(alg: Algebra, a) -> Matrix:
    """Matrix of x -> x a; column j holds the coordinates of e_j a."""
    av = _coords(a)
    return Matrix.from_rows([alg.mul_vec(unit_vec(alg.dim, j), av) for j in range(alg.dim)]).transpose()


def opposite(alg: Algebra) -> Algebra:
    """The algebra with product x . y = y x."""
    n = alg.dim
    return Algebra(alg.basis_names, tuple(tuple(alg.table[j][i] for j in range(n)) for i in range(n)))


def rename(alg: Algebra, names) -> Algebra:
    return Algebra(tuple(names), alg.table)


def matrix_unit(k: int):
    """Coordinates of the identity matrix in the k x k matrix-units basis."""
    return tuple(F1 if i % k == i // k else F0 for i in range(k * k))


def row_list(m: Matrix):
    return [list(m.row(i)) for i in range(m.rows)]


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
