"""Deciding conservativity, terminality, Jacobi elements, and quasi-units.

An algebra (V, P) is conservative when a second bilinear product F exists
with

    [L_b, [L_a, P]] = -[L_{F(a,b)}, P]        for all a, b,

where L_x is left multiplication and the bracket is the one from
`multiops`.  Both sides are bilinear in (a, b), so checking basis pairs
decides the general statement, and each pair reduces to a linear system in
the unknown value F(a, b).  The kernel of z -> [L_z, P] measures the
non-uniqueness of F; it coincides with the space of Jacobi elements
(elements whose left multiplication is a derivation).

Every system here is solved over the sparse columns I_z = [L_z, P], one
per unknown z, and the pair equations have the targets
T_ab = [[L_a, P], L_b] = -[L_b, [L_a, P]].  Both are brackets of a
bilinear map B with a left multiplication,

    [B, L_b](x, y) = B(bx, y) + B(x, by) - b B(x, y),

I_z = [-P, L_z] and T_ab = [I_a, L_b], so `_bracket_system` sums both in
that one closed form from the nonzero structure constants.  They are
``{label: coefficient}`` maps whose int label (x*n + y)*n + o names
coordinate o at the basis pair (x, y).  Int labels sort as the
``((x, y), o)`` keys of `MultilinearOp.coeffs` do, so a Fredholm
certificate, solved from the same columns when a system has no solution,
is the one those keys give; it is handed back re-keyed by them, as is a
witness's target.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from .algebra import Algebra
from .identities import defect_coordinates, identity
from .linalg import AffineSolutionSet, Subspace, _exact, fredholm_certificate, solve_columns
from .multiops import MultilinearOp, kantor_bracket


def _bracket_system(alg: Algebra):
    """-P, the columns I_z = [-P, L_z], z ascending, and an iterator of the
    targets T_ab = [I_a, L_b] in pair order a*n + b, the n targets of each
    a built when the first of them is reached; see the module docstring
    for the closed form and the labels.  Each map holds its nonzero
    coefficients only, as `linalg.exact` gives them."""
    n = alg.dim
    minus_p = {}
    right = [[] for _ in range(n)]  # right[j]: each (i, outputs of e_i e_j), nonzero
    for i, row in enumerate(alg.sparse_table):
        for j, outputs in enumerate(row):
            if outputs:
                right[j].append((i, outputs))
                for k, c in outputs:
                    minus_p[(i * n + j) * n + k] = -c
    meets = alg.by_output  # meets[k]: each (i, j, c), c the e_k-coordinate of e_i e_j
    columns = _left_brackets(minus_p, n, right, meets)
    targets = (target for column in columns for target in _left_brackets(column, n, right, meets))
    return minus_p, columns, targets


def _left_brackets(bilinear, n, right, meets):
    """[B, L_b] for b ascending, B a bilinear map labelled as in
    `_bracket_system`: every b's map summed at once from B's nonzeros and
    the nonzero products that meet them."""
    nn = n * n
    brackets = [defaultdict(int) for _ in range(n)]
    for label, d in bilinear.items():
        xy, o = divmod(label, n)
        x, y = divmod(xy, n)
        rest = label - x * nn
        for b, bx, c in meets[x]:  # + B(bx, y)
            brackets[b][bx * nn + rest] += c * d
        rest = label - y * n
        for b, by, c in meets[y]:  # + B(x, by)
            brackets[b][rest + by * n] += c * d
        rest = label - o
        for b, bo in right[o]:  # - b B(x, y)
            bracket = brackets[b]
            for o2, c in bo:
                bracket[rest + o2] -= c * d
    for b, bracket in enumerate(brackets):  # each accumulator freed as it is copied
        brackets[b] = _nonzero(bracket)
    return brackets


def _nonzero(acc) -> dict:
    """acc's nonzero coefficients, as `linalg.exact` gives them."""
    return {label: c if type(c) is int else _exact(c) for label, c in acc.items() if c}


def _keyed(n, coefficients) -> dict:
    """A map labelled (x*n + y)*n + o, keyed ``((x, y), o)`` instead."""
    return {(divmod(label // n, n), label % n): c for label, c in coefficients.items()}


@dataclass(frozen=True)
class ConservativityVerdict:
    conservative: bool
    f: object            # bilinear MultilinearOp, present iff conservative
    kernel: Subspace     # {z : [L_z, P] = 0}, the Jacobi space
    witness: object = None

    def __bool__(self):
        return self.conservative


@dataclass(frozen=True)
class InfeasibilityWitness:
    """Basis pair (a, b) whose bracket equation has no solution.

    `target` is the right-hand side [[L_a, P], L_b] of the failing
    equation and `certificate` a functional y with y.[L_z, P] = 0 for every
    z and y.target = 1, so the unsolvability can be rechecked without
    rerunning the elimination.  Both are sparse maps keyed like
    `MultilinearOp.coeffs`, by ``((x, y), out)`` (re-keyed from the
    system's int labels): the target's exact coefficients, and the
    certificate's nonzero Fractions.
    """

    a: int
    b: int
    target: dict
    certificate: dict


def conservativity(alg: Algebra) -> ConservativityVerdict:
    """Decide Eq.-style conservativity and construct a canonical F.

    For each basis pair the solution with all free variables zero is taken,
    so the returned F is deterministic; adding any kernel element to any
    value of F gives the other valid choices.
    """
    n = alg.dim
    # [L_{F(a,b)}, P] = -[L_b, [L_a, P]] = [[L_a, P], L_b]
    _, columns, targets = _bracket_system(alg)
    targets = list(targets)
    system = solve_columns(columns, targets)
    kernel = system.kernel()
    if system.inconsistent:
        # the first basis pair whose equation has no solution
        a, b = divmod(min(system.inconsistent) - n, n)
        target = targets[a * n + b]
        certificate = fredholm_certificate(columns, target)
        witness = InfeasibilityWitness(a, b, _keyed(n, target), _keyed(n, certificate))
        return ConservativityVerdict(False, None, kernel, witness)
    # F(a, b)_k is the entry of pivot row k in target column n + a n + b,
    # every free coordinate zero
    coeffs = {}
    for k, row in zip(system.pivots, system.rows):
        for col, c in row.items():
            if col >= n:
                coeffs[(divmod(col - n, n), k)] = c
    f = MultilinearOp(2, n, dict(sorted(coeffs.items())))
    return ConservativityVerdict(True, f, kernel)


def jacobi_space(alg: Algebra) -> Subspace:
    """{a : [L_a, P] = 0}, i.e. elements whose left multiplication derives."""
    _, columns, _ = _bracket_system(alg)
    return solve_columns(columns).kernel()


def quasi_units(alg: Algebra) -> AffineSolutionSet:
    """All e with e(xy) = (ex)y + x(ey) - xy, i.e. [L_e, P] = -P.

    The kernel of the homogeneous part is the Jacobi space, so quasi-units
    (when any exist) form a coset of it.
    """
    n = alg.dim
    target, columns, _ = _bracket_system(alg)
    system = solve_columns(columns, [target])
    particular = system.solution(n)
    certificate = None if particular is not None else _keyed(n, fredholm_certificate(columns, target))
    return AffineSolutionSet(particular, system.kernel(), certificate)


# The bracket equation [L_b, [L_a, P]](x, y) = -[L_{F(a,b)}, P](x, y),
# multiplied out, with {a, b} read as F(a, b).
KANTOR_EQUATION = identity(
    "kantor_bracket_equation",
    ("a", "b", "x", "y"),
    "b*(a*(x*y)) - b*((a*x)*y) - b*(x*(a*y))"
    " - a*((b*x)*y) + (a*(b*x))*y + (b*x)*(a*y)"
    " - a*(x*(b*y)) + (a*x)*(b*y) + x*(a*(b*y))"
    " + {a, b}*(x*y) - ({a, b}*x)*y - x*({a, b}*y)",
)


def verify_associated(alg: Algebra, f, cross_check: bool = True) -> bool:
    """Check that f satisfies the bracket equation for every basis pair.

    `f` is a bilinear MultilinearOp on the same space; the zero operation
    encodes F = 0.  The verdict comes from the tensor route:
    T_ab = sum_z F(a,b)_z I_z, that is
    [L_b, [L_a, P]] = -[L_{F(a,b)}, P], for each basis pair in pair order,
    stopping at the first pair where it fails.  The cross-check recomputes
    it through `KANTOR_EQUATION`, the multiplied-out equation, expanded
    over generic vectors a, b, x, y by `identities.defect_coordinates`,
    which stops at the first nonzero coordinate: the equation is
    multilinear, so its defect is empty iff it holds on every basis
    quadruple.  The two routes must agree exactly.  Measured on a 2-core
    x86 machine (Python 3.11), the tensor route takes about 0.0005 s on
    W(2), 0.007 s on W(3) and 0.04-0.05 s on W(4), and the cross-check
    adds about 0.010 s, 0.23-0.27 s and 1.9-2.0 s to them: when the
    equation holds, every coordinate of its defect is built; pass
    cross_check=False to skip it.
    """
    n = alg.dim
    if f.dim != n or f.arity != 2:
        raise ValueError("f must be a bilinear operation on the same space")
    _, columns, targets = _bracket_system(alg)
    f_values = defaultdict(list)  # a*n + b -> the nonzero (z, F(a,b)_z)
    for ((a, b), z), w in f.coeffs.items():
        f_values[a * n + b].append((z, w))

    def f_side(pair):
        # [L_{F(a,b)}, P] = sum_z F(a,b)_z I_z: x -> L_x and the bracket
        # are linear, so the columns I_z already hold it
        acc = defaultdict(int)
        for z, w in f_values[pair]:
            for label, c in columns[z].items():
                acc[label] += w * c
        return _nonzero(acc)

    ok = all(target == f_side(pair) for pair, target in enumerate(targets))
    if cross_check and ok != (next(defect_coordinates(alg, KANTOR_EQUATION, f.as_algebra()), None) is None):
        raise RuntimeError("bracket-equation route and expanded-identity route disagree")
    return ok


TERMINAL_CONVENTIONS = ("sym", "left")

# Pinned by calibration in the test suite: of the two element-bracket
# readings, only "left" makes the commutative-operations algebra built by
# wn.build_w2sym satisfy the triple-bracket identity.
DEFAULT_TERMINAL_CONVENTION = "left"


def is_terminal(alg: Algebra, convention: str = DEFAULT_TERMINAL_CONVENTION) -> bool:
    """True iff [[[P, x], P], P] vanishes for every basis element x.

    [P, e_x] is read as "left", P(x, .), left multiplication by x, or as
    "sym", P(x, .) + P(., x), the literal insertion bracket; one pass over
    P's coefficients files each under its first input x and, for "sym",
    also under its second.
    """
    if convention not in TERMINAL_CONVENTIONS:
        raise ValueError(f"unknown convention {convention!r}; use one of {TERMINAL_CONVENTIONS}")
    P = MultilinearOp.from_algebra(alg)
    brackets = [defaultdict(int) for _ in range(P.dim)]  # x -> the coefficients of [P, e_x]
    for ((x, y), out), c in P.coeffs.items():
        brackets[x][((y,), out)] += c
        if convention == "sym":
            brackets[y][((x,), out)] += c
    for coeffs in brackets:
        t2 = kantor_bracket(MultilinearOp(1, P.dim, coeffs), P)
        t3 = kantor_bracket(t2, P)
        if not t3.is_zero():
            return False
    return True
