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

Every system here is solved over the sparse columns [L_z, P], one per
unknown z, each a ``{((x, y), out): coefficient}`` map.  When a system has
no solution, its Fredholm certificate is solved from those same columns
and comes back keyed the same way.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from .algebra import Algebra
from .identities import defect_coordinates, identity
from .linalg import AffineSolutionSet, Subspace, fredholm_certificate, solve_columns, unit_vec
from .multiops import MultilinearOp, kantor_bracket


def _left_multiplications(P: MultilinearOp):
    """The operations L_{e_z} = P.partial(e_z) of a bilinear P, z ascending,
    from one grouping of P's coefficients by first input."""
    rows = [{} for _ in range(P.dim)]  # z -> the coefficients of L_{e_z}
    for ((z, y), out), c in P.coeffs.items():
        rows[z][((y,), out)] = c
    return [MultilinearOp(1, P.dim, coeffs) for coeffs in rows]


def _bracket_columns(alg: Algebra):
    """P, the operations L_{e_z}, and the columns [L_{e_z}, P] of z -> [L_z, P]."""
    P = MultilinearOp.from_algebra(alg)
    L = _left_multiplications(P)
    return P, L, [kantor_bracket(Lz, P) for Lz in L]


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
    `MultilinearOp.coeffs`, by ``((x, y), out)``: the target's exact
    coefficients, and the certificate's nonzero Fractions.
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
    _, L, inner = _bracket_columns(alg)
    # [L_{F(a,b)}, P] = -[L_b, [L_a, P]] = [[L_a, P], L_b]
    rhs = [kantor_bracket(inner[a], L[b]) for a in range(n) for b in range(n)]
    columns = [op.coeffs for op in inner]
    system = solve_columns(columns, [op.coeffs for op in rhs])
    kernel = system.kernel()
    if system.inconsistent:
        # the first basis pair whose equation has no solution
        a, b = divmod(min(system.inconsistent) - n, n)
        target = rhs[a * n + b].coeffs
        witness = InfeasibilityWitness(a, b, target, fredholm_certificate(columns, target))
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
    _, _, columns = _bracket_columns(alg)
    return solve_columns([op.coeffs for op in columns]).kernel()


def quasi_units(alg: Algebra) -> AffineSolutionSet:
    """All e with e(xy) = (ex)y + x(ey) - xy, i.e. [L_e, P] = -P.

    The kernel of the homogeneous part is the Jacobi space, so quasi-units
    (when any exist) form a coset of it.
    """
    P, _, inner = _bracket_columns(alg)
    columns, target = [op.coeffs for op in inner], (-P).coeffs
    system = solve_columns(columns, [target])
    particular = system.solution(alg.dim)
    certificate = None if particular is not None else fredholm_certificate(columns, target)
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

    `f` is a bilinear MultilinearOp (or an Algebra over the same space);
    the zero operation encodes F = 0.  The verdict comes from the tensor
    route, [L_b, [L_a, P]] = -[L_{F(a,b)}, P] as operations for each basis
    pair.  The cross-check recomputes it through `KANTOR_EQUATION`, the
    multiplied-out equation, expanded over generic vectors a, b, x, y by
    `identities.defect_coordinates`, which stops at the first nonzero
    coordinate: the equation is multilinear, so its defect is empty iff it
    holds on every basis quadruple.  The two routes must agree exactly.
    Measured on a 2-core x86 machine, the tensor route takes about 0.001 s
    on W(2), 0.02 s on W(3) and 0.13-0.2 s on W(4), and the cross-check
    adds about 0.012 s, 0.25-0.4 s and 1.9-2.6 s (31 MB peak) to them;
    pass cross_check=False to skip it.
    """
    n = alg.dim
    if isinstance(f, Algebra):
        f = MultilinearOp.from_algebra(f)
    if f.dim != n or f.arity != 2:
        raise ValueError("f must be a bilinear operation on the same space")
    _, L, inner = _bracket_columns(alg)
    f_values = defaultdict(list)  # (a, b) -> the nonzero (z, F(a,b)_z)
    for (pair, z), w in f.coeffs.items():
        f_values[pair].append((z, w))

    def minus_f_side(a, b):
        # -[L_{F(a,b)}, P] = -sum_z F(a,b)_z [L_z, P]: x -> L_x and the
        # bracket are linear, so the columns [L_z, P] already hold it
        acc = defaultdict(int)
        for z, w in f_values.get((a, b), ()):
            for key, c in inner[z].coeffs.items():
                acc[key] -= w * c
        return MultilinearOp(2, n, acc)

    ok = all(
        kantor_bracket(L[b], inner[a]) == minus_f_side(a, b)
        for a in range(n)
        for b in range(n)
    )
    if cross_check and ok != (next(defect_coordinates(alg, KANTOR_EQUATION, f.as_algebra()), None) is None):
        raise RuntimeError("bracket-equation route and expanded-identity route disagree")
    return ok


TERMINAL_CONVENTIONS = ("sym", "left")

# Pinned by calibration in the test suite: of the two element-bracket
# readings, only "left" makes the commutative-operations algebra built by
# wn.build_w2sym satisfy the triple-bracket identity.
DEFAULT_TERMINAL_CONVENTION = "left"


def _element_brackets(P: MultilinearOp, convention: str):
    """The arity-1 operations [P, e_x], x ascending.

    Two readings are supported: "sym" inserts e_x into both slots of P
    (P(x,.) + P(.,x), the literal insertion bracket), one x at a time as
    the caller reaches it, and "left" uses only the left slot (P(x,.),
    left multiplication by x), all from one grouping of P.
    """
    if convention == "sym":
        return (kantor_bracket(P, MultilinearOp.from_element(unit_vec(P.dim, x))) for x in range(P.dim))
    if convention == "left":
        return _left_multiplications(P)
    raise ValueError(f"unknown convention {convention!r}; use one of {TERMINAL_CONVENTIONS}")


def is_terminal(alg: Algebra, convention: str = DEFAULT_TERMINAL_CONVENTION) -> bool:
    """True iff [[[P, x], P], P] vanishes for every basis element x."""
    P = MultilinearOp.from_algebra(alg)
    for t1 in _element_brackets(P, convention):
        t2 = kantor_bracket(t1, P)
        t3 = kantor_bracket(t2, P)
        if not t3.is_zero():
            return False
    return True
