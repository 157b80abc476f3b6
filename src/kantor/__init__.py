"""Exact-arithmetic workbench for finite-dimensional nonassociative
algebras presented by structure constants: conservativity and terminality
in the sense of Kantor, derivation algebras, Jacobi elements, quasi-units,
and codimension-1 subalgebra enumeration."""

from .algebra import (
    Algebra,
    annihilator,
    closure_witness,
    generated_subalgebra,
    induced_algebra,
    verify_subalgebra,
)
from .codim1 import Codim1Report, codim1_subalgebras, pivot_system
from .conservative import (
    ConservativityVerdict,
    DEFAULT_TERMINAL_CONVENTION,
    conservativity,
    is_terminal,
    jacobi_space,
    quasi_units,
    verify_associated,
)
from .derivations import (
    DerivationAlgebra,
    derivation_algebra,
    derived_series,
    inner_derivations,
    is_derivation,
    is_solvable,
)
from .identities import (
    Identity,
    IdentityVerdict,
    builtin_identities,
    check_identity,
    check_suite,
    is_nilpotent4,
    parse_expr,
    suite_holds,
)
from .linalg import AffineSolutionSet, Matrix, Subspace
from .multiops import MultilinearOp, insertion_product, kantor_bracket
from .poly import GroebnerBasis, Poly, buchberger, normal_form, solve_rational
from .storage import load_algebra, load_algebra_pair, save_algebra
from .wn import (
    build_h1,
    build_s2,
    build_w2sym,
    build_wn,
    w2sym_associated_F,
    wn_associated_F,
)
from .zoo import FIXTURES, fixture

__all__ = [name for name in dir() if not name.startswith("_")]
