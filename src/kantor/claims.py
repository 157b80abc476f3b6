"""Recorded reference values for the classical 2-dimensional-operations
algebras, with audit helpers.

The multiplication tables and structural facts below are transcribed
reference claims about W(2), W2 (= build_w2sym), and S2.  Audits recompute
everything from scratch and report each discrepancy as an erratum finding
carrying both values; they never assert, so a wrong recorded claim shows
up in reports instead of crashing analyses.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import Algebra, closure_witness, format_combination, format_sparse
from .linalg import Matrix, Subspace, unit_vec


@dataclass(frozen=True)
class Erratum:
    """A discrepancy between a recorded claim and the computed truth."""

    subject: str
    claim: str
    computed: str

    def __str__(self):
        return f"[{self.subject}] recorded: {self.claim}; computed: {self.computed}"


# W(2) products, rows e1, e2, e5, e6 as printed; rows e3, e4, e7, e8 are
# zero because those operations kill the distinguished vector.
WN2_RECORDED = {
    (1, 1): {1: -1}, (2, 1): {2: -1, 3: -1}, (5, 1): {5: 1}, (6, 1): {},
    (1, 2): {}, (2, 2): {4: -1}, (5, 2): {1: -1, 6: 1}, (6, 2): {2: -1},
    (1, 3): {}, (2, 3): {4: -1}, (5, 3): {1: -1, 7: 1}, (6, 3): {3: -1},
    (1, 4): {4: 1}, (2, 4): {}, (5, 4): {2: -1, 3: -1, 8: 1}, (6, 4): {4: -2},
    (1, 5): {5: -2}, (2, 5): {1: 1, 6: -1, 7: -1}, (5, 5): {}, (6, 5): {5: 1},
    (1, 6): {6: -1}, (2, 6): {2: 1, 8: -1}, (5, 6): {5: -1}, (6, 6): {},
    (1, 7): {7: -1}, (2, 7): {3: 1, 8: -1}, (5, 7): {5: -1}, (6, 7): {},
    (1, 8): {}, (2, 8): {4: 1}, (5, 8): {6: -1, 7: -1}, (6, 8): {8: -1},
}

# W2 products, rows xi1, xi2, xi4, xi5 as printed; xi3 and xi6 rows zero.
W2SYM_RECORDED = {
    (1, 1): {1: -1}, (2, 1): {2: -1}, (4, 1): {4: 1}, (5, 1): {},
    (1, 2): {}, (2, 2): {3: -2}, (4, 2): {5: 1, 1: -2}, (5, 2): {2: -1},
    (1, 3): {3: 1}, (2, 3): {}, (4, 3): {2: -1, 6: 1}, (5, 3): {3: -2},
    (1, 4): {4: -2}, (2, 4): {1: 1, 5: -1}, (4, 4): {}, (5, 4): {4: 1},
    (1, 5): {5: -1}, (2, 5): {2: 1, 6: -2}, (4, 5): {4: -2}, (5, 5): {},
    (1, 6): {}, (2, 6): {3: 1}, (4, 6): {5: -1}, (5, 6): {6: -1},
}

# S2 products, rows z1, z2, z4 as printed; z3 row zero.
S2_RECORDED = {
    (1, 1): {1: -1}, (2, 1): {2: -2}, (4, 1): {4: 3},
    (1, 2): {2: 1}, (2, 2): {3: -3}, (4, 2): {1: -2},
    (1, 3): {3: 3}, (2, 3): {}, (4, 3): {2: -1},
    (1, 4): {4: -3}, (2, 4): {1: 1}, (4, 4): {},
}

RECORDED_TABLES = {
    "wn2": (8, WN2_RECORDED),
    "w2sym": (6, W2SYM_RECORDED),
    "s2": (4, S2_RECORDED),
    "h1": (4, S2_RECORDED),
}


def recorded_algebra(name: str) -> Algebra:
    """The recorded table of a fixture, as an algebra (labels 1-based)."""
    dim, recorded = RECORDED_TABLES[name]
    products = {
        (i - 1, j - 1): {k - 1: Fraction(c) for k, c in combo.items()}
        for (i, j), combo in recorded.items()
    }
    return Algebra.from_products(dim, products)


def audit_table(alg: Algebra, fixture_name: str):
    """Compare a computed multiplication table against the recorded one."""
    if fixture_name not in RECORDED_TABLES:
        return []
    recorded = recorded_algebra(fixture_name)
    dim = recorded.dim
    errata = []
    if alg.dim != dim:
        return [Erratum(f"{fixture_name} table", f"dim {dim}", f"dim {alg.dim}")]
    names = alg.basis_names
    for i, (expected_row, got_row) in enumerate(zip(recorded.sparse_table, alg.sparse_table)):
        for j, (expected, got) in enumerate(zip(expected_row, got_row)):
            if got != expected:
                errata.append(
                    Erratum(
                        f"{fixture_name}: {names[i]}*{names[j]}",
                        format_sparse(expected, names),
                        format_sparse(got, names),
                    )
                )
    return errata


# Derivation family of W(2) as narrated by the relations in the proof (rows
# D(e_i) = sum_j x_ij e_j).  The displayed matrix is the same family with a
# stray w in row 4, column 2.
def wn2_derivation_relations(z, w) -> Matrix:
    rows = [
        [0, z, z, 0, 0, 0, 0, 0],
        [0, w, 0, z, 0, 0, 0, 0],
        [0, 0, w, z, 0, 0, 0, 0],
        [0, 0, 0, 2 * w, 0, 0, 0, 0],
        [-z, 0, 0, 0, -w, z, z, 0],
        [0, -z, 0, 0, 0, 0, 0, z],
        [0, 0, -z, 0, 0, 0, 0, z],
        [0, 0, 0, -z, 0, 0, 0, w],
    ]
    return Matrix.from_rows(rows).transpose()  # to column-action convention


def wn2_derivation_display(z, w) -> Matrix:
    stray = [[0] * 8 for _ in range(8)]
    stray[3][1] = w
    return wn2_derivation_relations(z, w) + Matrix.from_rows(stray).transpose()


RECORDED_DERIVATION_DIMS = {"wn2": 2, "w2sym": 2, "s2": 0, "h1": 0}


def audit_derivations(fixture_name: str, der) -> list:
    """Compare a computed DerivationAlgebra against the recorded claims."""
    errata = []
    expected = RECORDED_DERIVATION_DIMS.get(fixture_name)
    if expected is not None and der.dim != expected:
        errata.append(
            Erratum(
                f"{fixture_name}: dim Der",
                str(expected),
                f"{der.dim} (basis shown by the derivations command)",
            )
        )
    if fixture_name == "wn2":
        n2 = der.amb_dim * der.amb_dim
        display = Subspace.from_spanning(
            n2,
            [wn2_derivation_display(1, 0).flatten(), wn2_derivation_display(0, 1).flatten()],
        )
        if display != der.subspace:
            errata.append(
                Erratum(
                    "wn2: displayed (z,w) derivation matrix",
                    "its span equals Der(W(2))",
                    "display has a stray w at row 4, column 2; the relations"
                    " family (that entry zero) spans Der(W(2)) exactly",
                )
            )
    return errata


# Codimension-1 claims: hyperplanes recorded as the dropped basis vector.
RECORDED_CODIM1 = {
    "wn2": (5,),
    "w2sym": (4,),
    "s2": (4, 3),  # span{z1,z2,z3} (drop z4) and the claimed span{z1,z2,z4} (drop z3)
    "h1": (4, 3),
}


def drop_hyperplane(dim: int, drop_1based: int) -> Subspace:
    return Subspace.from_spanning(
        dim, [unit_vec(dim, i) for i in range(dim) if i != drop_1based - 1]
    )


def audit_codim1(fixture_name: str, alg: Algebra, report) -> list:
    """Compare a codim-1 report against the recorded subalgebra list.

    Every recorded hyperplane is re-decided by verify_subalgebra, so a
    wrongly recorded subalgebra produces an erratum with the violating
    product; computed subalgebras missing from the record are reported too.
    """
    drops = RECORDED_CODIM1.get(fixture_name)
    if drops is None:
        return []
    errata = []
    recorded = []
    for d in drops:
        sub = drop_hyperplane(alg.dim, d)
        recorded.append(sub)
        witness = closure_witness(alg, sub)
        claimed = f"span of all basis vectors except {alg.basis_names[d - 1]} is a subalgebra"
        if witness is not None:
            i, j, prod = witness
            names = [alg.basis_names[k] for k in range(alg.dim) if k != d - 1]
            errata.append(
                Erratum(
                    f"{fixture_name}: claimed codim-1 subalgebra (drop {alg.basis_names[d - 1]})",
                    claimed,
                    f"not closed: {names[i]}*{names[j]} = {format_combination(prod, alg.basis_names)}",
                )
            )
        elif sub not in report.subalgebras:  # pragma: no cover - sweep is exhaustive
            errata.append(
                Erratum(
                    f"{fixture_name}: codim-1 sweep",
                    claimed,
                    "closed, but missing from the exhaustive sweep",
                )
            )
    for sub in report.subalgebras:
        if sub not in recorded:
            free = [c for c in range(sub.ambient_dim) if c not in sub.pivot_columns]
            errata.append(
                Erratum(
                    f"{fixture_name}: codim-1 sweep",
                    f"only {len(drops)} recorded subalgebra(s)",
                    f"extra subalgebra found (non-pivot column {free[0] + 1})",
                )
            )
    return errata
