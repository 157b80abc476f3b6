#!/usr/bin/env python3
"""End-to-end survey: rebuild W(2), W2, S2, H1 from first principles and
verify every recorded table and structural claim about them, printing
errata where computation and record disagree.

Run from the repository root:  python scripts/survey.py
"""

import pathlib
import sys
from fractions import Fraction

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from kantor import zoo
from kantor.algebra import format_combination
from kantor.claims import audit_codim1, audit_derivations, audit_table
from kantor.codim1 import codim1_subalgebras
from kantor.conservative import (
    TERMINAL_CONVENTIONS,
    conservativity,
    is_terminal,
    jacobi_space,
    quasi_units,
    verify_associated,
)
from kantor.derivations import derivation_algebra, derived_series
from kantor.wn import (
    build_h1,
    build_s2,
    build_w2sym,
    build_wn,
    skew_invariance_subspace,
    trace_zero_subspace,
    w2sym_associated_F,
    wn_associated_F,
)


def section(title):
    print()
    print(title)
    print("-" * len(title))


def show_errata(errata):
    if not errata:
        print("  no discrepancies")
    for e in errata:
        print(f"  ERRATUM {e}")


def main():
    section("Tables regenerated from the defining product")
    wn2 = build_wn(2)
    w2s = build_w2sym()
    s2 = build_s2()
    h1 = build_h1()
    for name, alg in (("W(2)", wn2), ("W2", w2s), ("S2", s2)):
        fixture_key = {"W(2)": "wn2", "W2": "w2sym", "S2": "s2"}[name]
        errata = audit_table(alg, fixture_key)
        print(f"{name}: dim {alg.dim}, recorded-table discrepancies: {len(errata)}")
        show_errata(errata)

    section("Conservativity and the associated multiplication")
    print("W(2) with F = (1/3)(A*.B + B~.A):", verify_associated(wn2, wn_associated_F(2)))
    print("W2   with F = (1/3)(2A.B + B.A): ", verify_associated(w2s, w2sym_associated_F()))
    verdict = conservativity(wn2)
    print(f"decision procedure on W(2): conservative={verdict.conservative}, "
          f"kernel dim {verdict.kernel.dim}")

    section("Jacobi space and quasi-units of W(2)")
    js = jacobi_space(wn2)
    print(f"Jacobi space: dim {js.dim} (codimension {wn2.dim - js.dim}), "
          f"pivot columns {[c + 1 for c in js.pivot_columns]}")
    qs = quasi_units(wn2)
    e = format_combination(qs.particular, wn2.basis_names)
    print(f"left quasi-unit: {e}  (+ any Jacobi element)")

    section("Derivation algebras")
    for name, key, alg in (("W(2)", "wn2", wn2), ("W2", "w2sym", w2s), ("S2", "s2", s2)):
        der = derivation_algebra(alg)
        print(f"Der({name}): dim {der.dim}, derived series {derived_series(der)}")
        show_errata(audit_derivations(key, der))

    section("Codimension-1 subalgebras (exhaustive pivot sweep)")
    for name, key, alg in (("W(2)", "wn2", wn2), ("W2", "w2sym", w2s), ("S2", "s2", s2)):
        report = codim1_subalgebras(alg)
        drops = []
        for sub in report.subalgebras:
            missing = [c for c in range(alg.dim) if c not in sub.pivot_columns][0]
            drops.append(alg.basis_names[missing])
        print(f"{name}: {len(report.subalgebras)} subalgebra(s): drop {', '.join(drops) or '-'}")
        show_errata(audit_codim1(key, alg, report))

    section("Terminality calibration")
    winners = [c for c in TERMINAL_CONVENTIONS if is_terminal(w2s, c)]
    print(f"conventions making W2 terminal: {winners}")
    for name, alg in (("S2", s2), ("H1", h1), ("W(2)", wn2)):
        print(f"is_terminal({name}) under {winners[0]!r}: {is_terminal(alg, winners[0])}")

    section("H1 versus S2")
    print("skew-invariance subspace == trace-zero subspace:",
          skew_invariance_subspace() == trace_zero_subspace())
    print("induced tables identical:", h1.sparse_table == s2.sparse_table)

    section("Variety checks")
    matrix2 = zoo.matrix_algebra(2)
    positives = [
        ("matrix_algebra(2)", matrix2),
        ("jordan_sym2", zoo.jordan_sym2()),
        ("sl2", zoo.sl2()),
        ("left_leibniz2", zoo.left_leibniz2()),
        ("poisson product", zoo.fixture("poisson_trunc")),
        ("structurable twist", zoo.structurable_twist(matrix2, zoo.transpose_involution_2x2())),
        ("nilpotent4", zoo.nilpotent4_example()),
        ("quasi_mutation(1/3)", zoo.quasi_mutation(matrix2, Fraction(1, 3))),
    ]
    for name, alg in positives:
        print(f"conservative({name}): {conservativity(alg).conservative}")
    for name in ("m7", "slc2", "slc3"):
        v = conservativity(zoo.fixture(name))
        w = v.witness
        print(f"conservative({name}): {v.conservative} "
              f"(witness basis pair {w.a + 1},{w.b + 1})")


if __name__ == "__main__":
    main()
