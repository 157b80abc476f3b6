"""Acceptance gate: one test per criterion, exact comparisons throughout.

Each test prints one PASS/FAIL line (visible with ``pytest -s``).  Checks
accumulate into an error list so a failure reports everything wrong with
that criterion at once.
"""

import random
from fractions import Fraction

from kantor import zoo
from kantor.algebra import verify_subalgebra
from kantor.claims import audit_codim1, audit_derivations, audit_table, drop_hyperplane
from kantor.codim1 import codim1_subalgebras
from kantor.conservative import (
    DEFAULT_TERMINAL_CONVENTION,
    TERMINAL_CONVENTIONS,
    conservativity,
    is_terminal,
    jacobi_space,
    quasi_units,
    verify_associated,
)
from kantor.derivations import derivation_algebra, derived_series, is_derivation
from kantor.identities import builtin_identities, check_identity, evaluate_identity
from kantor.linalg import AffineSolutionSet, Matrix, Subspace, unit_vec
from kantor.multiops import MultilinearOp
from kantor.wn import (
    build_h1,
    build_s2,
    skew_invariance_subspace,
    trace_zero_subspace,
    wn_associated_F,
)
from kantor.algebra import Algebra

from helpers import bracket_columns, commutator, grid_hyperplane_oracle, left_mul_operator, normal_vector, pair, same_set


def _finish(name, errors):
    status = "PASS" if not errors else "FAIL"
    print(f"ACCEPTANCE {name}: {status}")
    assert not errors, f"{name}: " + "; ".join(errors)


def check(errors, condition, message):
    if not condition:
        errors.append(message)


def test_c01_wn2_table_regeneration(wn2):
    errors = []
    errata = audit_table(wn2, "wn2")
    check(errors, len(errata) == 0, f"{len(errata)} discrepancies: " + "; ".join(map(str, errata)))
    _finish("1 (W(2) table regeneration)", errors)


def test_c02_wn2_conservative_with_formula_f(wn2):
    errors = []
    F = wn_associated_F(2)
    # bracket-equation route on all 64 pairs, expanded-identity route once
    # over generic vectors (every basis quadruple at once); verify_associated
    # requires the two routes to agree
    check(errors, verify_associated(wn2, F, cross_check=True), "formula F fails")
    _finish("2 (W(2) conservative via (1/3)(A*.B + B~.A))", errors)


def test_c03_wn2_jacobi_space(wn2):
    errors = []
    js = jacobi_space(wn2)
    expected = Subspace.from_spanning(8, [unit_vec(8, i) for i in (1, 2, 3, 5, 6, 7)])
    check(errors, js == expected, "Jacobi space is not span{a_ij^k : i+j>2}")
    check(errors, js.dim == 6, f"dim {js.dim} != 6")
    check(errors, 8 - js.dim == 2, "codimension != 2")
    _finish("3 (Jacobi space of W(2))", errors)


def test_c04_wn2_quasi_unit(wn2):
    errors = []
    qs = quasi_units(wn2)
    minus_e1 = tuple(-c for c in unit_vec(8, 0))
    expected = AffineSolutionSet(minus_e1, jacobi_space(wn2))
    check(errors, qs.feasible, "no quasi-unit found")
    check(errors, same_set(qs, expected), "solution set is not -a11^1 + Jacobi space")
    _finish("4 (quasi-units of W(2))", errors)


def test_c05a_derivations_wn2_and_w2sym(wn2, w2sym):
    errors = []
    der = derivation_algebra(wn2)
    check(errors, der.dim == 2, f"dim Der(W(2)) = {der.dim} != 2")
    check(errors, derived_series(der) == [2, 1, 0], f"series {derived_series(der)}")
    L2 = left_mul_operator(wn2, unit_vec(8, 1))
    L6 = left_mul_operator(wn2, unit_vec(8, 5))
    check(errors, commutator(L2, L6) == L2, "[L_e6, L_e2] = L_e2 fails (either order)")
    der2 = derivation_algebra(w2sym)
    check(errors, der2.dim == 2, f"dim Der(W2) = {der2.dim} != 2")
    check(errors, derived_series(der2) == [2, 1, 0], f"series {derived_series(der2)}")
    M2 = left_mul_operator(w2sym, unit_vec(6, 1))
    M5 = left_mul_operator(w2sym, unit_vec(6, 4))
    check(errors, commutator(M2, M5) == M2, "[ad_xi2, ad_xi5] = ad_xi2 fails")
    _finish("5a (derivations of W(2) and W2)", errors)


def test_c05b_derivations_s2_zero(s2, h1):
    # Recorded claim: dim Der(S2) = 0 (and the same for H1, which coincides
    # with S2 as an induced algebra).  The claim is false for the recorded
    # table: the Leibniz kernel is 2-dimensional, spanned by two derivations
    # that can be checked by hand,
    #   L_z2                 (z2 is a Jacobi element), and
    #   diag(0, -1, -2, 1)   (the grading deg z1..z4 = 0, -1, -2, 1; e.g.
    #                         z2 z2 = -3 z3, z4 z2 = -2 z1, z4 z3 = -z2).
    # The built table equals the recorded one, so the conflict lies between
    # the recorded claim and the recorded table.  What this criterion checks
    # is that the derivations audit reports the claim as an erratum.
    errors = []
    der = derivation_algebra(s2)
    series = derived_series(der)
    check(errors, der.dim == 2, f"dim Der(S2) = {der.dim} != 2")
    check(errors, series == [2, 1, 0], f"derived series {series} != [2, 1, 0]")
    witnesses = {
        "L_z2": left_mul_operator(s2, unit_vec(4, 1)),
        "diag(0, -1, -2, 1)": Matrix.from_rows(
            [[0, 0, 0, 0], [0, -1, 0, 0], [0, 0, -2, 0], [0, 0, 0, 1]]
        ),
    }
    for name, d in witnesses.items():
        check(errors, is_derivation(s2, d), f"{name} is not a derivation of S2")
    span = Subspace.from_spanning(16, [d.entries for d in witnesses.values()])
    check(errors, span == der.subspace, "the two witnesses do not span the computed Der(S2)")
    table_errata = audit_table(s2, "s2")
    check(errors, table_errata == [], "S2 table differs from the record: " + "; ".join(map(str, table_errata)))
    for name, d_alg in (("s2", der), ("h1", derivation_algebra(h1))):
        errata = audit_derivations(name, d_alg)
        check(errors, len(errata) == 1, f"{name}: {len(errata)} derivation errata, expected 1")
        if errata:
            e = errata[0]
            check(errors, e.subject == f"{name}: dim Der", f"{name}: erratum subject {e.subject!r}")
            check(errors, e.claim == "0", f"{name}: erratum records {e.claim!r}, expected '0'")
            check(errors, e.computed.startswith("2"), f"{name}: erratum computes {e.computed!r}, expected 2")
    _finish("5b (recorded dim Der(S2) = 0 reported as an erratum)", errors)


def test_c06_codim1(wn2, w2sym, s2):
    errors = []
    rep1 = codim1_subalgebras(wn2)
    check(errors, len(rep1.subalgebras) == 1, f"W(2): {len(rep1.subalgebras)} found")
    check(errors, rep1.subalgebras[0] == drop_hyperplane(8, 5), "W(2): not the drop-e5 hyperplane")
    rep2 = codim1_subalgebras(w2sym)
    check(errors, len(rep2.subalgebras) == 1, f"W2: {len(rep2.subalgebras)} found")
    check(errors, rep2.subalgebras[0] == drop_hyperplane(6, 4), "W2: not the drop-xi4 hyperplane")
    rep3 = codim1_subalgebras(s2)
    check(errors, drop_hyperplane(4, 4) in rep3.subalgebras, "S2: span{z1,z2,z3} missing")
    check(errors, verify_subalgebra(s2, drop_hyperplane(4, 4)), "S2: span{z1,z2,z3} fails closure")
    # decide the second recorded subalgebra; an erratum entry either way
    second_closed = verify_subalgebra(s2, drop_hyperplane(4, 3))
    errata = audit_codim1("s2", s2, rep3)
    check(errors, not second_closed, "span{z1,z2,z4} unexpectedly closed (z2*z2 = -3z3 should escape)")
    check(errors, len(errata) >= 1, "no erratum recorded for the span{z1,z2,z4} decision")
    check(errors, len(rep3.subalgebras) == 1, f"S2: {len(rep3.subalgebras)} found")
    _finish("6 (codimension-1 subalgebras)", errors)


def test_c07_variety_positives(matrix2, jordan, nilp4, sl2):
    errors = []
    leib = zoo.left_leibniz2()
    cases = [
        ("matrix_algebra(2)", matrix2),
        ("jordan_sym2", jordan),
        ("sl2", sl2),
        ("left_leibniz2", leib),
        ("poisson_kantor_product", zoo.fixture("poisson_trunc")),
        ("structurable_twist", zoo.structurable_twist(matrix2, zoo.transpose_involution_2x2())),
        ("nilpotent4", nilp4),
    ]
    for lam in (0, Fraction(1, 3), Fraction(1, 2), 1):
        cases.append((f"quasi_mutation(matrix2, {lam})", zoo.quasi_mutation(matrix2, lam)))
    for name, alg in cases:
        check(errors, conservativity(alg).conservative, f"{name} not conservative")
    # the left Leibniz fixture satisfies [L_a, P] = 0, so F = 0 works
    _, _, columns = bracket_columns(leib)
    check(errors, all(column.is_zero() for column in columns), "left Leibniz: [L_a, P] != 0")
    check(errors, verify_associated(leib, MultilinearOp.zero(2, 2)), "left Leibniz: F = 0 rejected")
    check(errors, verify_associated(nilp4, MultilinearOp.zero(2, 3)), "nilpotent4: F = 0 rejected")
    _finish("7 (variety positives)", errors)


def test_c08_variety_negatives(m7):
    errors = []
    for name, alg in (
        ("M7", m7),
        ("simple_left_commutative(2)", zoo.simple_left_commutative(2)),
        ("simple_left_commutative(3)", zoo.simple_left_commutative(3)),
    ):
        verdict = conservativity(alg)
        check(errors, not verdict.conservative, f"{name} unexpectedly conservative")
        w = verdict.witness
        check(errors, w is not None, f"{name}: no witness")
        if w is not None:
            _, _, columns = bracket_columns(alg)
            ok = all(pair(w.certificate, column.coeffs) == 0 for column in columns)
            check(errors, ok, f"{name}: certificate does not kill the system columns")
            check(errors, pair(w.certificate, w.target) == 1, f"{name}: certificate misses the target")
    _finish("8 (variety negatives with witnesses)", errors)


def test_c09_terminality_calibration(w2sym, s2, h1):
    errors = []
    winners = [c for c in TERMINAL_CONVENTIONS if is_terminal(w2sym, c)]
    check(errors, len(winners) == 1, f"conventions making W2 terminal: {winners}")
    check(
        errors,
        winners == [DEFAULT_TERMINAL_CONVENTION],
        f"shipped default {DEFAULT_TERMINAL_CONVENTION!r} != calibrated {winners}",
    )
    convention = winners[0] if winners else DEFAULT_TERMINAL_CONVENTION
    check(errors, is_terminal(s2, convention), "S2 not terminal under the calibrated convention")
    check(errors, is_terminal(h1, convention), "H1 not terminal under the calibrated convention")
    for name in sorted(zoo.FIXTURES):
        if name == "wn3":
            continue
        alg = zoo.fixture(name)
        if is_terminal(alg, convention):
            check(errors, conservativity(alg).conservative, f"terminal fixture {name} not conservative")
    _finish("9 (terminality calibration)", errors)


def test_c10_codim1_grid_oracle():
    errors = []
    rng = random.Random(20240809)
    for trial in range(50):
        alg = Algebra.from_table(
            [
                [[Fraction(rng.randint(-2, 2)) for _ in range(3)] for _ in range(3)]
                for _ in range(3)
            ]
        )
        report = codim1_subalgebras(alg)
        for sub in report.subalgebras:
            if not verify_subalgebra(alg, sub):
                errors.append(f"trial {trial}: reported subalgebra fails closure")
        grid_normals = {normal_vector(s) for s in grid_hyperplane_oracle(alg, bound=3)}
        reported_small = {
            normal_vector(s)
            for s in report.subalgebras
            if max(abs(int(c)) for c in normal_vector(s)) <= 3
        }
        if reported_small != grid_normals:
            errors.append(
                f"trial {trial}: grid oracle disagreement "
                f"(reported {sorted(reported_small)}, grid {sorted(grid_normals)})"
            )
    _finish("10 (codim-1 search vs bounded-grid oracle, 50 random algebras)", errors)


def test_c11_identity_engine_soundness(m7):
    errors = []
    rng = random.Random(11)
    catalog = builtin_identities()
    fixtures = [name for name in sorted(zoo.FIXTURES) if name != "wn3"]
    mismatches = 0
    for fname in fixtures:
        alg = zoo.fixture(fname)
        for suite in catalog.values():
            if suite.needs_bracket:
                continue
            for ident in suite.identities:
                verdict = check_identity(alg, ident)
                if verdict.holds:
                    for _ in range(25):
                        assignment = {
                            v: tuple(
                                Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                                for _ in range(alg.dim)
                            )
                            for v in ident.variables
                        }
                        if any(evaluate_identity(alg, ident, assignment)):
                            mismatches += 1
                            errors.append(f"{fname}/{ident.name}: held but evaluates nonzero")
                            break
                else:
                    if not any(verdict.witness.defect):
                        mismatches += 1
                        errors.append(f"{fname}/{ident.name}: failed but witness defect is zero")
    check(errors, mismatches == 0, f"{mismatches} mismatches")
    # M7 specifics
    check(errors, all(v.holds for v in (check_identity(m7, i) for i in catalog["anticommutative"].identities)), "M7 anticommutativity")
    check(errors, all(v.holds for v in (check_identity(m7, i) for i in catalog["malcev"].identities)), "M7 Malcev identity")
    assoc = check_identity(m7, catalog["associative"].identities[0])
    check(errors, not assoc.holds, "M7 unexpectedly associative")
    if not assoc.holds:
        again = evaluate_identity(m7, assoc.identity, assoc.witness.assignment)
        check(errors, any(again) and again == assoc.witness.defect, "M7 witness fails re-evaluation")
    _finish("11 (identity engine soundness)", errors)


def test_c12_h1_equals_s2():
    errors = []
    check(
        errors,
        skew_invariance_subspace() == trace_zero_subspace(),
        "skew-invariance subspace differs from the trace-zero subspace",
    )
    check(errors, build_h1().table == build_s2().table, "induced tables differ")
    _finish("12 (H1 = S2 as subspaces of W2)", errors)
