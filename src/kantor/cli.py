"""Command-line front end.

Analyses are results, not errors: a non-conservative algebra exits 0
unless an --assert* flag turns the unexpected verdict into a nonzero
exit.  Exit codes: 64 usage, 65 unreadable/invalid input, 69 polynomial
budget exceeded, 74 stdout closed before the report was written, 1 failed
assertion.  Identical inputs produce byte-identical reports.

The argument parser is built on the first call of `main` and reused by
every later call in the same process, and so is each fixture's input:
its algebra, bracket and digest.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import os
import sys

from . import claims, zoo
from .algebra import (
    Algebra,
    annihilator,
    combination_document,
    format_sparse,
    generated_subalgebra,
)
from .codim1 import codim1_subalgebras
from .conservative import (
    DEFAULT_TERMINAL_CONVENTION,
    TERMINAL_CONVENTIONS,
    conservativity,
    is_terminal,
    jacobi_space,
    quasi_units,
)
from .derivations import derivation_algebra, derived_series
from .errors import (
    AlgebraFormatError,
    BudgetExceededError,
    ExprSyntaxError,
    GateError,
    MissingBracketError,
)
from .identities import (
    builtin_identities,
    check_identity,
    free_variables,
    identity,
    load_identity,
    parse_expr,
)
from .linalg import unit_vec
from .storage import (
    algebra_document,
    dumps_algebra,
    dumps_json,
    load_algebra_pair,
    load_linear_map,
    parse_rational,
)
from .wn import build_wn
from .poly import MAX_REDUCTIONS

EX_OK = 0
EX_ASSERT = 1
EX_USAGE = 64
EX_DATA = 65
EX_BUDGET = 69
EX_IOERR = 74


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)

    def _check_value(self, action, value):
        # the choices as repr, as argparse wrote them until later 3.12 and
        # 3.13 releases switched to str: one wording on every interpreter
        if action.choices is not None and value not in action.choices:
            choices = ", ".join(map(repr, action.choices))
            raise argparse.ArgumentError(action, f"invalid choice: {value!r} (choose from {choices})")


class _UsageError(Exception):
    pass


@functools.cache
def _build_parser():
    # --json may come before or after the subcommand.  The subcommands' copy
    # has no default, so it cannot reset a --json given before them.
    json_flag = argparse.ArgumentParser(add_help=False)
    json_flag.add_argument("--json", action="store_true", default=argparse.SUPPRESS, help="emit a JSON report")
    top = _Parser(prog="kantor", description="exact workbench for nonassociative algebras")
    top.add_argument("--json", action="store_true", help="emit a JSON report")
    sub = top.add_subparsers(dest="command", required=True)

    def command(name, help, handler, group=sub, algebra=True, verdict=False, dim=False):
        p = group.add_parser(name, help=help, parents=[json_flag])
        if handler is not None:
            p.set_defaults(handler=handler)
        if algebra:
            p.add_argument("algebra", nargs="?", help="algebra file (JSON)")
            p.add_argument("--fixture", help=f"named fixture: {', '.join(sorted(zoo.FIXTURES))}")
        if verdict:
            asserts = p.add_mutually_exclusive_group()
            asserts.add_argument("--assert", dest="assert_true", action="store_true")
            asserts.add_argument("--assert-not", dest="assert_false", action="store_true")
        if dim:
            p.add_argument("--assert-dim", type=int, default=None)
        return p

    command("show", "print an algebra's multiplication table", _show)
    p = command("wn", "build the algebra of bilinear operations W(n)", _wn, algebra=False)
    p.add_argument("n", type=int)
    p.add_argument("--table", action="store_true", help="no effect: the table is always printed")
    p = command("fixture", "print a named fixture", _fixture_command, algebra=False)
    p.add_argument("name")
    command("conservative", "decide conservativity and construct F", _conservative, verdict=True)
    p = command("terminal", "triple-bracket terminality test", _terminal, verdict=True)
    p.add_argument("--convention", choices=TERMINAL_CONVENTIONS, default=DEFAULT_TERMINAL_CONVENTION)
    command("derivations", "compute Der(A) and its Lie structure", _derivations, dim=True)
    command("jacobi", "space of elements whose left multiplication derives", _jacobi, dim=True)
    command("quasiunit", "solve the left quasi-unit equations", _quasiunit, verdict=True)
    command("annihilator", "two-sided annihilator", _annihilator, dim=True)
    p = command("closure", "subalgebra generated by elements", _closure, dim=True)
    p.add_argument("--gens", required=True, help="comma-separated basis names or indices")
    p = command("codim1", "enumerate codimension-1 subalgebras", _codim1)
    p.add_argument("--budget", type=int, default=MAX_REDUCTIONS, help="max reduction steps per pivot (eliminated variables plus S-polynomial reductions)")
    p.add_argument("--assert-count", type=int, default=None)
    p = command("identity", "check a polynomial identity", _identity, verdict=True)
    p.add_argument("--name", help=f"builtin: {', '.join(sorted(builtin_identities()))}")
    p.add_argument("--expr", help="expression asserted identically zero")
    p.add_argument("--vars", help="free variables for --expr (comma-separated)")
    p.add_argument("--file", help="identity file (JSON)")

    # The twist group sets no handler: whether a parent's default or its
    # subparser's wins has changed between Python 3.10 patch releases.
    twist = command("twist", "build a derived multiplication", None, algebra=False)
    kinds = twist.add_subparsers(dest="twist_kind", required=True)
    p = command("quasi", "lambda ab + (1-lambda) ba on an associative input", _twist_quasi, group=kinds)
    p.add_argument("--lambda", dest="lam", required=True, help="rational parameter")
    command("poisson", "ab + {a,b} from a table/bracket_table pair", _twist_poisson, group=kinds)
    p = command("structurable", "xy + y(x - conj(x)) on a unital algebra with involution", _twist_structurable, group=kinds)
    p.add_argument("--involution", required=True, help="JSON file with the involution matrix")

    return top


def _fixture(name):
    try:
        return zoo.fixture(name)
    except KeyError as exc:
        raise AlgebraFormatError(str(exc)) from None


def _digest(alg):
    return hashlib.sha256(dumps_algebra(alg).encode()).hexdigest()


@functools.cache
def _fixture_input(name, pair):
    """(algebra, bracket, input digest) of a named fixture, built and
    encoded once per process: a fixture is the same algebra every time.
    With `pair`, poisson_trunc's commutative algebra and its bracket, the
    pair the fixture is built from."""
    alg, bracket = zoo.truncated_poisson_pair() if pair else (_fixture(name), None)
    return alg, bracket, _digest(alg)


def _record_input(report, source, digest):
    report["input"] = source
    report["input_digest"] = digest
    report["errata"] = []


def _load_input(args, report, need_bracket=False):
    """(algebra, bracket, fixture name or None) from --fixture or the
    positional file; the input is recorded in the report."""
    if args.fixture and args.algebra:
        raise _UsageError("give either an algebra file or --fixture, not both")
    if args.fixture:
        alg, bracket, digest = _fixture_input(args.fixture, args.fixture == "poisson_trunc" and need_bracket)
        _record_input(report, f"fixture:{args.fixture}", digest)
        return alg, bracket, args.fixture
    if args.algebra:
        alg, bracket = load_algebra_pair(args.algebra)
        _record_input(report, args.algebra, _digest(alg))
        return alg, bracket, None
    raise _UsageError("an algebra file or --fixture is required")


def _subspace_doc(s, names):
    return {
        "ambient_dim": s.ambient_dim,
        "dim": s.dim,
        "pivot_columns": list(s.pivot_columns),
        "basis": [combination_document(b, names) for b in s.basis],
    }


def _show_algebra(report, alg, bracket=None, audit=None):
    """Report an algebra: its document, its table, and its errata against
    the recorded table named `audit`, if there is one."""
    report["result"] = algebra_document(alg, bracket)
    names = alg.basis_names
    report["table"] = [
        f"{names[i]} * {names[j]} = {format_sparse(outputs, names)}"
        for i, row in enumerate(alg.sparse_table)
        for j, outputs in enumerate(row)
    ]
    report["errata"] = [str(e) for e in claims.audit_table(alg, audit)]
    return EX_OK


def _assert_check(report, condition, description):
    if condition:
        return EX_OK
    report["status"] = "assertion-failed"
    report["failed_assertion"] = description
    return EX_ASSERT


def _check_verdict(args, report, holds, claim, denial):
    """--assert / --assert-not (at most one): exit 1 unless the verdict is
    as asserted."""
    if args.assert_true:
        return _assert_check(report, holds, claim)
    if args.assert_false:
        return _assert_check(report, not holds, denial)
    return EX_OK


def _check_equal(report, label, expected, got):
    """--assert-dim / --assert-count, if given: exit 1 unless got == expected."""
    if expected is None:
        return EX_OK
    return _assert_check(report, got == expected, f"{label} == {expected}")


def _gens_to_vectors(alg: Algebra, spec_text: str):
    vectors = []
    for part in spec_text.split(","):
        part = part.strip()
        if not part:
            continue
        if part in alg.basis_names:
            vectors.append(unit_vec(alg.dim, alg.basis_names.index(part)))
        else:
            try:
                idx = int(part)
            except ValueError:
                raise AlgebraFormatError(f"unknown generator {part!r}") from None
            if not 1 <= idx <= alg.dim:
                raise AlgebraFormatError(f"generator index {idx} out of range")
            vectors.append(unit_vec(alg.dim, idx - 1))
    return vectors


# -- commands: each fills the report and returns the exit code --------------


def _show(args, report):
    alg, bracket, fixture = _load_input(args, report)
    return _show_algebra(report, alg, bracket, audit=fixture)


def _wn(args, report):
    if args.n < 1:
        raise AlgebraFormatError("wn requires n >= 1")
    name = f"wn{args.n}"
    alg = build_wn(args.n)
    _record_input(report, name, _digest(alg))
    return _show_algebra(report, alg, audit=name)


def _fixture_command(args, report):
    alg, _, digest = _fixture_input(args.name, False)
    _record_input(report, f"fixture:{args.name}", digest)
    return _show_algebra(report, alg, audit=args.name)


def _twist_quasi(args, report):
    alg, _, _ = _load_input(args, report)
    try:
        lam = parse_rational(args.lam)
    except (ValueError, ZeroDivisionError):
        raise AlgebraFormatError(f"bad rational {args.lam!r}") from None
    return _show_algebra(report, zoo.quasi_mutation(alg, lam))


def _twist_poisson(args, report):
    alg, bracket, _ = _load_input(args, report, need_bracket=True)
    if bracket is None:
        raise AlgebraFormatError("twist poisson needs a bracket_table")
    return _show_algebra(report, zoo.poisson_kantor_product(alg, bracket))


def _twist_structurable(args, report):
    alg, _, _ = _load_input(args, report)
    sigma = load_linear_map(args.involution, expected_dim=alg.dim)
    return _show_algebra(report, zoo.structurable_twist(alg, sigma))


def _conservative(args, report):
    alg, _, _ = _load_input(args, report)
    verdict = conservativity(alg)
    payload = {
        "conservative": verdict.conservative,
        "kernel_dim": verdict.kernel.dim,
        "kernel": _subspace_doc(verdict.kernel, alg.basis_names),
    }
    if verdict.conservative:
        table = algebra_document(verdict.f.as_algebra(alg.basis_names))["table"]
        payload["f"] = {"arity": 2, "dim": verdict.f.dim, "table": table}
    else:
        w = verdict.witness
        payload["witness"] = {
            "pair": [alg.basis_names[w.a], alg.basis_names[w.b]],
            "certificate_nonzeros": len(w.certificate),
        }
    report["result"] = payload
    return _check_verdict(args, report, verdict.conservative, "conservative", "not conservative")


def _terminal(args, report):
    alg, _, _ = _load_input(args, report)
    verdict = is_terminal(alg, args.convention)
    report["result"] = {"terminal": verdict, "convention": args.convention}
    return _check_verdict(args, report, verdict, "terminal", "not terminal")


def _derivations(args, report):
    alg, _, fixture = _load_input(args, report)
    der = derivation_algebra(alg)
    series = derived_series(der)
    report["result"] = {
        "dim": der.dim,
        "derived_series": series,
        "solvable": series[-1] == 0,
        "basis": [[[str(b[i, j]) for j in range(b.cols)] for i in range(b.rows)] for b in der.basis],
        "lie_table": algebra_document(der.lie)["table"],
    }
    if fixture:
        report["errata"] = [str(e) for e in claims.audit_derivations(fixture, der)]
    return _check_equal(report, "dim", args.assert_dim, der.dim)


def _jacobi(args, report):
    alg, _, _ = _load_input(args, report)
    js = jacobi_space(alg)
    report["result"] = _subspace_doc(js, alg.basis_names)
    return _check_equal(report, "dim", args.assert_dim, js.dim)


def _quasiunit(args, report):
    alg, _, _ = _load_input(args, report)
    qs = quasi_units(alg)
    payload = {"feasible": qs.feasible, "kernel_dim": qs.kernel.dim}
    if qs.feasible:
        payload["particular"] = combination_document(qs.particular, alg.basis_names)
        payload["kernel"] = _subspace_doc(qs.kernel, alg.basis_names)
    else:
        payload["certificate_nonzeros"] = len(qs.certificate)
    report["result"] = payload
    return _check_verdict(args, report, qs.feasible, "quasi-unit exists", "no quasi-unit")


def _annihilator(args, report):
    alg, _, _ = _load_input(args, report)
    ann = annihilator(alg)
    report["result"] = _subspace_doc(ann, alg.basis_names)
    return _check_equal(report, "dim", args.assert_dim, ann.dim)


def _closure(args, report):
    alg, _, _ = _load_input(args, report)
    sub = generated_subalgebra(alg, _gens_to_vectors(alg, args.gens))
    report["result"] = _subspace_doc(sub, alg.basis_names)
    return _check_equal(report, "dim", args.assert_dim, sub.dim)


def _codim1(args, report):
    if args.budget < 0:
        raise _UsageError("--budget must be nonnegative")
    alg, _, fixture = _load_input(args, report)
    rep = codim1_subalgebras(alg, max_reductions=args.budget)
    cases = []
    for c in rep.cases:
        entry = {
            "pivot": c.pivot,
            "variables": list(c.variables),
            "ideal": [str(g) for g in c.ideal],
        }
        if c.error is not None:
            entry["error"] = str(c.error)
        else:
            entry["groebner"] = [str(g) for g in c.groebner]
            entry["points"] = [[str(x) for x in pt] for pt in c.solutions.points]
            entry["unresolved"] = [
                {"kind": u.kind, "detail": u.detail} for u in c.solutions.unresolved
            ]
        cases.append(entry)
    report["result"] = {
        "count": len(rep.subalgebras),
        "subalgebras": [_subspace_doc(s, alg.basis_names) for s in rep.subalgebras],
        "cases": cases,
    }
    if fixture:
        report["errata"] = [str(e) for e in claims.audit_codim1(fixture, alg, rep)]
    if rep.budget_errors:
        report["status"] = "budget-exceeded"
        return EX_BUDGET
    return _check_equal(report, "count", args.assert_count, len(rep.subalgebras))


def _identity(args, report):
    alg, bracket, _ = _load_input(args, report)
    if args.file and (args.name or args.expr):
        raise _UsageError("--file takes the place of --name and --expr")
    if not args.file and bool(args.name) == bool(args.expr):
        raise _UsageError("identity needs exactly one of --name or --expr")
    if args.vars is not None and not args.expr:
        raise _UsageError("--vars applies only to --expr")
    if args.file:
        idents = (load_identity(args.file),)
    elif args.name:
        catalog = builtin_identities()
        if args.name not in catalog:
            raise AlgebraFormatError(f"no builtin identity {args.name!r}")
        idents = catalog[args.name].identities
    else:
        if args.vars is not None:
            expr_vars = tuple(v.strip() for v in args.vars.split(","))
        else:
            expr_vars = tuple(sorted(free_variables(parse_expr(args.expr))))
        idents = (identity("adhoc", expr_vars, args.expr),)
    verdicts = [check_identity(alg, ident, bracket) for ident in idents]
    holds = all(v.holds for v in verdicts)
    payload = {"holds": holds, "identities": []}
    for v in verdicts:
        entry = {"name": v.identity.name, "holds": v.holds, "source": v.identity.source}
        if not v.holds:
            w = v.witness
            entry["witness"] = {
                "coordinate": alg.basis_names[w.coordinate],
                "monomial": {s: e for s, e in zip(w.symbols, w.monomial) if e},
                "coefficient": str(w.coefficient),
                "assignment": {
                    var: combination_document(vec, alg.basis_names)
                    for var, vec in sorted(w.assignment.items())
                },
                "defect": combination_document(w.defect, alg.basis_names),
            }
        payload["identities"].append(entry)
    report["result"] = payload
    return _check_verdict(args, report, holds, "identity holds", "identity fails")


def _execute(args, argv):
    # the echoed command gives --json once and first, wherever it stood, so
    # the report does not depend on the flag's position
    command = ["--json"] + [a for a in argv if a != "--json"] if args.json else list(argv)
    report = {"command": command, "status": "ok"}
    return report, args.handler(args, report)


def _print_report(report, as_json):
    if as_json:
        print(dumps_json(report, sort_keys=True))
        return
    for line in report.get("table", ()):
        print(line)
    result = report.get("result")
    if result is not None and "table" not in report:
        print(dumps_json(result, sort_keys=True))
    for e in report.get("errata", ()):
        print(f"erratum: {e}")
    if report["status"] != "ok":
        print(f"status: {report['status']}", file=sys.stderr)
        if "failed_assertion" in report:
            print(f"failed assertion: {report['failed_assertion']}", file=sys.stderr)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    limit = sys.get_int_max_str_digits()
    try:
        return _main(argv)
    finally:
        sys.set_int_max_str_digits(limit)


def _main(argv):
    try:
        args = _build_parser().parse_args(argv)
        sys.set_int_max_str_digits(0)  # exact results print whole; input stays capped by storage.MAX_DIGITS
        report, code = _execute(args, argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EX_USAGE
    except (AlgebraFormatError, ExprSyntaxError, MissingBracketError, GateError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EX_DATA
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EX_BUDGET
    try:
        _print_report(report, args.json)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader is gone.  Point fd 1 at the null device, so that the
        # flush at interpreter exit does not raise a second time.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EX_IOERR
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
