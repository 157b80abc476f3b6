"""The three workloads: inputs, requests, expected answers and checks.

A workload builds its inputs from the seed, lists its requests, and knows
for each request what the right answer is.  `run_pass` in child.py times
the requests; everything here runs outside the timed region except the
request calls themselves.

desk            the everyday command-line traffic, in-process through
                kantor.cli.main: every command on every small fixture,
                the README command lines verbatim, and seeded basis-changed
                copies of the fixtures loaded from files.
wn3-structure   W(3) (dim 27) through the API: derivations, Jacobi space,
                quasi-units, terminality and the associated product, plus
                conservativity of M(4), the W(2) cross-check, codim1 of W(2)
                and the Lie suite on W(3).
wn3-polynomial  codim1 sweeps of W(3) and M(4) and the identity suites on
                W(3) and M(4), plus conservativity of M(4) and Der(M(4)).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shlex
import time

import twist
import verify

KINDS = ("conservative", "derivations", "codim1", "identity")

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_PATH = os.path.join(HERE, "expected.json")

# The README's command block, verbatim, with the exit code it documents.
README_LINES = (
    ("kantor wn 2 --table", 0),
    ("kantor conservative --fixture m7 --assert-not", 0),
    ("kantor terminal --fixture w2sym", 0),
    ("kantor derivations --fixture s2 --assert-dim 0", 1),
    ("kantor jacobi --fixture wn2 --assert-dim 6", 0),
    ("kantor quasiunit --fixture wn2 --json", 0),
    ("kantor closure --fixture wn2 --gens a11^2,a12^1", 0),
    ("kantor codim1 --fixture s2 --json", 0),
    ("kantor identity --fixture m7 --name malcev --assert", 0),
    ('kantor identity --fixture sl2 --expr "a*b + b*a"', 0),
    ("kantor twist quasi --fixture matrix2 --lambda 1/3", 0),
    ("kantor twist poisson src/kantor/data/truncated_poisson.json", 0),
    (
        "kantor twist structurable --fixture matrix2 "
        "--involution src/kantor/data/involution_transpose_2x2.json",
        0,
    ),
)

DESK_COMMANDS = ("conservative", "terminal", "derivations", "jacobi", "quasiunit", "annihilator", "codim1")
# codim1 is left out on the twisted copies: its Groebner time on dense
# coefficients is heavy-tailed across seeds (seconds to minutes).
TWISTED_COMMANDS = tuple(c for c in DESK_COMMANDS if c != "codim1")
DESK_MAX_DIM = 8


class Request:
    """One call to time.  `call` returns the raw result; `verdict` maps it to
    the small value compared with the record; `evidence` keeps what the
    independent checks need (taken from the first pass only)."""

    __slots__ = ("rid", "kind", "call", "verdict", "evidence", "expected")

    def __init__(self, rid, kind, call, verdict, evidence=None, expected=None):
        self.rid = rid
        self.kind = kind
        self.call = call
        self.verdict = verdict
        self.evidence = evidence
        self.expected = expected


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def run_cli(main, argv):
    """(exit code, stdout) of kantor.cli.main, as a shell user would see them."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def cli_kind(argv):
    command = next((a for a in argv if not a.startswith("-")), "")
    return command if command in KINDS else "other"


def load_expected():
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


# -- desk ----------------------------------------------------------------------


class Desk:
    """`cli.main` is looked up at each call, never kept, so that a tracer
    installed during the set-up does not stay in the untraced passes.

    `benchmark_s` is the time, on `clock`, spent making the twisted copies:
    the benchmark's own work, which the set-up time leaves out."""

    name = "desk"

    def __init__(self, seed, workdir, clock=time.perf_counter, expected=None):
        from kantor import cli, identities, zoo

        self.cli = cli
        self.suites = [s.name for s in identities.CATALOG if not s.needs_bracket]
        self.docs = {}
        for fixture in zoo.FIXTURES:
            code, text = run_cli(cli.main, ["--json", "fixture", fixture])
            if code != 0:
                raise RuntimeError(f"fixture {fixture} exits {code}")
            doc = json.loads(text)["result"]
            if doc["dim"] <= DESK_MAX_DIM:
                self.docs[fixture] = doc
        start = clock()
        self.twisted = {}
        self.paths = {}
        for fixture, doc in self.docs.items():
            self.twisted[fixture] = twist.twisted_document(doc, twist.seeded_rng(seed, "twist", fixture))
            path = os.path.relpath(os.path.join(workdir, f"twisted-{fixture}.json"))
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(self.twisted[fixture], fh, indent=1)
            self.paths[fixture] = path
        self.benchmark_s = clock() - start
        if expected is None:
            expected = load_expected()["desk"]
        self.requests = []
        for fixture in self.docs:
            for argv in self._argvs(["--fixture", fixture], DESK_COMMANDS):
                rid = " ".join(argv)
                self._add(rid, argv, expected.get(rid, {"exit": 0, "sha256": None}))
        for line, documented in README_LINES:
            argv = shlex.split(line)[1:]
            record = expected.get(line, {"exit": documented, "sha256": None})
            self._add(line, argv, record)
        for fixture in self.docs:
            for argv in self._argvs([self.paths[fixture]], TWISTED_COMMANDS):
                self._add(f"twisted {fixture}: {' '.join(argv)}", argv, {"exit": 0, "sha256": None}, fixture)

    def _argvs(self, source, commands):
        for command in commands:
            yield ["--json", command] + source
        for suite in self.suites:
            yield ["--json", "identity"] + source + ["--name", suite]

    def _add(self, rid, argv, record, twisted_of=None):
        cli = self.cli
        self.requests.append(
            Request(
                rid,
                # a twisted copy's cost changes with the seed, so it is left
                # out of the per-kind sums and counts in wall_s and latency
                "twisted" if twisted_of else cli_kind(argv),
                lambda argv=argv: run_cli(cli.main, argv),
                lambda out: [out[0], digest(out[1])],
                evidence=lambda out: out[1],
                expected=dict(record, twisted_of=twisted_of, argv=argv),
            )
        )

    def warm_up(self):
        small = "sl2"
        for argv in self._argvs(["--fixture", small], DESK_COMMANDS):
            run_cli(self.cli.main, argv)
        run_cli(self.cli.main, ["--json", "jacobi", self.paths[small]])

    def judge(self, request, verdict):
        """'ok', 'failed' or 'wrong'.

        A request that exits as recorded is 'ok' when its report matches the
        digest (twisted copies have none and are checked in `check`).  A
        request that exits otherwise is 'wrong', except that a README line
        exiting with its recorded `known_exit` (a known defect, the two lines
        that exit 64) is 'failed': it lowers answered_frac but not `correct`.
        """
        record = request.expected
        if verdict[0] == record["exit"]:
            if record["sha256"] is not None and verdict[1] != record["sha256"]:
                return "wrong"
            return "ok"
        if verdict[0] == record.get("known_exit"):
            return "failed"
        return "wrong"

    def check(self, evidence):
        """Twisted copies against their fixtures, then the defining equations."""
        problems = []
        reports = {}
        for request in self.requests:
            if request.rid not in evidence or request.rid.startswith("kantor "):
                continue  # raised (reported already), or a README line: digest-checked only
            try:
                reports[request.rid] = (request, json.loads(evidence[request.rid]))
            except ValueError:
                problems.append(f"{request.rid}: no JSON report")
        by_fixture = {}
        for request, report in reports.values():
            source = request.expected["twisted_of"]
            key = "twisted" if source else "fixture"
            fixture = source or _fixture_of(request.expected["argv"])
            by_fixture.setdefault(fixture, {}).setdefault(key, {})[_invariant_key(request.expected["argv"])] = report
        for fixture, sides in sorted(by_fixture.items()):
            original, twisted = sides.get("fixture", {}), sides.get("twisted", {})
            for key, report in sorted(twisted.items()):
                if key not in original:
                    continue
                a, b = invariants(original[key]), invariants(report)
                if a != b:
                    problems.append(f"twisted {fixture} {key}: {b} differs from the fixture's {a}")
            for label, doc, reps in (
                (fixture, self.docs[fixture], original),
                (f"twisted {fixture}", self.twisted[fixture], twisted),
            ):
                problems += check_reports(label, doc, reps)
        return problems


def _fixture_of(argv):
    return argv[argv.index("--fixture") + 1] if "--fixture" in argv else None


def _invariant_key(argv):
    command = argv[1]
    return f"identity {argv[-1]}" if command == "identity" else command


def invariants(report):
    """Basis-independent facts in a --json report."""
    result = report["result"]
    command = report["command"][1]
    if command == "conservative":
        return {"conservative": result["conservative"], "kernel_dim": result["kernel_dim"]}
    if command in ("jacobi", "annihilator"):
        return {"dim": result["dim"]}
    if command == "derivations":
        return {"dim": result["dim"], "derived_series": result["derived_series"]}
    if command == "terminal":
        return {"terminal": result["terminal"]}
    if command == "quasiunit":
        return {"feasible": result["feasible"], "kernel_dim": result["kernel_dim"]}
    if command == "identity":
        return {"holds": result["holds"]}
    return {}


def check_reports(label, doc, reports):
    """Recheck derivation bases, Jacobi elements and the quasi-unit."""
    table = verify.Table.from_document(doc)
    names = doc["basis"]
    problems = []
    if "derivations" in reports:
        basis = reports["derivations"]["result"]["basis"]
        problems += verify.check_derivations(table, [lambda r, c, m=m: m[r][c] for m in basis], label)
    if "jacobi" in reports:
        basis = reports["jacobi"]["result"]["basis"]
        problems += verify.check_jacobi(table, [verify.named_sparse(v, names) for v in basis], label)
    if "quasiunit" in reports:
        result = reports["quasiunit"]["result"]
        if result["feasible"]:
            problems += verify.check_quasi_unit(table, verify.named_sparse(result["particular"], names), label)
    return problems


# -- W(3) workloads ------------------------------------------------------------


class _Api:
    """Shared set-up of the W(3) workloads: W(2) and W(3) come from the
    command line (`kantor --json wn n`) and are loaded back from the written
    files, as a user would; M(4) and the associated products of W(n) come
    from the constructors.  The inputs are fixed algebras, so the seed and
    the clock are not used, and nothing is left out of the set-up time."""

    benchmark_s = 0.0

    def __init__(self, seed, workdir, clock):
        import kantor
        from kantor import cli, storage, wn, zoo

        self.k = kantor
        self.algebras = {}
        for n in (2, 3):
            code, text = run_cli(cli.main, ["--json", "wn", str(n)])
            if code != 0:
                raise RuntimeError(f"kantor wn {n} exits {code}")
            path = os.path.join(workdir, f"wn{n}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(json.loads(text)["result"], fh)
            self.algebras[f"W{n}"] = storage.load_algebra(path)
        self.algebras["M4"] = zoo.matrix_algebra(4)
        self.associated = {"W2": wn.wn_associated_F(2), "W3": wn.wn_associated_F(3)}
        self.suites = kantor.builtin_identities()
        self.requests = []

    def _add(self, rid, kind, call, verdict, expected, evidence=None, repeat=1):
        """With `repeat` > 1 the request is a batch of that many calls, so a
        short verdict is timed over about a second, where the rescaled
        times hold steady; the last call's result is judged."""
        if repeat > 1:
            rid = f"{rid} x{repeat}"
            single = call

            def call():
                for _ in range(repeat - 1):
                    single()
                return single()

        self.requests.append(Request(rid, kind, call, verdict, evidence, expected))

    # request builders ---------------------------------------------------

    def conservative(self, name, expected):
        alg = self.algebras[name]
        self._add(
            f"conservativity({name})",
            "conservative",
            lambda: self.k.conservativity(alg),
            lambda v: {"conservative": v.conservative, "kernel_dim": v.kernel.dim},
            expected,
        )

    def derivations(self, name, expected):
        alg = self.algebras[name]

        def call():
            da = self.k.derivation_algebra(alg)
            return da, self.k.derived_series(da)

        self._add(
            f"derivation_algebra({name}) + derived_series",
            "derivations",
            call,
            lambda v: {"dim": v[0].dim, "derived_series": list(v[1])},
            expected,
            evidence=lambda v: (name, [m.entries for m in v[0].basis]),
        )

    def codim1(self, name, expected, repeat=1):
        alg = self.algebras[name]
        self._add(
            f"codim1_subalgebras({name})",
            "codim1",
            lambda: self.k.codim1_subalgebras(alg),
            lambda v: {"count": len(v.subalgebras), "budget_errors": len(v.budget_errors)},
            expected,
            repeat=repeat,
        )

    def identity(self, name, suite, expected, repeat=1):
        alg = self.algebras[name]
        s = self.suites[suite]
        self._add(
            f"check_suite({name}, {suite})",
            "identity",
            lambda: self.k.check_suite(alg, s),
            lambda v: {"holds": all(x.holds for x in v)},
            expected,
            repeat=repeat,
        )

    # shared behaviour ---------------------------------------------------

    def warm_up(self):
        """Every request kind once on W(2), the smallest member of the family."""
        k, w2 = self.k, self.algebras["W2"]
        k.conservativity(w2)
        k.derived_series(k.derivation_algebra(w2))
        k.jacobi_space(w2)
        k.quasi_units(w2)
        k.is_terminal(w2)
        k.verify_associated(w2, self.associated["W2"], cross_check=False)
        k.codim1_subalgebras(w2)
        k.check_suite(w2, self.suites["associative"])

    def judge(self, request, verdict):
        return "ok" if verdict == request.expected else "wrong"

    def check(self, evidence):
        problems = []
        for request in self.requests:
            if request.kind != "derivations" or request.rid not in evidence:
                continue
            name, bases = evidence[request.rid]
            alg = self.algebras[name]
            n = alg.dim
            problems += verify.check_derivations(
                verify.Table.from_dense(alg.table),
                [lambda r, c, e=e: e[r * n + c] for e in bases],
                f"Der({name})",
            )
        return problems


class Wn3Structure(_Api):
    name = "wn3-structure"

    def __init__(self, seed, workdir, clock):
        super().__init__(seed, workdir, clock)
        k, w2, w3 = self.k, self.algebras["W2"], self.algebras["W3"]
        self.derivations("W3", {"dim": 6, "derived_series": [6, 5]})
        self._add(
            "jacobi_space(W3)",
            "other",
            lambda: k.jacobi_space(w3),
            lambda v: {"dim": v.dim},
            {"dim": 24},
            evidence=lambda v: v.basis,
        )
        self._add(
            "quasi_units(W3)",
            "other",
            lambda: k.quasi_units(w3),
            lambda v: {"feasible": v.feasible, "kernel_dim": v.kernel.dim},
            {"feasible": True, "kernel_dim": 24},
            evidence=lambda v: v.particular,
        )
        self._add("is_terminal(W3)", "other", lambda: k.is_terminal(w3), bool, False)
        f3, f2 = self.associated["W3"], self.associated["W2"]
        self._add(
            "verify_associated(W3, F3)",
            "other",
            lambda: k.verify_associated(w3, f3, cross_check=False),
            bool,
            True,
        )
        self._add(
            "verify_associated(W2, F2, cross_check=True)",
            "other",
            lambda: k.verify_associated(w2, f2, cross_check=True),
            bool,
            True,
        )
        # conservativity(W3) takes 40-50 s and 1 GB, more than one run
        # allows; M(4) is the largest conservativity that fits.
        self.conservative("M4", {"conservative": True, "kernel_dim": 0})
        # one small request of each remaining kind, so that every kind's
        # time is defined here too; batched, because a single one is short
        self.codim1("W2", {"count": 1, "budget_errors": 0}, repeat=20)
        self.identity("W3", "lie", {"holds": False}, repeat=2)

    def check(self, evidence):
        problems = super().check(evidence)
        table = verify.Table.from_dense(self.algebras["W3"].table)
        if "jacobi_space(W3)" in evidence:
            elements = [verify.sparse(v) for v in evidence["jacobi_space(W3)"]]
            problems += verify.check_jacobi(table, elements, "W3")
        if "quasi_units(W3)" in evidence:
            problems += verify.check_quasi_unit(table, verify.sparse(evidence["quasi_units(W3)"]), "W3")
        return problems


class Wn3Polynomial(_Api):
    name = "wn3-polynomial"

    def __init__(self, seed, workdir, clock):
        super().__init__(seed, workdir, clock)
        self.codim1("W3", {"count": 0, "budget_errors": 0})
        self.codim1("M4", {"count": 0, "budget_errors": 0})
        for suite, s in self.suites.items():
            if not s.needs_bracket:
                self.identity("W3", suite, {"holds": False})
        for suite in ("associative", "flexible", "noncommutative_jordan"):
            self.identity("M4", suite, {"holds": True})
        self.conservative("M4", {"conservative": True, "kernel_dim": 0})
        self.derivations("M4", {"dim": 15, "derived_series": [15]})


WORKLOADS = {w.name: w for w in (Desk, Wn3Structure, Wn3Polynomial)}
