#!/usr/bin/env python3
"""In-process timings of the symbolic identity expansion, the codim1
sweep, the bracket-equation check and the linear solves over [., P], with
the deterministic work behind them.

Run from the repository root:  python scripts/bench.py LABEL

Writes BENCH_<LABEL>.json.  Each row is one request: every non-bracket
catalogue suite on W(3) and M(4) and the W4_SUITES on W(4),
`codim1_subalgebras` of W(3), M(4) and W(4) and of RANDOM_COUNT seeded
sparse random algebras of dim 3-6 (the random algebras a single run, their
row says so), `verify_associated(W(2), F, cross_check=True)`,
`verify_associated(W(3), F)` at its default and
`verify_associated(W(4), F, cross_check=False)`, the tensor route alone,
F being `wn_associated_F`,
`derivation_algebra` with `derived_series` on M(4), W(3) and W(4),
`conservativity`, `jacobi_space` and `quasi_units` on M(4), W(3) and
W(4), `quasi_units` on W(5) (a single run), `inner_derivations` on W(3)
and W(4), `induced_algebra` of W(3) on its whole space (timed up to its
`sparse_table`), the heavy rows, one run each in a fresh child process
(below): `codim1_subalgebras` of W(5) to W(8), `derivation_algebra` with
`derived_series` on W(5), W(6) and W(7), `conservativity` on W(5) to W(8),
`verify_associated(W(n), F)` at its default on W(4) and W(5), and
`jacobi_space`, `quasi_units` and `is_terminal` on W(7), and, where both
answer "no" with a Fredholm
certificate, on the M7 fixture and `simple_left_commutative(20)`,
`is_terminal` on W(3) and W(4) under both conventions, `wn_associated_F` on W(3) and W(4),
`is_nilpotent4` on W(3) and on the nilpotent4 fixture, `build_wn` on W(7)
and W(8) and `storage.load_algebra` of W(3)'s JSON file, each timed up to
its `sparse_table`; the CLI's file I/O: `storage.dumps_algebra` of W(4),
`storage.load_algebra` of M7_DENSE, the M7 fixture written as a dense table
in the basis f_i = e_i + e_(i+1) (f_7 = e_7), a fixed unimodular change
built here, and `cli.main(["--json", "derivations", M7_DENSE])`; and, end
to end, `cli.main(["--json", command, "--fixture", f])` for the commands
`conservative`, `derivations`, `codim1` and `identity --name malcev` on
the fixtures wn2, wn3, m7 and s2, and `cli.main(["--json", "fixture",
"zero2"])`, whose time is the fixed cost of one call; the same command
one-shot, `python -m kantor.cli --json fixture zero2` in a subprocess,
whose time is what a shell user pays for it; and one run of the Tier-1
suite, `python -m pytest -q` in a subprocess.  Both subprocesses run with
`src` on PYTHONPATH.
The in-process CLI rows time a warm process from their second run on: the
argparse parser and each fixture are built once per process and reused.
The one-shot row starts a fresh interpreter every run, so it shows what
those caches cost a single command.
The child rows (CHILD_ROWS) run one at a time, each in a fresh interpreter
(`python scripts/bench.py --child NAME`) that builds its algebra, and F
for `verify_associated`, caps its own address space at CHILD_CAP_MB with
`resource.setrlimit(RLIMIT_AS)` and times one call; the row records the
child's peak resident set,
`peak_rss_mb` (its own `VmHWM`: a forked child's `ru_maxrss` starts at the
peak of this process), and the cap, `address_space_cap_mb`.  Two runs of
one tree agree on each peak within 5%.
A call that runs out of room under the cap ends its row with the counter
`error: MemoryError` instead of exhausting the machine.  The speed probe
runs in the parent process, so a child row's time is its whole call.
A row holds the median of its timed runs (RUNS unless the row's `runs`
says otherwise), every run, the same median rescaled to the reference
machine speed, and counters that must repeat exactly from run to run and,
apart from `reductions_used` (counted in the budget's unit of the version
that wrote the row), between versions of the program that give the same
verdicts.  The host's speed drifts, by up to 2x within minutes on a shared
virtual machine, so `benchmark/speed.SpeedProbe` times a fixed probe every
50 ms for the whole session, as `benchmark/child.py` does.  `median_s` and
`runs_s` are `perf_counter` times that include the probe's interruptions
(about 2% of the machine), so they read a little higher than in BENCH files
written before the probe ran.  `median_rescaled_s` is the median over the
runs of the time less the probe's own, times REFERENCE_S over the median
probe time within `speed.WINDOW_S` on both sides of the run, so that it reads as
at the reference speed; like child.py, it is computed once the last row
has run, when the samples after each run exist.  The counters are:

- identity rows: the verdict, per identity the number of nonzero terms
  (coordinate, monomial) of the expanded defect and, per failing
  identity, a digest of its witness (coordinate, monomial, coefficient,
  assignment and defect);
- codim1 rows: the subalgebras found, the pivots that ran out of budget
  and each pivot's whole spend, `SolutionSet.reductions_used` (the
  basis's reduction steps plus root extraction's), in total and, on the
  named algebras, per pivot; or, for a child row that ran out of room,
  the error;
- verify_associated rows: the verdict;
- derivations rows: dim Der(A) and its derived series;
- conservativity rows: the verdict and the dimension of the kernel (the
  Jacobi space), and on a "no" the witness pair and the number of nonzeros
  of its certificate; jacobi_space rows: its dimension; quasi_units rows:
  whether a quasi-unit exists, the dimension of the kernel and, when none
  exists, the number of nonzeros of the certificate;
- inner_derivations rows: the dimension of the span of the L_a;
- is_terminal rows: the verdict;
- wn_associated_F rows: the number of nonzero coefficients of F;
- is_nilpotent4 rows: the verdict;
- build_wn, load_algebra and induced_algebra rows: the number of nonzero
  structure constants; the load_algebra row of M7_DENSE also the SHA-256
  of the loaded basis names and `sparse_table`, value types included;
- dumps_algebra rows: the SHA-256 of the text written;
- CLI rows, the one-shot row too: the exit code and the SHA-256 of what
  the command printed (the file row runs in the file's directory, so that
  its report names the same path on every run);
- the Tier-1 row: the numbers of tests passed and failed.

Timings on a small shared machine are noisy; compare two labels written on
the same machine by their rescaled medians, and trust the counters over
the clock.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import pathlib
import platform
import random
import re
import resource
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.append(str(ROOT / "benchmark"))  # for the speed probe, read only

import speed
from kantor import cli, identities, storage, zoo
from kantor.algebra import Algebra, induced_algebra
from kantor.codim1 import codim1_subalgebras
from kantor.conservative import conservativity, is_terminal, jacobi_space, quasi_units, verify_associated
from kantor.derivations import derivation_algebra, derived_series, inner_derivations
from kantor.linalg import Subspace
from kantor.wn import build_wn, wn_associated_F

RUNS = 5  # timed runs per row; the median is reported
W4_SUITES = ("malcev", "jordan", "noncommutative_jordan")  # the suites also timed on W(4)
RANDOM_COUNT, RANDOM_SEED = 100, 11  # the random codim1 row's algebras
CHILD_ROWS = {  # row -> n of its W(n); the row's first word names its call (`child_call`)
    **{f"codim1 W{n}": n for n in (5, 6, 7, 8)},
    **{f"derivations W{n}": n for n in (5, 6, 7)},
    **{f"conservativity W{n}": n for n in (5, 6, 7, 8)},
    **{f"verify_associated W{n} default": n for n in (4, 5)},
    **{f"{call} W7": 7 for call in ("jacobi_space", "quasi_units", "is_terminal")},
}
CHILD_CAP_MB = 3072  # address-space cap of each child row
M7_DENSE = "m7-dense.json"  # the basis-changed M7 file of the I/O rows
PROBE = speed.SpeedProbe()  # sampling between start() and stop() in main


def defect_terms(alg, ident):
    """Nonzero terms, over all coordinates, of the expanded defect."""
    return sum(len(coords) for coords in identities.generic_defect(alg, ident).values())


def witness_digest(w):
    """SHA-256 of a witness's coordinate, monomial, coefficient, assignment
    and defect, with every rational written as text."""
    fields = (
        w.coordinate,
        w.monomial,
        str(w.coefficient),
        sorted((v, [str(x) for x in vec]) for v, vec in w.assignment.items()),
        [str(x) for x in w.defect],
    )
    return hashlib.sha256(repr(fields).encode()).hexdigest()


def identity_counters(verdicts):
    return {
        "holds": all(v.holds for v in verdicts),
        "witnesses": {v.identity.name: witness_digest(v.witness) for v in verdicts if not v.holds},
    }


def codim1_counters(rep):
    per_pivot = [c.solutions.reductions_used if c.solutions else None for c in rep.cases]
    return {
        "found": len(rep.subalgebras),
        "budget_errors": len(rep.budget_errors),
        "reductions_used": sum(r for r in per_pivot if r),
        "reductions_per_pivot": per_pivot,
    }


def derivations(alg):
    da = derivation_algebra(alg)
    return da, derived_series(da)


def derivation_counters(result):
    da, series = result
    return {"dim": da.dim, "series": series}


def dim_counters(space):
    return {"dim": space.dim}


def verdict_counters(holds):
    return {"holds": holds}


def certificate_nonzeros(certificate):
    """Nonzero values of a Fredholm certificate, held either as a
    ``{label: value}`` map or as a dense vector."""
    values = certificate.values() if isinstance(certificate, dict) else certificate
    return sum(1 for y in values if y)


def conservativity_counters(verdict):
    counters = {"conservative": verdict.conservative, "kernel_dim": verdict.kernel.dim}
    w = verdict.witness
    if w is not None:
        counters.update(pair=[w.a, w.b], certificate_nonzeros=certificate_nonzeros(w.certificate))
    return counters


def quasi_unit_counters(solutions):
    counters = {"feasible": solutions.feasible, "kernel_dim": solutions.kernel.dim}
    if not solutions.feasible:
        counters["certificate_nonzeros"] = certificate_nonzeros(solutions.certificate)
    return counters


def run_cli(argv):
    """Exit code and captured stdout of one CLI call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def src_env():
    """The environment with this checkout's `src` first on PYTHONPATH."""
    pythonpath = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": pythonpath}


def run_cli_process(argv):
    """Exit code and stdout of one CLI call in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-m", "kantor.cli", *argv],
        cwd=ROOT,
        env=src_env(),
        capture_output=True,
        text=True,
    )
    return done.returncode, done.stdout


def cli_counters(result):
    code, stdout = result
    return {"exit": code, "stdout_sha256": hashlib.sha256(stdout.encode()).hexdigest()}


def run_tier1():
    """The Tier-1 suite's summary line, from one `pytest -q` subprocess."""
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q"],
        cwd=ROOT,
        env=src_env(),
        capture_output=True,
        text=True,
    )
    return done.stdout.strip().splitlines()[-1]


def tier1_counters(summary):
    counts = {word: int(n) for n, word in re.findall(r"(\d+) (passed|failed)", summary)}
    return {"passed": counts.get("passed", 0), "failed": counts.get("failed", 0)}


def basis_changed_document(alg):
    """The dense document of alg in the basis f_i = e_i + e_(i+1), f_n = e_n:
    a vector with e-coordinates a has f-coordinates b with b_0 = a_0 and
    b_k = a_k - b_(k-1), so every constant stays an integer."""
    n = alg.dim
    basis = [tuple(int(k in (i, i + 1)) for k in range(n)) for i in range(n)]
    table = []
    for x in basis:
        products = []
        for y in basis:
            b = []
            for a in alg.mul_vec(x, y):
                b.append(a - (b[-1] if b else 0))
            products.append({alg.basis_names[k]: str(c) for k, c in enumerate(b) if c})
        table.append(products)
    return {"dim": n, "basis": list(alg.basis_names), "table": table}


def table_digest(alg):
    """The nonzero count and the SHA-256 of alg's basis names and `sparse_table`."""
    digest = hashlib.sha256(repr((alg.basis_names, alg.sparse_table)).encode()).hexdigest()
    return {**nonzeros(alg.sparse_table), "sha256": digest}


def text_digest(text):
    return {"sha256": hashlib.sha256(text.encode()).hexdigest()}


def random_algebras():
    """RANDOM_COUNT algebras of dim 3-6 with constants in -2..2, each
    product nonzero in a coordinate with a probability drawn from 0.05-0.4."""
    rng = random.Random(RANDOM_SEED)
    out = []
    for _ in range(RANDOM_COUNT):
        n, density = rng.randint(3, 6), rng.uniform(0.05, 0.4)
        products = {}
        for i in range(n):
            for j in range(n):
                coeffs = {k: rng.randint(-2, 2) for k in range(n) if rng.random() < density}
                products[i, j] = {k: c for k, c in coeffs.items() if c}
        out.append(Algebra.from_products(n, products))
    return out


def random_codim1_counters(reports):
    totals = [codim1_counters(rep) for rep in reports]
    return {key: sum(t[key] for t in totals) for key in ("found", "budget_errors", "reductions_used")}


def nonzeros(sparse_table):
    return {"nnz": sum(len(outputs) for row in sparse_table for outputs in row)}


def row(name, fn, counters, runs=RUNS, **extra):
    """Time `runs` calls of fn; the counters of every result must agree.
    Prints the row's median as a progress line.  Each run's window and time less the probe's go to `windows`, for
    `rescale` once the probe has stopped."""
    times, windows, seen = [], [], []
    for _ in range(runs):
        spent = PROBE.spent
        start = time.perf_counter()
        result = fn()
        end = time.perf_counter()
        times.append(end - start)
        windows.append((start, end, end - start - (PROBE.spent - spent)))
        seen.append(counters(result))
    if any(c != seen[0] for c in seen):
        raise RuntimeError(f"{name}: counters differ between runs: {seen}")
    median_s = round(statistics.median(times), 4)
    print(f"{name}: {median_s} s", flush=True)
    return {
        "name": name,
        "runs": runs,
        "median_s": median_s,
        "median_rescaled_s": None,  # filled by rescale
        "runs_s": [round(t, 4) for t in times],
        "counters": {**seen[0], **extra},
        "windows": windows,
    }


def child_call(name, alg):
    """The timed call of child row `name` on its W(n), alg, and the counters
    of its result; what the call needs besides alg is built here, untimed."""
    kind = name.split()[0]
    if kind == "verify_associated":
        f = wn_associated_F(CHILD_ROWS[name])
        return lambda: verify_associated(alg, f), verdict_counters
    fn, counters = {
        "codim1": (codim1_subalgebras, codim1_counters),
        "derivations": (derivations, derivation_counters),
        "conservativity": (conservativity, conservativity_counters),
        "jacobi_space": (jacobi_space, dim_counters),
        "quasi_units": (quasi_units, quasi_unit_counters),
        "is_terminal": (is_terminal, verdict_counters),
    }[kind]
    return lambda: fn(alg), counters


def child_main(name):
    """Child row `name`: one call under the address-space cap, written to
    stdout as JSON with its window, counters and peak resident set."""
    cap = CHILD_CAP_MB << 20
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
    alg = build_wn(CHILD_ROWS[name])
    alg.sparse_table
    call, counters_of = child_call(name, alg)
    start = time.perf_counter()
    try:
        counters = counters_of(call())
    except MemoryError:
        counters = {"error": "MemoryError"}
    end = time.perf_counter()
    print(json.dumps({"start": start, "end": end, "counters": counters, "peak_rss_mb": round(peak_rss_mb(), 1)}))


def peak_rss_mb():
    """This process's own peak resident set in MB: `VmHWM` of
    /proc/self/status (Linux), which starts afresh at exec, where a child's
    `ru_maxrss` starts at the peak of the process it was forked from."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def child_row(name):
    """Row `name` from one fresh child process (`child_main`), its median
    and peak printed as a progress line; the child prints only its JSON."""
    done = subprocess.run(
        [sys.executable, str(pathlib.Path(__file__).resolve()), "--child", name],
        cwd=ROOT,
        capture_output=True,
        text=True,
    )
    if done.returncode:
        raise RuntimeError(f"{name}: child exited {done.returncode}: {done.stderr.strip()}")
    result = json.loads(done.stdout)
    start, end = result["start"], result["end"]
    print(f"{name}: {round(end - start, 4)} s, {result['peak_rss_mb']} MB", flush=True)
    return {
        "name": name,
        "runs": 1,
        "median_s": round(end - start, 4),
        "median_rescaled_s": None,  # filled by rescale
        "runs_s": [round(end - start, 4)],
        "counters": result["counters"],
        "peak_rss_mb": result["peak_rss_mb"],
        "address_space_cap_mb": CHILD_CAP_MB,
        "windows": [(start, end, end - start)],  # the probe runs in this process, not the child's
    }


def rescale(r):
    """Fill row r's rescaled median from the probe samples on both sides of
    each of its runs, and drop its windows."""
    windows = r.pop("windows")
    r["median_rescaled_s"] = round(statistics.median(net * PROBE.factor(start, end) for start, end, net in windows), 4)


def totals(rows, key):
    """Per algebra, the sum of `key` over its identity suite rows."""
    out = {}
    for r in rows:
        kind, name, *_ = r["name"].split()
        if kind == "identity":
            out[name] = out.get(name, 0) + r[key]
    return {f"identity {name} suites": round(t, 4) for name, t in out.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("label", nargs="?", help="written to BENCH_<label>.json")
    parser.add_argument("--child", choices=sorted(CHILD_ROWS), help="run one child row and print it as JSON")
    args = parser.parse_args(argv)
    if args.child:
        child_main(args.child)
        return
    if args.label is None:
        parser.error("a label is required")
    PROBE.start()
    try:
        rows = measure()
    finally:
        PROBE.stop()
    for r in rows:
        rescale(r)
    doc = {
        "label": args.label,
        "runs": RUNS,
        "environment": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
            "speed_reference_s": speed.REFERENCE_S,
        },
        "totals_s": totals(rows, "median_s"),
        "totals_rescaled_s": totals(rows, "median_rescaled_s"),
        "rows": rows,
    }
    out = pathlib.Path(f"BENCH_{args.label}.json")
    out.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {out}: {doc['totals_s']}")


def measure():
    """Every row, timed under the running speed probe."""
    algebras = {"W3": build_wn(3), "M4": zoo.matrix_algebra(4)}
    w4, w5 = build_wn(4), build_wn(5)
    suites = [s for s in identities.CATALOG if not s.needs_bracket]
    catalogue = identities.builtin_identities()
    identity_cases = [(name, alg, suite) for name, alg in algebras.items() for suite in suites]
    identity_cases += [("W4", w4, catalogue[name]) for name in W4_SUITES]
    rows = []
    for name, alg, suite in identity_cases:
        rows.append(row(
            f"identity {name} {suite.name}",
            lambda: identities.check_suite(alg, suite),
            identity_counters,
            defect_terms={i.name: defect_terms(alg, i) for i in suite.identities},
        ))
    for name, alg in (*algebras.items(), ("W4", w4)):
        rows.append(row(f"codim1 {name}", lambda: codim1_subalgebras(alg), codim1_counters))
    randoms = random_algebras()
    rows.append(row(
        "codim1 random dim 3-6",
        lambda: [codim1_subalgebras(alg) for alg in randoms],
        random_codim1_counters,
        runs=1,
        algebras=RANDOM_COUNT,
        seed=RANDOM_SEED,
    ))

    w2, f2, f3, f4 = build_wn(2), wn_associated_F(2), wn_associated_F(3), wn_associated_F(4)
    for name, fn, runs in (
        ("verify_associated W2 cross_check=True", lambda: verify_associated(w2, f2, cross_check=True), RUNS),
        ("verify_associated W3 default", lambda: verify_associated(algebras["W3"], f3), RUNS),
        ("verify_associated W4 cross_check=False", lambda: verify_associated(w4, f4, cross_check=False), RUNS),
    ):
        rows.append(row(name, fn, verdict_counters, runs=runs))

    structure = {"M4": algebras["M4"], "W3": algebras["W3"], "W4": w4}
    for name, alg in structure.items():
        rows.append(row(f"derivations {name}", lambda: derivations(alg), derivation_counters))
    for name, alg in structure.items():
        for label, fn, counters in (
            ("conservativity", conservativity, conservativity_counters),
            ("jacobi_space", jacobi_space, dim_counters),
            ("quasi_units", quasi_units, quasi_unit_counters),
        ):
            rows.append(row(f"{label} {name}", lambda: fn(alg), counters))
    rows.append(row("quasi_units W5", lambda: quasi_units(w5), quasi_unit_counters, runs=1))
    for name in ("W3", "W4"):
        alg = structure[name]
        rows.append(row(f"inner_derivations {name}", lambda: inner_derivations(alg), dim_counters))
    w3_full = Subspace.full(algebras["W3"].dim)
    rows.append(row("induced_algebra W3 full", lambda: induced_algebra(algebras["W3"], w3_full).sparse_table, nonzeros))
    for name in CHILD_ROWS:
        rows.append(child_row(name))
    infeasible = {"m7": zoo.fixture("m7"), "slc20": zoo.simple_left_commutative(20)}
    for name, alg in infeasible.items():
        for label, fn, counters in (
            ("conservativity", conservativity, conservativity_counters),
            ("quasi_units", quasi_units, quasi_unit_counters),
        ):
            rows.append(row(f"{label} {name}", lambda: fn(alg), counters))
    for name, alg in (("W3", algebras["W3"]), ("W4", w4)):
        rows.append(row(f"is_terminal {name}", lambda: is_terminal(alg), verdict_counters))
        rows.append(row(f"is_terminal {name} sym", lambda: is_terminal(alg, "sym"), verdict_counters))
    for n in (3, 4):
        rows.append(row(f"wn_associated_F W{n}", lambda: wn_associated_F(n), lambda f: {"nnz": len(f.coeffs)}))
    for name, alg in (("W3", algebras["W3"]), ("nilpotent4", zoo.fixture("nilpotent4"))):
        rows.append(row(f"is_nilpotent4 {name}", lambda: identities.is_nilpotent4(alg), verdict_counters))
    for n in (7, 8):
        rows.append(row(f"build_wn W{n}", lambda: build_wn(n).sparse_table, nonzeros))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "wn3.json")
        storage.save_algebra(algebras["W3"], path)
        rows.append(row("load_algebra W3", lambda: storage.load_algebra(path).sparse_table, nonzeros))
        rows.append(row("dumps_algebra W4", lambda: storage.dumps_algebra(w4), text_digest))
        with open(os.path.join(tmp, M7_DENSE), "w", encoding="utf-8") as fh:
            json.dump(basis_changed_document(zoo.fixture("m7")), fh, indent=1)
        with contextlib.chdir(tmp):
            rows.append(row("load_algebra m7 dense", lambda: storage.load_algebra(M7_DENSE), table_digest))
            argv = ["--json", "derivations", M7_DENSE]
            rows.append(row(f"cli {' '.join(argv)}", lambda: run_cli(argv), cli_counters))
    cli_argvs = [
        ["--json", command[0], "--fixture", fixture_name, *command[1:]]
        for command in (["conservative"], ["derivations"], ["codim1"], ["identity", "--name", "malcev"])
        for fixture_name in ("wn2", "wn3", "m7", "s2")
    ]
    cli_argvs.append(["--json", "fixture", "zero2"])
    for argv in cli_argvs:
        rows.append(row(f"cli {' '.join(argv)}", lambda: run_cli(argv), cli_counters))
    one_shot = ["--json", "fixture", "zero2"]
    rows.append(row(f"cli one-shot {' '.join(one_shot)}", lambda: run_cli_process(one_shot), cli_counters))
    rows.append(row("tier1 pytest -q", run_tier1, tier1_counters, runs=1))
    return rows


if __name__ == "__main__":
    main()
