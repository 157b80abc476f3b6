"""One benchmark run in a fresh interpreter: set up, warm up, measure, check.

Started by run.py from the root of a checkout; prints one JSON object as
its last line of output.  With --setup-only it stops after the warm-up and
reports the set-up time alone.

The closed loop has one client: each request starts when the previous one
has returned.  A pass runs every request of the workload once, in an order
shuffled from the seed; passes repeat while the next one is expected to end
within --seconds, and at least one pass always runs.  Garbage is collected
before each request, outside its timing, so that a request does not pay for
its predecessor's garbage (a command-line user starts from a fresh process).
Request and pass times are rescaled to the reference machine speed by
speed.SpeedProbe.

The set-up time leaves out the probe and the benchmark's own input
making (`benchmark_s` of the workload).

With --trace 1 the run makes one untraced pass, then installs the tracer and
makes at least two traced passes; the difference in pass time is the
tracing overhead.  The set-up's input building is traced too, so the
per-layer figures cover the building of the inputs plus one pass.  Span
times leave out the probe but are not rescaled.  The work counters must
come out the same in every traced pass, and the same as in the last traced
run of this workload and seed on the same sources.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKDIR = os.path.join(HERE, ".work")
sys.path.insert(0, os.path.join(ROOT, "src"))

import speed  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def run_pass(workload, seed, index, probe, trace=None):
    """Time every request once, in seeded order.

    Returns ([(request index, seconds, result, exception text or None)],
    the pass's time before rescaling).
    """
    order = list(range(len(workload.requests)))
    random.Random(f"{seed}/order/{index}").shuffle(order)
    clock = time.perf_counter
    timed = []
    for i in order:
        request = workload.requests[i]
        gc.collect()
        if trace is not None:
            trace.request = request.rid
        spent = probe.spent
        start = clock()
        try:
            result, error = request.call(), None
        except Exception:  # a traceback is a failed request, not a crashed run
            result, error = None, traceback.format_exc()
        end = clock()
        raw = end - start - (probe.spent - spent)
        timed.append((i, start, end, raw, result, error))
    records = [
        (i, raw * probe.factor(start, end), result, error)
        for i, start, end, raw, result, error in timed
    ]
    return records, sum(t[3] for t in timed)


def summarize(workload, records, evidence=None):
    """Replace each result by its verdict; fill `evidence` when given."""
    out = []
    for i, seconds, result, error in records:
        request = workload.requests[i]
        if error is not None:
            out.append((i, seconds, None, error))
            continue
        if evidence is not None and request.evidence is not None:
            evidence[request.rid] = request.evidence(result)
        out.append((i, seconds, request.verdict(result), None))
    return out


def pass_seconds(records):
    return sum(r[1] for r in records)


def end_to_end(workload, passes):
    # interpolated between neighbouring requests: on the W(3) workloads a
    # pass has only 9 or 17 requests
    cuts = statistics.quantiles([r[1] for p in passes for r in p], n=100, method="inclusive")
    metrics = {
        "wall_s": (statistics.median(pass_seconds(p) for p in passes), "s"),
        "latency_p50_ms": (cuts[49] * 1000, "ms"),
        "latency_p95_ms": (cuts[94] * 1000, "ms"),
    }
    for kind in workloads.KINDS:
        sums = [sum(r[1] for r in p if workload.requests[r[0]].kind == kind) for p in passes]
        metrics[f"{kind}_s"] = (statistics.median(sums), "s")
    return metrics


def judge(workload, passes):
    """(attempted, failed, problems) over every pass."""
    attempted = failed = 0
    problems = []
    for p in passes:
        for i, _, verdict, error in p:
            request = workload.requests[i]
            attempted += 1
            if error is not None:
                failed += 1
                problems.append(f"{request.rid}: raised\n{error}")
                continue
            status = workload.judge(request, verdict)
            if status != "ok":
                failed += 1
            if status == "wrong":
                problems.append(f"{request.rid}: verdict {verdict} does not match the record {request.expected}")
    return attempted, failed, problems


def sources_digest():
    """A short digest of the kantor sources and of the benchmark's code, so
    that stored counters are only compared with runs of the same code."""
    h = hashlib.sha256()
    for base in (os.path.join(ROOT, "src", "kantor"), HERE):
        for folder, dirs, files in os.walk(base):
            dirs[:] = sorted(d for d in dirs if not d.startswith(".") and d != "__pycache__")
            for name in sorted(files):
                if name.endswith(".py"):
                    path = os.path.join(folder, name)
                    h.update(os.path.relpath(path, ROOT).encode() + b"\0")
                    with open(path, "rb") as fh:
                        h.update(fh.read())
    return h.hexdigest()[:16]


def per_layer(args, untraced, traced, setup_trace):
    """Per-layer self times and counters: input building plus one traced pass."""
    setup_self, setup_counts, setup_spans = setup_trace
    problems = []
    counts = [t[2] for t in traced]
    if any(c != counts[0] for c in counts):
        problems.append(f"work counters differ between traced passes: {counts}")
    metrics = {}
    for layer in tracing.LAYERS:
        per_pass = statistics.median(t[1][layer] for t in traced)
        metrics[f"{layer}.self_s"] = (setup_self[layer] + per_pass, "s")
    total = {k: setup_counts[k] + counts[0][k] for k in tracing.COUNTERS}
    for key, value in total.items():
        metrics[key] = (value, "count")
    cells = total["linalg.cells"]
    metrics["linalg.density"] = (total["linalg.nnz"] / cells if cells else 0.0, "ratio")
    traced_wall = statistics.median(pass_seconds(t[0]) for t in traced)
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - pass_seconds(untraced), "s")
    metrics["trace.spans"] = (len(setup_spans) + len(traced[0][3]), "count")

    stem = os.path.join(WORKDIR, f"{args.workload}-seed{args.seed}")
    counters_path = f"{stem}-{sources_digest()}-counters.json"
    if os.path.exists(counters_path):
        with open(counters_path, encoding="utf-8") as fh:
            previous = json.load(fh)
        changed = sorted(k for k in total if previous.get(k) != total[k])
        if changed:
            problems.append(f"work counters differ from the previous traced run of this seed: {changed}")
    with open(counters_path, "w", encoding="utf-8") as fh:
        json.dump(total, fh, indent=1, sort_keys=True)
    tracing.write_spans(stem + "-spans.tsv.gz", setup_spans + traced[0][3])
    return metrics, problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    probe = speed.SpeedProbe()
    probe.start()
    os.makedirs(WORKDIR, exist_ok=True)

    # spans and the benchmark's own set-up work run on a clock that stops
    # while the probe runs
    def clock():
        return time.perf_counter() - probe.spent

    trace = tracing.Tracer(clock=clock) if args.trace else None
    import kantor  # noqa: F401  (import time belongs to the set-up)

    if trace:
        trace.install()
    workload = workloads.WORKLOADS[args.workload](args.seed, WORKDIR, clock)
    if trace:
        trace.uninstall()
        setup_trace = (trace.self_times(), dict(trace.counts), list(trace.spans))
    workload.warm_up()
    setup_end = time.perf_counter()
    setup_s = (setup_end - T0 - probe.spent - workload.benchmark_s) * probe.factor(T0, setup_end)
    if args.setup_only:
        probe.stop()
        print(json.dumps({"setup_s": setup_s}))
        return 0

    gc.collect()
    gc.freeze()
    evidence = {}
    passes, traced, raw_walls = [], [], []
    loop_start = time.perf_counter()
    if trace:
        records, raw = run_pass(workload, args.seed, 0, probe)
        passes.append(summarize(workload, records, evidence))
        # the warm-up and the untraced pass must not reach a wrapper
        leaked = len(trace.spans) - len(setup_trace[2])
    while True:
        index = len(passes) + len(traced)
        started = time.perf_counter()
        keep = evidence if index == 0 else None
        if trace:
            trace.reset()
            trace.install()
            records, raw = run_pass(workload, args.seed, index, probe, trace)
            trace.uninstall()
            traced.append((summarize(workload, records), trace.self_times(), trace.counts, trace.spans))
        else:
            records, raw = run_pass(workload, args.seed, index, probe)
            passes.append(summarize(workload, records, keep))
            raw_walls.append(raw)
        took = time.perf_counter() - started
        if trace and len(traced) < 2:
            continue
        if time.perf_counter() - loop_start + took > args.seconds:
            break
    probe.stop()

    attempted, failed, problems = judge(workload, passes + [t[0] for t in traced])
    if trace and leaked:
        problems.append(f"{leaked} spans recorded after the tracer was uninstalled")
    problems += workload.check(evidence)
    result = {
        "attempted": attempted,
        "failed": failed,
        "wrong": problems,
        "requests_per_pass": len(workload.requests),
        "passes": len(passes) + len(traced),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if trace:
        result["layers"], trace_problems = per_layer(args, passes[0], traced, setup_trace)
        result["wrong"] += trace_problems
    else:
        result["metrics"] = end_to_end(workload, passes)
        result["raw_wall_s"] = statistics.median(raw_walls)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
