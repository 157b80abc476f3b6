"""Spans and work counters around kantor's public functions, from outside.

Every layer of kantor is one module.  `Tracer.install` replaces each
public function of each module, and each public method of each public
class, by a wrapper, at every place it is bound: the defining module's
globals, the `from .linalg import solve_many` style re-bindings in the
modules that import it, the package namespace, dispatch tables such as
`zoo.FIXTURES`, and the class attribute.  Per-coefficient helpers
(UNWRAPPED) are left alone.
`Tracer.uninstall` puts the originals back, so an untraced pass runs the
unmodified program.

A span is (request, layer, function, parent span, start, end).  Spans stay
in memory and are written out by `write_spans` at the end of a run.  The
self time of a span is its duration minus the time covered by its child
spans and by the tracer's own counting; a layer's self time is the sum
over its spans.

Counters are recorded at the same wrappers.  The linalg system sizes are
taken where a system enters linalg from another layer, so a system handed
on inside linalg is counted once.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import time

LAYERS = (
    "algebra",
    "claims",
    "cli",
    "codim1",
    "conservative",
    "derivations",
    "identities",
    "linalg",
    "multiops",
    "poly",
    "storage",
    "wn",
    "zoo",
)

# Helpers called once per coefficient, vector or table entry: linalg's
# scalar and vector functions, polynomial arithmetic, table and matrix
# accessors.  A span per call would cost more than the call and drown the
# layer boundaries, so they stay unwrapped and their time counts toward the
# caller.
UNWRAPPED = {
    ("linalg", name)
    for name in ("frac", "format_frac", "vec", "zero_vec", "unit_vec", "add_vec",
                 "sub_vec", "scale_vec", "dot", "is_zero_vec", "Matrix.row", "Matrix.col")
} | {("algebra", "Algebra.c"), ("multiops", "MultilinearOp.coeff"), ("poly", "Poly")}

# Public linalg entry points that eliminate a system.
ELIMINATIONS = {
    "solve_many",
    "solve_linear",
    "nullspace",
    "rref",
    "infeasibility_certificate",
    "Subspace.from_spanning",
}

COUNTERS = (
    "linalg.calls",
    "linalg.cells",
    "linalg.nnz",
    "linalg.rank",
    "multiops.calls",
    "multiops.out_nnz",
    "algebra.mul_vec_calls",
    "poly.buchberger_calls",
    "poly.reductions",
    "poly.basis_size",
    "poly.budget_trips",
    "codim1.generators",
    "codim1.found",
    "identities.calls",
    "identities.symbols",
)


def _nnz(values):
    return sum(map(bool, values))


def _matrix_nnz(m):
    return _nnz(m.entries)


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []          # (request, layer, name, span_id, parent_id, start, end, self_s)
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.request = "setup"
        self._stack = []         # [span_id, layer, name, start, excluded]
        self._next_id = 0
        self._bindings = []      # (owner, attribute, original, replacement)

    # -- installation --------------------------------------------------

    def install(self):
        if self._bindings:
            return
        modules = {layer: importlib.import_module(f"kantor.{layer}") for layer in LAYERS}
        package = importlib.import_module("kantor")
        wrapped = {}  # id(original function) -> (original, wrapper)
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or (layer, name) in UNWRAPPED:
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrapped[id(obj)] = (obj, self._wrapper(layer, name, obj))
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_class(layer, obj)
        for mod in list(modules.values()) + [package]:
            for name, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._bind(mod, name, obj, hit[1])
                elif isinstance(obj, dict):  # dispatch tables such as zoo.FIXTURES
                    for key, value in list(obj.items()):
                        hit = wrapped.get(id(value))
                        if hit is not None and hit[0] is value:
                            self._bind_item(obj, key, value, hit[1])

    def _wrap_class(self, layer, cls):
        if (layer, cls.__name__) in UNWRAPPED:
            return
        for name, attr in list(vars(cls).items()):
            label = f"{cls.__name__}.{name}"
            if name.startswith("_") or (layer, label) in UNWRAPPED:
                continue
            if isinstance(attr, classmethod):
                new = classmethod(self._wrapper(layer, label, attr.__func__))
            elif isinstance(attr, staticmethod):
                new = staticmethod(self._wrapper(layer, label, attr.__func__))
            elif inspect.isfunction(attr):
                new = self._wrapper(layer, label, attr)
            else:
                continue
            self._bind(cls, name, attr, new)

    def _bind(self, owner, name, original, replacement):
        setattr(owner, name, replacement)
        self._bindings.append((owner, name, original, replacement))

    def _bind_item(self, table, key, original, replacement):
        table[key] = replacement
        self._bindings.append((table, key, original, replacement))

    def uninstall(self):
        for owner, name, original, _ in reversed(self._bindings):
            if isinstance(owner, dict):
                owner[name] = original
            else:
                setattr(owner, name, original)
        self._bindings = []

    # -- spans -----------------------------------------------------------

    def _wrapper(self, layer, name, fn):
        count = _COUNTING.get((layer, name))
        boundary_count = _BOUNDARY_COUNTING.get(layer)
        listed = _LISTED_ARGUMENT.get((layer, name))
        tracer = self
        clock = self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            boundary = not stack or stack[-1][1] != layer
            if listed is not None and len(args) > listed:
                args = args[:listed] + (list(args[listed]),) + args[listed + 1:]
            frame = [tracer._next_id, layer, name, clock(), 0.0]
            tracer._next_id += 1
            stack.append(frame)
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as error:
                exc = error
                raise
            finally:
                end = clock()
                stack.pop()
                if boundary and boundary_count is not None and exc is None:
                    boundary_count(tracer.counts, name, args, result)
                if count is not None:
                    count(tracer.counts, boundary, args, result, exc)
                tracer._close(frame, end, stack, clock() - end)

        return wrapper

    def _close(self, frame, end, stack, counting):
        """Record a finished span; its parent excludes it and the counting."""
        span_id, layer, name, start, excluded = frame
        duration = end - start
        parent = stack[-1] if stack else None
        if parent is not None:
            parent[4] += duration + counting
        self.spans.append(
            (self.request, layer, name, span_id, parent[0] if parent else -1, start, end, duration - excluded)
        )

    # -- reports ---------------------------------------------------------

    def self_times(self):
        out = dict.fromkeys(LAYERS, 0.0)
        for span in self.spans:
            out[span[1]] += span[7]
        return out

    def reset(self):
        """Start a new pass: no spans, zero counters."""
        self.spans = []
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.request = None


def write_spans(path, spans):
    """Spans as gzip-compressed tab-separated lines, one per span."""
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        fh.write("request\tlayer\tfunction\tspan\tparent\tstart\tend\tself_s\n")
        for span in spans:
            fh.write("\t".join(str(x) for x in span) + "\n")


# -- counters ----------------------------------------------------------------


def _linalg_boundary(counts, name, args, result):
    counts["linalg.calls"] += 1
    if name not in ELIMINATIONS:
        return
    if name == "solve_many":
        a, targets = args[0], args[1]
        counts["linalg.cells"] += a.rows * (a.cols + len(targets))
        counts["linalg.nnz"] += _matrix_nnz(a) + sum(_nnz(t) for t in targets)
    elif name == "solve_linear":
        a, b = args[0], args[1]
        counts["linalg.cells"] += a.rows * (a.cols + 1)
        counts["linalg.nnz"] += _matrix_nnz(a) + _nnz(b)
        counts["linalg.rank"] += a.cols - result.kernel.dim
    elif name == "infeasibility_certificate":
        a, b = args[0], args[1]
        counts["linalg.cells"] += (a.cols + 1) * (a.rows + 1)
        counts["linalg.nnz"] += _matrix_nnz(a) + _nnz(b) + 1
    elif name == "Subspace.from_spanning":
        ambient, vectors = args[1], args[2]
        counts["linalg.cells"] += ambient * len(vectors)
        counts["linalg.nnz"] += sum(_nnz(v) for v in vectors)
        counts["linalg.rank"] += result.dim
    else:  # nullspace, rref
        m = args[0]
        counts["linalg.cells"] += m.rows * m.cols
        counts["linalg.nnz"] += _matrix_nnz(m)
        counts["linalg.rank"] += result[2] if name == "rref" else m.cols - result.dim


def _multiops_boundary(counts, name, args, result):
    counts["multiops.calls"] += 1
    coeffs = getattr(result, "coeffs", None)
    if isinstance(coeffs, dict):
        counts["multiops.out_nnz"] += len(coeffs)


_BOUNDARY_COUNTING = {"linalg": _linalg_boundary, "multiops": _multiops_boundary}


def _mul_vec(counts, boundary, args, result, exc):
    counts["algebra.mul_vec_calls"] += 1


def _buchberger(counts, boundary, args, result, exc):
    counts["poly.buchberger_calls"] += 1
    if exc is not None:
        counts["poly.budget_trips"] += type(exc).__name__ == "BudgetExceededError"
        return
    counts["poly.reductions"] += result.reductions_used
    counts["poly.basis_size"] += len(result.generators)


def _pivot_system(counts, boundary, args, result, exc):
    if exc is None:
        counts["codim1.generators"] += len(result[1])


def _codim1_subalgebras(counts, boundary, args, result, exc):
    if exc is None:
        counts["codim1.found"] += len(result.subalgebras)


def _check_identity(counts, boundary, args, result, exc):
    counts["identities.calls"] += 1
    alg, ident = args[0], args[1]
    counts["identities.symbols"] += len(ident.variables) * alg.dim


# Arguments that may arrive as generators: counting would exhaust them, so
# they are handed on as lists, which the functions read the same way.
_LISTED_ARGUMENT = {("linalg", "solve_many"): 1, ("linalg", "Subspace.from_spanning"): 2}

_COUNTING = {
    ("algebra", "Algebra.mul_vec"): _mul_vec,
    ("poly", "buchberger"): _buchberger,
    ("codim1", "pivot_system"): _pivot_system,
    ("codim1", "codim1_subalgebras"): _codim1_subalgebras,
    ("identities", "check_identity"): _check_identity,
}
