"""Independent checks of returned objects, in the benchmark's own code.

Each check restates a defining equation over `fractions.Fraction` with
sparse vectors ({coordinate: value}); it shares no code with kantor.

* a derivation D obeys D(xy) = D(x)y + xD(y) on every basis pair;
* a Jacobi element a has a derivation as left multiplication L_a;
* a quasi-unit e obeys e(xy) = (ex)y + x(ey) - xy on every basis pair.
"""

from __future__ import annotations

from fractions import Fraction


class Table:
    """Sparse structure constants: products[(i, j)] = {k: c_ij^k}."""

    def __init__(self, n, products):
        self.n = n
        self.products = products

    @classmethod
    def from_document(cls, doc):
        index = {name: k for k, name in enumerate(doc["basis"])}
        products = {}
        for key, combo in doc["table"].items():
            left, right = key.split("*")
            products[(index[left], index[right])] = {
                index[name]: Fraction(value) for name, value in combo.items()
            }
        return cls(len(index), products)

    @classmethod
    def from_dense(cls, table):
        products = {}
        for i, row in enumerate(table):
            for j, cell in enumerate(row):
                combo = {k: Fraction(c) for k, c in enumerate(cell) if c}
                if combo:
                    products[(i, j)] = combo
        return cls(len(table), products)

    def mul(self, x, y):
        out = {}
        for i, xi in x.items():
            for j, yj in y.items():
                combo = self.products.get((i, j))
                if combo:
                    c = xi * yj
                    for k, ck in combo.items():
                        out[k] = out.get(k, 0) + c * ck
        return {k: v for k, v in out.items() if v}

    def unit(self, i):
        return {i: Fraction(1)}


def add(*terms):
    """Sum of (sign, vector) pairs, zeros dropped."""
    out = {}
    for sign, vec in terms:
        for k, v in vec.items():
            out[k] = out.get(k, 0) + sign * v
    return {k: v for k, v in out.items() if v}


def apply(columns, vec):
    """Linear map given by its columns (sparse) applied to a sparse vector."""
    return add(*((c, columns[j]) for j, c in vec.items()))


def derivation_defect(table, columns):
    """First basis pair (i, j) where D(e_i e_j) != D(e_i) e_j + e_i D(e_j)."""
    for i in range(table.n):
        for j in range(table.n):
            lhs = apply(columns, table.products.get((i, j), {}))
            rhs = add((1, table.mul(columns[i], table.unit(j))), (1, table.mul(table.unit(i), columns[j])))
            if add((1, lhs), (-1, rhs)):
                return (i, j)
    return None


def left_multiplication(table, a):
    return [table.mul(a, table.unit(j)) for j in range(table.n)]


def quasi_unit_defect(table, e):
    """First basis pair where e(xy) != (ex)y + x(ey) - xy."""
    for i in range(table.n):
        for j in range(table.n):
            x, y = table.unit(i), table.unit(j)
            xy = table.products.get((i, j), {})
            lhs = table.mul(e, xy)
            rhs = add(
                (1, table.mul(table.mul(e, x), y)),
                (1, table.mul(x, table.mul(e, y))),
                (-1, xy),
            )
            if add((1, lhs), (-1, rhs)):
                return (i, j)
    return None


def sparse(values):
    return {k: Fraction(v) for k, v in enumerate(values) if Fraction(v)}


def named_sparse(combo, names):
    index = {name: k for k, name in enumerate(names)}
    return {index[name]: Fraction(v) for name, v in combo.items() if Fraction(v)}


def matrix_columns(n, entry):
    """Sparse columns of an n x n matrix given entry(row, col)."""
    return [{r: Fraction(entry(r, c)) for r in range(n) if Fraction(entry(r, c))} for c in range(n)]


def check_derivations(table, matrices, label):
    """`matrices` are entry functions (row, col) -> value, one per basis element."""
    problems = []
    for k, entry in enumerate(matrices):
        bad = derivation_defect(table, matrix_columns(table.n, entry))
        if bad is not None:
            problems.append(f"{label}: derivation basis element {k + 1} breaks Leibniz on basis pair {bad}")
    return problems


def check_jacobi(table, elements, label):
    problems = []
    for k, a in enumerate(elements):
        bad = derivation_defect(table, left_multiplication(table, a))
        if bad is not None:
            problems.append(f"{label}: Jacobi basis element {k + 1} has L_a failing Leibniz on {bad}")
    return problems


def check_quasi_unit(table, e, label):
    bad = quasi_unit_defect(table, e)
    if bad is not None:
        return [f"{label}: quasi-unit fails e(xy) = (ex)y + x(ey) - xy on basis pair {bad}"]
    return []
