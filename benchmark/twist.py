"""Seeded basis changes of algebra documents, in plain `fractions`.

A twisted copy of an algebra is the same algebra written in another basis
f_j = sum_i P[i][j] e_i, where P is a product of elementary column
operations "add s times column c to column r" with s = +1 or -1.  Its
structure constants are

    c'[a][b][l] = sum_{i,j,k} P[i][a] P[j][b] c[i][j][k] Q[l][k],   Q = P^-1.

Every basis-independent invariant (conservativity, dimensions of the
Jacobi space, of Der and of the annihilator, terminality, identity
verdicts) must come out the same as for the original, while the tables
become dense with growing entries.  Nothing here imports kantor: the
program only sees the JSON files written from these documents.
"""

from __future__ import annotations

import random
from fractions import Fraction

# Elementary column operations per twist, and twists drawn per fixture of
# which the one of median density is kept (see twisted_document).
OPERATIONS = 3
CANDIDATES = 15


def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def matmul(a, b):
    n, m, p = len(a), len(b), len(b[0])
    return [[sum(a[i][k] * b[k][j] for k in range(m)) for j in range(p)] for i in range(n)]


def elementary_ops(n, count, rng):
    """`count` operations (r, c, s): column r += s * column c, with r != c."""
    ops = []
    for _ in range(count):
        r, c = rng.sample(range(n), 2)
        ops.append((r, c, rng.choice((1, -1))))
    return ops


def change_of_basis(n, ops):
    """(P, Q) with Q = P^-1, built from the operations and their inverses."""
    p, q = identity(n), identity(n)
    for r, c, s in ops:
        step, back = identity(n), identity(n)
        step[c][r] = s
        back[c][r] = -s
        p = matmul(p, step)
        q = matmul(back, q)
    if matmul(p, q) != identity(n):
        raise AssertionError("twist matrix and its inverse disagree")
    return p, q


def read_table(doc):
    """Dense c[i][j][k] from a canonical (sparse) algebra document."""
    names = doc["basis"]
    n = len(names)
    index = {name: k for k, name in enumerate(names)}
    c = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for key, combo in doc["table"].items():
        left, right = key.split("*")
        for name, value in combo.items():
            c[index[left]][index[right]][index[name]] = Fraction(value)
    return c


def write_document(names, c):
    table = {}
    for a, na in enumerate(names):
        for b, nb in enumerate(names):
            combo = {names[l]: str(v) for l, v in enumerate(c[a][b]) if v}
            if combo:
                table[f"{na}*{nb}"] = combo
    return {"dim": len(names), "basis": list(names), "table": table}


def change_basis(c, p, q):
    n = len(c)
    cols = [[(i, p[i][a]) for i in range(n) if p[i][a]] for a in range(n)]
    qcols = [[(l, q[l][k]) for l in range(n) if q[l][k]] for k in range(n)]
    out = [[None] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            v = [0] * n
            for i, pia in cols[a]:
                for j, pjb in cols[b]:
                    w = pia * pjb
                    for k, ck in enumerate(c[i][j]):
                        if ck:
                            v[k] += w * ck
            new = [Fraction(0)] * n
            for k, vk in enumerate(v):
                if vk:
                    for l, qlk in qcols[k]:
                        new[l] += qlk * vk
            out[a][b] = new
    return out


def twisted_document(doc, rng):
    """A basis-changed copy of `doc`, drawn from `rng`.

    The cost of every exact engine grows with the number of nonzero
    structure constants, and one random twist can leave a table sparse or
    make it dense.  So CANDIDATES twists are drawn and the one of median
    density is kept: the inputs still change with the seed, but their
    density, and with it the work per pass, varies much less.
    """
    n = doc["dim"]
    if n < 2:
        return dict(doc)
    c = read_table(doc)
    drawn = []
    for _ in range(CANDIDATES):
        p, q = change_of_basis(n, elementary_ops(n, OPERATIONS, rng))
        drawn.append(change_basis(c, p, q))
    density = [sum(1 for row in t for cell in row for x in cell if x) for t in drawn]
    ranked = sorted(range(CANDIDATES), key=lambda i: (density[i], i))
    return write_document(doc["basis"], drawn[ranked[CANDIDATES // 2]])


def seeded_rng(seed, *labels):
    """An independent generator per (seed, label...) so inputs do not shift
    when another input is added."""
    return random.Random("/".join(str(x) for x in (seed,) + labels))
