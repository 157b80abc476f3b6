#!/usr/bin/env python3
"""Randomized agreement experiment for the codimension-1 search.

Draws random algebras with small integer structure constants and compares
the exact pivot-sweep enumeration against the bounded-grid hyperplane
oracle (normals with coordinates in [-bound, bound]).  Any disagreement on
grid-visible subalgebras is a bug; unresolved components are tallied.

    python scripts/codim1_grid_check.py --count 50 --dim 3 --seed 7
"""

import argparse
import pathlib
import random
import sys
from fractions import Fraction

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))  # the grid oracle lives beside the other test oracles

from kantor.algebra import Algebra, verify_subalgebra
from kantor.codim1 import codim1_subalgebras

from helpers import grid_hyperplane_oracle, normal_vector


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--count", type=int, default=50)
    ap.add_argument("--dim", type=int, default=3)
    ap.add_argument("--coeff", type=int, default=2, help="structure constants in [-coeff, coeff]")
    ap.add_argument("--bound", type=int, default=3, help="grid bound for oracle normals")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    rng = random.Random(args.seed)
    n = args.dim
    disagreements = 0
    total_found = 0
    unresolved = 0
    for trial in range(args.count):
        alg = Algebra.from_table(
            [
                [[Fraction(rng.randint(-args.coeff, args.coeff)) for _ in range(n)] for _ in range(n)]
                for _ in range(n)
            ]
        )
        report = codim1_subalgebras(alg)
        total_found += len(report.subalgebras)
        unresolved += sum(
            len(c.solutions.unresolved) for c in report.cases if c.solutions is not None
        )
        for sub in report.subalgebras:
            assert verify_subalgebra(alg, sub)
        grid = {normal_vector(s) for s in grid_hyperplane_oracle(alg, bound=args.bound)}
        small = {
            normal_vector(s)
            for s in report.subalgebras
            if max(abs(int(c)) for c in normal_vector(s)) <= args.bound
        }
        if small != grid:
            disagreements += 1
            print(f"trial {trial}: DISAGREEMENT sweep={sorted(small)} grid={sorted(grid)}")
    print(
        f"{args.count} random dim-{n} algebras: {total_found} subalgebras found, "
        f"{unresolved} unresolved components, {disagreements} grid disagreements"
    )
    if disagreements:
        sys.exit(1)


if __name__ == "__main__":
    main()
