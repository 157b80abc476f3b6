"""Write benchmark/expected.json: the desk reports as the program gives them now.

Run from the root of a checkout, once, at the commit whose answers are the
record:

    python3 benchmark/record.py

For every fixture request and README line it stores the exit code and the
SHA-256 of the standard output.  A README line keeps the exit code the
README documents; when the program exits otherwise, no digest is stored,
the code it exits with is stored as `known_exit`, and the benchmark counts
that line as failed (any other exit code is a wrong answer) until the
program is fixed.
Twisted copies change with the seed and are checked against their fixtures
instead.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402


def main():
    os.chdir(ROOT)
    workdir = os.path.join(HERE, ".work")
    os.makedirs(workdir, exist_ok=True)
    desk = workloads.Desk(1, workdir, expected={})
    documented = {line: code for line, code in workloads.README_LINES}
    record = {}
    for request in desk.requests:
        if request.expected["twisted_of"] is not None:
            continue
        code, out = request.call()
        want = documented.get(request.rid, code)
        record[request.rid] = {"exit": want, "sha256": workloads.digest(out) if code == want else None}
        if code != want:
            record[request.rid]["known_exit"] = code
            print(f"exits {code}, documented {want}: {request.rid}")
    with open(workloads.EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump({"desk": record}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(record)} desk requests in {os.path.relpath(workloads.EXPECTED_PATH, ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
