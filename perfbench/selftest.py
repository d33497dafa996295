"""Self-test of the benchmark: a traced pass does the same work under any
string-hash seed.

A run gives each of its passes its own string-hash seed, so the passes of
one run, and of two runs with the same `--seed`, must do the same work
whatever that hash seed is.  For every workload this runs pass 0 of the
given seed twice, traced, each in its own interpreter under a different
PYTHONHASHSEED, and checks that the two report identical call and yield
counts and instance totals, and that every verdict was correct.  Run from
the root of a checkout:

    python3 perfbench/selftest.py [--seed N]

Exit status 0 means every workload reproduced.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HASH_SEEDS = (1, 2)


def traced_pass(workload: str, seed: int, hash_seed: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("run.py")), "--workload", workload,
         "--seed", str(seed), "--pass-index", "0", "--trace", "1"],
        env=dict(os.environ, PYTHONHASHSEED=str(hash_seed)),
        capture_output=True, text=True, timeout=170, check=True,
    )
    record = json.loads(out.stdout.splitlines()[-1])
    return {
        "calls": record["calls"],
        "yields": record["yields"],
        "instances": len(record["times"]),
        "failed": record["failed"],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    ok = True
    for workload in WORKLOADS:
        first, second = (traced_pass(workload, args.seed, h) for h in HASH_SEEDS)
        differ = sorted(
            name for field in ("calls", "yields")
            for name in first[field].keys() | second[field].keys()
            if first[field].get(name) != second[field].get(name)
        )
        good = first == second and first["failed"] == 0
        ok = ok and good
        print(f"{workload}: {'ok' if good else 'FAIL'} "
              f"({len(first['calls'])} functions called, {first['instances']} instances, "
              f"{first['failed']} failed"
              + (f"; differing: {', '.join(differ)}" if differ else "") + ")")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
