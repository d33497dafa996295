"""Every wheelkit subcommand on fixed inputs, with its expected exit code.

Each case in `CASES` runs with ``--out out.json`` appended, in a directory
holding `FILES`.  Tier-1 runs the table in-process (`tests/test_cli.py`).
``python tests/cli_cases.py`` runs it through the installed ``wheelkit``
under PYTHONHASHSEED=1 and 2: the exit codes must be the table's, and the
report and stderr the same bytes under both seeds (`verify` reports
without ``elapsed_seconds``).  Then ``wheelkit verify all`` must equal
``tests/golden/verify-all.json`` under both seeds, report order included.
Exits 1 when a check fails.
"""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

FILES = {
    # vertex 3 joined to 4-7, plus K7 on {0, 1, 2, 4, 5, 6, 7}
    "star_k7.g6": "Gw~~~{\n",
    # the wheel with hub 0 and rim 1..10, where vkey puts 9 before 10
    "wheel10.txt": "11\n0 1\n0 2\n0 3\n0 4\n0 5\n0 6\n0 7\n0 8\n0 9\n0 10\n"
    "1 2\n2 3\n3 4\n4 5\n5 6\n6 7\n7 8\n8 9\n9 10\n10 1\n",
    # K4, a wheel with five spokes, a path and an isolated vertex
    "four_parts.txt": "13\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n"
    "4 5\n4 6\n4 7\n4 8\n4 9\n5 6\n6 7\n7 8\n8 9\n5 9\n10 11\n",
    # K5 on 0..4 with the edges 0-1 and 3-4 subdivided by 5 and 6, plus
    # the edges 5-6, 0-7 and 5-7
    "subdivided_k5.txt": "8\n0 2\n0 3\n0 4\n0 5\n1 2\n1 3\n1 4\n1 5\n"
    "2 3\n2 4\n3 6\n4 6\n5 6\n0 7\n5 7\n",
    "k5.g6": "D~{\n",
    "c5.txt": "5\n0 1\n1 2\n2 3\n3 4\n4 0\nS: 0 1 2 3 4\n",
    # the catalog member W1: hub 0 on four of its five terminals
    "w1.txt": "6\n0 1\n0 2\n0 3\n0 4\nS: 1 2 3 4 5\n",
    # pair_chord's planar side alone, vertices u v v1 v2 v3 v4 as 0..5
    "pair_chord_side.txt": "6\n0 1\n0 2\n0 3\n0 4\n1 2\n1 4\n1 5\n",
    "not_utf8.txt": b"\xff\xfe\x00",
    "quick.cfg": "# a short run\n\ninstances = 10\n",
}

CASES = [
    (("planar", "four_parts.txt"), 0),
    (("planar", "k5.g6"), 1),
    (("disc-planar", "c5.txt"), 0),
    (("disc-planar", "c5.txt", "--terminals", "0,2,1,3", "--ordered"), 1),
    (("disc-planar", "c5.txt", "--terminals", "0,2,1,3", "--unordered"), 0),
    (("disc-planar", "c5.txt", "--terminals", "0,1,9"), 2),
    (("good-wheel", "wheel10.txt"), 0),
    (("good-wheel", "c5.txt"), 1),
    (("k5", "subdivided_k5.txt"), 0),
    (("k5", "wheel10.txt"), 1),
    (("color", "wheel10.txt"), 0),
    (("color", "k5.g6"), 1),
    (("separations", "star_k7.g6", "--planar-side", "-k", "4"), 0),
    (("separations", "wheel10.txt", "-k", "3"), 0),
    (("separations", "wheel10.txt", "-k", "3", "--max", "-1"), 2),
    (("trichotomy", "four_parts.txt", "--cut", "0,1,2,3", "--side", "4,5,6,7,8,9"), 0),
    (("trichotomy", "subdivided_k5.txt", "--cut", "0,1,2,3,6", "--side", "4"), 0),
    (("trichotomy", "wheel10.txt", "--cut", "0,1,2,4", "--side", "3"), 0),
    (("trichotomy", "wheel10.txt", "--cut", "0,1,2,4", "--side", "3,5,6,7,8,9,10"), 1),
    (("trichotomy", "four_parts.txt", "--cut", "0,1,2,3", "--side", "4,10"), 2),
    (("catalog", "list"), 0),
    (("catalog", "dump", "--format", "graph6"), 0),
    (("catalog", "dump", "--format", "dot"), 0),
    (("catalog", "dump"), 0),
    (("catalog", "match", "w1.txt"), 0),
    (("catalog", "match", "c5.txt"), 1),
    (("catalog", "match"), 2),
    (("lift", "--rule", "pair_chord", "--demo"), 0),
    (("lift", "pair_chord_side.txt", "--rule", "pair_chord", "--map", "u=0,v=1,v1=2,v2=3,v3=4,v4=5"), 1),
    (("lift", "--rule", "pair_chord"), 2),
    (("gen", "--n-max", "7", "--s-size", "5", "--filter", "s-independent"), 0),
    (("verify", "planar-no-k5", "--config", "quick.cfg", "--seed", "3"), 0),
    (("planar", "not_utf8.txt"), 2),
    (("planar", "missing.txt"), 2),
    (("separations", "wheel10.txt"), 2),
]


def write_files(directory) -> None:
    for name, data in FILES.items():
        Path(directory, name).write_bytes(data.encode() if isinstance(data, str) else data)


def _run(argv, seed: int, directory: str):
    """Exit code, report and stderr of the installed wheelkit on one case."""
    out = Path(directory, "out.json")
    out.unlink(missing_ok=True)
    env = {**os.environ, "PYTHONHASHSEED": str(seed)}
    proc = subprocess.run(
        ["wheelkit", *argv, "--out", out.name], cwd=directory, env=env, capture_output=True
    )
    report = out.read_bytes() if out.exists() else None
    if report and argv[0] == "verify":
        report = [{k: v for k, v in r.items() if k != "elapsed_seconds"} for r in json.loads(report)]
    return proc.returncode, report, proc.stderr


def main() -> int:
    failures = []
    with tempfile.TemporaryDirectory() as directory:
        write_files(directory)
        for argv, code in CASES:
            (code1, *rest1), (code2, *rest2) = (_run(argv, seed, directory) for seed in (1, 2))
            if code1 != code or code2 != code:
                failures.append(f"{argv}: exit {code1} and {code2} under seeds 1 and 2, want {code}")
            elif rest1 != rest2:
                failures.append(f"{argv}: report or stderr differs between seeds 1 and 2")
        golden = json.loads(Path(__file__).with_name("golden").joinpath("verify-all.json").read_text())
        want = {r["experiment"]: r for r in golden}
        for seed in (1, 2):
            code, got, _ = _run(("verify", "all"), seed, directory)
            if got != golden:
                have = {r["experiment"]: r for r in got or ()}
                names = sorted(n for n in want.keys() | have.keys() if want.get(n) != have.get(n))
                failures.append(
                    f"PYTHONHASHSEED={seed}: verify all (exit {code}) differs from the golden file: "
                    + (", ".join(names) or "report order")
                )
    print("\n".join(failures) or f"{len(CASES)} cases and verify all agree under PYTHONHASHSEED=1 and 2")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
