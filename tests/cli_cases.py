"""Every wheelkit command-line check: a subcommand on fixed inputs, with its
expected exit code and output.

Each case in `CASES` runs with ``--out out.json`` appended, in a directory
holding `FILES`, and `problem` checks the run against the case: on exit 2,
no report and stderr ending in the case's line; on exits 0 and 1, no stderr
and a JSON report holding the case's dict (each report of ``verify``) or
passing its function.  Tier-1 runs the table in-process
(`tests/test_cli.py`).  ``python tests/cli_cases.py`` runs it through the
installed ``wheelkit`` under PYTHONHASHSEED=1 and 2: each run must pass
`problem`, and the report and stderr be the same bytes under both seeds
(`verify` reports without ``elapsed_seconds``).  Then ``wheelkit verify
all`` must equal ``tests/golden/verify-all.json`` under both seeds, report
order included.  Exits 1 when a check fails.
"""

import json
import os
import subprocess
import sys
import tempfile
from itertools import combinations
from pathlib import Path

from wheelkit.catalog import catalog
from wheelkit.coloring import is_proper
from wheelkit.gio import from_graph6, parse_edgelist
from wheelkit.graph import Graph
from wheelkit.planarity import TerminalGraph, is_disc_planar

def _grid(rows: int, cols: int) -> str:
    """The rows x cols grid as an edge list, with vertex r * cols + c in
    row r and column c."""
    edges = [(v, v + 1) for v in range(rows * cols) if (v + 1) % cols]
    edges += [(v, v + cols) for v in range((rows - 1) * cols)]
    return f"{rows * cols}\n" + "".join(f"{u} {v}\n" for u, v in edges)


# the boundary cycle of the 5 x 8 grid from its corner 0; with the fence of
# its 22 terminals the core has 63 vertices, the largest that any row sends
# to path addition
GRID_RIM = [*range(8), 15, 23, 31, *range(39, 31, -1), 24, 16, 8]
GRID_ROWS = [
    ("disc-planar", "grid5x8.txt", "--terminals", ",".join(map(str, rim)), "--ordered")
    for rim in (GRID_RIM, [GRID_RIM[0], GRID_RIM[2], GRID_RIM[1], *GRID_RIM[3:]])
]

FILES = {
    # vertex 3 joined to 4-7, plus K7 on {0, 1, 2, 4, 5, 6, 7}
    "star_k7.g6": "Gw~~~{\n",
    # the wheel with hub 0 and rim 1..10, where vkey puts 9 before 10
    "wheel10.txt": "11\n0 1\n0 2\n0 3\n0 4\n0 5\n0 6\n0 7\n0 8\n0 9\n0 10\n"
    "1 2\n2 3\n3 4\n4 5\n5 6\n6 7\n7 8\n8 9\n9 10\n10 1\n",
    "w4.txt": "5\n0 1\n0 2\n0 3\n0 4\n1 2\n1 4\n2 3\n3 4\n",
    # K4, a wheel with five spokes, a path and an isolated vertex
    "four_parts.txt": "13\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n"
    "4 5\n4 6\n4 7\n4 8\n4 9\n5 6\n6 7\n7 8\n8 9\n5 9\n10 11\n",
    # K5 on 0..4 with the edges 0-1 and 3-4 subdivided by 5 and 6, plus
    # the edges 5-6, 0-7 and 5-7
    "subdivided_k5.txt": "8\n0 2\n0 3\n0 4\n0 5\n1 2\n1 3\n1 4\n1 5\n"
    "2 3\n2 4\n3 6\n4 6\n5 6\n0 7\n5 7\n",
    "k4.g6": "C~\n",
    "k5.g6": "D~{\n",
    "two_triangles.txt": "6\n0 1\n0 2\n1 2\n3 4\n3 5\n4 5\n",
    "c5.txt": "5\n0 1\n1 2\n2 3\n3 4\n4 0\nS: 0 1 2 3 4\n",
    "c6.txt": "6\n0 1\n0 5\n1 2\n2 3\n3 4\n4 5\n",
    "c8.txt": "8\n0 1\n1 2\n2 3\n3 4\n4 5\n5 6\n6 7\n7 0\n",
    # the catalog member W1: hub 0 on four of its five terminals
    "w1.txt": "6\n0 1\n0 2\n0 3\n0 4\nS: 1 2 3 4 5\n",
    # W1 (hub 0, terminals 3..7) glued on its terminals to the edge 1-2,
    # whose ends both see every terminal
    "w1_glued.txt": "8\n0 3\n0 4\n0 5\n0 6\n1 2\n1 3\n1 4\n1 5\n1 6\n1 7\n"
    "2 3\n2 4\n2 5\n2 6\n2 7\n",
    # pair_chord's planar side alone, vertices u v v1 v2 v3 v4 as 0..5
    "pair_chord_side.txt": "6\n0 1\n0 2\n0 3\n0 4\n1 2\n1 4\n1 5\n",
    # pair_chord's first corpus host, a b c d u v v1 v2 v3 v4 as 0..9
    "pair_chord_host.txt": "10\n0 1\n0 6\n0 7\n0 9\n1 8\n2 7\n2 8\n3 8\n3 9\n"
    "4 5\n4 6\n4 7\n4 8\n5 6\n5 8\n5 9\n6 7\n6 8\n6 9\n",
    "grid5x8.txt": _grid(5, 8),
    "bad_index.txt": "3\n0 5\n",
    "bad_line.txt": "3\n0 1 2\n",
    # five vertices need two bytes after the size byte
    "junk.g6": "D??junk\n",
    "not_utf8.txt": b"\xff\xfe\x00",
    "quick.cfg": "# a short run\n\ninstances = 10\n",
    "bench.cfg": "seed = 99\ninstances = 20\n",
    "bad_int.cfg": "seed = abc\n",
    "bad_key.cfg": "sead = 4\n",
    "gen4.cfg": "generation_bound = 4\n",
}


def _indexed(tg: TerminalGraph):
    """tg's graph and terminals with its i-th vertex named "i", as the
    catalog dumps write them."""
    idx = {v: str(i) for i, v in enumerate(tg.graph.vertices)}
    graph = Graph(idx.values(), [(idx[u], idx[v]) for u, v in tg.graph.edges])
    return graph, tuple(idx[t] for t in tg.terminals)


def _dumps(check):
    """A report check: one entry per catalog member, each passing check."""
    return lambda report: report.keys() == {m.name for m in catalog()} and all(
        check(m.tg, report[m.name]) for m in catalog()
    )


def _planar_sides_with_star(report) -> bool:
    """32 separations, each side1 disc-planar over its cut, among them the
    star side of the cut 4-7 as side1 although its vertices sort second."""
    star = {
        "cut": ["4", "5", "6", "7"],
        "side1": {"vertices": ["3", "4", "5", "6", "7"], "edges": [["3", v] for v in "4567"]},
        "side2": {"vertices": list("0124567"), "edges": [list(e) for e in combinations("0124567", 2)]},
    }
    return (
        report["count"] == 32
        and star in report["separations"]
        and all(
            is_disc_planar(
                TerminalGraph(Graph(s["side1"]["vertices"], s["side1"]["edges"]), s["cut"], ordered=False)
            )
            for s in report["separations"]
        )
    )


RIM10 = [str(i) for i in range(1, 11)]
MAP = "u=4,v=5,v1=6,v2=7,v3=8,v4=9"
CASES = [
    (("planar", "four_parts.txt"), 0, {"planar": True, "face_count": 9}),
    (("planar", "k4.g6"), 0, {
        "faces": [["0", "1", "2"], ["0", "2", "3"], ["0", "3", "1"], ["1", "3", "2"]],
        "face_count": 4,
    }),
    # four faces traced, the unbounded one counted once
    (("planar", "two_triangles.txt"), 0, {
        "faces": [["0", "1", "2"], ["0", "2", "1"], ["3", "4", "5"], ["3", "5", "4"]],
        "face_count": 3,
    }),
    (("planar", "k5.g6"), 1, {"planar": False, "faces": None}),
    (("disc-planar", "c5.txt"), 0, {"disc_planar": True, "ordered": True, "terminals": list("01234")}),
    (("disc-planar", "c5.txt", "--terminals", "0,2,1,3", "--ordered"), 1,
     {"disc_planar": False, "ordered": True}),
    (("disc-planar", "c5.txt", "--terminals", "0,2,1,3", "--unordered"), 0,
     {"disc_planar": True, "ordered": False}),
    (("disc-planar", "c5.txt", "--terminals", "0,1,9"), 2,
     "error: terminal index 9 out of range for 5 vertices"),
    (("disc-planar", "c5.txt", "--terminals", "0,²"), 2, "error: terminal '²' not in graph"),
    # an empty --terminals names the terminal '', not the S: line's
    (("disc-planar", "c5.txt", "--terminals", ""), 2, "error: terminal '' not in graph"),
    (GRID_ROWS[0], 0, {"disc_planar": True, "ordered": True}),
    (GRID_ROWS[1], 1, {"disc_planar": False, "ordered": True}),
    (("good-wheel", "wheel10.txt"), 0, {"found": True, "center": "0", "rim": RIM10, "spokes": RIM10}),
    (("good-wheel", "w4.txt"), 0, {"found": True, "center": "0", "spokes": ["1", "2", "3", "4"]}),
    (("good-wheel", "c5.txt"), 1, {"found": False}),
    (("k5", "subdivided_k5.txt"), 0, {"found": True, "paths": [
        ["0", "5", "1"], ["0", "2"], ["0", "3"], ["0", "4"], ["1", "2"],
        ["1", "3"], ["1", "4"], ["2", "3"], ["2", "4"], ["3", "6", "4"],
    ]}),
    (("k5", "k5.g6"), 0,
     {"found": True, "branch": list("01234"), "paths": [list(e) for e in combinations("01234", 2)]}),
    (("k5", "wheel10.txt"), 1, {"found": False}),
    # the K5 search keeps its 12-vertex default cap
    (("k5", "grid5x8.txt"), 2, "error: subdivision search capped at 12 vertices, got 40"),
    (("color", "wheel10.txt"), 0, {"colorable": True, "assignment": {
        "0": 1, "1": 2, "2": 3, "3": 2, "4": 3, "5": 2, "6": 3, "7": 2, "8": 3, "9": 2, "10": 3,
    }}),
    (("color", "k5.g6"), 1, {"colorable": False, "assignment": None}),
    # past 32 vertices: only the kernels' 63-vertex cap bounds the coloring
    (("color", "grid5x8.txt"), 0, lambda report: report["colorable"] and is_proper(
        parse_edgelist(FILES["grid5x8.txt"])[0], report["assignment"], total=True
    )),
    (("color", "junk.g6"), 2, "error: graph6 line holds 4 bytes past its 5-vertex encoding"),
    (("color", "bad_index.txt"), 2, "error: vertex index 5 out of range 0..2"),
    (("color", "bad_line.txt"), 2, "error: bad edge line: '0 1 2'"),
    (("separations", "star_k7.g6", "--planar-side", "-k", "4"), 0, _planar_sides_with_star),
    (("separations", "wheel10.txt", "-k", "3"), 0, {"order": 3, "count": 185}),
    (("separations", "c6.txt", "-k", "2"), 0, {"count": 15}),
    (("separations", "c6.txt", "-k", "2", "--planar-side", "--max", "1"), 0, {"count": 1, "separations": [{
        "cut": ["0", "1"],
        "side1": {"vertices": ["0", "1"], "edges": [["0", "1"]]},
        "side2": {"vertices": list("012345"), "edges": [
            ["0", "5"], ["1", "2"], ["2", "3"], ["3", "4"], ["4", "5"],
        ]},
    }]}),
    (("separations", "wheel10.txt", "-k", "3", "--max", "-1"), 2,
     "error: --max must be at least 0, got -1"),
    (("trichotomy", "four_parts.txt", "--cut", "0,1,2,3", "--side", "4,5,6,7,8,9"), 0,
     {"verdict": "good-wheel", "wheel": {"center": "4", "rim": ["5", "6", "7", "8", "9"]}}),
    (("trichotomy", "subdivided_k5.txt", "--cut", "0,1,2,3,6", "--side", "4"), 0,
     {"verdict": "catalog", "member": "W1"}),
    (("trichotomy", "w1_glued.txt", "--cut", "3,4,5,6,7", "--side", "0"), 0,
     {"verdict": "catalog", "member": "W1"}),
    (("trichotomy", "wheel10.txt", "--cut", "0,1,2,4", "--side", "3"), 0, {"verdict": "small"}),
    (("trichotomy", "wheel10.txt", "--cut", "0,1,2,4", "--side", "3,5,6,7,8,9,10"), 1, {"verdict": "none"}),
    (("trichotomy", "four_parts.txt", "--cut", "0,1,2,3", "--side", "4,10"), 2,
     "error: edge ('4', '5') crosses the claimed separation"),
    (("trichotomy", "w1_glued.txt", "--cut", "3,4,5,6,7", "--side", "1"), 2,
     "error: edge ('1', '2') crosses the claimed separation"),
    (("trichotomy", "w1_glued.txt", "--cut", "3,4,5,6,7", "--side", "99"), 2,
     "error: unknown vertex ids: ['99']"),
    (("trichotomy", "c8.txt", "--cut", "0,2,4", "--side", "1,2,3"), 2,
     "error: vertex ids named twice in the cut and side: ['2']"),
    (("catalog", "list"), 0, lambda report: [m["name"] for m in report] == [m.name for m in catalog()]),
    (("catalog", "dump", "--format", "graph6"), 0,
     _dumps(lambda tg, text: from_graph6(text) == _indexed(tg)[0])),
    (("catalog", "dump", "--format", "dot"), 0, _dumps(lambda tg, text: all(
        f'  "{v}" [shape={"box" if v in tg.terminals else "circle"}];' in text for v in tg.graph.vertices
    ))),
    (("catalog", "dump"), 0, _dumps(lambda tg, text: parse_edgelist(text) == _indexed(tg))),
    (("catalog", "match", "w1.txt"), 0, {"match": "W1"}),
    (("catalog", "match", "c5.txt"), 1, {"match": None}),
    (("catalog", "match"), 2, "wheelkit catalog match: error: the following arguments are required: graph"),
    (("catalog", "list", "missing.txt", "--format", "dot", "--terminals", "1,2"), 2,
     "wheelkit: error: unrecognized arguments: missing.txt --format dot --terminals 1,2"),
    (("catalog", "dump", "missing.txt", "--terminals", "9"), 2,
     "wheelkit: error: unrecognized arguments: missing.txt --terminals 9"),
    (("lift", "--rule", "pair_chord", "--demo"), 0, {"reduced_has_k5": True, "paths": [
        ["a", "v1"], ["a", "v2"], ["a", "b", "v3"], ["a", "v4"], ["v1", "v2"],
        ["v1", "v3"], ["v1", "v4"], ["v2", "c", "v3"], ["v2", "u", "v", "v4"], ["v3", "d", "v4"],
    ]}),
    (("lift", "--rule", "pair_chord", "--demo", "--host", "-9"), 2,
     "error: host index -9 out of range for 3 hosts of pair_chord"),
    (("lift", "--rule", "pair_chord", "--demo", "--host", "3"), 2,
     "error: host index 3 out of range for 3 hosts of pair_chord"),
    (("lift", "pair_chord_host.txt", "--rule", "pair_chord", "--map", MAP), 0,
     {"reduced_has_k5": True, "branch": ["0", "v1", "v2", "v3", "v4"]}),
    (("lift", "pair_chord_host.txt", "--rule", "pair_chord", "--map", MAP + ",junk"), 2,
     "error: --map entry 'junk' is not rule=input"),
    (("lift", "pair_chord_host.txt", "--rule", "pair_chord", "--map", MAP + ",zz=99"), 2,
     "error: --map input '99' is not a vertex of the graph"),
    (("lift", "pair_chord_host.txt", "--rule", "pair_chord", "--map", MAP + ",v4=3"), 2,
     "error: --map gives two vertices the name 'v4'"),
    (("lift", "pair_chord_host.txt", "--rule", "pair_chord", "--map", MAP + ",w=4"), 2,
     "error: --map input '4' appears twice"),
    (("lift", "pair_chord_host.txt", "--rule", "pair_chord", "--map", ""), 2, "error: --map entry '' is not rule=input"),
    (("lift", "pair_chord_side.txt", "--rule", "pair_chord", "--map", "u=0,v=1,v1=2,v2=3,v3=4,v4=5"), 1,
     {"reduced_has_k5": False}),
    (("lift", "--rule", "pair_chord"), 2,
     "wheelkit lift: error: one of the arguments graph --demo is required"),
    (("lift", "--rule", "pair_chord", "--demo", "missing.txt", "--map", "u=1"), 2,
     "wheelkit lift: error: argument graph: not allowed with argument --demo"),
    (("lift", "--rule", "pair_chord", "--demo", "--map", "u=1"), 2,
     "error: --map applies to a graph file, not to --demo"),
    (("lift", "pair_chord_host.txt", "--rule", "pair_chord", "--map", MAP, "--host", "2"), 2,
     "error: --host applies to --demo, not to a graph file"),
    (("gen", "--n-max", "7", "--s-size", "5", "--filter", "s-independent"), 0, {"count": 61}),
    (("gen", "--n-max", "5", "--s-size", "4", "--max", "5"), 0, {"count": 5, "graphs": [
        "4\nS: 0 1 2 3\n", "4\n0 1\nS: 0 1 2 3\n", "4\n0 1\n2 3\nS: 0 1 2 3\n",
        "4\n0 1\n0 2\nS: 0 1 2 3\n", "4\n0 1\n0 2\n1 3\nS: 0 1 2 3\n",
    ]}),
    (("gen", "--n-max", "5", "--s-size", "4", "--max", "-3"), 2, "error: --max must be at least 0, got -3"),
    (("verify", "catalog-no-good-wheel"), 0, {"instances": 6, "pass": True}),
    (("verify", "planar-no-k5", "--config", "quick.cfg", "--seed", "3"), 0,
     {"instances": 10, "pass": True, "config": {"seed": 3, "instances": 10}}),
    (("verify", "planar-no-k5", "--config", "bench.cfg"), 0,
     {"instances": 20, "pass": True, "config": {"seed": 99, "instances": 20}}),
    (("verify", "planar-no-k5", "--config", "bad_int.cfg"), 2,
     "error: bad_int.cfg:1: seed must be an integer, got 'abc'"),
    (("verify", "planar-no-k5", "--config", "bad_key.cfg"), 2,
     "error: bad_key.cfg:1: unknown config key 'sead'"),
    (("verify", "gen-catalog-members", "--config", "gen4.cfg"), 2,
     "error: gen4.cfg:1: unknown config key 'generation_bound'"),
    (("planar", "not_utf8.txt"), 2,
     "error: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
    (("planar", "missing.txt"), 2, "error: [Errno 2] No such file or directory: 'missing.txt'"),
    (("separations", "wheel10.txt"), 2,
     "wheelkit separations: error: the following arguments are required: -k"),
]


def _has(report, want) -> bool:
    """Whether report holds every item of want, nested dicts item by item."""
    if isinstance(want, dict):
        return isinstance(report, dict) and all(k in report and _has(report[k], w) for k, w in want.items())
    return report == want


def problem(case, code: int, report: str | None, out: str, err: str) -> str:
    """What one run of case got wrong, or '' when nothing: its exit code,
    report text (None when none was written), stdout and stderr."""
    argv, want, expect = case
    lines = err.splitlines()
    if code != want:
        return f"exit {code}, want {want}"
    if out:
        return f"stdout {out[:200]!r} besides --out"
    if want == 2:
        if report is not None:
            return "exit 2 wrote a report"
        # the error line alone, or after argparse's usage text
        if lines[-1:] != [expect] or (len(lines) > 1 and not err.startswith("usage: ")):
            return f"stderr {err!r}, want {expect!r} as its one line"
        return ""
    if err:
        return f"stderr {err!r} on exit {code}"
    got = json.loads(report)
    if callable(expect):
        ok = expect(got)
    else:
        ok = all(_has(r, expect) for r in (got if argv[0] == "verify" else [got]))
    return "" if ok else f"report {report[:300]!r} does not meet the expectation"


def write_files(directory) -> None:
    for name, data in FILES.items():
        Path(directory, name).write_bytes(data.encode() if isinstance(data, str) else data)


def _run(argv, seed: int, directory: str):
    """Exit code, report, stdout and stderr of the installed wheelkit on one
    case; a verify report is re-dumped without elapsed_seconds."""
    out = Path(directory, "out.json")
    out.unlink(missing_ok=True)
    env = {**os.environ, "PYTHONHASHSEED": str(seed)}
    proc = subprocess.run(
        ["wheelkit", *argv, "--out", out.name], cwd=directory, env=env, capture_output=True, text=True
    )
    report = out.read_text() if out.exists() else None
    if report and argv[0] == "verify":
        reports = json.loads(report)
        report = json.dumps([{k: v for k, v in r.items() if k != "elapsed_seconds"} for r in reports])
    return proc.returncode, report, proc.stdout, proc.stderr


def main() -> int:
    failures = []
    with tempfile.TemporaryDirectory() as directory:
        write_files(directory)
        for case in CASES:
            argv = case[0]
            run1, run2 = (_run(argv, seed, directory) for seed in (1, 2))
            wrong = problem(case, *run1) or problem(case, *run2)
            if wrong:
                failures.append(f"{argv}: {wrong}")
            elif run1 != run2:
                failures.append(f"{argv}: report or stderr differs between seeds 1 and 2")
        golden = json.loads(Path(__file__).with_name("golden").joinpath("verify-all.json").read_text())
        want = {r["experiment"]: r for r in golden}
        for seed in (1, 2):
            code, report, _, _ = _run(("verify", "all"), seed, directory)
            got = json.loads(report) if report else None
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
