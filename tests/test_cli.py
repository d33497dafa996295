import json
from itertools import combinations

import pytest

import wheelkit
from wheelkit import cli
from wheelkit.cli import main
from wheelkit.gio import from_graph6, parse_edgelist, to_edgelist, to_graph6
from wheelkit.graph import Graph, add, complete_graph, cycle_graph, union
from wheelkit.catalog import catalog
from wheelkit.planarity import TerminalGraph, is_disc_planar
from tests.cli_cases import CASES, write_files


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_planar_k4(tmp_path, capsys):
    path = write(tmp_path, "k4.g6", to_graph6(complete_graph(list("abcd"))) + "\n")
    code, payload = run(capsys, "planar", path)
    assert code == 0 and payload["planar"] is True
    assert len(payload["faces"]) == 4
    assert payload["face_count"] == 4


def test_planar_face_count_shares_the_unbounded_face(tmp_path, capsys):
    triangles = union(cycle_graph(["a", "b", "c"]), cycle_graph(["x", "y", "z"]))
    path = write(tmp_path, "two.txt", to_edgelist(triangles))
    code, payload = run(capsys, "planar", path)
    assert code == 0 and len(payload["faces"]) == 4
    assert payload["face_count"] == 3


def test_planar_k5_fails(tmp_path, capsys):
    path = write(tmp_path, "k5.g6", to_graph6(complete_graph(list("abcde"))) + "\n")
    code, payload = run(capsys, "planar", path)
    assert code == 1 and payload["planar"] is False


def test_disc_planar_with_terminal_line(tmp_path, capsys):
    c5 = cycle_graph([f"v{i}" for i in range(5)])
    path = write(tmp_path, "c5.txt", to_edgelist(c5, terminals=tuple(c5.vertices)))
    code, payload = run(capsys, "disc-planar", path)
    assert code == 0 and payload["disc_planar"] is True


def test_k5_subcommand(tmp_path, capsys):
    path = write(tmp_path, "k5.g6", to_graph6(complete_graph(list("abcde"))) + "\n")
    code, payload = run(capsys, "k5", path)
    assert code == 0 and payload["found"] and len(payload["paths"]) == 10


def test_color_subcommand(tmp_path, capsys):
    path = write(tmp_path, "k5.g6", to_graph6(complete_graph(list("abcde"))) + "\n")
    code, payload = run(capsys, "color", path)
    assert code == 1 and payload["colorable"] is False


def test_good_wheel_subcommand(tmp_path, capsys):
    rim = ["r1", "r2", "r3", "r4"]
    g = add(cycle_graph(rim), {"c"}, [("c", r) for r in rim])
    path = write(tmp_path, "wheel.txt", to_edgelist(g))
    code, payload = run(capsys, "good-wheel", path)
    assert code == 0 and payload["found"]


def test_good_wheel_spokes_in_vkey_order(tmp_path, capsys):
    rim = [str(i) for i in range(1, 11)]
    g = add(cycle_graph(rim), {"0"}, [("0", r) for r in rim])
    code, payload = run(capsys, "good-wheel", write(tmp_path, "wheel10.txt", to_edgelist(g)))
    assert code == 0 and payload["center"] == "0" and payload["spokes"] == rim


def test_separations_subcommand(tmp_path, capsys):
    path = write(tmp_path, "c6.txt", to_edgelist(cycle_graph([f"v{i}" for i in range(6)])))
    code, payload = run(capsys, "separations", path, "-k", "2")
    assert code == 0 and payload["count"] > 0


def test_separations_planar_side_max_out(tmp_path, capsys):
    path = write(tmp_path, "c6.txt", to_edgelist(cycle_graph([f"v{i}" for i in range(6)])))
    code, payload = run(capsys, "separations", path, "-k", "2")
    assert payload["count"] == 15
    out = tmp_path / "seps.json"
    code, payload = run(
        capsys, "separations", path, "-k", "2", "--planar-side", "--max", "1", "--out", str(out)
    )
    assert code == 0 and payload is None
    report = json.loads(out.read_text())
    assert report["count"] == 1 and len(report["separations"]) == 1


def test_separations_negative_max_exits_2(tmp_path, capsys):
    path = write(tmp_path, "c6.txt", to_edgelist(cycle_graph([f"v{i}" for i in range(6)])))
    assert main(["separations", path, "-k", "2", "--max", "-3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --max must be at least 0, got -3\n"


def test_separations_planar_side_keeps_a_planar_second_side(tmp_path, capsys):
    # vertex 3 joined to 4-7, plus K7 on {0, 1, 2, 4, 5, 6, 7}: the star
    # side of a 4-cut is disc-planar but sorts second by vertex name
    path = write(tmp_path, "star_k7.g6", "Gw~~~{\n")
    code, payload = run(capsys, "separations", path, "-k", "4", "--planar-side")
    assert code == 0 and payload["count"] == 32
    star = {
        "cut": ["4", "5", "6", "7"],
        "side1": {"vertices": ["3", "4", "5", "6", "7"], "edges": [["3", v] for v in "4567"]},
        "side2": {
            "vertices": ["0", "1", "2", "4", "5", "6", "7"],
            "edges": [list(e) for e in combinations("0124567", 2)],
        },
    }
    assert star in payload["separations"]
    for sep in payload["separations"]:
        side1 = Graph(sep["side1"]["vertices"], sep["side1"]["edges"])
        assert is_disc_planar(TerminalGraph(side1, sep["cut"], ordered=False))


def test_catalog_dump_formats(capsys):
    members = catalog()
    code, payload = run(capsys, "catalog", "dump", "--format", "graph6")
    assert code == 0 and set(payload) == {m.name for m in members}
    for m in members:
        g = m.tg.graph
        idx = {v: str(i) for i, v in enumerate(g.vertices)}
        relabelled = Graph(idx.values(), [(idx[u], idx[v]) for u, v in g.edges])
        assert from_graph6(payload[m.name]) == relabelled

    code, payload = run(capsys, "catalog", "dump", "--format", "edgelist")
    assert code == 0
    for m in members:
        g, ts = parse_edgelist(payload[m.name])
        assert payload[m.name].splitlines()[-1].startswith("S: ")
        assert len(ts) == len(m.tg.terminals) and g.m == m.tg.graph.m

    code, payload = run(capsys, "catalog", "dump", "--format", "dot")
    assert code == 0
    for m in members:
        for t in m.tg.terminals:
            assert f'  "{t}" [shape=box];' in payload[m.name]
        for v in set(m.tg.graph.vertices) - set(m.tg.terminals):
            assert f'  "{v}" [shape=circle];' in payload[m.name]


def test_catalog_list_and_match(tmp_path, capsys):
    code, payload = run(capsys, "catalog", "list")
    assert code == 0 and len(payload) == 6
    w1 = next(m for m in catalog() if m.name == "W1")
    path = write(tmp_path, "w1.txt", to_edgelist(w1.tg.graph, w1.tg.terminals))
    code, payload = run(capsys, "catalog", "match", path)
    assert code == 0 and payload["match"] == "W1"


def test_trichotomy_subcommand(tmp_path, capsys):
    w1 = next(m for m in catalog() if m.name == "W1")
    from wheelkit.graph import Graph, union

    ts = w1.tg.terminals
    side2 = Graph(edges=[(t, h) for t in ts for h in ("h1", "h2")] + [("h1", "h2")])
    g = union(w1.tg.graph, side2)
    idx = {v: str(i) for i, v in enumerate(g.vertices)}
    path = write(tmp_path, "glued.txt", to_edgelist(g))
    code, payload = run(
        capsys,
        "trichotomy",
        path,
        "--cut",
        ",".join(idx[t] for t in ts),
        "--side",
        idx["u"],
    )
    assert code == 0 and payload["verdict"] == "catalog"


@pytest.mark.parametrize(
    "side, message",
    [("h1", "crosses the claimed separation"), ("99", "unknown vertex ids")],
)
def test_trichotomy_bad_side_exits_2(tmp_path, capsys, side, message):
    w1 = next(m for m in catalog() if m.name == "W1")
    ts = w1.tg.terminals
    g = union(w1.tg.graph, Graph(edges=[(t, h) for t in ts for h in ("h1", "h2")] + [("h1", "h2")]))
    idx = {v: str(i) for i, v in enumerate(g.vertices)}
    path = write(tmp_path, "glued.txt", to_edgelist(g))
    # h1's edge to h2 leaves h1 plus the cut; 99 names no vertex
    code = main(["trichotomy", path, "--cut", ",".join(idx[t] for t in ts), "--side", idx.get(side, side)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert len(captured.err.splitlines()) == 1 and message in captured.err


def test_lift_demo(capsys):
    code, payload = run(capsys, "lift", "--rule", "pair_chord", "--demo")
    assert code == 0
    assert payload["reduced_has_k5"] is True and len(payload["paths"]) == 10


@pytest.mark.parametrize("host", ["-9", "3"])
def test_lift_demo_host_out_of_range_exits_2(capsys, host):
    # pair_chord ships hosts 0..2; no index outside them is clamped
    assert main(["lift", "--rule", "pair_chord", "--demo", "--host", host]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: host index {host} out of range for 3 hosts of pair_chord\n"


def test_lift_with_mapped_file(tmp_path, capsys):
    from wheelkit.gadgets import gadget_case

    case = gadget_case("pair_chord")
    host = case.hosts[0]
    idx = {v: str(i) for i, v in enumerate(host.vertices)}
    path = write(tmp_path, "host.txt", to_edgelist(host))
    mapping = ",".join(f"{v}={idx[v]}" for v in ("u", "v", "v1", "v2", "v3", "v4"))
    code, payload = run(capsys, "lift", "--rule", "pair_chord", "--map", mapping, path)
    assert code == 0 and payload["reduced_has_k5"] is True


@pytest.mark.parametrize(
    "extra, message",
    [
        ("junk", "entry 'junk' is not rule=input"),
        ("zz=99", "input '99' is not a vertex"),
        ("v4=3", "two vertices the name 'v4'"),
        ("w=4", "input '4' appears twice"),
    ],
)
def test_lift_map_rejects_bad_entries(tmp_path, capsys, extra, message):
    # the pair_chord host's vertices are written as 0..9, u..v4 as 4..9
    from wheelkit.gadgets import gadget_case

    path = write(tmp_path, "host.txt", to_edgelist(gadget_case("pair_chord").hosts[0]))
    mapping = "u=4,v=5,v1=6,v2=7,v3=8,v4=9," + extra
    code = main(["lift", "--rule", "pair_chord", "--map", mapping, path])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert len(captured.err.splitlines()) == 1 and message in captured.err


def test_gen_subcommand(capsys):
    code, payload = run(capsys, "gen", "--n-max", "5", "--s-size", "4", "--max", "5")
    assert code == 0 and payload["count"] == 5


def test_gen_negative_max_exits_2(capsys):
    assert main(["gen", "--n-max", "5", "--s-size", "4", "--max", "-3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --max must be at least 0, got -3\n"


def test_verify_subcommand(capsys):
    code, payload = run(capsys, "verify", "catalog-no-good-wheel")
    assert code == 0 and payload[0]["pass"] is True


def test_verify_with_config_file(tmp_path, capsys):
    cfg = write(tmp_path, "bench.cfg", "seed = 99\ninstances = 20\n")
    code, payload = run(capsys, "verify", "planar-no-k5", "--config", cfg)
    assert code == 0
    assert payload[0]["config"]["seed"] == 99
    assert payload[0]["instances"] == 20


@pytest.mark.parametrize(
    "text, message",
    [("seed = abc\n", "must be an integer"), ("sead = 4\n", "unknown config key")],
)
def test_verify_bad_config_exits_2(tmp_path, capsys, text, message):
    cfg = write(tmp_path, "bad.cfg", text)
    assert main(["verify", "planar-no-k5", "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err
    assert captured.err.count("\n") == 1


def test_verify_generation_bound_below_terminal_count_exits_2(tmp_path, capsys):
    cfg = write(tmp_path, "gen.cfg", "generation_bound = 4\n")
    assert main(["verify", "gen-catalog-members", "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "key, value",
    [
        ("generation_bound", 4),
        ("oracle_bound", 4),
        ("oracle_bound", 11),
        ("search_bound", 4),
        ("search_bound", 17),
        ("instances", 0),
    ],
)
def test_verify_config_range_checked_before_any_experiment(
    tmp_path, capsys, monkeypatch, key, value
):
    calls = []
    monkeypatch.setattr(cli, "run_experiment", lambda *args: calls.append(args))
    cfg = write(tmp_path, "range.cfg", f"{key} = {value}\n")
    assert main(["verify", "all", "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert f"{key} = {value}" in captured.err
    assert calls == []


def test_disc_planar_unordered_flag(tmp_path, capsys):
    c5 = cycle_graph([f"v{i}" for i in range(5)])
    path = write(tmp_path, "c5.txt", to_edgelist(c5, terminals=tuple(c5.vertices)))
    code, payload = run(capsys, "disc-planar", path, "--unordered")
    assert code == 0 and payload["ordered"] is False
    code, payload = run(capsys, "disc-planar", path, "--ordered")
    assert code == 0 and payload["ordered"] is True


def test_disc_planar_terminal_index_out_of_range_exits_2(tmp_path, capsys):
    path = write(tmp_path, "tri.txt", to_edgelist(cycle_graph(list("abc"))))
    assert main(["disc-planar", path, "--terminals", "0,1,9"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: terminal index 9 out of range for 3 vertices\n"


@pytest.mark.parametrize("argv, code", CASES, ids=[" ".join(argv) for argv, _ in CASES])
def test_cli_case(tmp_path, monkeypatch, capsys, argv, code):
    """One row of `tests/cli_cases.py`, in-process: its exit code; a JSON
    report and no stderr on exits 0 and 1; no report and an error line on
    exit 2."""
    write_files(tmp_path)
    monkeypatch.chdir(tmp_path)
    assert main([*argv, "--out", "out.json"]) == code
    err = capsys.readouterr().err
    report = tmp_path / "out.json"
    if code == 2:
        assert not report.exists() and "error: " in err.splitlines()[-1]
    else:
        assert err == ""
        json.loads(report.read_text())


def test_usage_error_exit_2(tmp_path):
    assert main(["k5", str(tmp_path / "missing.g6")]) == 2


def test_package_exports_resolve():
    assert len(wheelkit.__all__) == len(set(wheelkit.__all__))
    for name in wheelkit.__all__:
        getattr(wheelkit, name)
