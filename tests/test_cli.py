import pytest

import wheelkit
from wheelkit import cli
from wheelkit.cli import main
from tests.cli_cases import CASES, MAP, problem, write_files


@pytest.fixture
def run_row(tmp_path, monkeypatch, capsys):
    """Runs the `CASES` row with the given argv in-process and asserts that
    `problem` finds nothing wrong with its exit code and output."""
    write_files(tmp_path)
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "out.json"

    def run(*argv):
        case = next(c for c in CASES if c[0] == argv)
        out.unlink(missing_ok=True)
        code = main([*argv, "--out", "out.json"])
        captured = capsys.readouterr()
        report = out.read_text() if out.exists() else None
        assert problem(case, code, report, captured.out, captured.err) == ""
        return case

    return run


@pytest.mark.parametrize("case", CASES, ids=[" ".join(a or "''" for a in argv) for argv, _, _ in CASES])
def test_cli_case(run_row, case):
    """One row of `tests/cli_cases.py`: its exit code and expected output."""
    run_row(*case[0])


def _rows(*argvs):
    """A test that runs the given rows: a check that was a test of its own
    and is now the expectation of those rows keeps its name."""

    def test(run_row):
        for argv in argvs:
            run_row(*argv)

    return test


test_planar_k5_fails = _rows(("planar", "k5.g6"))
test_disc_planar_with_terminal_line = _rows(("disc-planar", "c5.txt"))
test_disc_planar_unordered_flag = _rows(
    ("disc-planar", "c5.txt", "--terminals", "0,2,1,3", "--unordered"),
    ("disc-planar", "c5.txt", "--terminals", "0,2,1,3", "--ordered"),
)
test_disc_planar_terminal_index_out_of_range_exits_2 = _rows(("disc-planar", "c5.txt", "--terminals", "0,1,9"))
test_color_subcommand = _rows(("color", "k5.g6"))
test_good_wheel_spokes_in_vkey_order = _rows(("good-wheel", "wheel10.txt"))
test_separations_negative_max_exits_2 = _rows(("separations", "wheel10.txt", "-k", "3", "--max", "-1"))
test_separations_planar_side_keeps_a_planar_second_side = _rows(
    ("separations", "star_k7.g6", "--planar-side", "-k", "4")
)
test_catalog_dump_formats = _rows(
    ("catalog", "dump", "--format", "graph6"), ("catalog", "dump", "--format", "dot"), ("catalog", "dump")
)
test_catalog_list_and_match = _rows(("catalog", "list"), ("catalog", "match", "w1.txt"))
test_lift_demo = _rows(("lift", "--rule", "pair_chord", "--demo"))
test_lift_with_mapped_file = _rows(("lift", "pair_chord_host.txt", "--rule", "pair_chord", "--map", MAP))
test_usage_error_exit_2 = _rows(("planar", "missing.txt"))


@pytest.mark.parametrize(
    "extra, message",
    [
        ("junk", "entry 'junk' is not rule=input"),
        ("zz=99", "input '99' is not a vertex"),
        ("v4=3", "two vertices the name 'v4'"),
        ("w=4", "input '4' appears twice"),
    ],
)
def test_lift_map_rejects_bad_entries(run_row, extra, message):
    case = run_row("lift", "pair_chord_host.txt", "--rule", "pair_chord", "--map", f"{MAP},{extra}")
    assert message in case[2]


@pytest.mark.parametrize(
    "key, value",
    [
        ("oracle_bound", 4),
        ("oracle_bound", 11),
        ("search_bound", 4),
        ("search_bound", 64),
        ("instances", 0),
    ],
)
def test_verify_config_range_checked_before_any_experiment(
    tmp_path, capsys, monkeypatch, key, value
):
    calls = []
    monkeypatch.setattr(cli, "run_experiment", lambda *args: calls.append(args))
    cfg = tmp_path / "range.cfg"
    cfg.write_text(f"{key} = {value}\n")
    assert main(["verify", "all", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert f"{key} = {value}" in captured.err
    assert calls == []


def test_package_exports_resolve():
    assert len(wheelkit.__all__) == len(set(wheelkit.__all__))
    for name in wheelkit.__all__:
        getattr(wheelkit, name)
