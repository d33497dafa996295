"""Acceptance suite: every machine-checkable exit criterion, one test
each, at its stated tolerance and time budget.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
pass lines.  Every report must also equal its entry in the golden file,
the output of `wheelkit verify all` without `elapsed_seconds`.
"""

import json
import time
from pathlib import Path

from wheelkit.experiments import Config, run_experiment
from wheelkit.gadgets import gadget_library
from wheelkit.recipes import recipe_library, verify_all_recipes

CFG = Config()

GOLDEN = {
    r["experiment"]: r
    for r in json.loads((Path(__file__).parent / "golden" / "verify-all.json").read_text())
}


def without_elapsed(report) -> dict:
    return {k: v for k, v in report.as_dict().items() if k != "elapsed_seconds"}


def _check(number, title, report, budget_seconds):
    status = "PASS" if report.passed else "FAIL"
    print(
        f"criterion {number} {status}: {title} "
        f"({report.instances} instances, {report.elapsed:.2f}s)"
    )
    assert report.passed, f"counterexamples: {report.counterexamples[:5]}"
    assert report.elapsed < budget_seconds, (
        f"criterion {number} exceeded its {budget_seconds}s budget: {report.elapsed:.1f}s"
    )
    assert without_elapsed(report) == GOLDEN[report.name]


def test_criterion_1_catalog_certification():
    t0 = time.perf_counter()
    report = run_experiment("catalog-no-good-wheel", CFG)
    # disc-planar (ordered), independent terminals, no good wheel: 6/6
    assert report.instances == 6
    _check(1, "catalog certification 6/6", report, 1.0)
    assert time.perf_counter() - t0 < 1.0


def test_criterion_2_wheel_to_k5_construction():
    report = run_experiment("wheel-k5-construction", CFG)
    assert report.instances == 100
    _check(2, "wheel + crossing paths -> K5 on 100 seeded hosts", report, 30.0)


def test_criterion_3_gadget_lifting():
    report = run_experiment("lift-all-gadgets", CFG)
    required = {
        "pair_chord",
        "triangle_star3",
        "triangle_star2",
        "path_fan",
        "path_merge",
        "ring_apex4",
        "gap_fan",
        "pent_triangle",
        "web5",
    }
    assert required <= {c.rule.name for c in gadget_library()}
    _check(3, "gadget lifting, zero lifting failures", report, 300.0)


def test_criterion_4_coloring_recipes():
    report = run_experiment("coloring-recipes", CFG)
    required = {
        "pair_chord",
        "triangle_star3",
        "triangle_star2",
        "path_fan",
        "path_merge",
        "square_outline",
        "square_triangle",
        "ring0",
        "ring1",
        "ring2",
        "ring3a",
        "ring3b",
        "gap_fan",
        "pent_triangle",
    }
    assert required <= {r.name for r in recipe_library()}
    assert all(v.cases <= 4**5 for v in verify_all_recipes())
    _check(4, "coloring recipes over all boundary patterns", report, 60.0)


def test_criterion_5_oracle_equivalence():
    report = run_experiment("oracle-equivalence", CFG)
    assert report.instances >= 4 * 200
    _check(5, "library search vs brute-force oracles", report, 600.0)


def test_criterion_6_planarity_consistency():
    report = run_experiment("planar-no-k5", CFG)
    assert report.instances == 200
    _check(6, "planar graphs: no K5-subdivision, Euler facecounts", report, 60.0)


def test_criterion_7_disc_planarity_oracle():
    report = run_experiment("disc-planar-oracle", CFG)
    # rooted classes of graphs on <= 6 vertices with 1 to 3 terminals
    assert report.instances == 3571
    _check(7, "disc-planarity (apex/fence) vs rotation-system oracle (<=6v, <=3 terminals)", report, 300.0)


def test_criterion_8_trichotomy_regression():
    report = run_experiment("trichotomy-regression", CFG)
    _check(8, "trichotomy verdicts on glued corpora, zero NONE", report, 60.0)
