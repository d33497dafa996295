"""Acceptance suite: every machine-checkable exit criterion, one row each.

A criterion runs its experiment at the default `Config`; the report must
pass and equal its entry in the golden file, the output of `wheelkit
verify all` without `elapsed_seconds`, and the run and the comparison
together must finish within the criterion's time budget.  The golden file
holds every count, name and echoed key a report states, so a row gives
only the criterion's number, title and budget.  Run with
`pytest -s tests/test_acceptance.py` to see the per-criterion pass lines.
"""

import json
import time
from pathlib import Path

from wheelkit.experiments import Config, run_experiment

GOLDEN = {
    r["experiment"]: r
    for r in json.loads((Path(__file__).parent / "golden" / "verify-all.json").read_text())
}


def without_elapsed(report) -> dict:
    return {k: v for k, v in report.as_dict().items() if k != "elapsed_seconds"}


def _criterion(number, experiment, title, budget_seconds):
    """The test of one criterion: experiment at the default Config passes
    and equals its golden entry, all within budget_seconds."""

    def test():
        t0 = time.perf_counter()
        report = run_experiment(experiment, Config())
        got = without_elapsed(report)
        same = got == GOLDEN[experiment]
        span = time.perf_counter() - t0
        status = "PASS" if report.passed else "FAIL"
        print(f"criterion {number} {status}: {title} ({report.instances} instances, {report.elapsed:.2f}s)")
        assert report.passed, f"counterexamples: {report.counterexamples[:5]}"
        assert same, f"report differs from its golden entry: {got}"
        assert span < budget_seconds, f"criterion {number} exceeded its {budget_seconds}s budget: {span:.1f}s"

    return test


test_criterion_1_catalog_certification = _criterion(
    1, "catalog-no-good-wheel", "catalog certification", 1.0
)
test_criterion_2_wheel_to_k5_construction = _criterion(
    2, "wheel-k5-construction", "wheel + crossing paths -> K5 on seeded hosts", 30.0
)
test_criterion_3_gadget_lifting = _criterion(
    3, "lift-all-gadgets", "gadget lifting, zero lifting failures", 300.0
)
test_criterion_4_coloring_recipes = _criterion(
    4, "coloring-recipes", "coloring recipes over all boundary patterns", 60.0
)
test_criterion_5_oracle_equivalence = _criterion(
    5, "oracle-equivalence", "library search vs brute-force oracles", 600.0
)
test_criterion_6_planarity_consistency = _criterion(
    6, "planar-no-k5", "planar graphs: no K5-subdivision, Euler facecounts", 60.0
)
test_criterion_7_disc_planarity_oracle = _criterion(
    7, "disc-planar-oracle", "disc-planarity (apex/fence) vs rotation-system oracle (<=6v, <=3 terminals)", 300.0
)
test_criterion_8_trichotomy_regression = _criterion(
    8, "trichotomy-regression", "trichotomy verdicts on glued corpora, zero NONE", 60.0
)
