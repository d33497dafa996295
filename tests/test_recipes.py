from dataclasses import replace

import pytest

from wheelkit.graph import Graph, remove
from wheelkit.recipes import (
    ColoringRecipe,
    RecipeBranch,
    recipe_library,
    verify_all_recipes,
    verify_recipe,
)

CASE_COUNTS = {
    "pair_chord": 48,
    "triangle_star3": 108,
    "triangle_star2": 144,
    "path_fan": 144,
    "path_merge": 324,
    "square_outline": 64,
    "square_triangle": 24,
    "ring0": 243,
    "ring1": 243,
    "ring2": 243,
    "ring3a": 243,
    "ring3b": 243,
    "gap_fan": 54,
    "pent_triangle": 96,
    "web5": 54,
}


@pytest.mark.parametrize("recipe", recipe_library(), ids=lambda r: r.name)
def test_recipe_verifies(recipe):
    report = verify_recipe(recipe)
    # the golden report pins only the total
    assert report.cases == CASE_COUNTS[recipe.name]
    assert report.failures == ()


def test_recipe_case_counts_within_bound():
    for recipe in recipe_library():
        report = verify_recipe(recipe)
        assert report.cases <= 4 ** 5


def test_library_covers_the_required_schedules():
    assert {r.name for r in recipe_library()} == set(CASE_COUNTS)


def test_broken_recipe_detected():
    # sanity: the verifier is not vacuous.  A square with all four colors
    # on its corners cannot be greedily centered.
    config = Graph((), [("c", t) for t in ("t1", "t2", "t3", "t4")])
    bad = ColoringRecipe(
        name="bad",
        config=config,
        reduced=config.induced(("t1", "t2", "t3", "t4")),
        branches=(RecipeBranch("hope", lambda s: True, forced=lambda s: {}, greedy=("c",)),),
    )
    report = verify_recipe(bad)
    assert report.failures != ()


def test_dropping_an_inserted_edge_breaks_pair_chord():
    # without the inserted v2-v4 the "fresh" branch copies v2's color
    # onto v, which then clashes with v4 wherever v4 repeats v2
    (pair_chord,) = (r for r in recipe_library() if r.name == "pair_chord")
    loose = replace(pair_chord, reduced=remove(pair_chord.reduced, edges=[("v2", "v4")]))
    report = verify_recipe(loose)
    assert report.cases == 64
    assert len(report.failures) == 9
    assert all(f.startswith("fresh @ ") for f in report.failures)


def test_verify_all_recipes_green():
    reports = verify_all_recipes()
    assert all(r.passed for r in reports)
