import pytest

from wheelkit.graph import Graph
from wheelkit.recipes import recipe_library, verify_all_recipes, verify_recipe


@pytest.mark.parametrize("recipe", recipe_library(), ids=lambda r: r.name)
def test_recipe_verifies(recipe):
    report = verify_recipe(recipe)
    assert report.cases > 0
    assert report.failures == ()


def test_recipe_case_counts_within_bound():
    for recipe in recipe_library():
        report = verify_recipe(recipe)
        assert report.cases <= 4 ** 5


def test_library_covers_the_required_schedules():
    names = {r.name for r in recipe_library()}
    assert {
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
    } <= names


def test_broken_recipe_detected():
    # sanity: the verifier is not vacuous.  A square with all four colors
    # on its corners cannot be greedily centered.
    from wheelkit.recipes import ColoringRecipe, RecipeBranch

    bad = ColoringRecipe(
        name="bad",
        config=Graph((), [("c", t) for t in ("t1", "t2", "t3", "t4")]),
        boundary=("t1", "t2", "t3", "t4"),
        sigma_edges=(),
        branches=(RecipeBranch("hope", lambda s: True, forced=(), greedy=("c",)),),
    )
    report = verify_recipe(bad)
    assert report.failures != ()


def test_verify_all_recipes_green():
    reports = verify_all_recipes()
    assert all(r.passed for r in reports)
