"""Coloring recipes: forced/greedy schedules verified over all boundary
colorings.

A Hajós graph is a minimum counterexample, so the smaller graph G' that a
reduction leaves behind is 4-colorable, and a 4-coloring of G' colors the
cut.  Each recipe is a local configuration, its reduced side, and one
or more branches: a pattern over the boundary coloring plus a schedule
of forced colors (a function of the boundary coloring) and a greedy
order.  For a gadget the reduced side is what `apply_gadget` leaves of
the configuration, so the gadget's inserted edges constrain the boundary
without being restated here; other recipes take the configuration
induced on their terminals.  A boundary coloring is a proper 4-coloring
of the reduced side.  `verify_recipe` enumerates every one, requires
some branch to match, runs the first matching schedule, and checks the
result is a proper total coloring of the configuration.

Boundary colorings are enumerated up to symmetry: schedules that never
mention an absolute color fix the first boundary color to 1 (they are
color-permutable), while the five-terminal ring recipes (`low_boundary`)
draw terminal colors from {1,2,3}, which is the usual normalization of
"at most three colors on the boundary" and leaves 4 as the schedule's
free color.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Callable

from wheelkit.coloring import COLORS, assign_then_extend, is_proper
from wheelkit.errors import InputDomainError
from wheelkit.gadgets import apply_gadget, gadget_library
from wheelkit.graph import Graph, Vertex, add

Sigma = dict[Vertex, int]
LOW = (1, 2, 3)


@dataclass(frozen=True)
class RecipeBranch:
    name: str
    pattern: Callable[[Sigma], bool]
    forced: Callable[[Sigma], dict[Vertex, int]]
    greedy: tuple


@dataclass(frozen=True)
class ColoringRecipe:
    name: str
    config: Graph
    reduced: Graph  # boundary colorings are its proper colorings
    branches: tuple
    low_boundary: bool = False  # boundary colors from {1,2,3}, else 1..4 with the first fixed


@dataclass(frozen=True)
class RecipeReport:
    name: str
    cases: int
    failures: tuple

    @property
    def passed(self) -> bool:
        return self.cases > 0 and not self.failures


def _spare(sigma: Sigma, vs) -> int:
    """The least color no vertex of `vs` takes under sigma."""
    used = {sigma[v] for v in vs}
    for c in COLORS:
        if c not in used:
            return c
    raise InputDomainError("no absent color")


def verify_recipe(recipe: ColoringRecipe) -> RecipeReport:
    """Exhaustively check the recipe over every proper coloring of its
    reduced side."""
    g, reduced = recipe.config, recipe.reduced
    domains = [LOW if recipe.low_boundary else COLORS for _ in reduced.vertices]
    if domains and not recipe.low_boundary:
        domains[0] = (1,)
    cases = 0
    failures = []
    for combo in product(*domains):
        sigma = dict(zip(reduced.vertices, combo))
        if any(sigma[u] == sigma[v] for u, v in reduced.edges):
            continue
        cases += 1
        branch = next((b for b in recipe.branches if b.pattern(sigma)), None)
        if branch is None:
            failures.append(f"no branch covers {sigma}")
            continue
        base = {v: c for v, c in sigma.items() if g.has_vertex(v)}
        try:
            out = assign_then_extend(g, base, branch.forced(sigma), branch.greedy)
        except InputDomainError as exc:
            failures.append(f"{branch.name} @ {sigma}: {exc}")
            continue
        if out is None or not is_proper(g, out, total=True):
            failures.append(f"{branch.name} @ {sigma}: schedule failed")
    return RecipeReport(recipe.name, cases, tuple(failures))


# -- the library --------------------------------------------------------------


def _ring_recipe(name: str, arc_interiors, chords, branch: RecipeBranch) -> ColoringRecipe:
    """A five-terminal ring recipe: t_i attaches to v_i and v_{i+1}; arcs
    listed in `arc_interiors` get one interior vertex a_i between v_i and
    v_{i+1}, the rest are direct rim edges."""

    def v(i):
        return f"v{(i - 1) % 5 + 1}"

    def t(i):
        return f"t{(i - 1) % 5 + 1}"

    edges = []
    for i in range(1, 6):
        if i in arc_interiors:
            edges += [(v(i), f"a{i}"), (f"a{i}", v(i + 1))]
        else:
            edges.append((v(i), v(i + 1)))
        edges += [(t(i), v(i)), (t(i), v(i + 1))]
    edges += list(chords)
    config = Graph((), edges)
    return ColoringRecipe(
        name=name,
        config=config,
        reduced=config.induced(t(i) for i in range(1, 6)),
        branches=(branch,),
        low_boundary=True,
    )


def recipe_library() -> tuple[ColoringRecipe, ...]:
    always = lambda s: True
    cases = {case.rule.name: case for case in gadget_library()}

    def gadget_recipe(name: str, branches, config: Graph | None = None) -> ColoringRecipe:
        """The recipe on a gadget's side graph (or `config`), whose
        boundary colorings are those of the gadget's reduction."""
        if config is None:
            config = cases[name].side.graph
        return ColoringRecipe(name, config, apply_gadget(config, cases[name].rule), branches)

    pair_chord = gadget_recipe(
        "pair_chord",
        (
            RecipeBranch(
                "repeat",
                lambda s: s["v2"] in (s["v1"], s["v3"]),
                forced=lambda s: {},
                greedy=("v", "u"),
            ),
            RecipeBranch(
                "fresh",
                lambda s: s["v2"] not in (s["v1"], s["v3"]),
                forced=lambda s: {"v": s["v2"]},
                greedy=("u",),
            ),
        ),
    )

    copy_v5 = RecipeBranch("copy", always, forced=lambda s: {"v": s["v5"]}, greedy=("w", "u"))
    triangle_star3 = gadget_recipe("triangle_star3", (copy_v5,))
    triangle_star2 = gadget_recipe("triangle_star2", (copy_v5,))

    path_fan = gadget_recipe(
        "path_fan",
        (RecipeBranch("copy", always, forced=lambda s: {"v": s["t1"]}, greedy=("u", "w")),),
    )

    path_merge = gadget_recipe(
        "path_merge",
        (
            RecipeBranch(
                "merge-copy",
                always,
                forced=lambda s: {"u": s["m"], "w": s["m"]},
                greedy=("v", "t1"),
            ),
        ),
        config=add(cases["path_merge"].side.graph, ("a",), (("a", "t1"),)),
    )

    ts = ("t1", "t2", "t3", "t4")
    rotate = RecipeBranch(
        "rotate",
        lambda s: len({s[t] for t in ts}) == 4,
        forced=lambda s: {"u1": s["t4"], "u2": s["t1"], "u3": s["t2"], "u4": s["t3"]},
        greedy=(),
    )
    square = Graph(
        (),
        [("u1", "u2"), ("u2", "u3"), ("u3", "u4"), ("u4", "u1"),
         ("u1", "t1"), ("u1", "t2"), ("u2", "t2"), ("u2", "t3"),
         ("u3", "t3"), ("u3", "t4"), ("u4", "t4"), ("u4", "t1")],
    )
    square_outline = ColoringRecipe(
        name="square_outline",
        config=square,
        reduced=square.induced(ts),
        branches=(
            rotate,
            RecipeBranch(
                "spare-color",
                lambda s: len({s[t] for t in ts}) <= 3,
                forced=lambda s: dict.fromkeys(("u1", "u3"), _spare(s, ts)),
                greedy=("u2", "u4"),
            ),
        ),
    )

    square_triangle = gadget_recipe(
        "square_triangle",
        (
            rotate,
            RecipeBranch(
                "t4-low",
                lambda s: s["t4"] in (s["t1"], s["t2"]),
                forced=lambda s: {"u2": s["t1"], "u4": s["t3"]},
                greedy=("u1", "u3"),
            ),
            RecipeBranch(
                "t4-high",
                lambda s: s["t4"] == s["t3"],
                forced=lambda s: {"u2": s["t1"], "u4": s["t2"]},
                greedy=("u1", "u3"),
            ),
        ),
    )

    def fours(*vs):
        return lambda s: dict.fromkeys(vs, 4)

    ring0 = _ring_recipe(
        "ring0",
        arc_interiors={1, 2, 3, 4, 5},
        chords=[("a1", "a2"), ("a2", "a3"), ("a3", "a4"), ("a4", "a5"), ("a5", "a1")],
        branch=RecipeBranch(
            "lift-ring",
            always,
            forced=fours("v1", "v2", "v3", "v4", "v5"),
            greedy=("a1", "a2", "a3", "a4", "a5"),
        ),
    )

    ring1 = _ring_recipe(
        "ring1",
        arc_interiors={2, 3, 4, 5},
        chords=[("a2", "a3"), ("a3", "a4"), ("a4", "a5"), ("a5", "a2")],
        branch=RecipeBranch(
            "free-corner",
            always,
            forced=fours("v2", "v3", "v4", "v5"),
            greedy=("v1", "a2", "a3", "a4", "a5"),
        ),
    )

    ring2 = _ring_recipe(
        "ring2",
        arc_interiors={2, 3, 4},
        chords=[("a2", "a3"), ("a3", "a4"), ("a2", "a4")],
        branch=RecipeBranch(
            "free-corner",
            always,
            forced=fours("v2", "v3", "v4", "v5"),
            greedy=("v1", "a2", "a3", "a4"),
        ),
    )

    ring3a = _ring_recipe(
        "ring3a",
        arc_interiors={1, 2},
        chords=[("a1", "a2"), ("a2", "v4"), ("a1", "v5")],
        branch=RecipeBranch(
            "copy-t4",
            always,
            forced=lambda s: {"a1": s["t4"], "v1": 4, "v2": 4, "v4": 4},
            greedy=("v5", "v3", "a2"),
        ),
    )

    ring3b = _ring_recipe(
        "ring3b",
        arc_interiors={1, 3},
        chords=[("a1", "a3"), ("a1", "v5"), ("a3", "v5")],
        branch=RecipeBranch(
            "spread",
            always,
            forced=fours("v1", "v2", "v4"),
            greedy=("v5", "v3", "a3", "a1"),
        ),
    )

    gap_fan = gadget_recipe(
        "gap_fan",
        (
            RecipeBranch(
                "copy-t1",
                always,
                forced=lambda s: {"a": s["t1"]},
                greedy=("v1", "v2"),
            ),
        ),
        config=cases["gap_fan"].side.graph.induced(
            {"a", "v1", "v2", "v3", "v5", "t1", "t2", "t5"}
        ),
    )

    pent_triangle = gadget_recipe(
        "pent_triangle",
        (
            RecipeBranch(
                "t2-eq-t3",
                lambda s: s["t2"] == s["t3"],
                forced=lambda s: {"v4": s["t1"]},
                greedy=("v5", "v1", "v2", "v3"),
            ),
            RecipeBranch(
                "t4-eq-t5",
                lambda s: s["t4"] == s["t5"],
                forced=lambda s: {"v4": s["t1"]},
                greedy=("v3", "v2", "v1", "v5"),
            ),
            RecipeBranch(
                "split",
                lambda s: s["t2"] != s["t3"] and s["t4"] != s["t5"],
                forced=lambda s: {"v4": s["t1"], "v2": s["t3"], "v1": s["t4"]},
                greedy=("v3", "v5"),
            ),
        ),
    )

    web5 = gadget_recipe(
        "web5",
        (
            RecipeBranch(
                "triple-copy",
                always,
                forced=lambda s: {"z": s["r"], "u": s["p"], "v": s["t"]},
                greedy=("q", "w"),
            ),
        ),
    )

    return (
        pair_chord,
        triangle_star3,
        triangle_star2,
        path_fan,
        path_merge,
        square_outline,
        square_triangle,
        ring0,
        ring1,
        ring2,
        ring3a,
        ring3b,
        gap_fan,
        pent_triangle,
        web5,
    )


def verify_all_recipes() -> tuple[RecipeReport, ...]:
    return tuple(verify_recipe(r) for r in recipe_library())
