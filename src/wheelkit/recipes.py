"""Coloring recipes: forced/greedy schedules verified over all boundary
colorings.

Each recipe is a local configuration, a boundary whose coloring comes
from the reduced graph, optional extra constraints the reduced graph
imposes on that coloring (its inserted edges), and one or more branches:
a pattern over the boundary coloring plus a schedule of forced copies and
a greedy order.  `verify_recipe` enumerates every boundary coloring that
satisfies the constraints, requires some branch to match, runs the first
matching schedule, and checks the result is a proper total coloring of
the configuration.

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

from wheelkit.coloring import Coloring, assign_then_extend, is_proper
from wheelkit.errors import InputDomainError
from wheelkit.gadgets import gadget_case
from wheelkit.graph import Graph, Vertex, add

Sigma = dict[Vertex, int]
FULL = (1, 2, 3, 4)
LOW = (1, 2, 3)


@dataclass(frozen=True)
class RecipeBranch:
    name: str
    pattern: Callable[[Sigma], bool]
    forced: tuple  # ((vertex, ref), ...); ref = ("sigma", v) | ("const", c) | ("absent", (v, ...))
    greedy: tuple


@dataclass(frozen=True)
class ColoringRecipe:
    name: str
    config: Graph
    boundary: tuple
    sigma_edges: tuple  # extra constraint pairs on the boundary coloring
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


def _resolve(ref, sigma: Sigma) -> int:
    kind = ref[0]
    if kind == "sigma":
        return sigma[ref[1]]
    if kind == "const":
        return ref[1]
    if kind == "absent":
        used = {sigma[v] for v in ref[1]}
        for c in FULL:
            if c not in used:
                return c
        raise InputDomainError("no absent color")
    raise InputDomainError(f"unknown color reference {ref!r}")


def verify_recipe(recipe: ColoringRecipe) -> RecipeReport:
    """Exhaustively check the recipe over its boundary-coloring pattern."""
    g = recipe.config
    bset = set(recipe.boundary)
    constraints = [
        (u, v) for u, v in g.edges if u in bset and v in bset
    ] + list(recipe.sigma_edges)
    domains = [LOW if recipe.low_boundary else FULL for _ in recipe.boundary]
    if domains and not recipe.low_boundary:
        domains[0] = (1,)
    cases = 0
    failures = []
    for combo in product(*domains):
        sigma = dict(zip(recipe.boundary, combo))
        if any(sigma[u] == sigma[v] for u, v in constraints):
            continue
        cases += 1
        branch = next((b for b in recipe.branches if b.pattern(sigma)), None)
        if branch is None:
            failures.append(f"no branch covers {sigma}")
            continue
        base = Coloring({v: sigma[v] for v in recipe.boundary if g.has_vertex(v)})
        try:
            forced = {v: _resolve(ref, sigma) for v, ref in branch.forced}
            out = assign_then_extend(g, base, forced, branch.greedy)
        except InputDomainError as exc:
            failures.append(f"{branch.name} @ {sigma}: {exc}")
            continue
        if out is None or not is_proper(g, out, total=True):
            failures.append(f"{branch.name} @ {sigma}: schedule failed")
    return RecipeReport(recipe.name, cases, tuple(failures))


# -- the library --------------------------------------------------------------


def _side(name: str) -> Graph:
    return gadget_case(name).side.graph


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
    return ColoringRecipe(
        name=name,
        config=Graph((), edges),
        boundary=tuple(t(i) for i in range(1, 6)),
        sigma_edges=(),
        branches=(branch,),
        low_boundary=True,
    )


def recipe_library() -> tuple[ColoringRecipe, ...]:
    always = lambda s: True

    pair_chord = ColoringRecipe(
        name="pair_chord",
        config=_side("pair_chord"),
        boundary=("v1", "v2", "v3", "v4"),
        sigma_edges=(("v2", "v4"),),
        branches=(
            RecipeBranch(
                "repeat",
                lambda s: s["v2"] in (s["v1"], s["v3"]),
                forced=(),
                greedy=("v", "u"),
            ),
            RecipeBranch(
                "fresh",
                lambda s: s["v2"] not in (s["v1"], s["v3"]),
                forced=(("v", ("sigma", "v2")),),
                greedy=("u",),
            ),
        ),
    )

    triangle_star3 = ColoringRecipe(
        name="triangle_star3",
        config=_side("triangle_star3"),
        boundary=tuple(f"v{i}" for i in range(1, 6)),
        sigma_edges=(("v5", "v1"), ("v5", "v2"), ("v5", "v3")),
        branches=(
            RecipeBranch("copy", always, forced=(("v", ("sigma", "v5")),), greedy=("w", "u")),
        ),
    )

    triangle_star2 = ColoringRecipe(
        name="triangle_star2",
        config=_side("triangle_star2"),
        boundary=tuple(f"v{i}" for i in range(1, 6)),
        sigma_edges=(("v5", "v2"), ("v5", "v3")),
        branches=(
            RecipeBranch("copy", always, forced=(("v", ("sigma", "v5")),), greedy=("w", "u")),
        ),
    )

    path_fan = ColoringRecipe(
        name="path_fan",
        config=_side("path_fan"),
        boundary=tuple(f"t{i}" for i in range(1, 6)),
        sigma_edges=(("t1", "t3"), ("t1", "t4")),
        branches=(
            RecipeBranch("copy", always, forced=(("v", ("sigma", "t1")),), greedy=("u", "w")),
        ),
    )

    path_merge = ColoringRecipe(
        name="path_merge",
        config=add(_side("path_merge"), ("a",), (("a", "t1"),)),
        boundary=("m", "t2", "t3", "t4", "t5", "a"),
        sigma_edges=(("m", "t2"), ("m", "t3"), ("m", "t4"), ("m", "t5")),
        branches=(
            RecipeBranch(
                "merge-copy",
                always,
                forced=(("u", ("sigma", "m")), ("w", ("sigma", "m"))),
                greedy=("v", "t1"),
            ),
        ),
    )

    square_outline = ColoringRecipe(
        name="square_outline",
        config=Graph(
            (),
            [("u1", "u2"), ("u2", "u3"), ("u3", "u4"), ("u4", "u1"),
             ("u1", "t1"), ("u1", "t2"), ("u2", "t2"), ("u2", "t3"),
             ("u3", "t3"), ("u3", "t4"), ("u4", "t4"), ("u4", "t1")],
        ),
        boundary=("t1", "t2", "t3", "t4"),
        sigma_edges=(),
        branches=(
            RecipeBranch(
                "rotate",
                lambda s: len({s[t] for t in ("t1", "t2", "t3", "t4")}) == 4,
                forced=(
                    ("u1", ("sigma", "t4")),
                    ("u2", ("sigma", "t1")),
                    ("u3", ("sigma", "t2")),
                    ("u4", ("sigma", "t3")),
                ),
                greedy=(),
            ),
            RecipeBranch(
                "spare-color",
                lambda s: len({s[t] for t in ("t1", "t2", "t3", "t4")}) <= 3,
                forced=(
                    ("u1", ("absent", ("t1", "t2", "t3", "t4"))),
                    ("u3", ("absent", ("t1", "t2", "t3", "t4"))),
                ),
                greedy=("u2", "u4"),
            ),
        ),
    )

    square_triangle = ColoringRecipe(
        name="square_triangle",
        config=_side("square_triangle"),
        boundary=("t1", "t2", "t3", "t4"),
        sigma_edges=(("t1", "t2"), ("t2", "t3"), ("t3", "t1")),
        branches=(
            RecipeBranch(
                "rotate",
                lambda s: len({s[t] for t in ("t1", "t2", "t3", "t4")}) == 4,
                forced=(
                    ("u1", ("sigma", "t4")),
                    ("u2", ("sigma", "t1")),
                    ("u3", ("sigma", "t2")),
                    ("u4", ("sigma", "t3")),
                ),
                greedy=(),
            ),
            RecipeBranch(
                "t4-low",
                lambda s: s["t4"] in (s["t1"], s["t2"]),
                forced=(("u2", ("sigma", "t1")), ("u4", ("sigma", "t3"))),
                greedy=("u1", "u3"),
            ),
            RecipeBranch(
                "t4-high",
                lambda s: s["t4"] == s["t3"],
                forced=(("u2", ("sigma", "t1")), ("u4", ("sigma", "t2"))),
                greedy=("u1", "u3"),
            ),
        ),
    )

    ring0 = _ring_recipe(
        "ring0",
        arc_interiors={1, 2, 3, 4, 5},
        chords=[("a1", "a2"), ("a2", "a3"), ("a3", "a4"), ("a4", "a5"), ("a5", "a1")],
        branch=RecipeBranch(
            "lift-ring",
            always,
            forced=tuple((f"v{i}", ("const", 4)) for i in range(1, 6)),
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
            forced=tuple((f"v{i}", ("const", 4)) for i in (2, 3, 4, 5)),
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
            forced=tuple((f"v{i}", ("const", 4)) for i in (2, 3, 4, 5)),
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
            forced=(
                ("a1", ("sigma", "t4")),
                ("v1", ("const", 4)),
                ("v2", ("const", 4)),
                ("v4", ("const", 4)),
            ),
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
            forced=(
                ("v1", ("const", 4)),
                ("v2", ("const", 4)),
                ("v4", ("const", 4)),
            ),
            greedy=("v5", "v3", "a3", "a1"),
        ),
    )

    gap_fan_side = _side("gap_fan")
    gap_fan = ColoringRecipe(
        name="gap_fan",
        config=gap_fan_side.induced({"a", "v1", "v2", "v3", "v5", "t1", "t2", "t5"}),
        boundary=("t1", "t2", "t5", "v3", "v5"),
        sigma_edges=(("t1", "v3"), ("t1", "v5")),
        branches=(
            RecipeBranch(
                "copy-t1",
                always,
                forced=(("a", ("sigma", "t1")),),
                greedy=("v1", "v2"),
            ),
        ),
    )

    pent_triangle = ColoringRecipe(
        name="pent_triangle",
        config=_side("pent_triangle"),
        boundary=tuple(f"t{i}" for i in range(1, 6)),
        sigma_edges=(("t1", "t3"), ("t3", "t4"), ("t4", "t1")),
        branches=(
            RecipeBranch(
                "t2-eq-t3",
                lambda s: s["t2"] == s["t3"],
                forced=(("v4", ("sigma", "t1")),),
                greedy=("v5", "v1", "v2", "v3"),
            ),
            RecipeBranch(
                "t4-eq-t5",
                lambda s: s["t4"] == s["t5"],
                forced=(("v4", ("sigma", "t1")),),
                greedy=("v3", "v2", "v1", "v5"),
            ),
            RecipeBranch(
                "split",
                lambda s: s["t2"] != s["t3"] and s["t4"] != s["t5"],
                forced=(
                    ("v4", ("sigma", "t1")),
                    ("v2", ("sigma", "t3")),
                    ("v1", ("sigma", "t4")),
                ),
                greedy=("v3", "v5"),
            ),
        ),
    )

    web5 = ColoringRecipe(
        name="web5",
        config=_side("web5"),
        boundary=("x", "p", "r", "s", "t"),
        sigma_edges=(("r", "p"), ("r", "t"), ("p", "t"), ("p", "x"), ("t", "s")),
        branches=(
            RecipeBranch(
                "triple-copy",
                always,
                forced=(
                    ("z", ("sigma", "r")),
                    ("u", ("sigma", "p")),
                    ("v", ("sigma", "t")),
                ),
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
