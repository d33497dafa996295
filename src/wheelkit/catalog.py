"""The six-member obstruction catalog and rooted isomorphism.

Each member is a disc-planar terminal graph on five boundary terminals
t1..t5 (clockwise) with an independent terminal set and no terminal-good
wheel; the invariant suite in `verify_catalog` certifies all of that by
machine.  Member Y additionally marks the unique terminal with three
interior neighbors.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from wheelkit.generate import canonical_form
from wheelkit.graph import Graph, Vertex
from wheelkit.planarity import TerminalGraph, is_disc_planar
from wheelkit.wheels import find_s_good_wheel

TERMINALS = ("t1", "t2", "t3", "t4", "t5")


@dataclass(frozen=True)
class CatalogMember:
    name: str
    tg: TerminalGraph
    special_vertex: Vertex | None = None


def _member(name: str, interior: tuple[Vertex, ...], edges, special: Vertex | None = None) -> CatalogMember:
    g = Graph(TERMINALS + interior, edges)
    return CatalogMember(name, TerminalGraph(g, TERMINALS, ordered=True), special)


@lru_cache(maxsize=1)
def catalog() -> tuple[CatalogMember, ...]:
    """The six obstruction graphs, smallest first."""
    w1 = _member("W1", ("u",), [("u", t) for t in ("t1", "t2", "t3", "t4")])
    w2 = _member("W2", ("u",), [("u", t) for t in TERMINALS])
    x1 = _member(
        "X1",
        ("u", "v"),
        [("u", "v")]
        + [("u", t) for t in ("t1", "t2", "t3")]
        + [("v", t) for t in ("t3", "t4", "t5", "t1")],
    )
    x2 = _member(
        "X2",
        ("u", "v"),
        [("u", "v")]
        + [("u", t) for t in ("t1", "t2", "t3")]
        + [("v", t) for t in ("t3", "t4", "t5")],
    )
    y = _member(
        "Y",
        ("u", "v", "w"),
        [("u", "v"), ("v", "w")]
        + [("u", t) for t in ("t1", "t2", "t3")]
        + [("v", t) for t in ("t1", "t3", "t4")]
        + [("w", t) for t in ("t1", "t4", "t5")],
        special="t1",
    )
    z = _member(
        "Z",
        ("z", "u", "v", "w"),
        [("z", "u"), ("z", "v"), ("z", "w"), ("u", "v"), ("v", "w")]
        + [("z", t) for t in ("t1", "t2", "t5")]
        + [("u", t) for t in ("t2", "t3")]
        + [("v", t) for t in ("t3", "t4")]
        + [("w", t) for t in ("t4", "t5")],
    )
    return (w1, w2, x1, x2, y, z)


def verify_catalog() -> list[str]:
    """Run every catalog invariant; returns a list of failure messages."""
    problems = []
    members = catalog()
    sizes = sorted(m.tg.graph.n for m in members)
    if sizes != [6, 6, 7, 7, 8, 9]:
        problems.append(f"vertex-count multiset is {sizes}, expected [6,6,7,7,8,9]")
    for m in members:
        g, ts = m.tg.graph, m.tg.terminals
        if not is_disc_planar(m.tg):
            problems.append(f"{m.name}: not disc-planar in the given boundary order")
        if any(g.has_edge(a, b) for i, a in enumerate(ts) for b in ts[i + 1 :]):
            problems.append(f"{m.name}: terminal set is not independent")
        if find_s_good_wheel(m.tg) is not None:
            problems.append(f"{m.name}: contains a terminal-good wheel")
    for i, a in enumerate(members):
        for b in members[i + 1 :]:
            if rooted_isomorphic(a.tg, b.tg):
                problems.append(f"{a.name} and {b.name} are rooted-isomorphic")
    y = next(m for m in members if m.name == "Y")
    three = [t for t in y.tg.terminals if y.tg.interior_degree(t) == 3]
    if three != [y.special_vertex]:
        problems.append(f"Y: degree-3 terminal is {three}, expected [{y.special_vertex}]")
    return problems


# -- rooted isomorphism ------------------------------------------------------


def rooted_isomorphic(a: TerminalGraph, b: TerminalGraph) -> bool:
    """Graph isomorphism mapping terminals(a) onto terminals(b) setwise.

    Raises ResourceLimitError where `generate.canonical_form` does: on
    some graphs with more than 9 vertices, such as the dodecahedron."""
    ga, gb = a.graph, b.graph
    if ga.n != gb.n or ga.m != gb.m or len(a.terminals) != len(b.terminals):
        return False
    return canonical_form(ga, a.terminals) == canonical_form(gb, b.terminals)


@lru_cache(maxsize=1)
def _members_by_form() -> dict[tuple, CatalogMember]:
    # verify_catalog checks that no two members are rooted-isomorphic, so
    # the keys are distinct
    return {canonical_form(m.tg.graph, m.tg.terminals): m for m in catalog()}


@lru_cache(maxsize=1)
def _member_shapes() -> frozenset[tuple[int, int, int]]:
    return frozenset((len(m.tg.terminals), m.tg.graph.n, m.tg.graph.m) for m in catalog())


def matches_catalog(tg: TerminalGraph) -> CatalogMember | None:
    """The unique catalog member rooted-isomorphic to tg, if any."""
    g = tg.graph
    # A key costs far more than this screen, which most graphs fail.
    if (len(tg.terminals), g.n, g.m) not in _member_shapes():
        return None
    return _members_by_form().get(canonical_form(g, tg.terminals))
