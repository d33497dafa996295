"""Error contracts: wrong inputs fail loudly with the right exception."""

import pytest

from wheelkit.coloring import four_color
from wheelkit.errors import InputDomainError, PreconditionError, ResourceLimitError
from wheelkit.gio import to_graph6
from wheelkit.graph import Graph, complete_graph, cycle_graph, identify, union
from wheelkit.planarity import TerminalGraph, is_disc_planar
from wheelkit.separations import Separation, check_trichotomy, enumerate_separations
from wheelkit.subdivisions import find_k5_subdivision


def test_identify_name_clash_errors():
    g = complete_graph(list("abcd"))
    with pytest.raises(InputDomainError):
        identify(g, "a", "b", "c")
    # reusing one of the merged names is allowed
    assert identify(g, "a", "b", "a").has_vertex("a")


def test_graph6_size_cap():
    g = Graph([f"v{i}" for i in range(70)])
    with pytest.raises(InputDomainError):
        to_graph6(g)


def test_k5_search_limit():
    g = cycle_graph([f"v{i}" for i in range(14)])
    with pytest.raises(ResourceLimitError):
        find_k5_subdivision(g, limit=12)


def test_four_color_limit():
    g = cycle_graph([f"v{i}" for i in range(40)])
    with pytest.raises(ResourceLimitError):
        four_color(g, limit=32)


def test_separations_negative_order():
    with pytest.raises(InputDomainError):
        list(enumerate_separations(complete_graph(list("abc")), -1))


def _order4_sep(side1_extra_edges=()):
    ts = ("t1", "t2", "t3", "t4")
    side1 = Graph(
        set(ts) | {"u", "w"},
        [("u", t) for t in ts] + [("u", "w"), ("w", "t1"), ("w", "t2")] + list(side1_extra_edges),
    )
    side2 = Graph(edges=[(t, h) for t in ts for h in ("h1", "h2")] + [("h1", "h2")])
    return union(side1, side2), Separation(side1, side2)


def test_trichotomy_requires_exclusive_vertex():
    ts = ("t1", "t2", "t3", "t4")
    side1 = Graph(set(ts), [("t1", "t2")])
    side2 = Graph(
        set(ts) | {"h1", "h2"},
        [(t, h) for t in ts for h in ("h1", "h2")] + [("h1", "h2")],
    )
    g = union(side1, side2)
    with pytest.raises(PreconditionError):
        check_trichotomy(g, Separation(side1, side2))


def test_trichotomy_requires_disc_planar_side():
    # side1 = K5 glued over a 4-cut: the side is not even planar
    ts = ("t1", "t2", "t3", "t4")
    side1 = union(complete_graph(set(ts) | {"u"}), Graph(edges=[("u", "x"), ("t1", "x")]))
    side2 = Graph(edges=[(t, h) for t in ts for h in ("h1", "h2")] + [("h1", "h2")])
    g = union(side1, side2)
    tg = TerminalGraph(side1, ts, ordered=False)
    assert not is_disc_planar(tg)
    with pytest.raises(PreconditionError):
        check_trichotomy(g, Separation(side1, side2))
