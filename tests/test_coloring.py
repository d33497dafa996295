import pytest
from hypothesis import given

from wheelkit.coloring import assign_then_extend, four_color, is_proper
from wheelkit.errors import InputDomainError
from wheelkit.graph import Graph, add, complete_graph, cycle_graph
from wheelkit.oracles import brute_four_color

from tests.test_graph import graphs


def test_k4_colorable_all_distinct():
    col = four_color(complete_graph(list("abcd")))
    assert col is not None
    assert len(set(col.values())) == 4


def test_empty_graph_has_empty_coloring():
    assert four_color(Graph([])) == {}


def test_k5_not_colorable():
    assert four_color(complete_graph(list("abcde"))) is None


def test_five_wheel_colorable():
    rim = list("abcde")
    g = add(cycle_graph(rim), {"x"}, [("x", v) for v in rim])
    col = four_color(g)
    assert col is not None and is_proper(g, col, total=True)


@given(graphs(max_n=6))
def test_four_color_agrees_with_enumeration(g):
    got = four_color(g)
    want = brute_four_color(g)
    assert (got is None) == (want is None)
    if got is not None:
        assert is_proper(g, got, total=True)


def star(center, leaves):
    return Graph([center] + leaves, [(center, leaf) for leaf in leaves])


def test_greedy_assigns_least_missing_color():
    g = star("v", ["a", "b", "c"])
    base = {"a": 1, "b": 2, "c": 3}
    col = assign_then_extend(g, base, {}, ["v"])
    assert col["v"] == 4


def test_greedy_fails_when_all_colors_seen():
    g = star("v", ["a", "b", "c", "d"])
    base = {"a": 1, "b": 2, "c": 3, "d": 4}
    assert assign_then_extend(g, base, {}, ["v"]) is None


def test_greedy_order_must_cover_uncolored():
    g = star("v", ["a"])
    with pytest.raises(InputDomainError):
        assign_then_extend(g, {"a": 1}, {}, [])
    with pytest.raises(InputDomainError):
        assign_then_extend(g, {"a": 1}, {}, ["a", "v"])


def test_assign_then_extend_total_base_round_trips():
    g = complete_graph(list("ab"))
    base = {"a": 1, "b": 2}
    out = assign_then_extend(g, base, {}, [])
    assert out == base and out is not base


def test_assign_then_extend_rejects_clashing_force():
    g = complete_graph(list("ab"))
    with pytest.raises(InputDomainError):
        assign_then_extend(g, {"a": 1}, {"b": 1}, [])


def test_assign_then_extend_rejects_improper_base():
    # a failed schedule returns None; a bad boundary coloring is an input error
    g = Graph(["a", "b", "v"], [("a", "b"), ("b", "v")])
    with pytest.raises(InputDomainError, match="base coloring"):
        assign_then_extend(g, {"a": 1, "b": 1}, {}, ["v"])


def test_assign_then_extend_rejects_base_vertex_outside_graph():
    # a base color on a vertex g lacks is an input error, like a forced one
    g = complete_graph(list("ab"))
    with pytest.raises(InputDomainError, match="unknown vertex 'zz'"):
        assign_then_extend(g, {"zz": 1}, {}, ["a", "b"])
    with pytest.raises(InputDomainError, match="unknown vertex 'zz'"):
        assign_then_extend(g, {}, {"zz": 1}, ["a", "b"])


def test_assign_then_extend_runs_schedule():
    # force the apex of a 4-star to a color its neighbors avoid
    g = star("v", ["a", "b", "c"])
    g = add(g, {"u"}, [("u", "a"), ("u", "v")])
    base = {"a": 1, "b": 2, "c": 1}
    out = assign_then_extend(g, base, {"v": 3}, ["u"])
    assert out is not None and out["u"] == 2
    assert is_proper(g, out, total=True)


@pytest.mark.parametrize("color", [0, 5, "1"])
def test_assign_then_extend_rejects_base_color_outside_range(color):
    # the base is the one coloring taken from outside; its colors are 1..4
    g = complete_graph(list("ab"))
    with pytest.raises(InputDomainError, match="outside 1..4"):
        assign_then_extend(g, {"a": color}, {}, ["b"])
