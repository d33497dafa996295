import random

import pytest
from hypothesis import given

from wheelkit import kernels
from wheelkit.coloring import assign_then_extend, four_color, is_proper
from wheelkit.errors import InputDomainError
from wheelkit.generate import random_graph, random_planar_graph, small_graph_classes
from wheelkit.gio import parse_edgelist
from wheelkit.graph import Graph, add, complete_graph, cycle_graph, path_graph, union
from wheelkit.oracles import brute_four_color

from tests.cli_cases import _grid
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


def test_four_color_colors_planar_graphs_to_the_kernel_cap():
    """Only the kernels' 63-vertex cap bounds the search."""
    rng = random.Random(39)
    for n in range(33, 64):
        g = random_planar_graph(n, rng, keep_fraction=rng.uniform(0.6, 1.0))
        col = four_color(g)
        assert col is not None and is_proper(g, col, total=True), n


def test_four_color_refuses_k5_beside_a_grid_of_56_vertices():
    """The grid's vertices come first, so a search that backtracked into
    a finished component would retry the K5 under every grid coloring."""
    grid, _ = parse_edgelist(_grid(7, 8))
    g = union(complete_graph([f"k{i}" for i in range(5)]), grid)
    assert g.n == 61 and four_color(g) is None


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


@pytest.mark.parametrize("color", [0, 7, -1, "1", None, [1]])
def test_is_proper_rejects_a_color_outside_1_to_4(color):
    g = path_graph(["a", "b"])
    assert not is_proper(g, {"a": color, "b": 2}, total=True)
    assert not is_proper(g, {"a": color})
    assert is_proper(g, {"a": 1, "b": 2}, total=True)


def reference_four_color(n, adj):
    """The recursive search `kernels.four_color_masks` replaced: one
    admissible-color mask per vertex, a scan for the uncolored vertex
    with the fewest (ties by index), colors in ascending order, and a
    trail that undoes the forward check on backtracking."""
    if n == 0:
        return []
    colors = [-1] * n
    avail = [0b1111] * n
    nbrs = [[u for u in range(n) if adj[v] >> u & 1] for v in range(n)]

    def solve():
        best, best_k = -1, 5
        for v in range(n):
            if colors[v] == -1:
                k = avail[v].bit_count()
                if k < best_k:
                    best, best_k = v, k
                    if k <= 1:
                        break
        if best == -1:
            return True
        v = best
        for c in range(4):
            bit = 1 << c
            if not avail[v] & bit:
                continue
            colors[v] = c
            trail = []
            dead = False
            for u in nbrs[v]:
                if colors[u] == -1 and avail[u] & bit:
                    avail[u] &= ~bit
                    trail.append(u)
                    if avail[u] == 0:
                        dead = True
                        break
            if not dead and solve():
                return True
            for u in trail:
                avail[u] |= bit
            colors[v] = -1
        return False

    return colors[:] if solve() else None


def kernel_reference_mismatches(graphs):
    """The number of `graphs` with no 4-coloring, and the graphs on which
    `kernels.four_color_masks` returns another list than
    `reference_four_color`."""
    uncolorable, bad = 0, []
    for g in graphs:
        _, adj = kernels.index_graph(g)
        want = reference_four_color(g.n, adj)
        uncolorable += want is None
        if kernels.four_color_masks(g.n, adj) != want:
            bad.append(g)
    return uncolorable, bad


def test_kernel_matches_reference_on_graph_classes_to_7_vertices():
    graphs = small_graph_classes(7)
    assert (len(graphs), *kernel_reference_mismatches(graphs)) == (1252, 66, [])


def test_kernel_matches_reference_on_random_planar_graphs():
    rng = random.Random(38)
    graphs = [random_planar_graph(9 + i % 4, rng, keep_fraction=0.95) for i in range(400)]
    assert kernel_reference_mismatches(graphs) == (0, [])


def test_kernel_matches_reference_on_random_graphs():
    rng = random.Random(13)
    graphs = [random_graph(i % 14, rng.random(), rng) for i in range(500)]
    assert kernel_reference_mismatches(graphs) == (115, [])


def test_four_color_matches_enumeration_on_graph_classes_to_6_vertices():
    graphs = small_graph_classes(6)
    verdicts = [(four_color(g) is None, brute_four_color(g) is None) for g in graphs]
    assert len(graphs) == 208
    assert sum(ours for ours, _ in verdicts) == 7
    assert all(ours == brute for ours, brute in verdicts)
