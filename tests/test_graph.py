import networkx as nx
import pytest
from hypothesis import given, strategies as st

from wheelkit.errors import InputDomainError
from wheelkit.generate import generate_terminal_planar, small_graph_classes
from wheelkit.graph import (
    Graph,
    add,
    complete_graph,
    cycle_graph,
    flood_components,
    identify,
    norm_edge,
    path_graph,
    remove,
    union,
    vkey,
)
from wheelkit.separations import split


def k4():
    return complete_graph(["a", "b", "c", "d"])


def c5():
    return cycle_graph(["v1", "v2", "v3", "v4", "v5"])


def test_graph_basics():
    g = k4()
    assert g.n == 4 and g.m == 6
    assert g.has_edge("a", "d") and g.has_edge("d", "a")
    assert g.neighbors("a") == ("b", "c", "d")
    assert g.degree("a") == 3


def test_graph_rejects_self_loop():
    with pytest.raises(InputDomainError):
        Graph(edges=[("a", "a")])


@pytest.mark.parametrize(
    "vertices, edges",
    [([1, 2], ()), (["a", 3], ()), ((), [("a", 3)])],
    ids=["int-vertices", "mixed-vertices", "int-edge-end"],
)
def test_graph_rejects_non_string_ids(vertices, edges):
    with pytest.raises(InputDomainError, match="vertex ids must be strings"):
        Graph(vertices, edges)


def test_remove_vertex_gives_induced_subgraph():
    g = remove(k4(), vertices={"d"})
    assert g == complete_graph(["a", "b", "c"])


def test_remove_single_edge_from_c5():
    g = remove(c5(), edges=[("v1", "v2")])
    assert g.m == 4
    assert not g.has_edge("v1", "v2")
    assert g.has_edge("v1", "v5")


def test_remove_unknown_vertex_errors():
    with pytest.raises(InputDomainError):
        remove(k4(), vertices={"z"})


def test_remove_edge_touching_deleted_vertex_errors():
    with pytest.raises(InputDomainError):
        remove(k4(), vertices={"a"}, edges=[("a", "b")])


def test_add_duplicate_edge_errors():
    g = path_graph(["a", "b"])
    with pytest.raises(InputDomainError):
        add(g, edges=[("a", "b")])


def test_add_apex_makes_wheel():
    g = add(cycle_graph(["1", "2", "3", "4"]), {"x"}, [("x", str(i)) for i in (1, 2, 3, 4)])
    assert g.degree("x") == 4 and g.n == 5 and g.m == 8


def test_add_clashing_vertex_errors():
    with pytest.raises(InputDomainError):
        add(k4(), vertices={"a"})


def test_identify_path_ends():
    g = identify(path_graph(["a", "b", "c"]), "a", "c", "x")
    assert g == Graph(["x", "b"], [("x", "b")])


def test_identify_merges_parallel_edges():
    g = identify(cycle_graph(["a", "b", "c", "d"]), "a", "c", "x")
    assert sorted(g.edges) == sorted([norm_edge("x", "b"), norm_edge("x", "d")])


def test_identify_same_vertex_errors():
    with pytest.raises(InputDomainError):
        identify(k4(), "a", "a", "x")


def test_identify_edge_count_formula():
    # |E'| = |E| - |N(u) & N(w)| - [uw in E]
    g = k4()
    gi = identify(g, "a", "b", "x")
    common = len(set(g.neighbors("a")) & set(g.neighbors("b")))
    assert gi.m == g.m - common - 1


def test_union_glues_on_shared_ids():
    g = union(path_graph(["a", "b"]), path_graph(["b", "c"]))
    assert g == path_graph(["a", "b", "c"])


# -- property tests ----------------------------------------------------------

names = st.text(alphabet="abcdef", min_size=1, max_size=2)


@st.composite
def graphs(draw, max_n=7, ids=names):
    vs = draw(st.sets(ids, min_size=1, max_size=max_n))
    vs = sorted(vs)
    pairs = [(u, v) for i, u in enumerate(vs) for v in vs[i + 1 :]]
    es = draw(st.sets(st.sampled_from(pairs), max_size=len(pairs)) if pairs else st.just(set()))
    return Graph(vs, es)


@given(graphs())
def test_remove_then_add_round_trips(g):
    if g.n < 2:
        return
    v = g.vertices[0]
    incident = [e for e in g.edges if v in e]
    stripped = remove(g, vertices={v})
    restored = add(stripped, {v}, incident)
    assert restored == g


@given(graphs())
def test_operations_do_not_mutate(g):
    before = (g.vertices, g.edges)
    if g.n >= 2:
        remove(g, vertices={g.vertices[0]})
        u, w = g.vertices[0], g.vertices[1]
        identify(g, u, w, "zz")
    assert (g.vertices, g.edges) == before


@given(graphs())
def test_identify_edge_count_property(g):
    if g.n < 2:
        return
    u, w = g.vertices[0], g.vertices[1]
    gi = identify(g, u, w, "zz")
    common = len(set(g.neighbors(u)) & set(g.neighbors(w)))
    assert gi.m == g.m - common - (1 if g.has_edge(u, w) else 0)


# Mixed lengths, where vkey order differs from plain string order.
mixed_ids = st.sampled_from(["2", "10", "t1", "t10", "__fence0", "__fence12"]) | st.text(
    alphabet="0129_aft", min_size=1, max_size=9
)


@given(graphs(ids=mixed_ids))
def test_neighbors_and_edges_in_vkey_order(g):
    assert list(g.edges) == sorted(g.edges, key=lambda e: (vkey(e[0]), vkey(e[1])))
    for v in g.vertices:
        assert list(g.neighbors(v)) == sorted(g.neighbors(v), key=vkey)
        assert set(g.neighbors(v)) == {x for e in g.edges if v in e for x in e if x != v}


def test_flood_components_follow_the_given_order_and_skip_a_set():
    g = Graph(["9", "10", "2", "11", "a"], [("9", "11"), ("10", "a"), ("2", "11")])
    assert g.components() == (frozenset({"2", "9", "11"}), frozenset({"10", "a"}))
    adj = {v: g.neighbors(v) for v in g.vertices}
    assert flood_components(adj, g.vertices, ["11"]) == [["2"], ["9"], ["a", "10"]]
    assert flood_components(adj, ["10", "9", "2", "11", "a"], ["11"]) == [["10", "a"], ["9"], ["2"]]


@given(graphs(ids=mixed_ids), st.data())
def test_flood_components_are_the_components_without_the_skipped_set(g, data):
    """Each component of g minus the skipped set comes once, led by its
    vkey-least vertex, and the leaders come in vkey order."""
    skip = data.draw(st.sets(st.sampled_from(g.vertices)))
    got = flood_components({v: g.neighbors(v) for v in g.vertices}, g.vertices, skip)
    rest = nx.Graph()
    rest.add_nodes_from(v for v in g.vertices if v not in skip)
    rest.add_edges_from(e for e in g.edges if not set(e) & skip)
    assert sorted(map(frozenset, got), key=sorted) == sorted(
        map(frozenset, nx.connected_components(rest)), key=sorted
    )
    assert all(len(c) == len(set(c)) and c[0] == min(c, key=vkey) for c in got)
    leaders = [c[0] for c in got]
    assert leaders == sorted(leaders, key=vkey)


def same_graph(got, want):
    assert got.vertices == want.vertices and got.edges == want.edges
    for v in want.vertices:
        assert got.neighbors(v) == want.neighbors(v)
    assert hash(got) == hash(want) and got == want


@given(graphs(ids=mixed_ids), st.data())
def test_subgraphs_equal_a_fresh_build_from_the_same_data(g, data):
    """`induced`, `remove` and `split` skip the sorting of `Graph(...)`;
    what they build must be the graph `Graph(...)` builds."""
    keep = data.draw(st.sets(st.sampled_from(g.vertices)))
    kept = [e for e in g.edges if set(e) <= keep]
    same_graph(g.induced(keep), Graph(keep, kept))

    gone = set(g.vertices) - keep
    drop = data.draw(st.sets(st.sampled_from(kept)) if kept else st.just(set()))
    same_graph(remove(g, gone, drop), Graph(keep, [e for e in kept if e not in drop]))

    cut = data.draw(st.sets(st.sampled_from(g.vertices)))
    exclusive = set(next(iter(remove(g, cut).components()), ()))
    sep = split(g, cut, exclusive)
    e1 = [e for e in g.edges if set(e) & exclusive]
    same_graph(sep.side1, Graph(exclusive | cut, e1))
    same_graph(sep.side2, Graph(set(g.vertices) - exclusive, [e for e in g.edges if e not in e1]))


def test_generated_graphs_equal_a_fresh_build_from_the_same_data():
    """The level loop's graphs are built from their masks without the
    sorting of `Graph(...)`; each must be the graph `Graph(...)` builds."""
    stream = [tg.graph for tg in generate_terminal_planar(8, 5, ("s-independent",))]
    for g in small_graph_classes(7) + stream:
        same_graph(g, Graph(g.vertices, g.edges))
