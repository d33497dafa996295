import random
from itertools import combinations

import pytest

from wheelkit.catalog import catalog
from wheelkit.errors import InputDomainError, PreconditionError
from wheelkit.generate import generate_terminal_planar, random_graph, small_graph_classes
from wheelkit.gio import from_graph6
from wheelkit.graph import Graph, add, complete_graph, cycle_graph, path_graph, union, vkey
from wheelkit.oracles import brute_k_connected, brute_separations
from wheelkit.planarity import TerminalGraph
from wheelkit.separations import (
    Separation,
    Verdict,
    check_trichotomy,
    enumerate_separations,
    is_k_connected,
    side_verdict,
    split,
    validate_separation,
)


def test_path_has_single_1_separation():
    g = path_graph(["a", "b", "c"])
    seps = list(enumerate_separations(g, 1))
    assert len(seps) == 1
    assert seps[0].cut == ("b",)


def test_k4_3_separations_are_vertex_splits():
    g = complete_graph(list("abcd"))
    seps = list(enumerate_separations(g, 3))
    assert len(seps) == 4
    for sep in seps:
        # one side is a lone vertex joined to its triangle of neighbors,
        # the other the triangle itself
        vertex_side = max((sep.side1, sep.side2), key=lambda s: s.n)
        assert vertex_side.n == 4 and len(set(vertex_side.vertices) - set(sep.cut)) == 1
        edge_side = min((sep.side1, sep.side2), key=lambda s: s.n)
        assert set(edge_side.vertices) == set(sep.cut) and edge_side.m == 3


def test_c6_2_separations():
    g = cycle_graph([f"v{i}" for i in range(6)])
    seps = list(enumerate_separations(g, 2))
    two_arc_cuts = {
        sep.cut
        for sep in seps
        if set(sep.side1.vertices) - set(sep.cut) and set(sep.side2.vertices) - set(sep.cut)
    }
    # both-arc separations come exactly from the non-adjacent pairs
    assert all(not g.has_edge(*c) for c in two_arc_cuts)
    assert len(two_arc_cuts) == 9


def test_every_emitted_separation_revalidates():
    g = union(complete_graph(list("abcd")), Graph(edges=[("c", "x"), ("d", "x"), ("x", "y"), ("c", "y")]))
    for k in (1, 2, 3):
        for sep in enumerate_separations(g, k):
            validate_separation(g, sep)


HAND_GRAPHS = [
    path_graph(["a", "b", "c", "d"]),
    cycle_graph([f"v{i}" for i in range(5)]),
    complete_graph(list("abcd")),
    add(cycle_graph(["a", "b", "c", "d"]), {"e"}, [("e", "a"), ("e", "b")]),
    # the star K1,3: its 1-cut leaves three components
    Graph(edges=[("c", "x"), ("c", "y"), ("c", "z")]),
    # two triangles sharing the edge bc: its 2-cut {b, c} holds an edge
    Graph(edges=[("a", "b"), ("a", "c"), ("b", "c"), ("b", "d"), ("c", "d")]),
]


def test_separations_match_definition_oracle_with_cut_edges_on_one_side():
    for g in HAND_GRAPHS:
        for k in (1, 2, 3):
            got = {
                frozenset((frozenset(s.vertices), s.edge_set()) for s in (sep.side1, sep.side2))
                for sep in enumerate_separations(g, k)
            }
            want = set()
            for pair in brute_separations(g, k):
                (v1, e1), (v2, e2) = pair
                inner = {e for e in g.edges if set(e) <= v1 & v2}
                if inner <= e1 or inner <= e2:
                    want.add(pair)
            assert got == want, f"k={k} mismatch"


def seen_set_separations(g, k):
    """The enumerator as it stood before duplicates were avoided by
    construction: every group of components from the empty one up, both
    sides built, rejects and repeats dropped by a seen-set."""
    seen = set()
    for cut in combinations(g.vertices, k):
        cset = set(cut)
        rest = g.induced([v for v in g.vertices if v not in cset])
        comps = sorted(rest.components(), key=lambda c: sorted(map(vkey, c)))
        inner = [e for e in g.edges if e[0] in cset and e[1] in cset]
        n = len(comps)
        for r in range(n + 1):
            for group in combinations(range(n), r):
                a = set().union(*(comps[i] for i in group))
                b = set().union(*(comps[i] for i in range(n) if i not in group))
                e1 = [e for e in g.edges if e[0] in a or e[1] in a]
                e2 = [e for e in g.edges if e[0] in b or e[1] in b] + inner
                if (not a and not e1) or (not b and not e2):
                    continue
                s1, s2 = Graph(a | cset, e1), Graph(b | cset, e2)
                if list(map(vkey, s2.vertices)) < list(map(vkey, s1.vertices)):
                    s1, s2 = s2, s1
                key = (s1.vertices, s1.edges, s2.vertices, s2.edges)
                if key not in seen:
                    seen.add(key)
                    yield Separation(s1, s2)


def test_enumeration_order_matches_the_seen_set_reference():
    rng = random.Random(17)
    graphs = list(HAND_GRAPHS)
    for _ in range(60):
        graphs.append(random_graph(rng.randrange(4, 8), rng.uniform(0.2, 0.8), rng))
    emitted = 0
    for g in graphs:
        for k in range(7):
            got = list(enumerate_separations(g, k))
            assert got == list(seen_set_separations(g, k)), (g.edges, k)
            emitted += len(got)
    assert emitted == 7287


@pytest.mark.parametrize("n", range(3, 7))
def test_complete_graph_side_order_when_one_side_is_the_cut(n):
    """At k = n - 1 and k = n - 2 one side is the cut with its internal
    edges, and its vertex list can be a prefix of the other side's.  The
    rest of the graph is one component, so each cut gives one separation
    when it holds an edge (K3 has no 1-separation)."""
    g = complete_graph(list("abcdef")[:n])
    for k, count in ((n - 1, n), (n - 2, n * (n - 1) // 2 if n > 3 else 0)):
        got = list(enumerate_separations(g, k))
        assert got == list(seen_set_separations(g, k)), (n, k)
        assert len(got) == count
        for sep in got:
            assert list(map(vkey, sep.side1.vertices)) < list(map(vkey, sep.side2.vertices))


def test_component_order_and_side1_follow_vkey_order():
    """Components are taken in the vkey order of their least vertices,
    and side1 is the side whose vertex list comes first in vkey order:
    "9" comes before "10" though string order puts "10" first."""
    rng = random.Random(23)
    ids = ["9", "10", "2", "11", "a", "b1", "t2", "t10"]
    for _ in range(40):
        g = random_graph(rng.sample(ids, rng.randrange(3, 8)), rng.uniform(0.1, 0.6), rng)
        for k in range(7):
            got = list(enumerate_separations(g, k))
            assert got == list(seen_set_separations(g, k))
            for sep in got:
                assert list(map(vkey, sep.side1.vertices)) < list(map(vkey, sep.side2.vertices))
    # the 1-cut {"2"} of the path 9-2-10 leaves {"9"} and {"10"}: side1 is
    # the side holding 9
    [sep] = enumerate_separations(path_graph(["9", "2", "10"]), 1)
    assert sep.side1.vertices == ("2", "9") and sep.side2.vertices == ("2", "10")


def test_connectivity_standards():
    assert is_k_connected(complete_graph(list("abcde")), 4)
    assert is_k_connected(cycle_graph(list("abcde")), 2)
    assert not is_k_connected(cycle_graph(list("abcde")), 3)
    assert not is_k_connected(path_graph(["a", "b", "c"]), 2)
    assert is_k_connected(complete_graph(["a"]), 0)
    assert not is_k_connected(complete_graph(["a", "b"]), 2)
    assert is_k_connected(complete_graph(["a", "b", "c"]), 2)


def test_catalog_member_y_not_4_connected_standalone():
    y = next(m for m in catalog() if m.name == "Y")
    assert not is_k_connected(y.tg.graph, 4)


def test_k_connectivity_agrees_with_the_oracle_on_small_graphs():
    for g in small_graph_classes(6):
        for k in range(7):
            assert is_k_connected(g, k) == brute_k_connected(g, k), (g.edges, k)
    for g in (Graph(), Graph(["a"])):
        assert not is_k_connected(g, 1) and not brute_k_connected(g, 1)


def stand_in(tg):
    """The side plus the best-connected other side: a clique on the
    terminals and four hubs joined to each other and to every terminal."""
    hubs = ("h1", "h2", "h3", "h4")
    return add(
        tg.graph,
        hubs,
        [*combinations(tg.terminals, 2), *combinations(hubs, 2),
         *((h, t) for h in hubs for t in tg.terminals)],
    )


@pytest.mark.parametrize("k, sides", [(4, 425), (5, 60)])
def test_k_connectivity_agrees_with_the_oracle_on_stand_ins(k, sides):
    """Every side of the s-independent stream to 7 vertices that has an
    interior vertex, with its stand-in: five of them are 4-connected at
    either terminal count."""
    seen = connected = 0
    for tg in generate_terminal_planar(7, k, filters=("s-independent",)):
        if tg.graph.n == k:
            continue
        g = stand_in(tg)
        got = is_k_connected(g, 4)
        assert got == brute_k_connected(g, 4), tg.graph.edges
        seen += 1
        connected += got
    assert (seen, connected) == (sides, 5)


# -- trichotomy ----------------------------------------------------------------


def glue_host(member_tg):
    """Glue a terminal graph onto a rich host across its terminals."""
    ts = member_tg.terminals
    hub_edges = [(t, "hub1") for t in ts] + [(t, "hub2") for t in ts]
    hub_edges += [("hub1", "hub2")]
    host_side = Graph(edges=hub_edges)
    g = union(member_tg.graph, host_side)
    side2 = Graph(set(ts) | {"hub1", "hub2"}, hub_edges)
    return g, Separation(member_tg.graph, side2)


def test_catalog_members_yield_catalog_verdict():
    for m in catalog():
        g, sep = glue_host(m.tg)
        res = check_trichotomy(g, sep)
        assert res.verdict is Verdict.CATALOG, m.name
        assert res.member is m


def test_small_side_yields_small():
    side1 = Graph(
        ["t1", "t2", "t3", "t4", "u"],
        [("u", "t1"), ("u", "t2"), ("u", "t3"), ("u", "t4")],
    )
    side2 = Graph(
        edges=[(t, h) for t in ("t1", "t2", "t3", "t4") for h in ("h1", "h2")]
        + [("h1", "h2")]
    )
    g = union(side1, side2)
    res = check_trichotomy(g, Separation(side1, side2))
    assert res.verdict is Verdict.SMALL


def test_wheel_bearing_side_yields_good_wheel():
    rim = ["r1", "r2", "r3", "r4"]
    ts = ("t1", "t2", "t3", "t4", "t5")
    side1 = add(cycle_graph(rim), {"c"}, [("c", r) for r in rim])
    side1 = add(side1, set(ts), [("t1", "r1"), ("t2", "r2"), ("t3", "r3"), ("t4", "r4"), ("t5", "r1")])
    side2 = Graph(edges=[(t, h) for t in ts for h in ("h1", "h2")] + [("h1", "h2")])
    g = union(side1, side2)
    res = check_trichotomy(g, Separation(side1, side2))
    assert res.verdict is Verdict.GOOD_WHEEL
    assert res.wheel is not None
    assert res.wheel.center not in ("t1", "t2", "t3", "t4", "t5")


def test_y_degree_condition_guards_catalog_verdict():
    y = next(m for m in catalog() if m.name == "Y")
    ts = y.tg.terminals
    # host giving the fan terminal t1 only degree 4 in G: trichotomy fails
    low_edges = [("t1", "h1")] + [(t, h) for t in ts[1:] for h in ("h1", "h2")] + [("h1", "h2")]
    side2 = Graph(set(ts) | {"h1", "h2"}, low_edges)
    g = union(y.tg.graph, side2)
    res = check_trichotomy(g, Separation(y.tg.graph, side2))
    assert res.verdict is Verdict.NONE
    # degree 5 host: verdict holds
    g2, sep2 = glue_host(y.tg)
    assert check_trichotomy(g2, sep2).verdict is Verdict.CATALOG


def test_side_verdict_of_catalog_members_and_census_survivors():
    for m in catalog():
        res = side_verdict(m.tg)
        assert res.verdict is Verdict.CATALOG and res.member is m
    # four-terminal sides that no clause covers; the first four vertices
    # are the terminals
    for code in ("F?qiw", "F?yYw", "H?qcYsu"):
        g = from_graph6(code)
        tg = TerminalGraph(g, g.vertices[:4], ordered=False)
        assert side_verdict(tg).verdict is Verdict.NONE, code


def test_trichotomy_rejects_wrong_order():
    g = complete_graph(list("abcd"))
    side1 = Graph(["a", "b"], [("a", "b")])
    side2 = Graph(g.vertices, [e for e in g.edges if e != ("a", "b")])
    with pytest.raises(PreconditionError):
        check_trichotomy(g, Separation(side1, side2))


@pytest.mark.parametrize(
    "cut, side, twice",
    [(["0", "2", "4"], ["1", "2", "3"], "'2'"), (["0", "2", "0"], ["1"], "'0'"), (["0", "2"], ["1", "1"], "'1'")],
)
def test_split_rejects_an_id_named_twice(cut, side, twice):
    """Without the check, the 8-cycle's cut 0, 2, 4 with the side 1, 2, 3
    became a separation with the cut 0, 4."""
    g = cycle_graph([str(i) for i in range(8)])
    with pytest.raises(InputDomainError, match=rf"named twice in the cut and side: \[{twice}\]"):
        split(g, cut, side)
    assert split(g, ["0", "2"], ["1"]).cut == ("0", "2")
