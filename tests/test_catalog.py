import random

from wheelkit.catalog import catalog, matches_catalog, rooted_isomorphic, verify_catalog
from wheelkit.generate import generate_terminal_planar
from wheelkit.graph import Graph, cycle_graph, remove
from wheelkit.planarity import TerminalGraph
from wheelkit.oracles import brute_rooted_isomorphic, brute_wheel_search


def test_catalog_certifies():
    assert verify_catalog() == []


def test_catalog_sizes():
    assert sorted(m.tg.graph.n for m in catalog()) == [6, 6, 7, 7, 8, 9]


def test_catalog_brute_force_no_good_wheel():
    # second, independent route for the central certification
    for m in catalog():
        assert brute_wheel_search(m.tg.graph, m.tg.terminals) is None


def test_members_match_themselves():
    for m in catalog():
        assert matches_catalog(m.tg) is m


def test_rotated_terminals_still_match():
    x1 = next(m for m in catalog() if m.name == "X1")
    ts = x1.tg.terminals
    rotated = TerminalGraph(x1.tg.graph, ts[2:] + ts[:2], ordered=True)
    assert rooted_isomorphic(rotated, x1.tg)
    assert matches_catalog(rotated) is x1


def test_w2_minus_spoke_matches_w1():
    w2 = next(m for m in catalog() if m.name == "W2")
    trimmed = remove(w2.tg.graph, edges=[("u", "t5")])
    got = matches_catalog(TerminalGraph(trimmed, w2.tg.terminals, ordered=True))
    assert got is not None and got.name == "W1"


def test_c5_matches_nothing():
    c5 = cycle_graph([f"v{i}" for i in range(5)])
    tg = TerminalGraph(c5, tuple(f"v{i}" for i in range(5)), ordered=False)
    assert matches_catalog(tg) is None


def test_w1_w2_not_isomorphic():
    w1 = next(m for m in catalog() if m.name == "W1")
    w2 = next(m for m in catalog() if m.name == "W2")
    assert not rooted_isomorphic(w1.tg, w2.tg)


def test_rooted_iso_cares_about_roots():
    # same underlying graph, different terminal sets
    g = Graph(edges=[("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")])
    t1 = TerminalGraph(g, ("a", "b"), ordered=False)
    t2 = TerminalGraph(g, ("a", "c"), ordered=False)
    assert not rooted_isomorphic(t1, t2)
    assert rooted_isomorphic(t1, TerminalGraph(g, ("c", "d"), ordered=False))


def test_rooted_iso_is_equivalence_on_catalog():
    ms = catalog()
    for m in ms:
        assert rooted_isomorphic(m.tg, m.tg)
    for a in ms:
        for b in ms:
            assert rooted_isomorphic(a.tg, b.tg) == rooted_isomorphic(b.tg, a.tg)


def test_matches_catalog_agrees_with_the_oracle():
    cases = list(generate_terminal_planar(7, 5, ("s-independent",)))
    assert len(cases) == 61
    rng = random.Random(5)
    for m in catalog():  # each member under fresh names and terminal order
        g = m.tg.graph
        names = [f"x{i}" for i in range(g.n)]
        rng.shuffle(names)
        rename = dict(zip(g.vertices, names))
        ts = [rename[t] for t in m.tg.terminals]
        rng.shuffle(ts)
        h = Graph(names, [(rename[a], rename[b]) for a, b in g.edges])
        cases.append(TerminalGraph(h, tuple(ts), ordered=False))
    matched = []
    for tg in cases:
        want = [m for m in catalog() if brute_rooted_isomorphic(tg, m.tg)]
        assert len(want) <= 1
        assert matches_catalog(tg) is (want[0] if want else None)
        matched += [m.name for m in want]
    # the stream holds the four members with at most seven vertices
    assert sorted(matched) == sorted(["W1", "W2", "X1", "X2"] + [m.name for m in catalog()])
