import random

from wheelkit.coloring import four_color
from wheelkit.generate import canonical_form, random_graph, small_graph_classes
from wheelkit.graph import Graph, norm_edge, vkey
from wheelkit.planarity import TerminalGraph, is_disc_planar, is_planar
from wheelkit.separations import enumerate_separations, is_k_connected, side_verdict
from wheelkit.subdivisions import find_disjoint_paths, find_k5_subdivision

# string order and vkey order disagree on these: "10" < "9" but 9 comes
# first; the "__" ids look like names a library might give an apex or
# fence vertex of its own
MIXED_IDS = [
    "9", "10", "2", "11", "100", "a", "b1", "t2", "t10", "x", "7a", "c30",
    "__apex0", "__fence0", "__fence5",
]


def test_relabelling_onto_mixed_length_ids_changes_no_answer():
    """A random bijection π onto ids of mixed lengths changes no verdict
    (planarity and disc-planarity among them) and no canonical key, maps
    the separations onto the separations, and leaves each cut and each
    side1 in vkey order."""
    rng = random.Random(41)
    graphs = small_graph_classes(6) + [
        random_graph(rng.randrange(5, 11), rng.uniform(0.3, 0.8), rng) for _ in range(40)
    ]
    for g in graphs:
        pi = dict(zip(g.vertices, rng.sample(MIXED_IDS, g.n)))
        h = Graph(pi.values(), [(pi[u], pi[v]) for u, v in g.edges])

        def moved(vs):
            return tuple(pi[v] for v in vs)

        assert (four_color(g) is None) == (four_color(h) is None), g.edges
        assert is_planar(g) == is_planar(h), g.edges
        assert (find_k5_subdivision(g) is None) == (find_k5_subdivision(h) is None), g.edges
        for k in range(1, 5):
            assert is_k_connected(g, k) == is_k_connected(h, k), (g.edges, k)
        order = rng.sample(g.vertices, g.n)
        if g.n >= 4:
            pairs = [order[:2], order[2:4]]
            assert (find_disjoint_paths(g, pairs) is None) == (
                find_disjoint_paths(h, [moved(p) for p in pairs]) is None
            ), (g.edges, pairs)
        ts = order[: rng.randrange(1, min(g.n, 5) + 1)]
        for ordered in (True, False):
            assert is_disc_planar(TerminalGraph(g, ts, ordered=ordered)) == is_disc_planar(
                TerminalGraph(h, moved(ts), ordered=ordered)
            ), (g.edges, ts, ordered)
        assert canonical_form(g, ts) == canonical_form(h, moved(ts)), (g.edges, ts)
        if len(ts) in (4, 5):
            tg = TerminalGraph(g, ts, ordered=False)
            th = TerminalGraph(h, moved(ts), ordered=False)
            assert side_verdict(tg).verdict == side_verdict(th).verdict, (g.edges, ts)
        for k in range(4):
            want = {
                frozenset(
                    (frozenset(moved(s.vertices)), frozenset(norm_edge(pi[u], pi[v]) for u, v in s.edges))
                    for s in (sep.side1, sep.side2)
                )
                for sep in enumerate_separations(g, k)
            }
            got = set()
            for sep in enumerate_separations(h, k):
                assert list(sep.cut) == sorted(sep.cut, key=vkey), sep.cut
                assert list(map(vkey, sep.side1.vertices)) < list(map(vkey, sep.side2.vertices))
                got.add(frozenset((frozenset(s.vertices), s.edge_set()) for s in (sep.side1, sep.side2)))
            assert got == want, (g.edges, k)
