import os
import random
import subprocess
import sys
from functools import cache
from itertools import combinations, permutations
from pathlib import Path

import networkx as nx
import pytest

import wheelkit
from wheelkit import graph
from wheelkit.errors import InputDomainError, PreconditionError
from wheelkit.generate import random_planar_graph, small_graph_classes, terminal_set_classes
from wheelkit.graph import Graph, add, complete_graph, cycle_graph, remove
from wheelkit.kernels import _bits, _core, _index
from wheelkit.planarity import (
    TerminalGraph,
    _augmented,
    _disc_planar_masks,
    embed,
    embed_terminal,
    is_disc_planar,
    is_planar,
)
from wheelkit.separations import is_k_connected


def k33():
    return Graph(
        "a b c x y z".split(),
        [(u, v) for u in "abc" for v in "xyz"],
    )


def octahedron():
    g = complete_graph(list("123456"))
    return remove(g, edges=[("1", "6"), ("2", "5"), ("3", "4")])


def icosahedron():
    # standard adjacency list, 12 vertices / 30 edges
    adj = {
        0: (1, 2, 3, 4, 5),
        1: (0, 2, 5, 6, 7),
        2: (0, 1, 3, 7, 8),
        3: (0, 2, 4, 8, 9),
        4: (0, 3, 5, 9, 10),
        5: (0, 1, 4, 6, 10),
        6: (1, 5, 7, 10, 11),
        7: (1, 2, 6, 8, 11),
        8: (2, 3, 7, 9, 11),
        9: (3, 4, 8, 10, 11),
        10: (4, 5, 6, 9, 11),
        11: (6, 7, 8, 9, 10),
    }
    edges = {tuple(sorted((str(u), str(v)))) for u, ns in adj.items() for v in ns}
    return Graph([str(i) for i in range(12)], edges)


def test_planarity_standards():
    assert is_planar(complete_graph(list("abcd")))
    assert not is_planar(complete_graph(list("abcde")))
    assert not is_planar(k33())
    assert is_planar(octahedron())
    assert is_planar(icosahedron())


def _from_networkx(h) -> Graph:
    return Graph([str(v) for v in h.nodes], [(str(u), str(v)) for u, v in h.edges])


def _networkx_planar(g: Graph) -> bool:
    h = nx.Graph()
    h.add_nodes_from(g.vertices)
    h.add_edges_from(g.edges)
    return nx.check_planarity(h)[0]


def test_is_planar_matches_networkx_on_graph_atlas():
    """Every graph on at most 7 vertices."""
    for h in nx.graph_atlas_g():
        g = _from_networkx(h)
        assert is_planar(g) == _networkx_planar(g), g.edges


def test_is_planar_matches_networkx_on_seeded_graphs():
    rng = random.Random(2024)
    for _ in range(600):
        n = rng.randint(8, 12)
        h = nx.gnp_random_graph(n, rng.uniform(0.2, 0.6), seed=rng.randrange(1 << 30))
        g = _from_networkx(h)
        assert is_planar(g) == _networkx_planar(g), g.edges


def _planar_plus_edges(n: int, rng: random.Random) -> Graph:
    """A seeded planar graph on n vertices plus 0-2 random extra edges."""
    g = random_planar_graph(n, rng, keep_fraction=rng.uniform(0.6, 1.0))
    extra = set()
    for _ in range(rng.randint(0, 2)):
        u, v = rng.sample(g.vertices, 2)
        if not g.has_edge(u, v) and (v, u) not in extra:
            extra.add((u, v))
    return add(g, (), sorted(extra))


def _joined(g: Graph, h: Graph, u, v) -> Graph:
    """g and a primed copy of h, plus the edge from u in g to v's copy."""
    names = {x: f"{x}'" for x in h.vertices}
    return add(g, names.values(), [(names[a], names[b]) for a, b in h.edges] + [(u, names[v])])


@cache
def seeded_corpus() -> list[tuple[Graph, bool]]:
    """1,000 seeded planar graphs with 6-40 vertices plus 0-2 extra edges,
    a third of them two such graphs joined by one edge, each with
    networkx's planarity verdict: built once for the two tests that walk
    it."""
    rng = random.Random(29)
    corpus = []
    for _ in range(1000):
        g = _planar_plus_edges(rng.randint(6, 40), rng)
        if rng.random() < 1 / 3:
            h = _planar_plus_edges(rng.randint(6, 40), rng)
            g = _joined(g, h, rng.choice(g.vertices), rng.choice(h.vertices))
        corpus.append((g, _networkx_planar(g)))
    return corpus


def core_of(g: Graph) -> list[int]:
    """The degrees of the vertices left in the kernel's core of g."""
    _, adj = _index(g)
    return [adj[v].bit_count() for v in _bits(_core(adj))]


def test_is_planar_matches_networkx_on_large_cores():
    """The seeded corpus, in which more than 40 graphs have a core above
    48 vertices; every vertex left in a core has degree 3 or more."""
    nonplanar = above = 0
    for g, want in seeded_corpus():
        assert is_planar(g) == want, g.edges
        degrees = core_of(g)
        assert all(d >= 3 for d in degrees), g.edges
        nonplanar += not want
        above += len(degrees) > 48
    assert nonplanar > 400 and above > 40, (nonplanar, above)


def _k33_pair() -> Graph:
    """Two K3,3 sharing the vertex a."""
    second = [(u if u == "a" else f"{u}2", f"{v}2") for u, v in k33().edges]
    return Graph(edges=[*k33().edges, *second])


def _k5_beside_k4() -> Graph:
    k4 = complete_graph(list("wxyz"))
    return add(complete_graph(list("abcde")), k4.vertices, k4.edges)


def _octahedron_with_k5_at_a_cut_vertex() -> Graph:
    """The octahedron with a K5 through its vertex 6, so 6 is a cut vertex."""
    return add(octahedron(), list("pqrs"), complete_graph(list("6pqrs")).edges)


def _subdivided(g: Graph) -> Graph:
    """g with every edge replaced by a path of length two."""
    return Graph(
        g.vertices,
        [e for u, v in g.edges for e in ((u, f"{u}~{v}"), (f"{u}~{v}", v))],
    )


# the rungs of a circular ladder whose core, the whole ladder, is large:
# 50 vertices
LADDER = 25


def _prism() -> Graph:
    triangles = [("a", "b"), ("b", "c"), ("a", "c"), ("x", "y"), ("y", "z"), ("x", "z")]
    return Graph(edges=triangles + [("a", "x"), ("b", "y"), ("c", "z")])


@pytest.mark.parametrize(
    "g, core_size, planar",
    [
        (_subdivided(complete_graph(list("abcde"))), (5, 10), False),
        (_subdivided(k33()), (6, 9), False),
        # smoothing the third vertex of the 4-cycle meets the edge the
        # first smoothing added
        (cycle_graph(list("abcd")), (0, 0), True),
        (Graph(edges=[("a", "b"), ("b", "c"), ("b", "d"), ("d", "e"), ("d", "f")]), (0, 0), True),
        (k33(), (6, 9), False),
        (_prism(), (6, 9), True),
        (_k33_pair(), (11, 18), False),
        (_k5_beside_k4(), (9, 16), False),
        (_octahedron_with_k5_at_a_cut_vertex(), (10, 22), False),
        # every vertex has degree 3, so the core is the whole graph
        (_from_networkx(nx.circular_ladder_graph(LADDER)), (2 * LADDER, 3 * LADDER), True),
    ],
    ids=[
        "subdivided-k5", "subdivided-k33", "subdivided-triangle", "tree", "k33", "prism",
        "k33-pair", "k5-beside-k4", "octahedron-with-k5", "ladder-with-a-large-core",
    ],
)
def test_is_planar_hand_cases(g, core_size, planar):
    assert _networkx_planar(g) is planar
    degrees = core_of(g)
    assert (len(degrees), sum(degrees) // 2) == core_size
    assert is_planar(g) is planar


def fenced(g: Graph, ts) -> Graph:
    """g plus the fence of the terminal order t_1 .. t_k: fresh f_i joined
    to t_i and t_{i+1} (indices mod k), and a hub joined to every f_i.
    `_augmented` only fences four or more terminals."""
    fs = [f"__f{i}" for i in range(len(ts))]
    edges = [(f, ts[i]) for i, f in enumerate(fs)]
    edges += [(f, ts[(i + 1) % len(ts)]) for i, f in enumerate(fs)]
    edges += [(f, "__hub") for f in fs]
    return add(g, [*fs, "__hub"], edges)


@cache
def terminal_set_corpus():
    """Every graph on at most 6 vertices (up to isomorphism), each with
    its terminal sets of sizes 1 to 5 (up to rooted isomorphism), by size:
    built once for the three tests below that walk it."""
    return [(g, {k: terminal_set_classes(g, k) for k in range(1, 6)}) for g in small_graph_classes(6)]


def test_fence_matches_apex_at_three_terminals():
    """The fence, which decides four or more ordered terminals, gives the
    apex's verdict on every 3-terminal set (up to rooted isomorphism) of
    every graph on at most 6 vertices.  Criterion 7 checks the apex
    against the rotation-system oracle on the same corpus."""
    for g, by_size in terminal_set_corpus():
        for ts in by_size[3]:
            tg = TerminalGraph(g, ts, ordered=True)
            assert is_planar(fenced(g, ts)) == is_disc_planar(tg), (g.edges, ts)


def test_disc_planar_matches_the_augmented_graph():
    """`is_disc_planar` decides the augmentation on set adjacencies; the
    augmented `Graph`, built here from its description and not by
    `_augmented`, gets the same verdict from `is_planar`, for every
    terminal set of sizes 1 to 5 (up to rooted isomorphism) of every graph
    on at most 6 vertices, ordered and unordered."""
    cases = 0
    for g, by_size in terminal_set_corpus():
        for k in range(1, 6):
            for ts in by_size[k]:
                for ordered in (True, False):
                    tg = TerminalGraph(g, ts, ordered=ordered)
                    if ordered and k > 3:
                        h = fenced(g, ts)
                    else:
                        h = add(g, ["__apex"], [("__apex", t) for t in ts])
                    assert is_planar(h) == is_disc_planar(tg), (g.edges, ts, ordered)
                    cases += 1
    assert cases == 2 * 5394


def test_mask_disc_planarity_matches_is_disc_planar():
    """`_disc_planar_masks`, which the terminal-graph stream decides its
    candidates with, gives `is_disc_planar`'s unordered verdict on every
    terminal set of sizes 1 to 5 (not only one per rooted class) of every
    graph on at most 6 vertices, and leaves the masks as they are."""
    cases = rejected = 0
    for g in small_graph_classes(6):
        idx, adj = _index(g)
        before = adj.copy()
        for k in range(1, 6):
            for ts in combinations(g.vertices, k):
                expect = is_disc_planar(TerminalGraph(g, ts, ordered=False))
                assert _disc_planar_masks(adj, sum(1 << idx[t] for t in ts)) == expect, (g.edges, ts)
                cases += 1
                rejected += not expect
        assert adj == before
    assert (cases, rejected) == (10926, 1988)


@pytest.mark.parametrize(
    "g, ts, ordered",
    [
        (cycle_graph(list("abcd")), ("a",), True),
        (cycle_graph(list("abcd")), ("a", "c"), False),
        (complete_graph(list("abcd")), ("a", "b", "c"), True),
        (complete_graph(list("abcd")), ("a", "b", "c", "d"), False),
        (cycle_graph(list("abcde")), ("a", "b", "c", "d"), True),
        (cycle_graph(list("abcde")), ("a", "c", "b", "d", "e"), True),
    ],
    ids=["apex-1", "apex-2-unordered", "apex-3", "apex-4-unordered", "fence-4", "fence-5"],
)
def test_disc_planar_builds_no_graph(g, ts, ordered, monkeypatch):
    tg = TerminalGraph(g, ts, ordered=ordered)
    assert len(_augmented(tg)) - g.n == (len(ts) + 1 if ordered and len(ts) > 3 else 1)
    builds = []
    fill = graph.Graph._fill
    monkeypatch.setattr(graph.Graph, "_fill", lambda self, *a: builds.append(a) or fill(self, *a))
    is_disc_planar(tg)
    assert builds == []


def test_fence_matches_apex_over_cyclic_orders_at_four_and_five_terminals():
    """A 4- or 5-terminal set is disc-planar in some order (the apex)
    exactly when one of its cyclic orders up to reflection is (the fence):
    3 orders at four terminals, 12 at five.  Every terminal set (up to
    rooted isomorphism) of every graph on at most 6 vertices."""
    sets = 0
    for g, by_size in terminal_set_corpus():
        for k in (4, 5):
            for ts in by_size[k]:
                sets += 1
                orders = [
                    (ts[0],) + rest
                    for rest in permutations(ts[1:])
                    if rest[0] < rest[-1]  # one of each reflected pair
                ]
                fence = any(is_disc_planar(TerminalGraph(g, o, ordered=True)) for o in orders)
                assert fence == is_disc_planar(TerminalGraph(g, ts, ordered=False)), (g.edges, ts)
    assert sets == 1823


def test_face_counts_match_euler():
    for g, expect in ((cycle_graph(list("abcd")), 2), (complete_graph(list("abcd")), 4), (octahedron(), 8)):
        emb = embed(g)
        assert emb.face_count() == expect
        assert g.n - g.m + emb.face_count() == 2


def test_embed_nonplanar_errors():
    with pytest.raises(PreconditionError):
        embed(complete_graph(list("abcde")))


def test_embed_deterministic():
    g = octahedron()
    assert embed(g).rotation == embed(g).rotation


def test_disconnected_face_count():
    g = Graph(edges=[("a", "b"), ("b", "c"), ("a", "c"), ("x", "y"), ("y", "z"), ("x", "z")])
    emb = embed(g)
    # two triangles: 2 inner faces plus one shared unbounded face
    assert emb.face_count() == 3
    assert g.n - g.m + emb.face_count() == 1 + 2


def test_face_count_skips_isolated_vertices():
    g = add(cycle_graph(list("abc")), ["z"])
    emb = embed(g)
    # a lone vertex traces no face and shares the unbounded one
    assert emb.face_count() == 2
    assert g.n - g.m + emb.face_count() == 1 + len(g.components())


def test_disc_planar_c5_all_terminals_ordered():
    c5 = cycle_graph([f"v{i}" for i in range(1, 6)])
    tg = TerminalGraph(c5, tuple(f"v{i}" for i in range(1, 6)), ordered=True)
    assert is_disc_planar(tg)


def test_disc_planar_rejects_k4_all_terminals():
    k4 = complete_graph(list("abcd"))
    tg = TerminalGraph(k4, tuple("abcd"), ordered=False)
    assert not is_disc_planar(tg)  # k4 plus an apex is K5


def test_disc_planar_order_matters():
    # C4 with boundary order matching the cycle works, a transposed order fails
    c4 = cycle_graph(["a", "b", "c", "d"])
    good = TerminalGraph(c4, ("a", "b", "c", "d"), ordered=True)
    bad = TerminalGraph(c4, ("a", "c", "b", "d"), ordered=True)
    assert is_disc_planar(good)
    assert not is_disc_planar(bad)


def test_disc_planar_rotation_reflection_invariant():
    c4 = cycle_graph(["a", "b", "c", "d"])
    orders = [("b", "c", "d", "a"), ("d", "c", "b", "a"), ("c", "d", "a", "b")]
    for o in orders:
        assert is_disc_planar(TerminalGraph(c4, o, ordered=True))


def test_disc_planar_needs_a_terminal():
    with pytest.raises(InputDomainError):
        is_disc_planar(TerminalGraph(cycle_graph(list("abc")), (), ordered=False))


def test_disc_planar_monotone_under_deletion():
    g = octahedron()
    ts = ("1", "2")
    if is_disc_planar(TerminalGraph(g, ts, ordered=False)):
        for e in g.edges:
            smaller = remove(g, edges=[e])
            assert is_disc_planar(TerminalGraph(smaller, ts, ordered=False))


def test_embed_terminal_outer_face_has_boundary_order():
    c5 = cycle_graph([f"v{i}" for i in range(1, 6)])
    ts = tuple(f"v{i}" for i in range(1, 6))
    emb = embed_terminal(TerminalGraph(c5, ts, ordered=True))
    walk = [v for v, _ in emb.faces[emb.outer_face]]
    assert len(walk) == 5 and set(walk) == set(ts)
    # boundary order is the terminal order up to rotation/reflection
    i = walk.index("v1")
    rot = tuple(walk[(i + k) % 5] for k in range(5))
    assert rot == ts or rot == (ts[0],) + tuple(reversed(ts[1:]))


def test_outer_cycle_respects_terminal_order():
    c4 = cycle_graph(["a", "b", "c", "d"])
    with pytest.raises(PreconditionError):
        embed_terminal(TerminalGraph(c4, ("a", "c", "b", "d"), ordered=True))
    emb = embed_terminal(TerminalGraph(c4, ("a", "b", "c", "d"), ordered=True))
    walk = list(emb.face_vertices(emb.outer_face))
    i = walk.index("a")
    rot = walk[i:] + walk[:i]
    assert rot in (["a", "b", "c", "d"], ["a", "d", "c", "b"])


def test_outer_cycle_agrees_with_disc_planarity():
    """Every 2-connected planar graph on at most 5 vertices and every
    ordered terminal set of size 3-5 (4-5 in two cyclic orders):
    embed_terminal raises exactly when the terminal graph is not
    disc-planar, and otherwise its outer face, a cycle, meets the
    terminals in the given cyclic order up to rotation and reflection."""
    for g in small_graph_classes(5):
        if g.n < 3 or not is_k_connected(g, 2) or not is_planar(g):
            continue
        for k in range(3, g.n + 1):
            for ts in combinations(g.vertices, k):
                for order in [ts] if k == 3 else [ts, (ts[0], ts[2], ts[1]) + ts[3:]]:
                    tg = TerminalGraph(g, order, ordered=True)
                    if not is_disc_planar(tg):
                        with pytest.raises(PreconditionError):
                            embed_terminal(tg)
                        continue
                    emb = embed_terminal(tg)
                    visits = [v for v in emb.face_vertices(emb.outer_face) if v in order]
                    assert sorted(visits) == sorted(order)
                    i = visits.index(order[0])
                    rot = visits[i:] + visits[:i]
                    assert rot in (list(order), [order[0]] + list(order[:0:-1])), (g.edges, order)


def test_face_tracing_partitions_darts():
    """Every planar graph on at most 7 vertices and every graph of the
    seeded corpus, whose joined graphs reach 77 vertices: each
    rotation is a permutation of the neighbours, the faces split the darts,
    and n - m + f = 1 + c.  `embed` refuses the corpus's non-planar ones."""
    corpus = [(g, True) for g in small_graph_classes(7) if _networkx_planar(g)]
    for g, planar in corpus + seeded_corpus():
        if not planar:
            with pytest.raises(PreconditionError):
                embed(g)
            continue
        emb = embed(g)
        assert emb.rotation.keys() == set(g.vertices)
        for v in g.vertices:
            assert sorted(emb.rotation[v]) == sorted(g.neighbors(v)), (g.edges, v)
        darts = [d for face in emb.faces for d in face]
        assert len(darts) == len(set(darts)) == 2 * g.m
        assert set(darts) == {(u, v) for u, v in g.edges} | {(v, u) for u, v in g.edges}
        assert g.n - g.m + emb.face_count() == 1 + len(g.components()), g.edges
    assert len(corpus) == 1015 and max(g.n for g, _ in seeded_corpus()) > 63


def test_library_runs_without_networkx():
    """With networkx blocked from import, the library still imports and
    decides, embeds (through the apex and the fence) and runs an
    experiment."""
    script = """
import sys
sys.modules["networkx"] = None
from wheelkit import Graph, TerminalGraph, embed, embed_terminal, is_disc_planar, is_planar
from wheelkit.experiments import run_experiment
k4 = Graph(edges=[(u, v) for u in "abcd" for v in "abcd" if u < v])
assert is_planar(k4) and embed(k4).face_count() == 4
assert embed_terminal(TerminalGraph(k4, ("a", "b", "c"))).face_count() == 4
c5 = Graph(edges=[(u, v) for u, v in zip("abcde", "bcdea")])
fenced = TerminalGraph(c5, ("a", "b", "c", "d"))
assert is_disc_planar(fenced) and embed_terminal(fenced).face_count() == 2
assert not is_disc_planar(TerminalGraph(c5, ("a", "c", "b", "d")))
assert run_experiment("planar-no-k5").passed
"""
    env = {**os.environ, "PYTHONPATH": str(Path(wheelkit.__file__).parents[1])}
    subprocess.run([sys.executable, "-c", script], check=True, env=env)


def test_embed_terminal_catalog_members_have_boundary_in_order():
    from wheelkit.catalog import catalog

    for m in catalog():
        emb = embed_terminal(m.tg)
        walk = [v for v, _ in emb.faces[emb.outer_face]]
        tset = set(m.tg.terminals)
        visits = [v for v in walk if v in tset]
        active = [t for t in m.tg.terminals if m.tg.graph.degree(t) > 0]
        # every attached terminal shows up exactly once on the boundary face
        assert sorted(visits) == sorted(active), m.name
        if len(visits) >= 3:
            i = visits.index(active[0])
            rot = visits[i:] + visits[:i]
            assert rot == active or rot == [active[0]] + list(reversed(active[1:])), m.name


# -- property tests ------------------------------------------------------------

from hypothesis import given, settings, strategies as st

from tests.test_graph import graphs


@given(graphs(max_n=6), st.data())
@settings(max_examples=60, deadline=None)
def test_unordered_disc_planarity_monotone_under_deletion(g, data):
    if g.n < 1:
        return
    ts = tuple(data.draw(st.sets(st.sampled_from(list(g.vertices)), min_size=1, max_size=3)))
    if not is_disc_planar(TerminalGraph(g, ts, ordered=False)):
        return
    for e in g.edges:
        smaller = remove(g, edges=[e])
        assert is_disc_planar(TerminalGraph(smaller, ts, ordered=False))


@given(graphs(max_n=6), st.data())
@settings(max_examples=60, deadline=None)
def test_ordered_disc_planarity_rotation_reflection_invariant(g, data):
    if g.n < 3:
        return
    k = data.draw(st.integers(min_value=3, max_value=min(5, g.n)))
    ts = tuple(data.draw(st.permutations(list(g.vertices))))[:k]
    base = is_disc_planar(TerminalGraph(g, ts, ordered=True))
    shift = data.draw(st.integers(min_value=0, max_value=k - 1))
    rotated = ts[shift:] + ts[:shift]
    reflected = (ts[0],) + tuple(reversed(ts[1:]))
    assert is_disc_planar(TerminalGraph(g, rotated, ordered=True)) == base
    assert is_disc_planar(TerminalGraph(g, reflected, ordered=True)) == base
