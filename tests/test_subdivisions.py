import random
from itertools import combinations

import pytest

from wheelkit import kernels
from wheelkit.errors import ConstructionError, InputDomainError, PreconditionError, ResourceLimitError
from wheelkit.generate import random_graph, random_planar_graph, small_graph_classes
from wheelkit.graph import (
    Graph,
    add,
    complete_graph,
    cycle_graph,
    norm_edge,
    path_graph,
    remove,
    union,
)
from wheelkit.oracles import brute_disjoint_paths, brute_k5_subdivision
from wheelkit.subdivisions import (
    K5_PAIRS,
    PathSystem,
    Subdivision,
    find_disjoint_paths,
    find_k5_subdivision,
    subdivision_from_edges,
    validate_path_system,
    validate_subdivision,
    wheel_plus_paths_to_k5,
)
from wheelkit.wheels import Wheel
from tests.test_planarity import icosahedron, k33, octahedron


def petersen():
    outer = [f"o{i}" for i in range(5)]
    inner = [f"i{i}" for i in range(5)]
    edges = [(outer[i], outer[(i + 1) % 5]) for i in range(5)]
    edges += [(inner[i], inner[(i + 2) % 5]) for i in range(5)]
    edges += [(outer[i], inner[i]) for i in range(5)]
    return Graph(outer + inner, edges)


def grid3():
    g = Graph([f"{r}{c}" for r in range(3) for c in range(3)])
    edges = []
    for r in range(3):
        for c in range(3):
            if c < 2:
                edges.append((f"{r}{c}", f"{r}{c + 1}"))
            if r < 2:
                edges.append((f"{r}{c}", f"{r + 1}{c}"))
    return Graph(g.vertices, edges)


def test_c4_cross_pairs_unlinkable():
    g = cycle_graph(["a", "b", "c", "d"])
    assert find_disjoint_paths(g, [("a", "c"), ("b", "d")]) is None


def test_k5_minus_edge_links_cross_pairs():
    g = remove_edge(complete_graph(["a", "b", "c", "d", "e"]), "a", "c")
    ps = find_disjoint_paths(g, [("a", "c"), ("b", "d")])
    assert ps is not None


def remove_edge(g, u, v):
    return remove(g, edges=[(u, v)])


def test_grid_corner_to_corner():
    ps = find_disjoint_paths(grid3(), [("00", "22")])
    assert ps is not None and ps.paths[0][0] == "00" and ps.paths[0][-1] == "22"


def test_forbidden_endpoint_errors():
    with pytest.raises(InputDomainError):
        find_disjoint_paths(cycle_graph(["a", "b", "c"]), [("a", "b")], forbidden={"a"})


def test_linkage_respects_forbidden_interior():
    g = path_graph(["a", "b", "c"])
    assert find_disjoint_paths(g, [("a", "c")], forbidden={"b"}) is None


def test_resource_limit():
    g = cycle_graph([f"v{i}" for i in range(15)])
    with pytest.raises(ResourceLimitError):
        find_disjoint_paths(g, [("v0", "v7")], limit=12)


def test_linkage_trivial_cases():
    g = path_graph(["a", "b", "c"])
    assert find_disjoint_paths(g, []) == PathSystem((), ())
    assert find_disjoint_paths(g, [("a", "c")]).paths == (("a", "b", "c"),)


def test_k5_search_kernel_vertex_cap():
    g = cycle_graph([f"v{i}" for i in range(64)])
    with pytest.raises(ResourceLimitError):
        find_k5_subdivision(g, limit=100)


def test_k5_identity_subdivision():
    sub = find_k5_subdivision(complete_graph(list("abcde")))
    assert sub is not None
    assert all(len(p) == 2 for p in sub.paths)


def test_petersen_has_no_k5_subdivision():
    assert find_k5_subdivision(petersen()) is None


def test_planar_graph_has_no_k5_subdivision():
    assert find_k5_subdivision(grid3()) is None


def test_subdivided_k5_found():
    g = complete_graph(list("abcde"))
    g = remove_edge(g, "a", "b")
    g = add(g, {"m"}, [("a", "m"), ("m", "b")])
    sub = find_k5_subdivision(g)
    assert sub is not None
    assert any(len(p) == 3 for p in sub.paths)


def test_linkage_agrees_with_oracle_on_small_cases():
    cases = [
        (cycle_graph(list("abcd")), [("a", "c"), ("b", "d")]),
        (complete_graph(list("abcd")), [("a", "c"), ("b", "d")]),
        (grid3(), [("00", "22"), ("02", "20")]),
        (petersen().induced([f"o{i}" for i in range(5)] + ["i0", "i2"]), [("o0", "o2"), ("o1", "o3")]),
    ]
    for g, pairs in cases:
        got = find_disjoint_paths(g, pairs)
        want = brute_disjoint_paths(g, pairs)
        assert (got is None) == (want is None)


def test_linkage_agrees_with_oracle_on_stacked_triangulations():
    """Three random pairs on 200 seeded stacked triangulations with 12
    vertices.  On 10 of them a linkage exists but the deepening fails
    its first round with the budget cutting a branch, so a kernel that
    stopped at any failed round would call them unlinkable."""
    rng = random.Random(5)
    linked = 0
    for _ in range(200):
        g = random_planar_graph(12, rng, keep_fraction=1.0)
        vs = rng.sample(g.vertices, len(g.vertices))
        pairs = list(zip(vs[0:6:2], vs[1:6:2]))
        got = find_disjoint_paths(g, pairs)
        assert (got is None) == (brute_disjoint_paths(g, pairs) is None), (g.edges, pairs)
        linked += got is not None
    assert linked == 141


def test_k5_agrees_with_oracle_on_small_cases():
    for g in (
        complete_graph(list("abcde")),
        cycle_graph(list("abcdef")),
        complete_graph(list("abcdef")),
        grid3().induced(["00", "01", "02", "10", "11", "12", "20", "21"]),
    ):
        assert (find_k5_subdivision(g) is not None) == brute_k5_subdivision(g)


# -- the Menger screen ---------------------------------------------------------


def separated_by_fewer_than(n, adj, s, t, k):
    """Some set of fewer than k vertices outside {s, t} separates s from t
    once the edge s-t, credited as one path, is removed."""
    direct = adj[s] >> t & 1
    cut_adj = [a & ~((1 << s) | (1 << t)) if v in (s, t) else a for v, a in enumerate(adj)]
    others = [v for v in range(n) if v not in (s, t)]
    return any(
        kernels.bfs_dist(cut_adj, s, t, sum(1 << v for v in cut)) < 0
        for size in range(k - direct)
        for cut in combinations(others, size)
    )


def test_disjoint_paths_at_least_matches_vertex_cuts():
    checked = 0
    for g in small_graph_classes(6):
        _, adj = kernels.index_graph(g)
        for s, t in combinations(range(g.n), 2):
            for k in range(1, 6):
                want = not separated_by_fewer_than(g.n, adj, s, t, k)
                assert kernels.disjoint_paths_at_least(g.n, adj, s, t, k) == want, (g.edges, s, t, k)
                checked += 1
    assert checked == 13800


def arcset_disjoint_paths_at_least(n, adj, s, t, k):
    """The Menger kernel as it was before the flow was held as links: the
    flow is a set of arcs (u, w), and each augmenting path is found by
    breadth-first search over the states 2v (v entered) and 2v + 1 (v
    left) of the vertex-split graph."""
    direct = adj[s] >> t & 1
    common = adj[s] & adj[t]
    found = direct + common.bit_count()
    if found >= k:
        return True
    flow = set()
    for c in range(n):
        if common >> c & 1:
            flow |= {(s, c), (c, t)}
    while found < k:
        if not _arcset_augment(n, adj, s, t, flow):
            return False
        found += 1
    return True


def _arcset_augment(n, adj, s, t, flow):
    pred = {w: u for u, w in flow}
    start, goal = 2 * s + 1, 2 * t
    parent = {start: start}
    queue = [start]
    for state in queue:
        v, out = divmod(state, 2)
        if not out:
            steps = [2 * pred[v] + 1] if v in pred else [2 * v + 1]
        else:
            mask = adj[v] & ~(1 << s)
            if v == s:
                mask &= ~(1 << t)
            steps = [2 * w for w in range(n) if mask >> w & 1 and (v, w) not in flow]
            if v in pred:
                steps.append(2 * v)
        for nxt in steps:
            if nxt in parent:
                continue
            parent[nxt] = state
            if nxt == goal:
                while nxt != start:
                    prev = parent[nxt]
                    u, w = prev // 2, nxt // 2
                    if u != w and prev % 2:
                        flow.add((u, w))
                    elif u != w:
                        flow.discard((w, u))
                    nxt = prev
                return True
            queue.append(nxt)
    return False


def k5_search_graphs():
    """250 graphs as one pass of the k5-search benchmark draws them:
    stacked triangulations on 9 to 12 vertices with 95% of their edges."""
    rng = random.Random(7)
    return [random_planar_graph(9 + i % 4, rng, keep_fraction=0.95) for i in range(250)]


def seeded_gnp_graphs():
    """300 seeded G(n, p) graphs, 7 to 11 vertices, p from 0.35 to 0.8."""
    rng = random.Random(11)
    return [random_graph(rng.randrange(7, 12), rng.uniform(0.35, 0.8), rng) for _ in range(300)]


def test_disjoint_paths_at_least_matches_arcset_kernel():
    rng = random.Random(3)
    graphs = [random_planar_graph(rng.randrange(7, 13), rng, keep_fraction=0.95) for _ in range(100)]
    for _ in range(100):
        graphs.append(random_graph(rng.randrange(7, 13), rng.uniform(0.2, 0.8), rng))
    # At (s, t, k) = (4, 5, 2), answer yes, and (4, 1, 4), answer no, an
    # augmenting path leaves a flow vertex back through its own entry, so
    # the walk back takes that vertex off the flow: no random input above
    # reaches that step.
    for n, edges in [
        (10, "0-6 0-7 1-7 2-3 2-4 3-7 4-6 5-7 5-8 6-9 7-9 8-9"),
        (9, "0-3 0-8 1-2 1-3 2-5 2-6 4-7 4-8 5-8 6-7"),
    ]:
        graphs.append(Graph([str(i) for i in range(n)], [e.split("-") for e in edges.split()]))
    yes = no = 0
    for g in graphs:
        _, adj = kernels.index_graph(g)
        for s in range(g.n):
            for t in range(g.n):
                if s == t:
                    continue
                for k in range(1, 6):
                    want = arcset_disjoint_paths_at_least(g.n, adj, s, t, k)
                    assert kernels.disjoint_paths_at_least(g.n, adj, s, t, k) == want, (g.edges, s, t, k)
                    yes += want
                    no += not want
    assert yes > 20000 and no > 20000


def test_disjoint_paths_at_least_reroutes_an_earlier_path():
    # {3, 5} separates 0 from 1 (2 is isolated).  The first path is
    # 0-3-5-1; the second, 0-4-5, takes 5 over and sends the first path on
    # through 3-6-1; a third path 0-8-5 must then find 5 taken for good.
    g = Graph([str(i) for i in range(9)], [
        ("0", "3"), ("0", "4"), ("0", "8"), ("1", "5"), ("1", "6"), ("1", "7"),
        ("3", "5"), ("3", "6"), ("3", "7"), ("4", "5"), ("5", "8"),
    ])
    idx, adj = kernels.index_graph(g)
    s, t = idx["0"], idx["1"]
    assert kernels.disjoint_paths_at_least(g.n, adj, s, t, 2)
    assert not kernels.disjoint_paths_at_least(g.n, adj, s, t, 3)


def test_disjoint_paths_at_least_cancels_two_arcs_in_one_path():
    # The first two paths are 0-2-5-1 and 0-3-6-1.  The third enters 5
    # from 0-4, goes back along 2-5 to leave 2 for 6, goes back along 3-6
    # and leaves 3 for 7-1: it cancels two flow arcs, and the flow becomes
    # 0-4-5-1, 0-2-6-1 and 0-3-7-1.  Vertices 8 and 9 give 0 and 1 a
    # fourth neighbor each, but {2, 3, 5} still separates them, so the
    # fourth search must fail on the rerouted flow.
    g = Graph([str(i) for i in range(10)], [
        ("0", "2"), ("0", "3"), ("0", "4"), ("0", "8"), ("1", "5"), ("1", "6"),
        ("1", "7"), ("1", "9"), ("2", "5"), ("2", "6"), ("2", "8"), ("3", "6"),
        ("3", "7"), ("4", "5"), ("7", "9"),
    ])
    idx, adj = kernels.index_graph(g)
    s, t = idx["0"], idx["1"]
    assert kernels.disjoint_paths_at_least(g.n, adj, s, t, 3)
    assert not kernels.disjoint_paths_at_least(g.n, adj, s, t, 4)
    assert separated_by_fewer_than(g.n, adj, s, t, 4)


def unscreened_k5_subdivision(g):
    """The K5 search without the Menger screen: every 5-set of vertices
    of degree >= 4 goes to the linkage kernel, in combinations order."""
    idx, adj = kernels.index_graph(g)
    cands = [v for v in g.vertices if g.degree(v) >= 4]
    for combo in combinations(cands, 5):
        ipairs = [(idx[combo[i]], idx[combo[j]]) for i, j in K5_PAIRS]
        found = kernels.linkage_masks(g.n, adj, ipairs, 0)
        if found is not None:
            paths = tuple(tuple(g.vertices[x] for x in p) for p in found)
            return Subdivision(tuple(combo), paths)
    return None


def combinations_k5_subdivision(g):
    """The screened K5 search as a loop over all 5-subsets of the branch
    candidates in combinations order: a 5-set with a pair that the
    arc-set kernel finds no 4 internally disjoint paths for is skipped,
    every other goes to the linkage kernel."""
    idx, adj = kernels.index_graph(g)
    cands = [v for v in g.vertices if g.degree(v) >= 4]
    if len(cands) < 5 or g.m < 10:
        return None
    joined = {}

    def four_paths(s, t):
        if (s, t) not in joined:
            joined[s, t] = arcset_disjoint_paths_at_least(g.n, adj, s, t, 4)
        return joined[s, t]

    for combo in combinations(cands, 5):
        ipairs = [(idx[combo[i]], idx[combo[j]]) for i, j in K5_PAIRS]
        if not all(four_paths(s, t) for s, t in ipairs):
            continue
        found = kernels.linkage_masks(g.n, adj, ipairs, 0)
        if found is not None:
            paths = tuple(tuple(g.vertices[x] for x in p) for p in found)
            return Subdivision(tuple(combo), paths)
    return None


def test_screen_keeps_every_k5_witness():
    with_k5 = 0
    for g in seeded_gnp_graphs():
        got = find_k5_subdivision(g)
        want = unscreened_k5_subdivision(g)
        assert got == want, g.edges
        with_k5 += want is not None
    assert 100 < with_k5 < 300


@pytest.mark.parametrize("corpus, total_calls", [
    (lambda: small_graph_classes(6), 16),
    (seeded_gnp_graphs, 414),
    (k5_search_graphs, 0),
], ids=["small-classes-6", "seeded-gnp", "k5-search"])
def test_linkage_calls_match_the_combinations_loop(monkeypatch, corpus, total_calls):
    calls = []
    linkage = kernels.linkage_masks

    def recorded(n, adj, pairs, forbidden):
        calls.append((n, tuple(adj), tuple(pairs), forbidden))
        return linkage(n, adj, pairs, forbidden)

    monkeypatch.setattr(kernels, "linkage_masks", recorded)
    total = 0
    for g in corpus():
        got = find_k5_subdivision(g)
        got_calls = calls[:]
        calls.clear()
        want = combinations_k5_subdivision(g)
        assert got == want, g.edges
        assert got_calls == calls, g.edges
        total += len(calls)
        calls.clear()
    assert total == total_calls


def test_screen_linkage_call_counts(monkeypatch):
    calls = []
    linkage = kernels.linkage_masks

    def counted(*args):
        calls.append(args)
        return linkage(*args)

    monkeypatch.setattr(kernels, "linkage_masks", counted)
    # 5-connected: no pair is cut, so all C(12, 5) 5-sets reach the kernel
    assert find_k5_subdivision(icosahedron()) is None
    assert len(calls) == 792
    # a stacked triangulation's separating triangles cut every 5-set
    calls.clear()
    g = random_planar_graph(12, random.Random(0), keep_fraction=0.95)
    assert sum(g.degree(v) >= 4 for v in g.vertices) == 8
    assert find_k5_subdivision(g) is None
    assert calls == []


# -- the width-3 screen --------------------------------------------------------


def antiprism(k):
    """Two k-cycles a0..a(k-1) and b0..b(k-1), with ai joined to bi and
    b(i+1): a 4-regular planar graph."""
    a = [f"a{i}" for i in range(k)]
    b = [f"b{i}" for i in range(k)]
    edges = [(x[i], x[(i + 1) % k]) for x in (a, b) for i in range(k)]
    edges += [(a[i], b[i]) for i in range(k)] + [(a[i], b[(i + 1) % k]) for i in range(k)]
    return Graph(a + b, edges)


def width_certified(g):
    return kernels.width_at_most_3(kernels.index_graph(g)[1])


def width_lemma_counts(graphs, four_paths):
    """The number of graphs that `kernels.width_at_most_3` certifies, and
    the certified graphs with 5 branch candidates that `four_paths` joins
    pairwise by 4 internally disjoint paths (treewidth 3 leaves none)."""
    certified, bad = 0, []
    for g in graphs:
        _, adj = kernels.index_graph(g)
        if not kernels.width_at_most_3(adj):
            continue
        certified += 1
        cands = [v for v in range(g.n) if adj[v].bit_count() >= 4]
        joined = {(s, t) for s, t in combinations(cands, 2) if four_paths(g.n, adj, s, t, 4)}
        if any(all(p in joined for p in combinations(c, 2)) for c in combinations(cands, 5)):
            bad.append(g)
    return certified, bad


def test_width_certified_graphs_have_no_k5_subdivision():
    certified = [g for g in small_graph_classes(7) if width_certified(g)]
    assert len(certified) == 1057
    assert not any(brute_k5_subdivision(g) for g in certified)


def test_width_certified_graphs_have_no_five_pairwise_joined_candidates():
    certified, bad = width_lemma_counts(small_graph_classes(7), arcset_disjoint_paths_at_least)
    assert (certified, bad) == (1057, [])


def test_width_kernel_refuses_and_certifies():
    for g in (complete_graph(list("abcde")), octahedron(), icosahedron()):
        assert not width_certified(g), g.edges
    assert width_certified(k33())
    assert all(width_certified(g) for g in k5_search_graphs())


def test_planar_graphs_of_width_four_go_through_the_menger_screen(monkeypatch):
    asked = []
    menger = kernels.disjoint_paths_at_least

    def recorded(*args):
        asked.append(args)
        return menger(*args)

    monkeypatch.setattr(kernels, "disjoint_paths_at_least", recorded)
    for g in (octahedron(), antiprism(5), icosahedron()):
        assert not width_certified(g)
        asked.clear()
        assert find_k5_subdivision(g) is None, g.edges
        assert asked, g.edges


def test_validate_subdivision_rejects_shared_interior():
    g = union(complete_graph(list("abcde")), Graph(edges=[("a", "x"), ("x", "b")]))
    sub = find_k5_subdivision(complete_graph(list("abcde")))
    bad = Subdivision(sub.branch, tuple(
        (("a", "x", "b") if p == ("a", "b") else p) for p in sub.paths
    ))
    # one path through x is fine...
    validate_subdivision(g, bad)
    # ...but two paths through x must fail
    worse = Subdivision(bad.branch, tuple(
        (("a", "x", "c") if p == ("a", "c") else p) for p in bad.paths
    ))
    with pytest.raises(ConstructionError):
        validate_subdivision(g, worse)


def test_subdivision_from_edges_recovers_structure():
    g = complete_graph(list("abcde"))
    sub = find_k5_subdivision(g)
    back = subdivision_from_edges(g, sub.edge_set())
    assert back is not None and set(back.branch) == set(sub.branch)


def test_subdivision_from_edges_rejects_stray_cycle():
    g = union(complete_graph(list("abcde")), cycle_graph(["x", "y", "z"]))
    sub = find_k5_subdivision(complete_graph(list("abcde")))
    edges = set(sub.edge_set()) | {("x", "y"), ("y", "z"), ("x", "z")}
    assert subdivision_from_edges(g, edges) is None


# -- malformed witnesses: one per reject branch of the validators -------------


def k5_with_path(g, pair, path):
    """The identity K5-subdivision on branch vertices a..e, with the path
    for the branch pair `pair` (indices into "abcde") swapped for `path`."""
    paths = list(combinations("abcde", 2))
    paths[K5_PAIRS.index(pair)] = path
    return g, Subdivision(tuple("abcde"), tuple(paths))


def k5_plus(*edges):
    return union(complete_graph(list("abcde")), Graph(edges=edges))


BAD_LINKAGES = {
    "repeated vertex": (path_graph(list("abc")), [("a", "c")], [("a", "b", "a", "b", "c")], ()),
    "missing edge": (path_graph(list("abc")), [("a", "c")], [("a", "c")], ()),
    "forbidden interior": (path_graph(list("abc")), [("a", "c")], [("a", "b", "c")], ("b",)),
    "interior on an endpoint": (
        Graph(edges=[("a", "b"), ("b", "c"), ("b", "d")]),
        [("a", "c"), ("b", "d")],
        [("a", "b", "c"), ("b", "d")],
        (),
    ),
}


@pytest.mark.parametrize("case", sorted(BAD_LINKAGES))
def test_validate_path_system_rejects(case):
    g, pairs, paths, forbidden = BAD_LINKAGES[case]
    ps = PathSystem(tuple(pairs), tuple(map(tuple, paths)))
    with pytest.raises(ConstructionError):
        validate_path_system(g, ps, frozenset(forbidden))


BAD_SUBDIVISIONS = {
    "wrong endpoints": k5_with_path(complete_graph(list("abcde")), (0, 1), ("a", "c")),
    "missing edge": k5_with_path(k5_plus(("a", "x")), (0, 1), ("a", "x", "b")),
    "repeated vertex": k5_with_path(k5_plus(("a", "x")), (0, 1), ("a", "x", "a", "b")),
    "branch vertex on an interior": k5_with_path(
        complete_graph(list("abcde")), (0, 1), ("a", "c", "b")
    ),
    "branch vertex not in graph": k5_with_path(
        remove(complete_graph(list("abcde")), ["a"]), (0, 1), ("a", "b")
    ),
}


@pytest.mark.parametrize("case", sorted(BAD_SUBDIVISIONS))
def test_validate_subdivision_rejects(case):
    g, sub = BAD_SUBDIVISIONS[case]
    with pytest.raises(ConstructionError):
        validate_subdivision(g, sub)


def k5_edges():
    return set(complete_graph(list("abcde")).edges)


def subdivided(*pairs):
    """K5 on a..e with each listed edge (u, v, mid) subdivided by mid."""
    edges = k5_edges()
    for u, v, mid in pairs:
        edges -= {norm_edge(u, v)}
        edges |= {norm_edge(u, mid), norm_edge(mid, v)}
    return edges


NOT_SUBDIVISIONS = {
    # every edge of K5 plus one the host lacks
    "edge missing from g": (
        complete_graph(list("abcde")),
        k5_edges() | {("a", "x")},
    ),
    # a-x-b and c-y-d subdivide two edges; x-y gives both degree 3
    "vertex of degree 3": (None, subdivided(("a", "b", "x"), ("c", "d", "y")) | {("x", "y")}),
    # five vertices of degree 4, but a's walk through x and y returns to a
    "cycle off a branch vertex": (None, [
        ("a", "x"), ("x", "y"), ("y", "a"), ("a", "b"), ("a", "c"), ("b", "c"), ("b", "d"),
        ("b", "e"), ("c", "d"), ("c", "e"), ("d", "e"), ("d", "z"), ("z", "e"),
    ]),
    # five vertices of degree 4 joined as ab twice (a-b, a-x-b) and cd
    # twice (c-d, c-y-d), with ac and bd missing
    "branch pair realised twice": (None, [
        ("a", "b"), ("a", "x"), ("x", "b"), ("a", "d"), ("a", "e"), ("b", "c"), ("b", "e"),
        ("c", "d"), ("c", "y"), ("y", "d"), ("c", "e"), ("d", "e"),
    ]),
}


@pytest.mark.parametrize("case", sorted(NOT_SUBDIVISIONS))
def test_subdivision_from_edges_rejects(case):
    g, edges = NOT_SUBDIVISIONS[case]
    assert subdivision_from_edges(g or Graph(edges=edges), edges) is None


# -- the wheel construction ---------------------------------------------------


def w4_plus_cross():
    rim = ["w1", "w2", "w3", "w4"]
    g = cycle_graph(rim)
    g = add(g, {"c"}, [("c", w) for w in rim])
    g = add(g, {"x"}, [("x", "w1"), ("x", "w3")])
    g = add(g, {"y"}, [("y", "w2"), ("y", "w4")])
    wheel = Wheel("c", tuple(rim), frozenset(rim))
    ps = PathSystem(
        (("w1", "w3"), ("w2", "w4")),
        (("w1", "x", "w3"), ("w2", "y", "w4")),
    )
    return g, wheel, ps


def test_wheel_plus_paths_builds_valid_k5():
    g, wheel, ps = w4_plus_cross()
    sub = wheel_plus_paths_to_k5(g, wheel, ("w1", "w2", "w3", "w4"), ps)
    validate_subdivision(g, sub)
    # independent confirmation: exact search on the 7-vertex host
    assert find_k5_subdivision(g) is not None


def test_wheel_plus_paths_rejects_shared_interior():
    g, wheel, _ = w4_plus_cross()
    ps = PathSystem(
        (("w1", "w3"), ("w2", "w4")),
        (("w1", "x", "w3"), ("w2", "x", "w4")),
    )
    g2 = add(g, edges=[("x", "w2"), ("x", "w4")])
    with pytest.raises(ConstructionError):
        wheel_plus_paths_to_k5(g2, wheel, ("w1", "w2", "w3", "w4"), ps)


def five_rim_wheel_with_cross(w1_to_w3):
    """Rim w1 w2 r w3 w4 around spokes w1..w4, the crossing path w2-y-w4,
    and w1_to_w3 as the other crossing path (the host gets its edges)."""
    rim = ["w1", "w2", "r", "w3", "w4"]
    g = cycle_graph(rim)
    g = add(g, {"c", "y"}, [("c", w) for w in ("w1", "w2", "w3", "w4")] + [("y", "w2"), ("y", "w4")])
    extra = {norm_edge(a, b) for a, b in zip(w1_to_w3, w1_to_w3[1:])} - set(g.edges)
    g = add(g, set(w1_to_w3) - set(g.vertices), sorted(extra))
    wheel = Wheel("c", tuple(rim), frozenset(["w1", "w2", "w3", "w4"]))
    ps = PathSystem((("w1", "w3"), ("w2", "w4")), (tuple(w1_to_w3), ("w2", "y", "w4")))
    return g, wheel, ps


@pytest.mark.parametrize(
    "w1_to_w3",
    [
        ("w1", "c", "w3"),  # through the center, a branch vertex
        ("w1", "x", "r", "w3"),  # through a rim vertex inside the arc w2..w3
    ],
    ids=["center", "rim-vertex"],
)
def test_wheel_plus_paths_rejects_crossing_path_through_wheel(w1_to_w3):
    g, wheel, ps = five_rim_wheel_with_cross(w1_to_w3)
    with pytest.raises(ConstructionError):
        wheel_plus_paths_to_k5(g, wheel, ("w1", "w2", "w3", "w4"), ps)


def test_wheel_plus_paths_builds_valid_k5_on_five_rim():
    g, wheel, ps = five_rim_wheel_with_cross(("w1", "x", "w3"))
    sub = wheel_plus_paths_to_k5(g, wheel, ("w1", "w2", "w3", "w4"), ps)
    validate_subdivision(g, sub)


def test_wheel_plus_paths_rejects_three_spokes():
    rim = ["w1", "w2", "w3", "w4"]
    g = cycle_graph(rim)
    g = add(g, {"c"}, [("c", "w1"), ("c", "w2"), ("c", "w3")])
    g = add(g, {"x"}, [("x", "w1"), ("x", "w3")])
    g = add(g, {"y"}, [("y", "w2"), ("y", "w4")])
    wheel = Wheel("c", tuple(rim), frozenset(["w1", "w2", "w3"]))
    ps = PathSystem(
        (("w1", "w3"), ("w2", "w4")),
        (("w1", "x", "w3"), ("w2", "y", "w4")),
    )
    with pytest.raises(PreconditionError):
        wheel_plus_paths_to_k5(g, wheel, ("w1", "w2", "w3", "w4"), ps)


def test_wheel_plus_paths_rejects_wrong_cyclic_order():
    g, wheel, ps = w4_plus_cross()
    with pytest.raises(PreconditionError):
        wheel_plus_paths_to_k5(g, wheel, ("w1", "w3", "w2", "w4"), ps)
