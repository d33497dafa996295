import random
import time
from collections import Counter
from itertools import chain, combinations, permutations, product

import networkx as nx
import pytest

from wheelkit import generate
from wheelkit.catalog import catalog, matches_catalog
from wheelkit.errors import InputDomainError, ResourceLimitError
from wheelkit.generate import (
    _canon_masks,
    _classes,
    _from_masks,
    _twin_classes,
    canonical_form,
    generate_terminal_planar,
    random_graph,
    random_planar_graph,
    random_wheel_host,
    rooted_canonical_form,
    small_graph_classes,
    terminal_set_classes,
)
from wheelkit.graph import Graph, add, remove
from wheelkit.kernels import index_graph
from wheelkit.oracles import brute_rooted_isomorphic
from wheelkit.planarity import TerminalGraph, _disc_planar_masks, is_disc_planar, is_planar
from wheelkit.subdivisions import find_disjoint_paths, wheel_plus_paths_to_k5
from wheelkit.wheels import is_wheel


def test_stream_emits_both_six_vertex_members():
    found = set()
    for tg in generate_terminal_planar(6, 5, filters=("s-independent",)):
        m = matches_catalog(TerminalGraph(tg.graph, tg.terminals, ordered=False))
        if m is not None:
            found.add(m.name)
    assert {"W1", "W2"} <= found


def test_stream_isomorph_free_and_disc_planar():
    seen = []
    for tg in generate_terminal_planar(5, 4):
        assert is_disc_planar(tg)
        seen.append(tg)
    keys = [rooted_canonical_form(tg) for tg in seen]
    assert len(keys) == len(set(keys))
    # spot-check true pairwise non-isomorphism on a slice
    sample = seen[:40]
    for i, a in enumerate(sample):
        for b in sample[i + 1 :]:
            assert not brute_rooted_isomorphic(a, b)


def test_stream_counts_small():
    # n = s = 5 with independent terminals: the edgeless graph only
    tgs = list(generate_terminal_planar(5, 5, filters=("s-independent",)))
    assert len(tgs) == 1 and tgs[0].graph.m == 0


def test_stream_counts_to_eight_vertices():
    by_n = {}
    found = set()
    for tg in generate_terminal_planar(8, 5, filters=("s-independent",)):
        by_n[tg.graph.n] = by_n.get(tg.graph.n, 0) + 1
        m = matches_catalog(tg)
        if m is not None:
            found.add(m.name)
    # graphs with at most 6, 7 and 8 vertices
    assert [sum(c for n, c in by_n.items() if n <= k) for k in (6, 7, 8)] == [7, 61, 749]
    assert found == {"W1", "W2", "X1", "X2", "Y"}


def rooted_small_graphs():
    """Every graph on at most five vertices with every terminal set of
    size at most two."""
    return [
        TerminalGraph(g, ts, ordered=False)
        for g in small_graph_classes(5)
        for size in (0, 1, 2)
        for ts in combinations(g.vertices, size)
    ]


def test_canonical_form_decides_rooted_isomorphism():
    by_shape = {}
    for tg in rooted_small_graphs():
        g = tg.graph
        key = canonical_form(g, tg.terminals)
        # the key fixes |S|, n and (as the bit count) m, so rooted graphs
        # of different shapes never share a key
        assert key[:2] == (len(tg.terminals), g.n) and bin(key[2]).count("1") == g.m
        by_shape.setdefault((len(tg.terminals), g.n, g.m), []).append((tg, key))
    for group in by_shape.values():
        for i, (a, ka) in enumerate(group):
            for b, kb in group[i + 1 :]:
                assert (ka == kb) == brute_rooted_isomorphic(a, b)


def test_canonical_form_ignores_vertex_names():
    rng = random.Random(7)
    for tg in rooted_small_graphs():
        g = tg.graph
        names = [f"x{i}" for i in range(g.n)]
        rng.shuffle(names)
        f = dict(zip(g.vertices, names))
        h = Graph(names, [(f[u], f[v]) for u, v in g.edges])
        assert canonical_form(h, [f[t] for t in tg.terminals]) == canonical_form(g, tg.terminals)


def test_unknown_filter_name_raises():
    with pytest.raises(InputDomainError, match="unknown filter"):
        list(generate_terminal_planar(5, 5, filters=("no-such-filter",)))


def test_keep_sees_each_rooted_class_once():
    # rooted keys of different levels differ in edge count, so "once in the
    # whole run" is "at most once per level"
    # six vertices, the first three of them terminals
    seen = []

    def keep(adj, tmask):
        seen.append(_canon_masks(len(adj), adj, tmask))
        return _disc_planar_masks(adj, tmask)

    levels = list(_classes(6, 0b111, list(combinations(range(6), 2)), keep=keep))
    kept = {key for level in levels for key in level}
    assert len(seen) == len(set(seen))
    assert set(seen) - kept  # some class was rejected, so the dead set was used


@pytest.mark.parametrize(
    "run, calls",
    [
        (lambda: list(generate_terminal_planar(7, 5, ("s-independent",))), 121),
        (lambda: small_graph_classes(7), 6447),
    ],
    ids=["stream-k5-n7", "small-graph-classes-7"],
)
def test_level_loop_keys_each_labelled_candidate_once(run, calls, monkeypatch):
    # a labelled graph reached from two parents is keyed the first time
    # only; keying every candidate that passes the twin check would make
    # 177 and 8,708 calls.  Labelled graphs of different levels or vertex
    # counts differ, so "once in the run" is "once per level".
    keyed = []

    def spy(n, adj, tmask):
        keyed.append((n, tuple(adj), tmask))
        return _canon_masks(n, adj, tmask)

    monkeypatch.setattr(generate, "_canon_masks", spy)
    run()
    assert len(keyed) == len(set(keyed)) == calls


def test_terminal_set_classes_rejects_a_negative_size():
    with pytest.raises(InputDomainError, match="non-negative"):
        terminal_set_classes(Graph(["a", "b"], [("a", "b")]), -1)


def test_terminal_set_classes_one_per_rooted_class():
    for g in small_graph_classes(4):
        for size in range(g.n + 1):
            reps = [TerminalGraph(g, ts, ordered=False) for ts in terminal_set_classes(g, size)]
            for i, a in enumerate(reps):
                for b in reps[i + 1 :]:
                    assert not brute_rooted_isomorphic(a, b)
            for ts in combinations(g.vertices, size):
                tg = TerminalGraph(g, ts, ordered=False)
                assert any(brute_rooted_isomorphic(tg, r) for r in reps)


def test_random_planar_graphs_are_planar_and_reproducible():
    for seed in range(5):
        g1 = random_planar_graph(10, random.Random(seed))
        g2 = random_planar_graph(10, random.Random(seed))
        assert g1 == g2
        assert is_planar(g1)


def one_add_per_vertex(n, rng, keep_fraction=0.8):
    """`random_planar_graph` as first written: the triangulation grows by
    one `add` per vertex."""
    names = [str(i) for i in range(n)]
    g = Graph(names[:3], [(names[0], names[1]), (names[1], names[2]), (names[0], names[2])])
    faces = [(names[0], names[1], names[2])]
    for v in names[3:]:
        a, b, c = faces.pop(rng.randrange(len(faces)))
        g = add(g, {v}, [(v, a), (v, b), (v, c)])
        faces += [(a, b, v), (b, c, v), (a, c, v)]
    edges = list(g.edges)
    rng.shuffle(edges)
    return remove(g, (), edges[int(len(edges) * keep_fraction) :])


@pytest.mark.parametrize("keep_fraction", [0.0, 0.5, 0.8, 0.95, 1.0])
def test_random_planar_graph_matches_one_add_per_vertex(keep_fraction):
    for n in range(3, 17):
        for seed in range(4):
            rng, ref = random.Random(seed), random.Random(seed)
            got = random_planar_graph(n, rng, keep_fraction=keep_fraction)
            assert got == one_add_per_vertex(n, ref, keep_fraction)
            assert rng.getstate() == ref.getstate()


@pytest.mark.parametrize("keep_fraction", [-0.5, 1.5, float("nan")])
def test_random_planar_graph_rejects_a_fraction_outside_the_unit_interval(keep_fraction):
    with pytest.raises(InputDomainError, match="keep_fraction"):
        random_planar_graph(5, random.Random(0), keep_fraction=keep_fraction)


@pytest.mark.parametrize(
    "n, p, match",
    [(-3, 0.5, "non-negative"), (5, -0.5, r"\[0, 1\]"), (5, 1.5, r"\[0, 1\]"), (5, float("nan"), r"\[0, 1\]")],
)
def test_random_graph_rejects_a_negative_count_or_p_outside_the_unit_interval(n, p, match):
    with pytest.raises(InputDomainError, match=match):
        random_graph(n, p, random.Random(0))


def test_random_wheel_hosts_build_k5():
    ok = 0
    for seed in range(10):
        rng = random.Random(seed)
        g, wheel, corners = random_wheel_host(rng)
        assert is_wheel(g, wheel)
        w1, w2, w3, w4 = corners
        ps = find_disjoint_paths(
            g,
            [(w1, w3), (w2, w4)],
            forbidden=set(wheel.vertex_set()) - {w1, w2, w3, w4},
            limit=16,
        )
        if ps is None:
            continue
        sub = wheel_plus_paths_to_k5(g, wheel, corners, ps)
        ok += 1
        assert sub is not None
    assert ok >= 8  # planted linkages should nearly always be recoverable


def test_canonical_form_rejects_unknown_terminal():
    g = Graph(["a", "b", "c"], [("a", "b")])
    with pytest.raises(InputDomainError, match="'z'"):
        canonical_form(g, ["z"])


def test_canonical_form_rejects_repeated_terminal():
    g = Graph(["a", "b", "c"], [("a", "b")])
    with pytest.raises(InputDomainError, match="'a' repeated"):
        canonical_form(g, ["a", "b", "a"])


def test_small_graph_class_counts():
    # OEIS A000088
    by_n = Counter(g.n for g in small_graph_classes(7))
    assert [by_n[n] for n in range(1, 8)] == [1, 2, 4, 11, 34, 156, 1044]
    assert sum(by_n.values()) == 1252


def test_four_terminal_stream_counts_to_seven_vertices():
    by_n = Counter(tg.graph.n for tg in generate_terminal_planar(7, 4, ("s-independent",)))
    assert [by_n[n] for n in range(4, 8)] == [1, 5, 38, 382]


# -- the Graph-based canonical form and level loop, kept as references --------


def reference_canonical_form(g, terminals=()):
    """Colour refinement on vertex names, then the least bitstring over
    every order inside the cells."""
    tset = set(terminals)
    colour = {v: (v not in tset, g.degree(v)) for v in g.vertices}
    cells = 0
    while True:
        rank = {c: i for i, c in enumerate(sorted(set(colour.values())))}
        colour = {v: rank[c] for v, c in colour.items()}
        if len(rank) == cells:
            break
        cells = len(rank)
        colour = {
            v: (c, tuple(sorted(colour[u] for u in g.neighbors(v))))
            for v, c in colour.items()
        }
    parts = [[] for _ in range(cells)]
    for v in g.vertices:
        parts[colour[v]].append(v)
    n = g.n
    best = None
    for order in product(*map(permutations, parts)):
        pos = {v: i for i, v in enumerate(chain.from_iterable(order))}
        bits = 0
        for u, v in g.edges:
            i, j = pos[u], pos[v]
            if i > j:
                i, j = j, i
            bits |= 1 << (i * n + j)
        if best is None or bits < best:
            best = bits
    return (len(tset), n, best)


def reference_classes(names, terminals, pairs, keep=None):
    """Every candidate becomes a TerminalGraph and is keyed by name."""
    base = TerminalGraph(Graph(names, ()), terminals, ordered=False)
    level = {reference_canonical_form(base.graph, terminals): base}
    while level:
        yield level
        nxt = {}
        dead = set()
        for tg in level.values():
            for a, b in pairs:
                if tg.graph.has_edge(a, b):
                    continue
                bigger = TerminalGraph(add(tg.graph, (), [(a, b)]), terminals, ordered=False)
                key = reference_canonical_form(bigger.graph, terminals)
                if key in nxt or key in dead:
                    continue
                if keep is not None and not keep(bigger):
                    dead.add(key)
                    continue
                nxt[key] = bigger
        level = nxt


def test_canonical_form_matches_reference_on_small_graphs():
    checked = 0
    for g in small_graph_classes(5):
        for size in range(g.n + 1):
            for ts in combinations(g.vertices, size):
                assert canonical_form(g, ts) == reference_canonical_form(g, ts)
                checked += 1
    for g in small_graph_classes(6):
        for size in (4, 5):
            for ts in combinations(g.vertices, size):
                assert canonical_form(g, ts) == reference_canonical_form(g, ts)
                checked += 1
    for m in catalog():
        g, ts = m.tg.graph, m.tg.terminals
        assert canonical_form(g, ts) == reference_canonical_form(g, ts)
        checked += 1
    assert checked == 4797 + 6


@pytest.mark.parametrize("s_size", [4, 5])
def test_level_loop_matches_reference(s_size):
    ts = tuple(f"t{i}" for i in range(1, s_size + 1))
    for n in range(s_size, 8):
        names = ts + tuple(f"u{i}" for i in range(1, n - s_size + 1))
        pairs = [(i, j) for i, j in combinations(range(n), 2) if j >= s_size]
        got = [
            {key: _from_masks(names, adj) for key, adj in level.items()}
            for level in _classes(n, (1 << s_size) - 1, pairs, keep=_disc_planar_masks)
        ]
        # the reference keeps by `is_disc_planar` on its graphs, so this
        # also checks the mask-level predicate the loop is given
        named_pairs = [(names[i], names[j]) for i, j in pairs]
        want = [
            {key: tg.graph for key, tg in level.items()}
            for level in reference_classes(names, ts, named_pairs, keep=is_disc_planar)
        ]

        def levels(graph_levels):
            return [[(key, g.vertices, g.edges) for key, g in level.items()] for level in graph_levels]

        assert levels(got) == levels(want)


def reference_canon_masks(n, adj, tmask):
    """The mask canonical form before its order search was pruned: the
    least `reference_bitstring` over the product of every cell's
    `reference_arrangements`."""
    nbrs = [[u for u in range(n) if a >> u & 1] for a in adj]
    colour = [(not tmask >> v & 1, len(nbrs[v])) for v in range(n)]
    cells = 0
    while True:
        rank = {c: i for i, c in enumerate(sorted(set(colour)))}
        colour = [rank[c] for c in colour]
        if len(rank) == cells:
            break
        cells = len(rank)
        colour = [(c, tuple(sorted([colour[u] for u in nbrs[v]]))) for v, c in enumerate(colour)]
    parts = [[] for _ in range(cells)]
    for v in range(n):
        parts[colour[v]].append(v)
    key = (tmask.bit_count(), n)
    if cells == n:
        return key + (reference_bitstring(n, nbrs, [p[0] for p in parts]),)
    twin = reference_twin_classes(n, adj, tmask)
    best = None
    for order in product(*[reference_arrangements(p, twin) for p in parts]):
        bits = reference_bitstring(n, nbrs, list(chain.from_iterable(order)))
        if best is None or bits < best:
            best = bits
    return key + (best,)


def reference_twin_classes(n, adj, tmask):
    """For each vertex the least vertex with the same terminal status that
    is its twin (N(v) - w = N(w) - v), by scanning every pair."""
    rep = list(range(n))
    for v in range(n):
        for w in range(v):
            if (
                rep[w] == w
                and (tmask >> v ^ tmask >> w) & 1 == 0
                and adj[v] & ~(1 << w) == adj[w] & ~(1 << v)
            ):
                rep[v] = w
                break
    return rep


def reference_bitstring(n, nbrs, order):
    """The upper-triangle adjacency bitstring with vertex order[i] at
    position i."""
    pos = [0] * n
    for i, v in enumerate(order):
        pos[v] = i
    bits = 0
    for i, v in enumerate(order):
        for u in nbrs[v]:
            j = pos[u]
            if j > i:
                bits |= 1 << (i * n + j)
    return bits


def reference_arrangements(cell, twin):
    """The orders of one cell up to swapping twins: each twin class keeps
    its members in index order, and only the classes' interleaving
    varies."""
    if len(cell) == 1:
        return [cell]
    by_class = {}
    for v in cell:
        by_class.setdefault(twin[v], []).append(v)
    classes = list(by_class.values())
    if len(classes) == 1:
        return [cell]
    if len(classes) == len(cell):
        return list(permutations(cell))
    out = []
    taken = [0] * len(classes)
    order = []

    def walk():
        if len(order) == len(cell):
            out.append(tuple(order))
            return
        for c, members in enumerate(classes):
            if taken[c] < len(members):
                order.append(members[taken[c]])
                taken[c] += 1
                walk()
                taken[c] -= 1
                order.pop()

    walk()
    return out


def small_terminal_masks():
    """(n, adj, tmask) for every graph with at most six vertices and every
    terminal set: 11,290 masks."""
    for g in small_graph_classes(6):
        _, adj = index_graph(g)
        for tmask in range(1 << g.n):
            yield g.n, adj, tmask


def seeded_masks():
    """1,000 seeded (n, adj, tmask) with 7-9 vertices, G(n, p) with p
    uniform, and 0-5 terminals."""
    rng = random.Random(21)
    for _ in range(1000):
        n = rng.randint(7, 9)
        p = rng.random()
        adj = [0] * n
        for i, j in combinations(range(n), 2):
            if rng.random() < p:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
        tmask = sum(1 << t for t in rng.sample(range(n), rng.randint(0, 5)))
        yield n, adj, tmask


def test_pruned_search_matches_reference_on_every_small_terminal_set():
    checked = 0
    for n, adj, tmask in small_terminal_masks():
        assert _canon_masks(n, adj, tmask) == reference_canon_masks(n, adj, tmask)
        checked += 1
    assert checked == 11290


def test_pruned_search_matches_reference_on_seeded_masks():
    for n, adj, tmask in seeded_masks():
        assert _canon_masks(n, adj, tmask) == reference_canon_masks(n, adj, tmask)


def test_twin_classes_match_the_pair_scan():
    checked = 0
    for n, adj, tmask in chain(small_terminal_masks(), seeded_masks()):
        assert _twin_classes(n, adj, tmask) == reference_twin_classes(n, adj, tmask)
        checked += 1
    assert checked == 11290 + 1000


def masks_of(nxg):
    """(n, adj) of a networkx graph on the nodes 0..n-1."""
    adj = [0] * nxg.number_of_nodes()
    for u, v in nxg.edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return nxg.number_of_nodes(), adj


# Every refined cell is one twin class, so the key is read off the cells.
DIRECT_KEYS = {
    "edgeless 9": (nx.empty_graph(9), ()),
    "K9": (nx.complete_graph(9), ()),
    "K4,5": (nx.complete_bipartite_graph(4, 5), ()),
    "K4,5 side of 4": (nx.complete_bipartite_graph(4, 5), (0, 1, 2, 3)),
    "K4,5 side of 5": (nx.complete_bipartite_graph(4, 5), (4, 5, 6, 7, 8)),
    "K1,8": (nx.star_graph(8), ()),
    "K1,8 centre": (nx.star_graph(8), (0,)),
    "K1,8 leaf": (nx.star_graph(8), (1,)),
    "C4 side": (nx.cycle_graph(4), (0, 2)),
    "C4 vertex": (nx.cycle_graph(4), (0,)),
}


@pytest.mark.parametrize("name", DIRECT_KEYS)
def test_direct_key_spends_no_search_node(name, monkeypatch):
    nxg, terminals = DIRECT_KEYS[name]
    n, adj = masks_of(nxg)
    tmask = sum(1 << t for t in terminals)
    monkeypatch.setattr(generate, "MAX_SEARCH_NODES", 0)
    assert _canon_masks(n, adj, tmask) == reference_canon_masks(n, adj, tmask)


# C4 and C10 are regular, so refinement leaves one cell, of two twin
# classes in C4 and of ten in C10: both are searched.
@pytest.mark.parametrize("nxg", [nx.cycle_graph(4), nx.cycle_graph(10)], ids=["C4", "C10"])
def test_searched_key_raises_at_a_zero_node_budget(nxg, monkeypatch):
    n, adj = masks_of(nxg)
    monkeypatch.setattr(generate, "MAX_SEARCH_NODES", 0)
    with pytest.raises(ResourceLimitError, match="passed 0 nodes"):
        _canon_masks(n, adj, 0)


def relabelled(nxg, seed):
    """nxg as a Graph whose vertex names are a seeded shuffle of x0, x1, ..."""
    names = [f"x{i}" for i in range(nxg.number_of_nodes())]
    random.Random(seed).shuffle(names)
    f = dict(zip(nxg.nodes, names))
    return Graph(names, [(f[u], f[v]) for u, v in nxg.edges])


SYMMETRIC_GRAPHS = {
    "C10": nx.cycle_graph(10),
    "C12": nx.cycle_graph(12),
    "Petersen": nx.petersen_graph(),
    "icosahedron": nx.icosahedral_graph(),
}


@pytest.mark.parametrize("name", SYMMETRIC_GRAPHS)
def test_symmetric_graphs_key_fast_under_relabelling(name):
    keys = set()
    for seed in range(3):
        g = relabelled(SYMMETRIC_GRAPHS[name], seed)
        t0 = time.perf_counter()
        keys.add(canonical_form(g))
        assert time.perf_counter() - t0 < 1.0
    assert len(keys) == 1


@pytest.mark.parametrize(
    "nxg",
    [nx.dodecahedral_graph(), nx.hypercube_graph(4)],
    ids=["dodecahedron", "Q4"],
)
def test_search_past_the_node_budget_raises(nxg):
    with pytest.raises(ResourceLimitError, match="1000000 nodes"):
        canonical_form(relabelled(nxg, 0))


def test_c10_raises_past_a_lowered_node_budget(monkeypatch):
    c10 = relabelled(SYMMETRIC_GRAPHS["C10"], 0)
    monkeypatch.setattr(generate, "MAX_SEARCH_NODES", 50)
    with pytest.raises(ResourceLimitError, match="passed 50 nodes"):
        canonical_form(c10)
