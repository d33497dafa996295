import ast
import gc
import random
from itertools import combinations, permutations, product
from pathlib import Path

import pytest

from wheelkit import oracles
from wheelkit.errors import InputDomainError
from wheelkit.generate import random_graph, small_graph_classes
from wheelkit.graph import Graph, add, complete_graph, cycle_graph, path_graph, remove, union
from wheelkit.oracles import (
    _component_faces,
    all_simple_paths,
    brute_disc_planar,
    brute_disjoint_paths,
    brute_four_color,
    brute_k5_subdivision,
    brute_separations,
)


def test_oracles_import_no_search_module():
    """The oracles stay independent of the search paths they check: they
    may use only the errors, graph and wheels modules of the package."""
    used = set()
    for node in ast.walk(ast.parse(Path(oracles.__file__).read_text())):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:  # relative to the package
                base = f"wheelkit.{base}".rstrip(".")
            names = [base] + [f"{base}.{a.name}" for a in node.names]
        else:
            continue
        used |= {n.split(".")[1] for n in names if n.startswith("wheelkit.")}
    assert used <= {"errors", "graph", "wheels"}, used


def k23():
    return Graph("a b x y z".split(), [(u, v) for u in "ab" for v in "xyz"])


def five_wheel():
    rim = [f"r{i}" for i in range(5)]
    return add(cycle_graph(rim), {"c"}, [("c", r) for r in rim])


def c6_with_chord():
    return add(cycle_graph([f"v{i}" for i in range(6)]), (), [("v0", "v3")])


def terminal_sets(g):
    return [ts for size in (1, 2, 3) for ts in combinations(g.vertices, size)]


# -- hand cases ----------------------------------------------------------------


@pytest.mark.parametrize("ts", list(combinations("abcd", 3)))
def test_k4_any_three_terminals(ts):
    assert brute_disc_planar(complete_graph(list("abcd")), ts) is True


def test_k23_degree_two_vertices():
    assert brute_disc_planar(k23(), ("x", "y", "z")) is False
    for ts in combinations("xyz", 2):
        assert brute_disc_planar(k23(), ts) is True


def test_nonplanar_component_without_terminals():
    g = union(complete_graph(list("abcde")), path_graph(["p", "q"]))
    assert brute_disc_planar(g, ("p",)) is False


def test_terminals_split_across_path_components():
    g = union(path_graph(["a", "b", "c"]), path_graph(["x", "y", "z"]))
    assert brute_disc_planar(g, ("a", "c", "y")) is True


def test_isolated_vertex_terminal():
    assert brute_disc_planar(Graph(["v"]), ("v",)) is True


@pytest.mark.parametrize("ts", [(), ("a", "b", "c", "d")])
def test_terminal_count_outside_one_to_three(ts):
    with pytest.raises(InputDomainError):
        brute_disc_planar(complete_graph(list("abcd")), ts)


# -- the per-graph face memo -----------------------------------------------------


def test_faces_enumerated_once_per_graph():
    _component_faces.cache_clear()
    graphs = [k23(), five_wheel(), c6_with_chord()]
    for g in graphs:
        sets = terminal_sets(g)
        forward = [brute_disc_planar(g, ts) for ts in sets]
        backward = [brute_disc_planar(g, ts) for ts in reversed(sets)]
        assert forward == backward[::-1]
    assert _component_faces.cache_info().misses == len(graphs)


def test_same_names_different_edges_do_not_share_faces():
    _component_faces.cache_clear()
    full = k23()
    less = remove(full, edges=[("a", "z")])
    assert full.vertices == less.vertices
    assert brute_disc_planar(full, ("x", "y", "z")) is False
    assert brute_disc_planar(less, ("x", "y", "z")) is True
    assert _component_faces.cache_info().misses == 2


# -- one rotation system per mirror pair ---------------------------------------


def idx_trace(rotation):
    """Face walks as dart tuples, by looking up each dart's position in the
    rotation at its head."""
    idx = {v: {u: i for i, u in enumerate(ns)} for v, ns in rotation.items()}
    seen = set()
    faces = []
    for u in rotation:
        for v in rotation[u]:
            if (u, v) in seen:
                continue
            face = []
            d = (u, v)
            while d not in seen:
                seen.add(d)
                face.append(d)
                a, b = d
                ns = rotation[b]
                d = (b, ns[(idx[b][a] + 1) % len(ns)])
            faces.append(tuple(face))
    return faces


def unpruned_faces(g):
    """`_component_faces` by every rotation system, both members of each
    mirror pair, with no Euler-bound shortcut."""
    out = []
    for comp in g.components():
        sub = g.induced(comp)
        if sub.m == 0:
            out.append((comp, frozenset([comp])))
            continue
        vs = sub.vertices
        rot_choices = [
            [(ns[0],) + p for p in permutations(ns[1:])] if len(ns) > 2 else [ns]
            for ns in map(sub.neighbors, vs)
        ]
        found = set()
        for combo in product(*rot_choices):
            faces = idx_trace(dict(zip(vs, combo)))
            if len(faces) == 2 - sub.n + sub.m:
                found.update(frozenset(u for u, _ in face) for face in faces)
        out.append((comp, frozenset(found) if found else None))
    return tuple(out)


def test_mirror_pruning_keeps_every_face_set():
    """Every graph on at most 5 vertices, and the 138 six-vertex graphs
    with at most 10 edges: those whose rotation systems criterion 7
    traces in full."""
    _component_faces.cache_clear()
    graphs = [g for g in small_graph_classes(6) if g.n < 6 or g.m <= 10]
    assert sum(g.n == 6 for g in graphs) == 138
    for g in graphs:
        assert _component_faces(g) == unpruned_faces(g)


def test_k4_traces_one_system_per_mirror_pair(monkeypatch):
    # four vertices of degree 3, two rotations each: 16 systems, 8 pairs
    traced = []
    trace = oracles._trace

    def counting(*args):
        traced.append(args)
        return trace(*args)

    _component_faces.cache_clear()
    monkeypatch.setattr(oracles, "_trace", counting)
    _component_faces(complete_graph(list("abcd")))
    _component_faces.cache_clear()
    assert len(traced) == 8


# -- the 4^n coloring oracle -----------------------------------------------------


def dict_per_assignment(g):
    """The first proper assignment in lexicographic order, one dict per try."""
    for combo in product((1, 2, 3, 4), repeat=g.n):
        cmap = dict(zip(g.vertices, combo))
        if all(cmap[u] != cmap[v] for u, v in g.edges):
            return cmap
    return None


def random_graphs(seed, count, n_low, n_high, p_low, p_high):
    rng = random.Random(seed)
    return [
        random_graph(rng.randrange(n_low, n_high + 1), rng.uniform(p_low, p_high), rng)
        for _ in range(count)
    ]


def test_four_color_oracle_returns_first_proper_assignment():
    graphs = [Graph()] + small_graph_classes(5) + random_graphs(3, 40, 6, 8, 0.5, 0.95)
    uncolorable = 0
    for g in graphs:
        got = brute_four_color(g)
        want = dict_per_assignment(g)
        assert got == want
        if want is not None:
            assert list(got.items()) == list(want.items())
        uncolorable += want is None
    assert brute_four_color(Graph()) == {}
    assert uncolorable >= 5


def test_four_color_oracle_on_c5_and_k5():
    c5 = cycle_graph([f"v{i}" for i in range(5)])
    assert brute_four_color(c5) == {"v0": 1, "v1": 2, "v2": 1, "v3": 2, "v4": 3}
    assert brute_four_color(complete_graph(list("abcde"))) is None


# -- path systems --------------------------------------------------------------


def set_walk_paths(g, s, t, banned):
    """Every simple s-t path whose interior avoids `banned`: a recursive
    walk over vertex names and a set of used vertices."""
    out = []

    def walk(path, used):
        for w in g.neighbors(path[-1]):
            if w == t:
                out.append(tuple(path + [t]))
                continue
            if w in used or w in banned:
                continue
            path.append(w)
            used.add(w)
            walk(path, used)
            used.remove(w)
            path.pop()

    walk([s], {s})
    return out


def eager_disjoint_paths(g, pairs, forbidden=()):
    """`brute_disjoint_paths` listing every pair's paths, by
    `set_walk_paths`, before the search."""
    pairs = [tuple(p) for p in pairs]
    endpoints = {x for p in pairs for x in p}
    banned = frozenset(forbidden) | frozenset(endpoints)
    choices = [set_walk_paths(g, s, t, banned - {s, t}) for s, t in pairs]

    def pick(i, used_interiors):
        if i == len(pairs):
            return []
        for p in choices[i]:
            interior = set(p[1:-1])
            if interior & used_interiors:
                continue
            rest = pick(i + 1, used_interiors | interior)
            if rest is not None:
                return [p] + rest
        return None

    got = pick(0, set())
    return tuple(got) if got is not None else None


def test_path_walk_matches_the_vertex_set_walk():
    """The same paths in the same order, with no banned vertex, with
    banned vertices, and with banned ids that are ends or not vertices."""
    rng = random.Random(37)
    walked = 0
    for g in random_graphs(37, 200, 3, 8, 0.3, 0.8):
        s, t = rng.sample(g.vertices, 2)
        rest = [v for v in g.vertices if v not in (s, t)]
        some = frozenset(rng.sample(rest, rng.randrange(len(rest) + 1)))
        for banned in (frozenset(), some, some | {s, t, "zz"}):
            got = all_simple_paths(g, s, t, banned)
            assert got == set_walk_paths(g, s, t, banned), (g.edges, s, t, banned)
            walked += len(got)
    assert walked > 5000


def test_lazy_path_lists_return_the_eager_witnesses():
    """The same path tuples, for disjoint pairs and for all pairs of a
    terminal set (as the K5 oracle asks), with and without forbidden
    vertices."""
    rng = random.Random(41)
    linked = unlinked = 0
    for g in random_graphs(41, 320, 4, 8, 0.3, 0.8):
        vs = list(g.vertices)
        rng.shuffle(vs)
        if rng.random() < 0.5:
            size = rng.randrange(2, min(6, len(vs)) + 1, 2)
            pairs = list(zip(vs[0:size:2], vs[1:size:2]))
        else:
            size = rng.randrange(3, 5)
            pairs = list(combinations(vs[:size], 2))
        spare = vs[size:]
        for forbidden in ((), rng.sample(spare, rng.randrange(1, len(spare) + 1)) if spare else ()):
            got = brute_disjoint_paths(g, pairs, forbidden)
            assert got == eager_disjoint_paths(g, pairs, forbidden), (g.edges, pairs, forbidden)
            linked += got is not None
            unlinked += got is None
    assert linked >= 100 and unlinked >= 100


def test_path_oracles_reject_a_pair_with_equal_ends():
    """A path from a vertex to itself would be a closed walk; the library
    search refuses such a pair with the same message."""
    g = complete_graph(list("abcd"))
    with pytest.raises(InputDomainError, match="pair endpoints must be distinct"):
        all_simple_paths(g, "a", "a", frozenset())
    with pytest.raises(InputDomainError, match="pair endpoints must be distinct"):
        brute_disjoint_paths(g, [("a", "b"), ("c", "c")])


def test_path_oracle_rejects_an_unknown_end_of_an_unreached_pair():
    g = union(path_graph(["a", "b"]), path_graph(["c", "d"]))
    assert brute_disjoint_paths(g, [("a", "c")]) is None
    with pytest.raises(InputDomainError, match="'z'"):
        brute_disjoint_paths(g, [("a", "c"), ("b", "z")])


def test_k5_oracle_verdicts_match_eager_path_lists():
    graphs = small_graph_classes(6) + random_graphs(43, 150, 5, 8, 0.4, 0.9)
    found = 0
    for g in graphs:
        want = any(
            eager_disjoint_paths(g, combinations(combo, 2)) is not None
            for combo in combinations(g.vertices, 5)
        )
        assert brute_k5_subdivision(g) == want, g.edges
        found += want
    assert 10 <= found < len(graphs) - 10


# -- the definition universe of separations ------------------------------------


def full_universe_separations(g, k):
    """`brute_separations` walking both members of every side-swapped pair
    of assignments."""
    vs = g.vertices
    out = set()
    for cut in combinations(vs, k):
        cset = set(cut)
        rest = [v for v in vs if v not in cset]
        inner = [e for e in g.edges if e[0] in cset and e[1] in cset]
        for assign in product((0, 1), repeat=len(rest)):
            a = {v for v, side in zip(rest, assign) if side == 0}
            b = set(rest) - a
            if any((u in a and v in b) or (u in b and v in a) for u, v in g.edges):
                continue
            ea_base = frozenset(e for e in g.edges if set(e) <= a | cset and not set(e) <= cset)
            eb_base = frozenset(e for e in g.edges if set(e) <= b | cset and not set(e) <= cset)
            for split in product((0, 1), repeat=len(inner)):
                ea = set(ea_base)
                eb = set(eb_base)
                for e, side in zip(inner, split):
                    (ea if side == 0 else eb).add(e)
                if not (a or ea) or not (b or eb):
                    continue
                s1 = (frozenset(a | cset), frozenset(ea))
                s2 = (frozenset(b | cset), frozenset(eb))
                out.add(frozenset({s1, s2}))
    return out


@pytest.mark.parametrize("k", range(7))
def test_separation_oracle_matches_the_full_universe(k):
    # the edge densities oracle-equivalence draws its separation graphs with
    graphs = small_graph_classes(6) + random_graphs(11, 200, 4, 7, 0.3, 0.8)
    # both sides build large sets of frozensets and no reference cycles,
    # which the cyclic collector would walk again and again
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for g in graphs:
            assert brute_separations(g, k) == full_universe_separations(g, k), (g.edges, k)
    finally:
        if was_enabled:
            gc.enable()


def test_separation_masks_follow_vertex_order_not_id_strings():
    """Ids whose string order differs from vkey order ("10" before "9")."""
    rng = random.Random(29)
    ids = ["9", "10", "2", "11", "a", "b1", "t2", "t10"]
    for _ in range(12):
        g = random_graph(rng.sample(ids, rng.randrange(5, 9)), rng.uniform(0.2, 0.5), rng)
        for k in range(5):
            assert brute_separations(g, k) == full_universe_separations(g, k), (g.edges, k)
