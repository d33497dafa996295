"""Brute-force oracles: slow, independent routes used to cross-check the
library search paths.

Nothing here calls the fast implementations.  The oracles enumerate raw
search spaces (all color assignments up to a permutation of the colors,
all simple-path systems, all subgraph pairs up to swapping sides, all
bijections, all rotation systems up to mirror image) and filter by
definition, so they stay valid even if every optimization elsewhere is
wrong.  Each oracle's docstring says why its symmetry changes no
answer: permuting the colors keeps an assignment proper, so the
lexicographically first proper assignment gives the first vertex color
1; swapping the two sides of a separation gives the same unordered
pair; reversing every rotation reverses every face walk.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, permutations, product

from wheelkit.errors import InputDomainError
from wheelkit.graph import Graph, Vertex, vkey
from wheelkit.wheels import Wheel

COLORS = (1, 2, 3, 4)


def brute_four_color(g: Graph) -> dict[Vertex, int] | None:
    """Try the 4^n assignments in lexicographic order; the first proper
    one is returned.

    Only the assignments that give the first vertex color 1 are tried.
    Permuting the colors keeps an assignment proper, so if any proper
    assignment exists, one starts with color 1, and every assignment that
    starts with 1 comes before every other: the first proper assignment
    is among those tried.  The empty graph gets the empty assignment.

    The edges are indexed to vertex positions once.  The assignments
    are tried in turn, with no pruning; each is rejected at its first
    edge whose ends share a color.
    """
    vs = g.vertices
    if not vs:
        return {}
    pos = {v: i for i, v in enumerate(vs)}
    pairs = [(pos[u], pos[v]) for u, v in g.edges]
    for tail in product(COLORS, repeat=len(vs) - 1):
        combo = (1, *tail)
        for i, j in pairs:
            if combo[i] == combo[j]:
                break
        else:
            return dict(zip(vs, combo))
    return None


def all_simple_paths(g: Graph, s: Vertex, t: Vertex, banned: frozenset) -> list[tuple[Vertex, ...]]:
    """Every simple s-t path whose interior avoids `banned`."""
    out: list[tuple[Vertex, ...]] = []

    def walk(path: list[Vertex], used: set[Vertex]):
        cur = path[-1]
        for w in g.neighbors(cur):
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


def brute_disjoint_paths(g: Graph, pairs, forbidden=()) -> tuple[tuple[Vertex, ...], ...] | None:
    """Enumerate per-pair path lists, then search all combinations."""
    pairs = [tuple(p) for p in pairs]
    endpoints = {x for p in pairs for x in p}
    banned = frozenset(forbidden) | frozenset(endpoints)
    choices = [all_simple_paths(g, s, t, banned - {s, t}) for s, t in pairs]

    def pick(i: int, used_interiors: set[Vertex]) -> list | None:
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


def brute_k5_subdivision(g: Graph) -> bool:
    """All 5-subsets (no degree pruning) x all path systems."""
    for combo in combinations(g.vertices, 5):
        pairs = [(combo[i], combo[j]) for i, j in combinations(range(5), 2)]
        if brute_disjoint_paths(g, pairs) is not None:
            return True
    return False


def brute_separations(g: Graph, k: int) -> set:
    """The full definition universe of k-separations, up to side swap.

    Every (A, B, C) with |C| = k, A and B unlinked by edges, plus every
    assignment of C-internal edges, filtered by side nonemptiness.  Each
    separation is the unordered pair (a frozenset) of its two
    (vertices, edges) side descriptions.

    Swapping A with B and every C-internal edge's side gives the same
    unordered pair, and the filter treats both sides alike, so only one
    assignment of each swapped pair is walked: the one that puts the
    first vertex outside C in A, or, when C holds every vertex, the one
    that puts the first C-internal edge on A's side.
    """
    vs = g.vertices
    out = set()
    for cut in combinations(vs, k):
        cset = set(cut)
        rest = [v for v in vs if v not in cset]
        inner = [e for e in g.edges if e[0] in cset and e[1] in cset]
        for assign in _first_on_a(len(rest)) if rest else [()]:
            a = {v for v, side in zip(rest, assign) if side == 0}
            b = set(rest) - a
            if any((u in a and v in b) or (u in b and v in a) for u, v in g.edges):
                continue
            ea_base = frozenset(
                e for e in g.edges if set(e) <= a | cset and not set(e) <= cset
            )
            eb_base = frozenset(
                e for e in g.edges if set(e) <= b | cset and not set(e) <= cset
            )
            va, vb = frozenset(a | cset), frozenset(b | cset)
            for split in product((0, 1), repeat=len(inner)) if rest else _first_on_a(len(inner)):
                ea = ea_base.union(e for e, side in zip(inner, split) if side == 0)
                eb = eb_base.union(e for e, side in zip(inner, split) if side == 1)
                if not (a or ea) or not (b or eb):
                    continue
                out.add(frozenset({(va, ea), (vb, eb)}))
    return out


def _first_on_a(m: int):
    """The 0/1 tuples of length m that start with 0, one of each
    complementary pair; none when m is 0."""
    return ((0, *tail) for tail in product((0, 1), repeat=m - 1)) if m else ()


def brute_k_connected(g: Graph, k: int) -> bool:
    """Vertex connectivity >= k by definition: no set of fewer than k
    vertices disconnects g, one induced graph per removed set; complete
    graphs count as (n-1)-connected."""
    if k <= 0:
        return True
    n = g.n
    if n == 0:
        return False
    if g.m == n * (n - 1) // 2:
        return n - 1 >= k
    if len(g.components()) > 1:
        return False
    if n <= k:
        return False  # incomplete graph on <= k vertices
    for size in range(1, k):
        for cut in combinations(g.vertices, size):
            rest = g.induced([v for v in g.vertices if v not in cut])
            if len(rest.components()) > 1:
                return False
    return True


def brute_wheel_search(g: Graph, s) -> Wheel | None:
    """All centers x all cycles, filtered afterwards; no pruning."""
    sset = set(s)
    for center in g.vertices:
        if center in sset:
            continue
        rest = g.induced([v for v in g.vertices if v != center])
        nbrs = set(g.neighbors(center))
        for cyc in _all_cycles(rest):
            spokes = frozenset(v for v in cyc if v in nbrs)
            if len(spokes) < 3:
                continue
            if all(v in nbrs for v in sset & set(cyc)):
                return Wheel(center, cyc, spokes)
    return None


def _all_cycles(g: Graph):
    order = {v: i for i, v in enumerate(g.vertices)}

    def extend(path, used):
        if len(path) >= 3 and g.has_edge(path[-1], path[0]) and order[path[1]] < order[path[-1]]:
            yield tuple(path)
        for w in g.neighbors(path[-1]):
            if w in used or order[w] <= order[path[0]]:
                continue
            path.append(w)
            used.add(w)
            yield from extend(path, used)
            used.remove(w)
            path.pop()

    for v in g.vertices:
        yield from extend([v], {v})


# -- rooted isomorphism oracle --------------------------------------------------


def brute_rooted_isomorphic(a, b) -> bool:
    """Whether some bijection maps the terminals of a onto those of b and
    the edges of a onto those of b; a and b are terminal graphs (a graph
    and a terminal sequence, taken as a set).  Tries every bijection that
    sends terminals to terminals, no pruning.
    """
    ga, gb = a.graph, b.graph
    sa, sb = tuple(a.terminals), tuple(b.terminals)
    if ga.n != gb.n or ga.m != gb.m or len(sa) != len(sb):
        return False
    ia = tuple(v for v in ga.vertices if v not in sa)
    ib = tuple(v for v in gb.vertices if v not in sb)
    for ps in permutations(sb):
        for pi in permutations(ib):
            f = dict(zip(sa + ia, ps + pi))
            if all(gb.has_edge(f[u], f[v]) for u, v in ga.edges):
                return True
    return False


# -- rotation-system disc-planarity oracle -----------------------------------


def brute_disc_planar(g: Graph, terminals) -> bool:
    """Disc-planarity by enumerating rotation systems.

    Genus 0 is checked per component via Euler's formula on traced faces;
    the terminals of each component must share a face.  With at most three
    terminals every cyclic boundary order is equivalent up to rotation and
    reflection, so co-faciality decides disc-planarity outright; larger
    terminal sets are refused (the fence construction covers them, and the
    agreement corpus stops at three).

    The faces depend on `g` alone, so `_component_faces` enumerates them
    once per graph and each terminal set is answered by lookup.  The memo
    holds the last 64 graphs, enough for the terminal sets of one graph to
    be asked one after another.  Only one rotation system of each mirror
    pair is traced: reversing every rotation reverses every face walk, so
    both members give the same face vertex sets.
    """
    ts = tuple(terminals)
    if len(ts) > 3:
        raise InputDomainError("rotation oracle only supports up to 3 terminals")
    if len(ts) < 1:
        raise InputDomainError("need at least one terminal")
    for comp, faces in _component_faces(g):
        if faces is None:
            return False
        cts = comp.intersection(ts)
        if cts and not any(cts <= f for f in faces):
            return False
    return True


@lru_cache(maxsize=64)
def _component_faces(g: Graph) -> tuple:
    """Per component of `g`: (its vertex set, the vertex sets of every face
    of every genus-0 rotation system), or None in place of the faces when
    the component has no genus-0 rotation system."""
    out = []
    for comp in g.components():
        sub = g.induced(comp)
        if sub.m > max(0, 3 * sub.n - 6) and sub.n >= 3:
            out.append((comp, None))  # Euler bound: not even planar
            continue
        if sub.m == 0:
            out.append((comp, frozenset([comp])))  # a lone vertex is its one face
            continue
        vs = sub.vertices
        # Each choice at a vertex is its successor map: neighbour a -> the
        # neighbour after a in the rotation.  Reversing every rotation
        # reverses every face walk, so at the first vertex of degree >= 3
        # only (first,) + p with vkey(p[0]) < vkey(p[-1]) is kept: exactly
        # one system of each mirror pair.
        succ_choices = []
        mirrored = False
        for v in vs:
            ns = sub.neighbors(v)
            if len(ns) <= 2:
                rots = [ns]
            else:
                first = ns[0]
                perms = permutations(ns[1:])
                if not mirrored:
                    perms = [p for p in perms if vkey(p[0]) < vkey(p[-1])]
                    mirrored = True
                rots = [(first,) + p for p in perms]
            succ_choices.append([dict(zip(r, r[1:] + r[:1])) for r in rots])
        darts = [(u, v) for u in vs for v in sub.neighbors(u)]
        target_faces = 2 - sub.n + sub.m  # Euler, connected
        found = set()
        for combo in product(*succ_choices):
            faces = _trace(dict(zip(vs, combo)), darts)
            if len(faces) == target_faces:
                found.update(faces)
        out.append((comp, frozenset(found) if found else None))
    return tuple(out)


def _trace(succ, darts):
    """The faces of the rotation system given by successor maps (`succ[b][a]`
    is the neighbour after a around b), each as the set of vertices its
    walk passes; `darts` lists every dart once."""
    seen = set()
    faces = []
    for d in darts:
        if d in seen:
            continue
        face = set()
        while d not in seen:
            seen.add(d)
            a, b = d
            face.add(a)
            d = (b, succ[b][a])
        faces.append(frozenset(face))
    return faces
