"""Instance generation: the isomorph-free class enumerators, seeded random
planar graphs, and wheel-plus-crossing hosts.

`_classes` is the one level loop: it enumerates edge sets level by level
(by edge count), deduplicating each level by a rooted canonical form and
optionally pruning by a monotone property.  It feeds the disc-planar
terminal-graph stream (disc-planarity is monotone under edge deletion, so
a non-disc-planar graph never recovers by adding edges) and the unrooted
small-graph classes.  `terminal_set_classes` is the one rooted dedup of a
graph's terminal sets.

`canonical_form` is the package's one isomorphism test: the enumerators
and the catalog's rooted isomorphism all compare its keys.
"""

from __future__ import annotations

import random
from itertools import chain, combinations, permutations, product
from typing import Iterable, Iterator

from wheelkit.errors import InputDomainError, ResourceLimitError
from wheelkit.graph import Graph, Vertex, add, remove
from wheelkit.planarity import TerminalGraph, is_disc_planar
from wheelkit.wheels import Wheel

DEFAULT_GENERATION_LIMIT = 9

# Stream filters by name.  "s-independent" keeps the terminals pairwise
# non-adjacent: the stream enforces it by never adding an edge between two
# terminals.
FILTERS = ("s-independent",)


def canonical_form(g: Graph, terminals: Iterable[Vertex] = ()) -> tuple:
    """A label-independent key of g rooted at the terminal set: two keys
    are equal exactly when some isomorphism maps one terminal set onto
    the other.

    Colour refinement first: each vertex starts as (not a terminal,
    degree), and each round recolours it by its colour and the sorted
    colours of its neighbours, relabelled by rank, until the number of
    cells stops growing.  The key is (terminal count, n, bits), with bits
    the smallest upper-triangle adjacency bitstring over the vertex
    orders that take the cells in colour order and permute only inside
    them.  Terminals come first, so the key fixes the terminal set.  The
    graphs here are small enough to need no individualisation search.
    """
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
    parts: list[list[Vertex]] = [[] for _ in range(cells)]
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


def rooted_canonical_form(tg: TerminalGraph) -> tuple:
    """The canonical form of tg's graph rooted at its terminal set."""
    return canonical_form(tg.graph, tg.terminals)


def _classes(names, terminals, pairs, keep=None) -> Iterator[dict[tuple, TerminalGraph]]:
    """The graphs on `names` with edges from `pairs`, one per rooted
    isomorphism class: one dict per edge count, from the edgeless graph
    up, mapping `rooted_canonical_form` to the first graph found with it.

    A candidate failing `keep` is dropped together with every supergraph,
    so `keep` must be monotone under edge deletion.  Its key is remembered
    for the level, so `keep` sees each class at most once.
    """
    base = TerminalGraph(Graph(names, ()), terminals, ordered=False)
    level = {rooted_canonical_form(base): base}
    while level:
        yield level
        nxt: dict[tuple, TerminalGraph] = {}
        dead: set[tuple] = set()
        for tg in level.values():
            for a, b in pairs:
                if tg.graph.has_edge(a, b):
                    continue
                bigger = TerminalGraph(add(tg.graph, (), [(a, b)]), terminals, ordered=False)
                key = rooted_canonical_form(bigger)
                if key in nxt or key in dead:
                    continue
                if keep is not None and not keep(bigger):
                    dead.add(key)  # monotone: no supergraph recovers
                    continue
                nxt[key] = bigger
        level = nxt


def small_graph_classes(n_max: int) -> list[Graph]:
    """One representative per isomorphism class, all graphs up to n_max
    vertices, by vertex count, then edge count, then order of discovery."""
    out = []
    for n in range(1, n_max + 1):
        names = tuple(str(i) for i in range(n))
        for level in _classes(names, (), list(combinations(names, 2))):
            out.extend(tg.graph for tg in level.values())
    return out


def terminal_set_classes(g: Graph, size: int) -> list[tuple[Vertex, ...]]:
    """The terminal sets of g with `size` vertices, one per rooted
    isomorphism class: the first of each class in `combinations` order."""
    first: dict[tuple, tuple[Vertex, ...]] = {}
    for ts in combinations(g.vertices, size):
        first.setdefault(canonical_form(g, ts), ts)
    return list(first.values())


def generate_terminal_planar(n_max: int, s_size: int, filters=()) -> Iterator[TerminalGraph]:
    """All disc-planar terminal graphs with at most n_max vertices and
    s_size terminals, one per rooted-isomorphism class, passing the named
    filters (see `FILTERS`).

    Terminals are unordered (disc-planarity in the some-boundary-order
    sense).  Emission order: by vertex count, then edge count, then
    canonical form.
    """
    if n_max > DEFAULT_GENERATION_LIMIT:
        raise ResourceLimitError(
            f"generation capped at {DEFAULT_GENERATION_LIMIT} vertices, got {n_max}"
        )
    if s_size < 1 or s_size > n_max:
        raise InputDomainError("terminal count must be between 1 and n_max")
    for f in filters:
        if f not in FILTERS:
            raise InputDomainError(f"unknown filter {f!r}")
    independent = "s-independent" in filters
    ts = tuple(f"t{i}" for i in range(1, s_size + 1))
    for n in range(s_size, n_max + 1):
        names = ts + tuple(f"u{i}" for i in range(1, n - s_size + 1))
        pairs = [
            (a, b)
            for a, b in combinations(names, 2)
            if not (independent and a in ts and b in ts)
        ]
        for level in _classes(names, ts, pairs, keep=is_disc_planar):
            for key in sorted(level):
                yield level[key]


# -- random planar graphs ------------------------------------------------------


def random_planar_graph(n: int, rng: random.Random, *, keep_fraction: float = 0.8) -> Graph:
    """A seeded random planar graph: grow a stacked triangulation, then
    delete a random fraction of its edges."""
    if n < 3:
        raise InputDomainError("need at least 3 vertices")
    names = [str(i) for i in range(n)]
    g = Graph(names[:3], [(names[0], names[1]), (names[1], names[2]), (names[0], names[2])])
    faces = [(names[0], names[1], names[2])]
    for v in names[3:]:
        a, b, c = faces.pop(rng.randrange(len(faces)))
        g = add(g, {v}, [(v, a), (v, b), (v, c)])
        faces += [(a, b, v), (b, c, v), (a, c, v)]
    edges = list(g.edges)
    rng.shuffle(edges)
    drop = edges[int(len(edges) * keep_fraction) :]
    return remove(g, (), drop)


# -- wheel-plus-crossing hosts ---------------------------------------------------


def random_wheel_host(rng: random.Random):
    """A host containing a wheel with >= 4 spokes plus outside structure
    linking opposite spokes; returns (graph, wheel, corners).

    The crossing linkage is planted but not handed over: callers are meant
    to rediscover it with the exact disjoint-path search.
    """
    rim_len = rng.randrange(4, 9)
    rim = tuple(f"r{i}" for i in range(rim_len))
    g = Graph(rim, [(rim[i], rim[(i + 1) % rim_len]) for i in range(rim_len)])
    spoke_count = rng.randrange(4, rim_len + 1)
    spokes = sorted(rng.sample(range(rim_len), spoke_count))
    g = add(g, {"c"}, [("c", rim[i]) for i in spokes])
    corner_idx = sorted(rng.sample(spokes, 4))
    w1, w2, w3, w4 = (rim[i] for i in corner_idx)
    # plant two disjoint outside paths w1~w3 and w2~w4
    len1 = rng.randrange(1, 3)
    len2 = rng.randrange(1, 3)
    p1 = [f"x{i}" for i in range(len1)]
    p2 = [f"y{i}" for i in range(len2)]
    chain1 = [w1] + p1 + [w3]
    chain2 = [w2] + p2 + [w4]
    g = add(g, set(p1) | set(p2), [(chain1[i], chain1[i + 1]) for i in range(len(chain1) - 1)]
            + [(chain2[i], chain2[i + 1]) for i in range(len(chain2) - 1)])
    # noise: extra edges between outside vertices and the rim, never
    # touching the wheel center
    outside = p1 + p2
    for v in outside:
        if rng.random() < 0.4:
            t = rim[rng.randrange(rim_len)]
            if not g.has_edge(v, t):
                g = add(g, (), [(v, t)])
    wheel = Wheel("c", rim, frozenset(rim[i] for i in spokes))
    return g, wheel, (w1, w2, w3, w4)
