"""Instance generation: small disc-planar terminal graphs, seeded random
planar graphs, and wheel-plus-crossing hosts.

The terminal-graph stream enumerates edge sets level by level (by edge
count), pruning branches that already fail a monotone property
(disc-planarity is monotone under edge deletion, so a non-disc-planar
graph never recovers by adding edges; terminal independence likewise) and
deduplicating levels by a rooted canonical form, so no two emitted graphs
are rooted-isomorphic.

`canonical_form` is the package's one isomorphism test: the stream, the
unrooted small-graph classes of the experiments and the catalog's rooted
isomorphism all compare its keys.
"""

from __future__ import annotations

import random
from itertools import chain, combinations, permutations, product
from typing import Callable, Iterable, Iterator

from wheelkit.errors import InputDomainError, ResourceLimitError
from wheelkit.graph import Graph, Vertex, add, remove
from wheelkit.planarity import TerminalGraph, is_disc_planar
from wheelkit.wheels import Wheel

DEFAULT_GENERATION_LIMIT = 9

Filter = Callable[[TerminalGraph], bool]


def s_independent(tg: TerminalGraph) -> bool:
    ts = tg.terminals
    return not any(tg.graph.has_edge(a, b) for i, a in enumerate(ts) for b in ts[i + 1 :])


def terminals_see_interior(minimum: int) -> Filter:
    def check(tg: TerminalGraph) -> bool:
        interior = set(tg.graph.vertices) - set(tg.terminals)
        return all(
            sum(1 for x in tg.graph.neighbors(t) if x in interior) >= minimum
            for t in tg.terminals
        )

    return check


FILTERS: dict[str, Filter] = {
    "s-independent": s_independent,
    "terminal-interior-degree-2": terminals_see_interior(2),
    "terminal-interior-degree-1": terminals_see_interior(1),
}


def _resolve_filters(filters) -> list[Filter]:
    out = []
    for f in filters:
        if callable(f):
            out.append(f)
        elif f in FILTERS:
            out.append(FILTERS[f])
        else:
            raise InputDomainError(f"unknown filter {f!r}")
    return out


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


def generate_terminal_planar(
    n_max: int,
    s_size: int,
    filters=(),
    *,
    limit: int = DEFAULT_GENERATION_LIMIT,
) -> Iterator[TerminalGraph]:
    """All disc-planar terminal graphs with at most n_max vertices and
    s_size terminals, one per rooted-isomorphism class, passing filters.

    Terminals are unordered (disc-planarity in the some-boundary-order
    sense).  Emission order: by vertex count, then edge count, then
    canonical form.
    """
    if n_max > limit:
        raise ResourceLimitError(f"generation capped at {limit} vertices, got {n_max}")
    if s_size < 1 or s_size > n_max:
        raise InputDomainError("terminal count must be between 1 and n_max")
    fs = _resolve_filters(filters)
    prune_s_independent = s_independent in fs
    for n in range(s_size, n_max + 1):
        ts = tuple(f"t{i}" for i in range(1, s_size + 1))
        interior = tuple(f"u{i}" for i in range(1, n - s_size + 1))
        names = ts + interior
        pairs = [
            (a, b)
            for a, b in combinations(names, 2)
            if not (prune_s_independent and a in ts and b in ts)
        ]
        base = TerminalGraph(Graph(names, ()), ts, ordered=False)
        level = {rooted_canonical_form(base): base}
        while level:
            for key in sorted(level):
                if all(f(level[key]) for f in fs):
                    yield level[key]
            nxt: dict[tuple, TerminalGraph] = {}
            for tg in level.values():
                for a, b in pairs:
                    if tg.graph.has_edge(a, b):
                        continue
                    bigger = TerminalGraph(add(tg.graph, (), [(a, b)]), ts, ordered=False)
                    key = rooted_canonical_form(bigger)
                    if key in nxt:
                        continue
                    if not is_disc_planar(bigger):
                        continue  # monotone: no supergraph recovers
                    nxt[key] = bigger
            level = nxt


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
