"""Instance generation: the isomorph-free class enumerators, seeded random
planar graphs, and wheel-plus-crossing hosts.

`canonical_form` is the package's one isomorphism test: the enumerators
and the catalog's rooted isomorphism all compare its keys.  It works on
per-vertex adjacency bitmasks: a graph is indexed once by
`kernels.index_graph`, and `_canon_masks` refines colours and takes the
least adjacency bitstring over the vertex orders inside the cells.  Two
vertices of one cell are twins when N(v) - w = N(w) - v, and swapping
them is an automorphism that keeps the bitstring, so the order search
visits one order per arrangement of twins.

`_classes` is the one level loop: it enumerates edge sets level by level
(by edge count), deduplicating each level by the rooted canonical form
and optionally pruning by a monotone property.  Each graph of a level
keeps its bitmasks; a candidate is a parent's masks with one more edge,
and it becomes a `Graph` only when its key is new.  Twins of the parent
with the same terminal status are swapped by an automorphism, so only
the first candidate joining each pair of twin classes is keyed: the
others would have been duplicates.  Neither twin argument changes a key,
a representative or the order in which they are found.

The loop feeds the disc-planar terminal-graph stream (disc-planarity is
monotone under edge deletion, so a non-disc-planar graph never recovers
by adding edges) and the unrooted small-graph classes.
`terminal_set_classes` is the one rooted dedup of a graph's terminal
sets.
"""

from __future__ import annotations

import random
from itertools import chain, combinations, permutations, product
from typing import Iterable, Iterator

from wheelkit.errors import InputDomainError, ResourceLimitError
from wheelkit.graph import Graph, Vertex, add, remove
from wheelkit.kernels import index_graph
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

    g is indexed once by `kernels.index_graph` and keyed by
    `_canon_masks`.  Colour refinement first: each vertex starts as (not
    a terminal, degree), and each round recolours it by its colour and
    the sorted colours of its neighbours, relabelled by rank, until the
    number of cells stops growing.  The key is (terminal count, n, bits),
    with bits the smallest upper-triangle adjacency bitstring (bit
    i * n + j for an edge between positions i < j) over the vertex orders
    that take the cells in colour order and permute only inside them.
    Terminals come first, so the key fixes the terminal set.  The graphs
    here are small enough to need no individualisation search.

    Two vertices of one cell are twins when N(v) - w = N(w) - v.
    Swapping them is an automorphism that keeps every cell, so it leaves
    the bitstring unchanged: the search visits one order per arrangement
    of twins, and a partition into single vertices gives its one
    bitstring directly.  Neither shortcut changes the key.

    Raises InputDomainError for a terminal that is not a vertex of g.
    """
    idx, adj = index_graph(g)
    return _canon_masks(g.n, adj, _terminal_mask(idx, terminals))


def _terminal_mask(idx: dict[Vertex, int], terminals: Iterable[Vertex]) -> int:
    """The bitmask of the terminals' indices."""
    tmask = 0
    for t in terminals:
        if t not in idx:
            raise InputDomainError(f"terminal {t!r} not in graph")
        tmask |= 1 << idx[t]
    return tmask


def _canon_masks(n: int, adj: list[int], tmask: int) -> tuple:
    """`canonical_form` of the graph on vertices 0..n-1 with adjacency
    bitmasks `adj` and terminal bitmask `tmask`."""
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
    parts: list[list[int]] = [[] for _ in range(cells)]
    for v in range(n):
        parts[colour[v]].append(v)
    key = (tmask.bit_count(), n)
    if cells == n:
        return key + (_bitstring(n, nbrs, [p[0] for p in parts]),)
    twin = _twin_classes(n, adj, tmask)
    best = None
    for order in product(*[_arrangements(p, twin) for p in parts]):
        bits = _bitstring(n, nbrs, list(chain.from_iterable(order)))
        if best is None or bits < best:
            best = bits
    return key + (best,)


def _bitstring(n: int, nbrs: list[list[int]], order: list[int]) -> int:
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


def _arrangements(cell: list[int], twin: list[int]) -> list:
    """The orders of one cell up to swapping twins: each twin class keeps
    its members in index order, and only the classes' interleaving
    varies.  Twins with the same terminal status always share a cell,
    since refinement respects automorphisms."""
    if len(cell) == 1:
        return [cell]
    by_class: dict[int, list[int]] = {}
    for v in cell:
        by_class.setdefault(twin[v], []).append(v)
    classes = list(by_class.values())
    if len(classes) == 1:
        return [cell]
    if len(classes) == len(cell):
        return list(permutations(cell))
    out = []
    taken = [0] * len(classes)
    order: list[int] = []

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


def _twin_classes(n: int, adj: list[int], tmask: int) -> list[int]:
    """For each vertex the least vertex with the same terminal status that
    is its twin (N(v) - w = N(w) - v), which names its twin class."""
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


def rooted_canonical_form(tg: TerminalGraph) -> tuple:
    """The canonical form of tg's graph rooted at its terminal set."""
    return canonical_form(tg.graph, tg.terminals)


def _classes(names, terminals, pairs, keep=None) -> Iterator[dict[tuple, TerminalGraph]]:
    """The graphs on `names` with edges from `pairs`, one per rooted
    isomorphism class: one dict per edge count, from the edgeless graph
    up, mapping the canonical form to the first graph found with it.

    A candidate failing `keep` is dropped together with every supergraph,
    so `keep` must be monotone under edge deletion.  Its key is remembered
    for the level, so `keep` sees each class at most once.

    Each graph of a level keeps its adjacency bitmasks (vertex i is
    names[i]); a candidate is a parent's masks with one more edge, keyed
    by `_canon_masks`, and becomes a `TerminalGraph` only when its key is
    new.  Twins of the parent with the same terminal status can be
    swapped by an automorphism that keeps `pairs` (whether a pair is in
    it must depend only on its ends' terminal status), so every candidate
    joining the same two twin classes is isomorphic to the first one in
    `pairs` order, and only that one is keyed.  The later ones would have
    been duplicates, so the levels are those of keying every candidate.
    """
    index = {v: i for i, v in enumerate(names)}
    n = len(names)
    tmask = _terminal_mask(index, terminals)
    pairs = [(index[a], index[b], a, b) for a, b in pairs]
    empty = [0] * n
    key = _canon_masks(n, empty, tmask)
    level = {key: TerminalGraph(Graph(names, ()), terminals, ordered=False)}
    masks = {key: empty}
    while level:
        yield level
        nxt: dict[tuple, TerminalGraph] = {}
        nxt_masks: dict[tuple, list[int]] = {}
        dead: set[tuple] = set()
        for key, tg in level.items():
            adj = masks[key]
            twin = _twin_classes(n, adj, tmask)
            tried = set()
            for i, j, a, b in pairs:
                if adj[i] >> j & 1:
                    continue
                ci, cj = twin[i], twin[j]
                classes = (ci, cj) if ci < cj else (cj, ci)
                if classes in tried:
                    continue
                tried.add(classes)
                bigger_adj = adj.copy()
                bigger_adj[i] |= 1 << j
                bigger_adj[j] |= 1 << i
                bigger_key = _canon_masks(n, bigger_adj, tmask)
                if bigger_key in nxt or bigger_key in dead:
                    continue
                bigger = TerminalGraph(add(tg.graph, (), [(a, b)]), terminals, ordered=False)
                if keep is not None and not keep(bigger):
                    dead.add(bigger_key)  # monotone: no supergraph recovers
                    continue
                nxt[bigger_key] = bigger
                nxt_masks[bigger_key] = bigger_adj
        level, masks = nxt, nxt_masks


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
    idx, adj = index_graph(g)
    first: dict[tuple, tuple[Vertex, ...]] = {}
    for ts in combinations(g.vertices, size):
        first.setdefault(_canon_masks(g.n, adj, _terminal_mask(idx, ts)), ts)
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
    edges = [(names[0], names[1]), (names[1], names[2]), (names[0], names[2])]
    faces = [(names[0], names[1], names[2])]
    for v in names[3:]:
        a, b, c = faces.pop(rng.randrange(len(faces)))
        edges += [(v, a), (v, b), (v, c)]
        faces += [(a, b, v), (b, c, v), (a, c, v)]
    g = Graph(names, edges)
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
