"""Instance generation: the isomorph-free class enumerators, seeded random
planar graphs, and wheel-plus-crossing hosts.

`canonical_form` is the package's one isomorphism test: the enumerators
and the catalog's rooted isomorphism all compare its keys.  It works on
per-vertex adjacency bitmasks: a graph is indexed once by
`kernels.index_graph`, and `_canon_masks` refines colours, then reads
the least adjacency bitstring over the vertex orders inside the cells.
Twins (same terminal status, N(v) - w = N(w) - v) have equal open or
equal closed neighbourhoods, so `_twin_classes` finds them in one
grouping pass.  When every refined cell is one twin class, every order
gives the same bitstring and the key is read off directly.  Otherwise a
search cuts an order whose rows placed so far exceed the best
bitstring's, places one member per twin class, and raises
`ResourceLimitError` past `MAX_SEARCH_NODES` searched nodes, which no
graph with at most 9 vertices reaches; a key read off directly spends
none.

`_classes` is the one level loop, on vertex indices and bitmasks only.
It enumerates edge sets level by level (by edge count), deduplicating
each level by the rooted canonical form and optionally pruning by a
monotone property `keep(adj, tmask)`, and yields each level as one dict
from key to adjacency bitmasks.  It keys each labelled candidate once,
and one candidate per pair of twin classes of its parent.  Vertex names
come in only at emission, where `_from_masks` builds each emitted class
as a `Graph` once.

The loop feeds the disc-planar terminal-graph stream (disc-planarity is
monotone under edge deletion, so a non-disc-planar graph never recovers
by adding edges; the stream's `keep` is `planarity._disc_planar_masks`)
and the unrooted small-graph classes.
`terminal_set_classes` is the one rooted dedup of a graph's terminal
sets.
"""

from __future__ import annotations

import random
from itertools import combinations
from typing import Iterable, Iterator

from wheelkit.errors import InputDomainError, ResourceLimitError
from wheelkit.graph import Graph, Vertex, add, remove
from wheelkit.kernels import _bits, index_graph
from wheelkit.planarity import TerminalGraph, _disc_planar_masks
from wheelkit.wheels import Wheel

DEFAULT_GENERATION_LIMIT = 9

MAX_SEARCH_NODES = 1_000_000

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
    number of cells stops growing or equals the number of twin classes.
    Two vertices are twins when they have the same terminal status and
    N(v) - w = N(w) - v; swapping them is an automorphism, so they share
    a cell and the bitstring below.  The key is (terminal count, n,
    bits), with bits the smallest upper-triangle adjacency bitstring (bit
    i * n + j for an edge between positions i < j) over the vertex orders
    that take the cells in colour order and permute only inside them.
    Terminals come first, so the key fixes the terminal set.

    Non-adjacent twins have N(v) = N(w) and adjacent ones N[v] = N[w].
    No vertex v has one of each: a twin x with N[x] = N[v] is in N(v),
    so a twin w with N(w) = N(v) is adjacent to x, hence in N[x] = N[v],
    but w is neither v nor adjacent to it.  So the twin classes are the
    groups of equal (terminal bit, N(v)) and of equal (terminal bit,
    N[v]), found in one pass.

    When every cell is one twin class, the key is read off directly: the
    vertices are placed cell by cell, in any order inside a cell.  Every
    permutation of a twin class is a product of swaps of twins, each an
    automorphism, so every order the search below could try gives this
    bitstring.

    Otherwise the search fills positions from the last one down, trying
    one member per twin class at each.  Placing a vertex at position i
    completes row i, and rows i and up are the most significant bits, so
    a branch whose rows i and up exceed the best bitstring's is cut; ties
    are kept.  Neither cut changes the key.  Each vertex tried is one
    node, and past `MAX_SEARCH_NODES` the search raises
    ResourceLimitError; a key read off directly counts no node.  One
    uncut cell of 9 vertices tries floor(e * 9!) - 1 = 986,409 nodes, so
    every graph with at most 9 vertices keys under any labelling.  Above
    that, hitting the budget can depend on the labelling: C10, C12, the
    Petersen graph and the icosahedron key in well under a second, and
    the dodecahedron, Q4 and C16 raise.  A returned key is never wrong.

    Raises InputDomainError for a terminal that is not a vertex of g or
    is repeated.
    """
    idx, adj = index_graph(g)
    return _canon_masks(g.n, adj, _terminal_mask(idx, terminals))


def _terminal_mask(idx: dict[Vertex, int], terminals: Iterable[Vertex]) -> int:
    """The bitmask of the terminals' indices."""
    tmask = 0
    for t in terminals:
        if t not in idx:
            raise InputDomainError(f"terminal {t!r} not in graph")
        if tmask >> idx[t] & 1:
            raise InputDomainError(f"terminal {t!r} repeated")
        tmask |= 1 << idx[t]
    return tmask


def _canon_masks(n: int, adj: list[int], tmask: int) -> tuple:
    """`canonical_form` of the graph on vertices 0..n-1 with adjacency
    bitmasks `adj` and terminal bitmask `tmask`."""
    nbrs = []
    for a in adj:
        row = []
        while a:
            b = a & -a
            row.append(b.bit_length() - 1)
            a ^= b
        nbrs.append(row)
    # twins share a cell, so a cell per twin class refines no further
    twin = _twin_classes(n, adj, tmask)
    finest = len(set(twin))
    colour = [(not tmask >> v & 1, len(nbrs[v])) for v in range(n)]
    cells = 0
    while True:
        rank = {c: i for i, c in enumerate(sorted(set(colour)))}
        colour = [rank[c] for c in colour]
        if len(rank) == cells:
            break
        cells = len(rank)
        if cells == finest:
            break
        colour = [(c, tuple(sorted([colour[u] for u in nbrs[v]]))) for v, c in enumerate(colour)]
    if cells == finest:
        # each cell is one twin class: every order the search could try
        # gives this bitstring
        pos = [0] * n
        for i, v in enumerate(sorted(range(n), key=colour.__getitem__)):
            pos[v] = i
        bits = 0
        for v in range(n):
            i = pos[v]
            shift = i * n
            for u in nbrs[v]:
                j = pos[u]
                if j > i:
                    bits |= 1 << (shift + j)
        return (tmask.bit_count(), n, bits)
    # position i draws from the twin classes of the i-th cell, as stacks
    members = [[v] for v in range(n)]
    classes: list[list[list[int]]] = [[] for _ in range(cells)]
    for v in range(n):
        if twin[v] == v:
            classes[colour[v]].append(members[v])
        else:
            members[twin[v]].append(v)
    stacks = [classes[c] for c in sorted(colour)]
    pos = [-1] * n
    best = 1 << n * n  # above every bitstring
    nodes = 0

    def place(i: int, bits: int) -> None:
        """Fill positions i down to 0; `bits` holds rows i + 1 and up."""
        nonlocal best, nodes
        if i < 0:
            best = bits
            return
        shift = i * n
        for stack in stacks[i]:
            if not stack:
                continue
            nodes += 1
            if nodes > MAX_SEARCH_NODES:
                raise ResourceLimitError(f"canonical form search passed {MAX_SEARCH_NODES} nodes")
            v = stack.pop()
            row = bits
            for u in nbrs[v]:
                j = pos[u]
                if j > i:
                    row |= 1 << (shift + j)
            if row >> shift <= best >> shift:
                pos[v] = i
                place(i - 1, row)
                pos[v] = -1
            stack.append(v)

    place(n - 1, 0)
    return (tmask.bit_count(), n, best)


def _twin_classes(n: int, adj: list[int], tmask: int) -> list[int]:
    """For each vertex the least vertex with the same terminal status that
    is its twin (N(v) - w = N(w) - v), which names its twin class: the
    first vertex with its (terminal bit, N(v)) or (terminal bit, N[v])
    (see `canonical_form`)."""
    first: dict[int, int] = {}
    rep = []
    for v in range(n):
        # (N(v), terminal bit) and (N[v], terminal bit) as one int each;
        # N(u) = N[w] never holds, so the two kinds share one dict
        key = adj[v] << 1 | tmask >> v & 1
        w = first.setdefault(key, v)
        if w == v:
            w = first.setdefault(key | 2 << v, v)
        rep.append(w)
    return rep


def rooted_canonical_form(tg: TerminalGraph) -> tuple:
    """The canonical form of tg's graph rooted at its terminal set."""
    return canonical_form(tg.graph, tg.terminals)


def _classes(n: int, tmask: int, pairs, keep=None) -> Iterator[dict[tuple, list[int]]]:
    """The graphs on the vertices 0..n-1 with terminal bitmask `tmask`
    and edges from the index pairs i < j of `pairs`, one per rooted
    isomorphism class: one dict per edge count, from the edgeless graph
    up, mapping the canonical form to the adjacency bitmasks (not to be
    changed) of the first graph found with it.

    `keep(adj, tmask)` decides a candidate on its bitmasks and must leave
    `adj` as it is.  A candidate failing it is dropped with every
    supergraph, so `keep` must be monotone under edge deletion and must
    not depend on the labelling.  Its failing key is remembered for the
    level, so `keep` sees each class at most once.

    A labelled edge set is one int, with bit i * n + j for the edge
    between i < j; a candidate is a parent's masks and edge set plus one
    edge.  A labelled candidate reached from several parents is keyed by
    `_canon_masks` the first time only: its key is then already in the
    level or dead.  Twins of the parent with the same terminal status
    are swapped by an automorphism that keeps `pairs` (whether a pair is
    in it must depend only on its ends' terminal status), so of the
    candidates joining the same two twin classes only the first in
    `pairs` order is keyed.  The others would have been duplicates, so
    the levels are those of keying every candidate.
    """
    pairs = [(i, j, 1 << (i * n + j)) for i, j in pairs]
    empty = [0] * n
    level = {_canon_masks(n, empty, tmask): empty}
    while level:
        yield level
        nxt: dict[tuple, list[int]] = {}
        dead: set[tuple] = set()
        met: set[int] = set()  # labelled edge sets keyed in this level
        for adj in level.values():
            edges = sum((a >> v + 1) << v * n + v + 1 for v, a in enumerate(adj))
            twin = _twin_classes(n, adj, tmask)
            tried = set()
            for i, j, bit in pairs:
                if adj[i] >> j & 1:
                    continue
                ci, cj = twin[i], twin[j]
                classes = (ci, cj) if ci < cj else (cj, ci)
                if classes in tried:
                    continue
                tried.add(classes)
                bigger_edges = edges | bit
                if bigger_edges in met:
                    continue
                met.add(bigger_edges)
                bigger = adj.copy()
                bigger[i] |= 1 << j
                bigger[j] |= 1 << i
                key = _canon_masks(n, bigger, tmask)
                if key in nxt or key in dead:
                    continue
                if keep is not None and not keep(bigger, tmask):
                    dead.add(key)  # monotone: no supergraph recovers
                    continue
                nxt[key] = bigger
        level = nxt


def _from_masks(names: tuple[Vertex, ...], adj: list[int]) -> Graph:
    """The graph with vertex names[i] for index i and adjacency bitmasks
    `adj`; with `names` in vkey order the edges are read in edge order."""
    edges = [(names[i], names[j]) for i, a in enumerate(adj) for j in _bits(a & -(2 << i))]
    return Graph._from_canonical(names, edges)


def small_graph_classes(n_max: int) -> list[Graph]:
    """One representative per isomorphism class, all graphs up to n_max
    vertices, by vertex count, then edge count, then order of discovery."""
    out = []
    for n in range(1, n_max + 1):
        # "0" .. "n-1" are in vkey order, as `_from_masks` needs
        names = tuple(str(i) for i in range(n))
        for level in _classes(n, 0, list(combinations(range(n), 2))):
            out.extend(_from_masks(names, adj) for adj in level.values())
    return out


def terminal_set_classes(g: Graph, size: int) -> list[tuple[Vertex, ...]]:
    """The terminal sets of g with `size` vertices, one per rooted
    isomorphism class: the first of each class in `combinations` order.
    Raises InputDomainError for a negative size."""
    if size < 0:
        raise InputDomainError(f"terminal set size must be non-negative, got {size}")
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
        # n <= 9, so t1 .. t9 then u1 .. u8 are in vkey order, as
        # `_from_masks` needs; the terminals are the first s_size indices
        names = ts + tuple(f"u{i}" for i in range(1, n - s_size + 1))
        pairs = [(i, j) for i, j in combinations(range(n), 2) if not (independent and j < s_size)]
        for level in _classes(n, (1 << s_size) - 1, pairs, keep=_disc_planar_masks):
            # the level's graphs are built before the first is yielded, as the level
            # is, so the time between emissions (gen-stream's instances) is the loop's
            yield from [
                TerminalGraph(_from_masks(names, level[key]), ts, ordered=False) for key in sorted(level)
            ]


# -- random graphs -------------------------------------------------------------


def random_graph(names: int | Iterable[Vertex], p: float, rng: random.Random) -> Graph:
    """A seeded G(n, p) on `names`, or on the ids 0..n-1 when given a
    count n: one `rng.random()` per pair in `combinations` order, an edge
    when it falls below p.  Raises InputDomainError for a negative count
    or a p outside [0, 1]."""
    if isinstance(names, int) and names < 0:
        raise InputDomainError(f"vertex count must be non-negative, got {names}")
    if not 0 <= p <= 1:
        raise InputDomainError(f"p must be in [0, 1], got {p}")
    names = [str(i) for i in range(names)] if isinstance(names, int) else list(names)
    return Graph(names, [e for e in combinations(names, 2) if rng.random() < p])


def random_planar_graph(n: int, rng: random.Random, *, keep_fraction: float = 0.8) -> Graph:
    """A seeded random planar graph: grow a stacked triangulation, then
    delete a random fraction of its edges: `keep_fraction` of them, in
    [0, 1], stay.  Raises InputDomainError for fewer than 3 vertices or a
    fraction outside [0, 1]."""
    if n < 3:
        raise InputDomainError("need at least 3 vertices")
    if not 0 <= keep_fraction <= 1:
        raise InputDomainError(f"keep_fraction must be in [0, 1], got {keep_fraction}")
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
