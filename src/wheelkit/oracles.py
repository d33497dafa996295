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

How the three largest spaces are represented changes their cost, not
their answers or witnesses:

- colourings come from `itertools.product` with the first colour fixed
  at 1, in lexicographic order;
- separations index the vertices and edges as bitmasks, and their sides
  and cut-internal edge splits are submasks;
- path systems index the graph once per call (the K5 oracle once for
  all its 5-sets), walk each pair's simple paths over neighbour
  positions, and hold each path's interior as a vertex bitmask, so two
  paths conflict when their interiors share a bit; a pair's paths are
  listed the first time the search reaches that pair;
- rotation systems index each component's vertices once and encode the
  dart (a, b) as the int a*n + b; a system is one successor list from
  dart to dart, rewritten in place vertex by vertex, and its faces are
  traced as vertex bitmasks, turned into vertex sets once per component.

None of them prunes: each judges only complete candidates (a colouring,
a side pair with its edge split, a path system, a rotation system), and
each walks every candidate the filter could accept until it settles the
answer.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, compress, permutations, product

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

    The edges are indexed to vertex positions once.  `product` with the
    single choice (1,) in front yields the assignments in that order
    without building one tuple per tail.  They are tried in turn, with no
    pruning, since a partial assignment is never judged; each is rejected
    at its first edge whose ends share a color.
    """
    vs = g.vertices
    if not vs:
        return {}
    pos = {v: i for i, v in enumerate(vs)}
    pairs = [(pos[u], pos[v]) for u, v in g.edges]
    for combo in product((1,), *[COLORS] * (len(vs) - 1)):
        for i, j in pairs:
            if combo[i] == combo[j]:
                break
        else:
            return dict(zip(vs, combo))
    return None


def brute_disjoint_paths(g: Graph, pairs, forbidden=()) -> tuple[tuple[Vertex, ...], ...] | None:
    """The first system of internally disjoint paths, one per pair in
    order, whose interiors avoid `forbidden` and every pair's ends.

    Pair i's paths come from `_paths`' walk, in its order, and `_link`
    tries them depth first: path 0 of pair 0, then every fitting path of
    pair 1, and so on.  A pair whose ends are equal, or an end that is
    not a vertex of `g`, raises `InputDomainError`, whether or not its
    pair is reached; forbidden ids outside `g` are ignored.
    """
    pairs = [tuple(p) for p in pairs]
    _check_ends(g, pairs)
    vs, pos, nbrs = _indexed(g)
    banned = _mask(pos, forbidden) | _mask(pos, (x for p in pairs for x in p))
    got = _link(nbrs, [(pos[s], pos[t]) for s, t in pairs], banned)
    return None if got is None else tuple(tuple(vs[x] for x in p) for p in got)


def brute_k5_subdivision(g: Graph) -> bool:
    """All 5-subsets (no degree pruning) x all path systems: `_link` asks
    for the ten pairs of each 5-set, with its five vertices banned from
    every interior."""
    _, _, nbrs = _indexed(g)
    for combo in combinations(range(g.n), 5):
        pairs = list(combinations(combo, 2))
        if _link(nbrs, pairs, sum(1 << i for i in combo)) is not None:
            return True
    return False


def _check_ends(g: Graph, pairs: list) -> None:
    """Refuse a pair with equal ends and an end that is not a vertex."""
    for s, t in pairs:
        if s == t:
            raise InputDomainError("pair endpoints must be distinct")
    unknown = {x for p in pairs for x in p if not g.has_vertex(x)}
    if unknown:
        raise InputDomainError(f"unknown vertex ids: {sorted(unknown, key=vkey)}")


def _indexed(g: Graph) -> tuple[tuple[Vertex, ...], dict[Vertex, int], list[list[int]]]:
    """The vertices, each one's position in `g.vertices`, and each one's
    neighbours as positions in `g.neighbors` order."""
    vs = g.vertices
    pos = {v: i for i, v in enumerate(vs)}
    return vs, pos, [[pos[w] for w in g.neighbors(v)] for v in vs]


def _mask(pos: dict[Vertex, int], ids) -> int:
    """The bitmask of the positions of those `ids` that `pos` holds."""
    mask = 0
    for x in ids:
        if x in pos:
            mask |= 1 << pos[x]
    return mask


def _paths(nbrs: list[list[int]], s: int, t: int, banned: int):
    """Every simple s-t path whose interior avoids the bitmask `banned`,
    as (its positions, the bitmask of its interior), depth first with the
    neighbours in `nbrs` order.  t ends a path wherever it is met, even
    when banned."""
    path = [s]
    blocked = used = banned | 1 << s
    stack = [iter(nbrs[s])]
    while stack:
        for w in stack[-1]:
            if w == t:
                yield (*path, t), used ^ blocked
            elif not used >> w & 1:
                path.append(w)
                used |= 1 << w
                stack.append(iter(nbrs[w]))
                break
        else:
            stack.pop()
            used ^= 1 << path.pop()


def _link(nbrs: list[list[int]], pairs: list[tuple[int, int]], banned: int) -> list | None:
    """The first system of paths, one per pair in order, with pairwise
    disjoint interiors that avoid `banned`, or None.

    Depth first over each pair's `_paths` in order.  A pair's list is
    built the first time the search reaches that pair; if an early pair
    cannot be linked, the later lists are never built.  That skips no
    system that could be returned, so nothing is pruned.
    """
    lists: list = [None] * len(pairs)

    def pick(i: int, used: int) -> list | None:
        if i == len(pairs):
            return []
        if lists[i] is None:
            lists[i] = list(_paths(nbrs, *pairs[i], banned))
        for p, inside in lists[i]:
            if not inside & used:
                rest = pick(i + 1, used | inside)
                if rest is not None:
                    return [p, *rest]
        return None

    return pick(0, 0)


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

    Vertex i of `g.vertices` is bit i of a vertex mask and edge j of
    `g.edges` is bit j of an edge mask.  The sides A are the submasks of
    the non-cut vertices that hold the lowest one, and the C-internal
    edges that go to A's side are the submasks of the inner-edge mask.
    Every such submask is walked; an A with an edge to B is dropped by
    the filter, not skipped.  Each side's vertex and edge sets are built
    from their masks once per call, so equal sides share one frozenset.
    """
    vs, es = g.vertices, g.edges
    bits = [1 << i for i in range(len(vs))]
    pos = dict(zip(vs, bits))
    emasks = [(1 << j, pos[u] | pos[v]) for j, (u, v) in enumerate(es)]
    every = sum(bits)
    vsets, esets = _Members(vs), _Members(es)
    out = set()
    for cut in combinations(bits, k):
        cmask = sum(cut)
        rest = every ^ cmask
        inner = 0
        outer = []
        for ebit, em in emasks:
            if em & rest:
                outer.append((ebit, em))
            else:
                inner |= ebit
        if rest:
            low, first_edge = rest & -rest, 0
        elif inner:
            low, first_edge = 0, inner & -inner
        else:
            continue
        free = rest ^ low
        splits = inner ^ first_edge
        sub = free
        while True:
            a = sub | low
            b = rest ^ a
            ea = eb = 0
            for ebit, em in outer:
                if not em & b:
                    ea |= ebit
                elif not em & a:
                    eb |= ebit
                else:
                    break  # an edge joins A and B
            else:
                va, vb = vsets[a | cmask], vsets[b | cmask]
                ea |= first_edge
                eb |= splits
                s = splits
                while True:
                    # A is never empty: it holds the lowest non-cut vertex
                    # or, when there is none, the first C-internal edge.
                    fb = eb ^ s
                    if b or fb:
                        out.add(frozenset(((va, esets[ea | s]), (vb, esets[fb]))))
                    if not s:
                        break
                    s = (s - 1) & splits
            if not sub:
                break
            sub = (sub - 1) & free
    return out


# The bits of each byte value as 8 booleans, lowest bit first.
_BYTE_BITS = tuple(tuple(bool(b >> i & 1) for i in range(8)) for b in range(256))


class _Members(dict):
    """mask -> the frozenset of the items at its set bits (bit i for
    `items[i]`), built on first lookup."""

    def __init__(self, items: tuple):
        super().__init__()
        self._items = items
        self._shifts = range(0, len(items), 8)

    def __missing__(self, mask: int) -> frozenset:
        picks = ()
        for shift in self._shifts:
            picks += _BYTE_BITS[mask >> shift & 255]
        got = self[mask] = frozenset(compress(self._items, picks))
        return got


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
        # Vertex i of sub.vertices (in vkey order) is index i, and the dart
        # (a, b) is the int a*n + b.  A rotation at b is stored as the row
        # that maps each incoming dart (a, b), at index a, to the outgoing
        # dart (b, c), where c follows a around b.  Reversing every
        # rotation reverses every face walk, so at the first vertex of
        # degree >= 3 only (first,) + p with p[0] < p[-1] is kept: exactly
        # one system of each mirror pair.
        vs = sub.vertices
        n = len(vs)
        pos = {v: i for i, v in enumerate(vs)}
        rows = []
        darts = set()
        mirrored = False
        for b, v in enumerate(vs):
            ns = [pos[u] for u in sub.neighbors(v)]
            darts.update(a * n + b for a in ns)
            if len(ns) <= 2:
                rots = [ns]
            else:
                perms = permutations(ns[1:])
                if not mirrored:
                    perms = [p for p in perms if p[0] < p[-1]]
                    mirrored = True
                rots = [[ns[0], *p] for p in perms]
            rows.append([_successor_row(r, b, n) for r in rots])
        tail_bit = [1 << (d // n) for d in range(n * n)]
        target_faces = 2 - sub.n + sub.m  # Euler, connected
        found = set()
        for nxt in _systems(rows, n):
            faces = _trace(nxt, darts, tail_bit)
            if len(faces) == target_faces:
                found.update(faces)
        members = _Members(vs)
        out.append((comp, frozenset(members[f] for f in found) if found else None))
    return tuple(out)


def _successor_row(rotation: list[int], b: int, n: int) -> list[int]:
    """Index a of the row holds the dart (b, c), where c follows a in the
    rotation at b; indices of non-neighbours hold 0 and are never read."""
    row = [0] * n
    for a, c in zip(rotation, rotation[1:] + rotation[:1]):
        row[a] = b * n + c
    return row


def _systems(rows: list[list[list[int]]], n: int):
    """Every choice of one row per vertex, in `product` order (the last
    vertex turns fastest), each as the successor list of its rotation
    system: nxt[a*n + b] is the dart after (a, b) on its face.

    The same list is yielded every time, rewritten in place: choosing row
    r at vertex b sets nxt[b::n] = r, the darts into b, so a step rewrites
    only the vertices whose choice changed.
    """
    nxt = [0] * (n * n)
    for b, choices in enumerate(rows):
        nxt[b::n] = choices[0]
    turning = [b for b, choices in enumerate(rows) if len(choices) > 1]
    at = [0] * n
    while True:
        yield nxt
        for b in reversed(turning):
            at[b] += 1
            if at[b] < len(rows[b]):
                nxt[b::n] = rows[b][at[b]]
                break
            at[b] = 0
            nxt[b::n] = rows[b][0]
        else:
            return


def _trace(nxt: list[int], darts: set[int], tail_bit: list[int]) -> list[int]:
    """The faces of the rotation system whose successor list is `nxt` (see
    `_systems`), each as the bitmask of the vertices its walk passes:
    `tail_bit[d]` is the bit of dart d's tail, and `darts` holds every
    dart.  A face is walked from whichever of its darts is left first."""
    left = set(darts)
    faces = []
    while left:
        d = left.pop()
        face = tail_bit[d]
        d = nxt[d]
        while d in left:
            left.remove(d)
            face |= tail_bit[d]
            d = nxt[d]
        faces.append(face)
    return faces
