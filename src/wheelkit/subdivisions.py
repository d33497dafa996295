"""Exact K5-subdivision detection, disjoint-path search, and the
wheel-plus-crossing-paths construction.

Every witness returned by this module passes `validate_path_system`,
the one check of a linkage: simple paths along edges of the graph, with
pairwise disjoint interiors that avoid every endpoint.  A K5 witness is
the linkage of its ten branch pairs (`validate_subdivision`), checked
independently of how it was found.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from wheelkit import kernels
from wheelkit.errors import (
    ConstructionError,
    InputDomainError,
    PreconditionError,
    ResourceLimitError,
)
from wheelkit.graph import Graph, Vertex, norm_edge, vkey
from wheelkit.wheels import Wheel, is_wheel

DEFAULT_SEARCH_LIMIT = 12

K5_PAIRS = tuple(combinations(range(5), 2))


@dataclass(frozen=True)
class PathSystem:
    """Vertex-disjoint paths, one per requested terminal pair.

    Paths may share a vertex only where their pairs share an endpoint.
    """

    pairs: tuple[tuple[Vertex, Vertex], ...]
    paths: tuple[tuple[Vertex, ...], ...]

    def __post_init__(self):
        if len(self.pairs) != len(self.paths):
            raise InputDomainError("one path per pair required")
        for (s, t), p in zip(self.pairs, self.paths):
            if not p or p[0] != s or p[-1] != t:
                raise InputDomainError(f"path {p!r} does not join pair ({s!r},{t!r})")


@dataclass(frozen=True)
class Subdivision:
    """Five branch vertices plus ten internally disjoint connecting paths.

    `branch[i]` is the image of the i-th node of the complete graph on
    five nodes; `paths` is keyed by the ten node pairs (i, j), i < j.
    """

    branch: tuple[Vertex, Vertex, Vertex, Vertex, Vertex]
    paths: tuple[tuple[Vertex, ...], ...]  # ordered as K5_PAIRS

    def __post_init__(self):
        if len(set(self.branch)) != 5:
            raise InputDomainError("branch map must be injective on 5 nodes")
        if len(self.paths) != 10:
            raise InputDomainError("a K5-subdivision has exactly 10 paths")

    def edge_set(self) -> frozenset:
        out = set()
        for p in self.paths:
            out.update(norm_edge(p[k], p[k + 1]) for k in range(len(p) - 1))
        return frozenset(out)


def validate_path_system(g: Graph, ps: PathSystem, forbidden=frozenset()) -> None:
    """Raise ConstructionError unless ps is a genuine disjoint linkage in g.

    Paths must be simple, exist edge-by-edge in g, keep their interiors
    away from `forbidden` and from every pair endpoint, and have pairwise
    disjoint interiors.  Endpoints coincide only where the pairs do.
    """
    endpoints = {x for pair in ps.pairs for x in pair}
    interiors: dict[Vertex, int] = {}
    for i, p in enumerate(ps.paths):
        if len(set(p)) != len(p):
            raise ConstructionError(f"path {i} repeats a vertex")
        for a, b in zip(p, p[1:]):
            if not g.has_edge(a, b):
                raise ConstructionError(f"path {i} uses missing edge ({a!r},{b!r})")
        for v in p[1:-1]:
            if v in forbidden:
                raise ConstructionError(f"path {i} enters forbidden vertex {v!r}")
            if v in endpoints:
                raise ConstructionError(f"path {i} passes through endpoint {v!r}")
            if v in interiors:
                raise ConstructionError(
                    f"paths {interiors[v]} and {i} share interior vertex {v!r}"
                )
            interiors[v] = i


def validate_subdivision(g: Graph, sub: Subdivision) -> None:
    """Raise ConstructionError unless sub is a valid K5-subdivision in g:
    each path joins its two branch vertices, and the ten paths form a
    linkage of the branch pairs (`validate_path_system`)."""
    pairs = tuple((sub.branch[i], sub.branch[j]) for i, j in K5_PAIRS)
    for (i, j), (s, t), p in zip(K5_PAIRS, pairs, sub.paths):
        if p[0] != s or p[-1] != t:
            raise ConstructionError(f"path for pair {(i, j)} joins wrong vertices")
    validate_path_system(g, PathSystem(pairs, sub.paths))


# -- search ------------------------------------------------------------------


def find_disjoint_paths(
    g: Graph,
    pairs,
    forbidden=(),
    *,
    limit: int = DEFAULT_SEARCH_LIMIT,
) -> PathSystem | None:
    """Complete search for a vertex-disjoint linkage of the given pairs.

    Interiors additionally avoid `forbidden`.  The search is exhaustive
    and exact; None means no linkage exists.  Pairs are routed in the
    given order, and the returned system lists one path per pair in that
    order.
    """
    pairs = [tuple(p) for p in pairs]
    fset = set(forbidden)
    if g.n > limit:
        raise ResourceLimitError(f"linkage search capped at {limit} vertices, got {g.n}")
    idx, adj = kernels.index_graph(g)
    for s, t in pairs:
        if s == t:
            raise InputDomainError("pair endpoints must be distinct")
        for x in (s, t):
            if not g.has_vertex(x):
                raise InputDomainError(f"unknown vertex {x!r}")
            if x in fset:
                raise InputDomainError(f"endpoint {x!r} is forbidden")
    for x in fset:
        if not g.has_vertex(x):
            raise InputDomainError(f"unknown forbidden vertex {x!r}")

    ipairs = [(idx[s], idx[t]) for s, t in pairs]
    fmask = 0
    for x in fset:
        fmask |= 1 << idx[x]

    found = kernels.linkage_masks(g.n, adj, ipairs, fmask)
    if found is None:
        return None
    names = g.vertices
    ps = PathSystem(tuple(pairs), tuple(tuple(names[x] for x in p) for p in found))
    validate_path_system(g, ps, frozenset(fset))
    return ps


def find_k5_subdivision(g: Graph, *, limit: int = DEFAULT_SEARCH_LIMIT) -> Subdivision | None:
    """Complete exact search for a K5-subdivision.

    Branch candidates are the vertices of degree >= 4 (forced by the
    definition).  Three screens run before any linkage search, cheapest
    first:
    - fewer than 5 candidates or fewer than 10 edges: no K5-subdivision;
    - `kernels.width_at_most_3`: a graph it certifies has treewidth at
      most 3 and no K5-subdivision, so the search returns None at once;
    - the Menger screen: a K5-subdivision joins two branch vertices by
      their own path and one through each other branch vertex, so a pair
      of candidates that no 4 internally disjoint paths join lies in no
      branch set.
    The width screen proves what the Menger screen would conclude.  In a
    graph of treewidth at most 3, two vertices that share no bag are
    separated by an adhesion set of at most 3 vertices that holds
    neither; subtrees of the decomposition that meet pairwise share a bag
    (the Helly property), and a bag holds at most 4 vertices.  So no 5
    vertices are pairwise joined by 4 internally disjoint paths, and the
    Menger screen would reject every 5-set: no verdict, witness or
    linkage call changes.

    The 5-sets are grown in canonical (lexicographic) order, and a
    prefix is extended only by a candidate joined in that way to every
    vertex already in it; each pair is asked of
    `kernels.disjoint_paths_at_least` at most once, when first needed.
    Every 5-set grown goes to a 10-pair internally disjoint linkage
    search, so the linkage calls are those of a loop over all 5-subsets
    that skips the ones with an unjoined pair.  Raises ResourceLimitError
    above `limit` or kernels.MAX_KERNEL_VERTICES vertices, whatever the
    graph's degrees.
    """
    if g.n > limit:
        raise ResourceLimitError(f"subdivision search capped at {limit} vertices, got {g.n}")
    _, adj = kernels.index_graph(g)
    n = g.n
    cands = [v for v in range(n) if adj[v].bit_count() >= 4]
    if len(cands) < 5 or g.m < 10 or kernels.width_at_most_3(adj):
        return None
    joined: dict[int, bool] = {}  # s*n + t -> 4 paths join s < t

    def four_paths(s: int, t: int) -> bool:
        key = s * n + t
        ans = joined.get(key)
        if ans is None:
            ans = joined[key] = kernels.disjoint_paths_at_least(n, adj, s, t, 4)
        return ans

    branch: list[int] = []

    def grow(start: int) -> list[list[int]] | None:
        if len(branch) == 5:
            return kernels.linkage_masks(
                n, adj, [(branch[i], branch[j]) for i, j in K5_PAIRS], 0
            )
        for i in range(start, len(cands) + len(branch) - 4):
            x = cands[i]
            for b in branch:
                if not four_paths(b, x):
                    break
            else:
                branch.append(x)
                found = grow(i + 1)
                if found is not None:
                    return found
                branch.pop()
        return None

    found = grow(0)
    if found is None:
        return None
    names = g.vertices
    sub = Subdivision(
        tuple(names[x] for x in branch), tuple(tuple(names[x] for x in p) for p in found)
    )
    validate_subdivision(g, sub)
    return sub


def subdivision_from_edges(g: Graph, edges) -> Subdivision | None:
    """Recover the subdivision structure of an edge set, if it has one.

    The edge set must induce exactly five vertices of degree 4 with every
    other vertex of degree 2, split into ten branch-to-branch paths that
    cover all edges and realize each branch pair once.  Used to validate
    the results of gadget lifting.
    """
    es = {norm_edge(u, v) for u, v in edges}
    adj: dict[Vertex, set[Vertex]] = {}
    for u, v in es:
        if not g.has_edge(u, v):
            return None
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    branch = sorted((v for v, ns in adj.items() if len(ns) == 4), key=vkey)
    if len(branch) != 5:
        return None
    if any(len(ns) not in (2, 4) for ns in adj.values()):
        return None
    bset = set(branch)
    bindex = {v: i for i, v in enumerate(branch)}
    used = set()
    paths: dict[tuple[int, int], tuple[Vertex, ...]] = {}
    for b in branch:
        for first in sorted(adj[b], key=vkey):
            if (b, first) in used:
                continue
            walk = [b, first]
            used.add((b, first))
            used.add((first, b))
            while walk[-1] not in bset:
                # a non-branch vertex has degree 2: one way on
                prev, cur = walk[-2], walk[-1]
                (nxt,) = adj[cur] - {prev}
                walk.append(nxt)
                used.add((cur, nxt))
                used.add((nxt, cur))
            i, j = bindex[b], bindex[walk[-1]]
            key = (min(i, j), max(i, j))
            paths[key] = tuple(walk if i < j else list(reversed(walk)))
    # a cycle back to its own branch vertex gives the key (i, i), and a
    # pair walked twice leaves fewer than ten keys
    if set(paths) != set(K5_PAIRS):
        return None
    if len(used) != 2 * len(es):
        return None  # leftover edges (a stray cycle of degree-2 vertices)
    sub = Subdivision(tuple(branch), tuple(paths[p] for p in K5_PAIRS))
    try:
        validate_subdivision(g, sub)
    except ConstructionError:
        return None
    return sub


# -- the wheel construction ---------------------------------------------------


def wheel_plus_paths_to_k5(
    g: Graph,
    wheel: Wheel,
    corners: tuple[Vertex, Vertex, Vertex, Vertex],
    ps: PathSystem,
) -> Subdivision:
    """Assemble a K5-subdivision from a wheel and two crossing paths.

    `corners` are four distinct spokes in the rim's cyclic order; `ps`
    must link (corners[0], corners[2]) and (corners[1], corners[3]) by
    paths internally disjoint from the wheel.  Branch vertices are the
    center plus the four corners; the rim contributes four arcs, the
    spokes four edges, and ps the two diagonals.
    """
    if not is_wheel(g, wheel):
        raise PreconditionError("not a wheel of the host graph")
    w1, w2, w3, w4 = corners
    if len(set(corners)) != 4:
        raise PreconditionError("corners must be four distinct vertices")
    for c in corners:
        if c not in wheel.spokes:
            raise PreconditionError(f"corner {c!r} is not a spoke of the wheel")
    rim = wheel.rim
    pos = {v: i for i, v in enumerate(rim)}
    shifted = sorted(((pos[c] - pos[w1]) % len(rim), c) for c in corners)
    if [c for _, c in shifted] != [w1, w2, w3, w4]:
        raise PreconditionError("corners do not occur on the rim in the given cyclic order")
    if tuple(map(tuple, ps.pairs)) != ((w1, w3), (w2, w4)):
        raise PreconditionError("path system must link (w1,w3) and (w2,w4)")

    def rim_arc(a: Vertex, b: Vertex) -> tuple[Vertex, ...]:
        i = pos[a]
        out = [a]
        while out[-1] != b:
            i = (i + 1) % len(rim)
            out.append(rim[i])
        return tuple(out)

    center = wheel.center
    branch = (center, w1, w2, w3, w4)
    by_pair = {
        (0, 1): (center, w1),
        (0, 2): (center, w2),
        (0, 3): (center, w3),
        (0, 4): (center, w4),
        (1, 2): rim_arc(w1, w2),
        (2, 3): rim_arc(w2, w3),
        (3, 4): rim_arc(w3, w4),
        (1, 4): tuple(reversed(rim_arc(w4, w1))),
        (1, 3): tuple(ps.paths[0]),
        (2, 4): tuple(ps.paths[1]),
    }
    sub = Subdivision(branch, tuple(by_pair[p] for p in K5_PAIRS))
    validate_subdivision(g, sub)
    return sub
