"""k-separations, k-connectivity and the planar-side trichotomy.

A k-separation is a pair of edge-disjoint subgraphs covering the host
graph whose vertex sets overlap in exactly k vertices, each side owning
an exclusive vertex or edge.  The enumerator keeps the edges inside the
cut together on one side: it emits, up to swapping sides, exactly the
separations of the definition whose cut-internal edges all lie on one
side.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import combinations, compress
from operator import not_
from typing import Iterator

from wheelkit.catalog import CatalogMember, matches_catalog
from wheelkit.errors import InputDomainError, PreconditionError
from wheelkit.graph import Graph, Vertex, vkey
from wheelkit.kernels import _index, _parts, disjoint_paths_at_least, index_graph
from wheelkit.planarity import TerminalGraph, is_disc_planar
from wheelkit.wheels import Wheel, find_s_good_wheel


@dataclass(frozen=True)
class Separation:
    side1: Graph
    side2: Graph

    @property
    def cut(self) -> tuple[Vertex, ...]:
        shared = set(self.side1.vertices) & set(self.side2.vertices)
        return tuple(sorted(shared, key=vkey))

    @property
    def order(self) -> int:
        return len(self.cut)


def validate_separation(g: Graph, sep: Separation) -> None:
    """Check the definition against the host graph; raise on violation."""
    e1, e2 = sep.side1.edge_set(), sep.side2.edge_set()
    if e1 & e2:
        raise InputDomainError("sides share an edge")
    if e1 | e2 != g.edge_set():
        raise InputDomainError("sides do not partition the edge set")
    if set(sep.side1.vertices) | set(sep.side2.vertices) != set(g.vertices):
        raise InputDomainError("sides do not cover the vertex set")
    for a, b in ((sep.side1, sep.side2), (sep.side2, sep.side1)):
        exclusive = set(a.vertices) - set(b.vertices)
        if not a.edges and not exclusive:
            raise InputDomainError("a side owns neither a vertex nor an edge")


def enumerate_separations(g: Graph, k: int) -> Iterator[Separation]:
    """The k-separations whose cut-internal edges lie on one side, up to
    swapping sides; side1 is the side whose vertices come first in vkey
    order (the two sides' vertex sets always differ).

    Vertex i of `g.vertices` is bit i.  For every k-cut, `kernels._parts`
    finds the components of G - cut in order of their least bits, which
    is the vkey order of their least vertices.  Every nonempty group of
    them is split off by `_split`, the mask form of `split`, and the
    cut-internal edges stay with the rest.  The rest may hold no
    component only when it owns a cut-internal edge (a complete graph's
    (n-1)-separations are of this shape).  With no cut-internal edge a
    group and its complement give the same separation, so only the
    smaller group is split off, or at equal sizes the one holding
    component 0.  `_first` orders the two sides by their masks.
    """
    if k < 0:
        raise InputDomainError("separation order must be nonnegative")
    _, adj, ends = _indexed(g)
    every = (1 << g.n) - 1
    for cut in combinations([1 << i for i in range(g.n)], k):
        c = sum(cut)
        comps = _parts(every ^ c, adj)
        inner = any(not e & ~c for e in ends)
        n = len(comps)
        for r in range(1, n + 1 if inner else n // 2 + 1):
            for group in combinations(range(n), r):
                if not inner and 2 * r == n and group[0] != 0:
                    continue
                a = sum(comps[i] for i in group)
                sep = _split(g, a, c, ends)
                yield sep if _first(a | c, every ^ a) else Separation(sep.side2, sep.side1)


def _first(x: int, y: int) -> bool:
    """Whether the vertex list of the mask x sorts before that of the
    mask y (x != y), vertex i being bit i.  The lists agree up to the
    lowest bit where the masks differ.  When that bit is x's, x comes
    first if y has a later bit; otherwise y's list is a prefix of x's and
    comes first.  The other way about when the bit is y's."""
    low = (x ^ y) & -(x ^ y)
    return bool(y & -low) if x & low else not x & -low


def split(g: Graph, cut, exclusive) -> Separation:
    """The separation of g whose side1 is `exclusive` plus the cut, with
    every edge that meets `exclusive`; side2 is the rest of g, with the
    cut-internal edges.  An unknown vertex id, an id named twice (in one
    list or in both), or an edge from `exclusive` to a vertex outside
    `exclusive` and the cut, is an input error."""
    ids = [*cut, *exclusive]
    unknown = set(ids) - set(g.vertices)
    if unknown:
        raise InputDomainError(f"unknown vertex ids: {sorted(unknown, key=vkey)}")
    twice = {v for v in ids if ids.count(v) > 1}
    if twice:
        raise InputDomainError(f"vertex ids named twice in the cut and side: {sorted(twice, key=vkey)}")
    idx, _, ends = _indexed(g)
    a = sum(1 << idx[v] for v in exclusive)
    c = sum(1 << idx[v] for v in cut)
    for e, em in zip(g.edges, ends):
        if em & a and em & ~(a | c):
            raise InputDomainError(f"edge {e} crosses the claimed separation")
    return _split(g, a, c, ends)


def _indexed(g: Graph) -> tuple[dict[Vertex, int], list[int], list[int]]:
    """`kernels._index` of g, and the mask of the ends of each edge of
    `g.edges`."""
    idx, adj = _index(g)
    return idx, adj, [1 << idx[u] | 1 << idx[v] for u, v in g.edges]


def _split(g: Graph, a: int, c: int, ends: list[int]) -> Separation:
    """`split` on masks: `a` the exclusive vertices, `c` the cut, and
    `ends[j]` the mask of the ends of edge j of `g.edges`."""
    vs, es = g.vertices, g.edges
    b = ((1 << len(vs)) - 1) ^ a
    one = [bool(e & a) for e in ends]
    return Separation(
        Graph._from_canonical([v for i, v in enumerate(vs) if (a | c) >> i & 1], compress(es, one)),
        Graph._from_canonical([v for i, v in enumerate(vs) if b >> i & 1], compress(es, map(not_, one))),
    )


def is_k_connected(g: Graph, k: int) -> bool:
    """Vertex connectivity >= k; complete graphs count as (n-1)-connected.

    By Whitney's theorem, g is k-connected exactly when it has more than
    k vertices and every two of them are joined by k internally disjoint
    paths, which the Menger kernel counts pair by pair (Even and Tarjan,
    SIAM J. Comput. 1975).  A vertex of degree below k answers no before
    any pair is asked: with more than k vertices it has a non-neighbor,
    and its neighbors separate the two.  The kernel's vertex cap applies.
    """
    if k <= 0:
        return True
    if g.n <= k:
        return False
    _, adj = index_graph(g)
    if any(a.bit_count() < k for a in adj):
        return False
    return all(
        disjoint_paths_at_least(g.n, adj, s, t, k) for s, t in combinations(range(g.n), 2)
    )


# -- the trichotomy check ------------------------------------------------------


class Verdict(enum.Enum):
    GOOD_WHEEL = "good-wheel"
    SMALL = "small"
    CATALOG = "catalog"
    NONE = "none"


@dataclass(frozen=True)
class TrichotomyResult:
    verdict: Verdict
    wheel: Wheel | None = None
    member: CatalogMember | None = None


def side_verdict(tg: TerminalGraph) -> TrichotomyResult:
    """Which clause of the planar-side alternative does the side satisfy?

    The clauses overlap, so the verdict is the first that holds in the
    order SMALL (4 terminals, five vertices), GOOD_WHEEL, CATALOG (5
    terminals), or NONE.  The host's conditions are `check_trichotomy`'s.
    """
    k = len(tg.terminals)
    if k == 4 and tg.graph.n == 5:
        return TrichotomyResult(Verdict.SMALL)
    wheel = find_s_good_wheel(tg)
    if wheel is not None:
        return TrichotomyResult(Verdict.GOOD_WHEEL, wheel=wheel)
    member = matches_catalog(tg) if k == 5 else None
    if member is not None:
        return TrichotomyResult(Verdict.CATALOG, member=member)
    return TrichotomyResult(Verdict.NONE)


def check_trichotomy(g: Graph, sep: Separation) -> TrichotomyResult:
    """The `side_verdict` of side1 over the cut, in its host.

    A CATALOG match of the eight-vertex member Y counts only when Y's fan
    terminal has host degree at least 5; otherwise the verdict is NONE.
    NONE can happen on arbitrary graphs but never on the shipped corpora.
    """
    validate_separation(g, sep)
    if sep.order not in (4, 5):
        raise PreconditionError(f"separation order must be 4 or 5, got {sep.order}")
    side1, cut = sep.side1, sep.cut
    if not set(side1.vertices) - set(sep.side2.vertices):
        raise PreconditionError("side1 has no exclusive vertex")
    tg = TerminalGraph(side1, cut, ordered=False)
    if not is_disc_planar(tg):
        raise PreconditionError("side1 is not disc-planar over the cut")
    res = side_verdict(tg)
    if res.member is not None and res.member.special_vertex is not None:
        fan = [t for t in cut if tg.interior_degree(t) == 3]
        if not (fan and all(g.degree(t) >= 5 for t in fan)):
            return TrichotomyResult(Verdict.NONE)
    return res
