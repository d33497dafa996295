"""Wheel subgraphs and the terminal-goodness predicate.

A wheel is a rim cycle plus a center off the cycle joined to it by at
least three spoke edges.  For a terminal set S (never containing the
center), a wheel is S-good when every S-vertex lying on the wheel is a
graph-neighbor of the center; the spoke edge itself is not required.
The search reduces an S-good wheel to a 3-linkage on the linkage kernel:
a rim through spokes x, y, z is the paths x-y, y-z, z-x joined.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from wheelkit import kernels
from wheelkit.errors import InputDomainError
from wheelkit.graph import Graph, Vertex


@dataclass(frozen=True)
class Wheel:
    center: Vertex
    rim: tuple[Vertex, ...]  # the cycle W - center, in cyclic order
    spokes: frozenset[Vertex]

    def vertex_set(self) -> frozenset[Vertex]:
        return frozenset(self.rim) | {self.center}


def is_wheel(g: Graph, w: Wheel) -> bool:
    """True iff all wheel invariants hold inside g."""
    if len(w.spokes) < 3:
        return False
    if w.center in w.rim:
        return False
    if len(set(w.rim)) != len(w.rim) or len(w.rim) < 3:
        return False
    if not all(g.has_vertex(x) for x in w.rim) or not g.has_vertex(w.center):
        return False
    for i, x in enumerate(w.rim):
        if not g.has_edge(x, w.rim[(i + 1) % len(w.rim)]):
            return False
    rimset = set(w.rim)
    return all(s in rimset and g.has_edge(w.center, s) for s in w.spokes)


def is_s_good(g: Graph, w: Wheel, s) -> bool:
    """True iff every S-vertex on the wheel is adjacent to its center."""
    sset = set(s)
    if w.center in sset:
        raise InputDomainError(
            "a wheel centered at a terminal has no defined goodness; "
            "the terminal set lives in the graph minus the center"
        )
    nbrs = set(g.neighbors(w.center))
    return all(v in nbrs for v in sset & set(w.rim))


def find_s_good_wheel(tg) -> Wheel | None:
    """An S-good wheel of a terminal graph, or None when none exists.

    Exact up to `kernels.index_graph`'s vertex cap (ResourceLimitError
    above it).  Centers are the non-terminals of degree at least 3, by
    descending degree, then vertex order; the first with a wheel wins.

    Center c has an S-good wheel iff some neighbours x, y, z of c are
    joined by the linkage (x, y), (y, z), (z, x) avoiding c and the
    terminals off N(c).  If: the three paths close a cycle of G - c
    through three spokes, and each terminal on it is in N(c).  Only if:
    an S-good rim holds three spokes, and cut there it gives three such
    paths, since it misses c and every terminal off N(c).

    The kernel's first linkage has the least total length, so the least
    total over c's triples (ties: the first in `combinations` order over
    N(c); a triangle stops early) is a shortest S-good rim at c.  The rim
    is the three paths joined, turned to start at its least vertex with
    the second before the last; the spokes are its vertices in N(c).
    """
    g: Graph = tg.graph
    idx, adj = kernels.index_graph(g)
    tmask = sum(1 << idx[t] for t in tg.terminals)
    degree = [a.bit_count() for a in adj]
    # a stable sort over indices in vkey order breaks degree ties by vkey
    centers = sorted(
        (c for c in range(g.n) if degree[c] >= 3 and not tmask >> c & 1), key=lambda c: -degree[c]
    )
    for c in centers:
        best = None
        forbidden = (1 << c) | tmask & ~adj[c]
        for x, y, z in combinations(kernels._bits(adj[c]), 3):
            pairs = [(x, y), (y, z), (z, x)]
            # the distances bound the total below: skip a triple that cannot beat best
            if best and sum(kernels.bfs_dist(adj, s, t, forbidden) for s, t in pairs) >= len(best):
                continue
            paths = kernels.linkage_masks(g.n, adj, pairs, forbidden)
            if paths is not None and (best is None or sum(map(len, paths)) - 3 < len(best)):
                best = paths[0] + paths[1][1:] + paths[2][1:-1]
                if len(best) == 3:
                    break
        if best is None:
            continue
        i = best.index(min(best))
        rim = best[i:] + best[:i]
        if rim[1] > rim[-1]:
            rim = rim[:1] + rim[:0:-1]
        v = g.vertices
        w = Wheel(v[c], tuple(v[r] for r in rim), frozenset(v[r] for r in rim if adj[c] >> r & 1))
        assert is_wheel(g, w) and is_s_good(g, w, tg.terminals)
        return w
    return None
