"""Wheel subgraphs and the terminal-goodness predicate.

A wheel is a rim cycle plus a center off the cycle joined to it by at
least three spoke edges.  For a terminal set S (never containing the
center), a wheel is S-good when every S-vertex lying on the wheel is a
graph-neighbor of the center; the spoke edge itself is not required.
"""

from __future__ import annotations

from dataclasses import dataclass

from wheelkit.errors import InputDomainError, ResourceLimitError
from wheelkit.graph import Graph, Vertex, enumerate_cycles, vkey

DEFAULT_WHEEL_LIMIT = 12


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


def find_s_good_wheel(tg, *, limit: int = DEFAULT_WHEEL_LIMIT) -> Wheel | None:
    """Exhaustive search for an S-good wheel in a terminal graph.

    Complete at the configured bound: None is returned only when no
    S-good wheel exists.  Candidate centers (never terminals) are tried
    by descending degree, rim cycles by increasing length; the first
    witness found is returned.
    """
    g: Graph = tg.graph
    sset = set(tg.terminals)
    if g.n > limit:
        raise ResourceLimitError(f"wheel search capped at {limit} vertices, got {g.n}")
    centers = sorted((v for v in g.vertices if v not in sset), key=lambda v: (-g.degree(v), vkey(v)))
    for center in centers:
        if g.degree(center) < 3:
            continue
        spoke_ok = set(g.neighbors(center))
        # a terminal off the spokes would make the wheel bad, so no rim uses one
        bad_rim = sset - spoke_ok
        rest = g.induced([v for v in g.vertices if v != center and v not in bad_rim])
        for length in range(3, rest.n + 1):
            for rim in enumerate_cycles(rest, length):
                spokes = frozenset(v for v in rim if v in spoke_ok)
                if len(spokes) >= 3:
                    w = Wheel(center, rim, spokes)
                    assert is_wheel(g, w) and is_s_good(g, w, sset)
                    return w
    return None
