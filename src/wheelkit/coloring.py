"""Exact 4-coloring and the forced/greedy extension schedules.

Colors are the integers 1..4.  "Greedy" always means: give the vertex the
least color in 1..4 that no already-colored neighbor uses; the schedules
shipped in `recipes` only need existence, but a fixed rule keeps every
run deterministic.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from wheelkit import kernels
from wheelkit.errors import InputDomainError, ResourceLimitError
from wheelkit.graph import Graph, Vertex

COLORS = (1, 2, 3, 4)
DEFAULT_COLOR_LIMIT = 32


class Coloring:
    """A partial assignment of vertices to colors 1..4."""

    __slots__ = ("_map",)

    def __init__(self, assignment: Mapping[Vertex, int] = ()):
        m = dict(assignment)
        for v, c in m.items():
            if c not in COLORS:
                raise InputDomainError(f"color {c!r} for {v!r} outside 1..4")
        self._map = m

    def color(self, v: Vertex) -> int | None:
        return self._map.get(v)

    def as_dict(self) -> dict[Vertex, int]:
        return dict(self._map)

    def __eq__(self, other) -> bool:
        return isinstance(other, Coloring) and self._map == other._map

    def __repr__(self) -> str:
        return f"Coloring({self._map!r})"


def is_proper(g: Graph, coloring: Coloring, *, total: bool = False) -> bool:
    """Independent propriety check: no edge with both ends colored equal."""
    cmap = coloring.as_dict()
    if total and set(cmap) != set(g.vertices):
        return False
    for u, v in g.edges:
        cu, cv = cmap.get(u), cmap.get(v)
        if cu is not None and cu == cv:
            return False
    return True


def four_color(g: Graph, *, limit: int = DEFAULT_COLOR_LIMIT) -> Coloring | None:
    """A total proper 4-coloring, or None; exact backtracking search."""
    if g.n > limit:
        raise ResourceLimitError(f"coloring search capped at {limit} vertices, got {g.n}")
    idx, adj = kernels.index_graph(g)
    res = kernels.four_color_masks(g.n, adj)
    if res is None:
        return None
    out = Coloring({v: res[idx[v]] + 1 for v in g.vertices})
    assert is_proper(g, out, total=True)
    return out


def assign_then_extend(
    g: Graph,
    base: Coloring,
    forced: Mapping[Vertex, int],
    order: Iterable[Vertex],
) -> Coloring | None:
    """Apply forced assignments, then greedily color `order`; None when a
    greedy vertex finds every color taken.

    The base coloring must be proper on g and color only vertices of g;
    the forced colors must be proper against it and against each other;
    the greedy order must cover whatever is still uncolored.
    """
    if not is_proper(g, base):
        raise InputDomainError("base coloring is not proper")
    cmap = base.as_dict()
    for v in [*cmap, *forced]:
        if not g.has_vertex(v):
            raise InputDomainError(f"unknown vertex {v!r}")
    for v, c in forced.items():
        if v in cmap:
            raise InputDomainError(f"forced vertex {v!r} is already colored")
        if c not in COLORS:
            raise InputDomainError(f"forced color {c!r} outside 1..4")
    staged = dict(cmap)
    for v, c in forced.items():
        for u in g.neighbors(v):
            if staged.get(u) == c:
                raise InputDomainError(
                    f"forced color {c} at {v!r} clashes with neighbor {u!r}"
                )
        staged[v] = c
    seq = list(order)
    remaining = set(g.vertices) - set(staged)
    if set(seq) != remaining or len(seq) != len(remaining):
        raise InputDomainError("order must cover exactly the still-uncolored vertices")
    for v in seq:
        seen = {staged[u] for u in g.neighbors(v) if u in staged}
        free = [c for c in COLORS if c not in seen]
        if not free:
            return None
        staged[v] = free[0]
    out = Coloring(staged)
    assert is_proper(g, out)
    return out
