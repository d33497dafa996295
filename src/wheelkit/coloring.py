"""Exact 4-coloring and the forced/greedy extension schedules.

Colors are the integers 1..4.  "Greedy" always means: give the vertex the
least color in 1..4 that no already-colored neighbor uses; the schedules
shipped in `recipes` only need existence, but a fixed rule keeps every
run deterministic.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from wheelkit import kernels
from wheelkit.errors import InputDomainError
from wheelkit.graph import Graph, Vertex

COLORS = (1, 2, 3, 4)
_COLOR_SET = frozenset(COLORS)


def is_proper(g: Graph, coloring: Mapping[Vertex, int], *, total: bool = False) -> bool:
    """Independent propriety check: every color is in 1..4 and no edge has
    both ends colored equal."""
    if total and set(coloring) != set(g.vertices):
        return False
    try:
        if not _COLOR_SET.issuperset(coloring.values()):
            return False
    except TypeError:  # an unhashable value is no color
        return False
    for u, v in g.edges:
        cu, cv = coloring.get(u), coloring.get(v)
        if cu is not None and cu == cv:
            return False
    return True


def four_color(g: Graph) -> dict[Vertex, int] | None:
    """A total proper 4-coloring, or None; exact backtracking search.  The
    kernels' vertex cap applies."""
    _, adj = kernels.index_graph(g)
    res = kernels.four_color_masks(g.n, adj)
    if res is None:
        return None
    out = {v: c + 1 for v, c in zip(g.vertices, res)}
    assert is_proper(g, out, total=True)
    return out


def assign_then_extend(
    g: Graph,
    base: Mapping[Vertex, int],
    forced: Mapping[Vertex, int],
    order: Iterable[Vertex],
) -> dict[Vertex, int] | None:
    """Apply forced assignments, then greedily color `order`; None when a
    greedy vertex finds every color taken.

    The base coloring must be proper on g and color only vertices of g
    with colors in 1..4; the forced colors must be in 1..4 and proper
    against it and against each other; the greedy order must cover
    whatever is still uncolored.
    """
    for v, c in [*base.items(), *forced.items()]:
        if not g.has_vertex(v):
            raise InputDomainError(f"unknown vertex {v!r}")
        if c not in COLORS:
            raise InputDomainError(f"color {c!r} for {v!r} outside 1..4")
    if not is_proper(g, base):
        raise InputDomainError("base coloring is not proper")
    staged = dict(base)
    for v, c in forced.items():
        if v in staged:
            raise InputDomainError(f"forced vertex {v!r} is already colored")
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
    assert is_proper(g, staged)
    return staged
