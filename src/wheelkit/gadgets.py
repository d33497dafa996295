"""Reduction gadgets: graph surgeries paired with lifting rules.

A gadget turns a host graph G into a smaller G' (delete part of the
planar side, optionally merge two vertices, insert shortcut edges or an
apex).  Its lifts convert any K5-subdivision of G' back into one of G.
A lift swaps a set of used inserted edges for any one of its options,
and an option is a tuple of host paths through the deleted vertices:

- one inserted edge -> alternative paths with the same ends;
- two inserted edges -> one bypass path between the far ends;
- a whole bundle of used edges -> a fixed set of paths that relocate
  one or two branch vertices into the deleted region.

The engine tries plans in a deterministic order (see `_plans`) and
accepts the first plan whose edge surgery reconstructs a valid
K5-subdivision of G; validity is decided by the independent extractor in
`subdivisions`, never assumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product

from wheelkit.errors import LiftingError, PreconditionError
from wheelkit.graph import Graph, Vertex, add, identify, norm_edge, remove, union
from wheelkit.planarity import TerminalGraph
from wheelkit.subdivisions import (
    Subdivision,
    find_k5_subdivision,
    subdivision_from_edges,
    validate_subdivision,
)

Edge = tuple[Vertex, Vertex]
Path = tuple[Vertex, ...]


@dataclass(frozen=True)
class Lift:
    """Swap the used inserted `edges` for any one of `options`, each a
    tuple of host paths."""

    edges: frozenset[Edge]
    options: tuple[tuple[Path, ...], ...]


@dataclass(frozen=True)
class GadgetRule:
    """A reduction surgery plus its lifting data."""

    name: str
    delete_vertices: frozenset
    merge: tuple = ()  # (u, w, new_name) triples, applied after deletion
    insert_vertices: tuple = ()
    insert_edges: tuple = ()
    lifts: tuple[Lift, ...] = ()


def apply_gadget(g: Graph, rule: GadgetRule) -> Graph:
    """G' = insert(merge(delete(G))); errors propagate from the surgeries."""
    out = remove(g, rule.delete_vertices)
    for u, w, name in rule.merge:
        out = identify(out, u, w, name)
    return add(out, rule.insert_vertices, rule.insert_edges)


def foreign_edges(g: Graph, rule: GadgetRule) -> frozenset:
    """Edges of G' that do not exist in G (they need lifting)."""
    gp = apply_gadget(g, rule)
    return frozenset(e for e in gp.edges if not g.has_edge(*e))


def lift_subdivision(g: Graph, rule: GadgetRule, sub_prime: Subdivision) -> Subdivision:
    """Convert a K5-subdivision of apply_gadget(g, rule) into one of g.

    Tries replacement plans in a fixed order and returns the first one
    whose rebuilt edge set is a valid K5-subdivision of g (checked by the
    independent extractor).  Raises LiftingError when no disjoint choice
    of replacements exists; on the shipped corpus that must never happen.
    """
    gp = apply_gadget(g, rule)
    validate_subdivision(gp, sub_prime)
    tedges = set(sub_prime.edge_set())
    used = frozenset(e for e in tedges if not g.has_edge(*e))
    for paths in _plans(rule, used):
        new_edges = tedges - used
        for p in paths:
            new_edges.update(norm_edge(a, b) for a, b in zip(p, p[1:]))
        candidate = subdivision_from_edges(g, new_edges)
        if candidate is not None:
            return candidate
    raise LiftingError(
        f"rule {rule.name}: no disjoint replacement plan lifts this subdivision"
    )


def _plans(rule: GadgetRule, used: frozenset):
    """Yield the path sets that may replace the used inserted edges.

    A plan picks non-overlapping multi-edge lifts inside `used` (fewest
    first, then in `combinations` order over the rule's lifts) and covers
    every other used edge by its one-edge lift; it yields each choice of
    one option per picked lift.
    """
    single = {e: lift for lift in rule.lifts if len(lift.edges) == 1 for e in lift.edges}
    multi = [lift for lift in rule.lifts if len(lift.edges) > 1 and lift.edges <= used]
    for size in range(len(multi) + 1):
        for chosen in combinations(multi, size):
            covered = frozenset().union(*(lift.edges for lift in chosen))
            if sum(len(lift.edges) for lift in chosen) != len(covered):
                continue  # two picked lifts share an edge
            rest = sorted(used - covered)
            if not all(e in single for e in rest):
                continue
            lifts = chosen + tuple(single[e] for e in rest)
            for options in product(*(lift.options for lift in lifts)):
                yield [p for option in options for p in option]


def validate_rule(case: "GadgetCase") -> list[str]:
    """Structural sanity of a rule against its side configuration: every
    lift edge is created by the surgery, and every replacement path runs
    through the deleted vertices along edges of the side."""
    problems = []
    rule, side = case.rule, case.side
    g = side.graph
    reduced, kept = apply_gadget(g, rule), remove(g, rule.delete_vertices)
    for e in sorted({e for lift in rule.lifts for e in lift.edges}):
        if not reduced.has_edge(*e) or kept.has_edge(*e):
            problems.append(f"{rule.name}: lift edge {e!r} is not made by the surgery")
    deleted = set(rule.delete_vertices) | {u for u, w, _ in rule.merge} | {
        w for _, w, _ in rule.merge
    }
    for p in (p for lift in rule.lifts for option in lift.options for p in option):
        for v in p[1:-1]:
            if v not in deleted:
                problems.append(f"{rule.name}: replacement interior {v!r} not deleted")
        for a, b in zip(p, p[1:]):
            if not g.has_edge(a, b):
                problems.append(f"{rule.name}: replacement edge ({a!r},{b!r}) missing from side")
            if a not in deleted and b not in deleted:
                problems.append(
                    f"{rule.name}: replacement edge ({a!r},{b!r}) avoids the deleted set"
                )
    return problems


# -- the rule library ---------------------------------------------------------


@dataclass(frozen=True)
class GadgetCase:
    """A rule, the planar-side configuration it reduces, and host graphs
    whose reductions are rich in K5-subdivisions (the lifting corpus)."""

    rule: GadgetRule
    side: TerminalGraph
    hosts: tuple[Graph, ...]


def _tg(g: Graph, terminals) -> TerminalGraph:
    return TerminalGraph(g, tuple(terminals), ordered=True)


def _either(edges, *paths: Path) -> Lift:
    """Swap the set `edges` for any one of the single `paths`."""
    return Lift(frozenset(norm_edge(*e) for e in edges), tuple((p,) for p in paths))


def _pivot(edges, *paths: Path) -> Lift:
    """Swap the set `edges` for all of `paths` at once."""
    return Lift(frozenset(norm_edge(*e) for e in edges), (paths,))


def _pair_chord_case() -> GadgetCase:
    # Planar side: two adjacent interior vertices covering the 4-cut in a
    # crossed pattern; the reduction deletes both and shortcuts v2-v4.
    vs = ("v1", "v2", "v3", "v4")
    side = Graph(
        vs + ("u", "v"),
        [("u", "v1"), ("u", "v2"), ("u", "v3"), ("u", "v"), ("v", "v1"), ("v", "v3"), ("v", "v4")],
    )
    rule = GadgetRule(
        name="pair_chord",
        delete_vertices=frozenset({"u", "v"}),
        insert_edges=(("v2", "v4"),),
        lifts=(_either({("v2", "v4")}, ("v2", "u", "v", "v4")),),
    )
    host_a = union(
        side,
        Graph(
            edges=[
                ("v1", "v2"), ("v1", "v3"), ("v1", "v4"),
                ("a", "v1"), ("a", "v2"), ("a", "v4"),
                ("a", "b"), ("b", "v3"),
                ("v2", "c"), ("c", "v3"),
                ("v3", "d"), ("d", "v4"),
            ]
        ),
    )
    host_b = union(
        side,
        Graph(edges=[("v1", h) for h in ("h1", "h2", "h3", "h4")]
              + [(a, b) for a, b in combinations(("h1", "h2", "h3", "h4"), 2)]),
    )
    # the branch set avoids v2 and v4, so the inserted chord is consumed
    # mid-path rather than at a branch vertex
    host_c = union(
        side,
        Graph(edges=[("a", "v1"), ("a", "v3"), ("a", "c"), ("a", "v2"),
                     ("b", "v1"), ("b", "v3"), ("b", "c"), ("b", "v4"),
                     ("c", "v1"), ("c", "v3"), ("v1", "v3")]),
    )
    return GadgetCase(rule, _tg(side, vs), (host_a, host_b, host_c))


def _triangle_star3_case() -> GadgetCase:
    # Interior triangle u,v,w with two of them covering the whole 5-cut;
    # reduction deletes the triangle and stars v5 to v1, v2, v3.
    vs = tuple(f"v{i}" for i in range(1, 6))
    side = Graph(
        vs + ("u", "v", "w"),
        [("u", "v"), ("v", "w"), ("u", "w"),
         ("u", "v1"), ("u", "v5"),
         ("v", "v1"), ("v", "v2"), ("v", "v3"),
         ("w", "v3"), ("w", "v4"), ("w", "v5")],
    )
    rule = GadgetRule(
        name="triangle_star3",
        delete_vertices=frozenset({"u", "v", "w"}),
        insert_edges=(("v5", "v1"), ("v5", "v2"), ("v5", "v3")),
        lifts=(
            _either({("v5", "v1")}, ("v5", "u", "v1")),
            _either({("v5", "v2")}, ("v5", "w", "v", "v2"), ("v5", "u", "v", "v2")),
            _either({("v5", "v3")}, ("v5", "w", "v3")),
            _pivot({("v5", "v1"), ("v5", "v2"), ("v5", "v3")},
                   ("w", "v5"), ("w", "u", "v1"), ("w", "v", "v2"), ("w", "v3")),
        ),
    )
    host_a = union(
        side,
        Graph(edges=[("g", "v1"), ("g", "v2"), ("g", "v3"), ("g", "v5"),
                     ("v1", "v2"), ("v1", "v3"), ("v2", "v3")]),
    )
    host_b = union(
        side,
        Graph(edges=[("g", "v1"), ("g", "v2"), ("g", "v5"), ("g", "h"),
                     ("h", "v1"), ("h", "v2"), ("h", "v5"), ("v1", "v2")]),
    )
    return GadgetCase(rule, _tg(side, vs), (host_a, host_b))


def _triangle_star2_case() -> GadgetCase:
    # Same interior triangle, but every two interior vertices see only
    # four cut vertices; the reduction stars v5 to v2 and v3.
    vs = tuple(f"v{i}" for i in range(1, 6))
    side = Graph(
        vs + ("u", "v", "w"),
        [("u", "v"), ("v", "w"), ("u", "w"),
         ("u", "v1"), ("u", "v5"),
         ("v", "v2"), ("v", "v3"),
         ("w", "v3"), ("w", "v4"), ("w", "v5")],
    )
    rule = GadgetRule(
        name="triangle_star2",
        delete_vertices=frozenset({"u", "v", "w"}),
        insert_edges=(("v5", "v2"), ("v5", "v3")),
        lifts=(
            _either({("v5", "v2")}, ("v5", "u", "v", "v2")),
            _either({("v5", "v3")}, ("v5", "w", "v3")),
        ),
    )
    host = union(
        side,
        Graph(edges=[("g", "v2"), ("g", "v3"), ("g", "v5"), ("g", "h"),
                     ("h", "v2"), ("h", "v3"), ("h", "v5"), ("v2", "v3")]),
    )
    return GadgetCase(rule, _tg(side, vs), (host,))


def _path_fan_case() -> GadgetCase:
    # Interior path u-v-w fanned over the 5-cut; reduction deletes the
    # path and fans t1 to t3 and t4.
    ts = tuple(f"t{i}" for i in range(1, 6))
    side = Graph(
        ts + ("u", "v", "w"),
        [("u", "v"), ("v", "w"),
         ("u", "t1"), ("u", "t2"), ("u", "t3"),
         ("v", "t3"), ("v", "t4"),
         ("w", "t4"), ("w", "t5"), ("w", "t1")],
    )
    rule = GadgetRule(
        name="path_fan",
        delete_vertices=frozenset({"u", "v", "w"}),
        insert_edges=(("t1", "t3"), ("t1", "t4")),
        lifts=(
            _either({("t1", "t3")}, ("t1", "u", "t3")),
            _either({("t1", "t4")}, ("t1", "w", "t4")),
        ),
    )
    host = union(
        side,
        Graph(edges=[("g", "t1"), ("g", "t3"), ("g", "t4"), ("g", "h"),
                     ("h", "t1"), ("h", "t3"), ("h", "t4"), ("t3", "t4")]),
    )
    return GadgetCase(rule, _tg(side, ts), (host,))


def _path_merge_case() -> GadgetCase:
    # Full interior path u-v-w with v seeing t1, and t1 of host degree 4;
    # reduction deletes t1 and v, then merges u with w.
    ts = tuple(f"t{i}" for i in range(1, 6))
    side = Graph(
        ts + ("u", "v", "w"),
        [("u", "v"), ("v", "w"),
         ("u", "t1"), ("u", "t2"), ("u", "t3"),
         ("v", "t1"), ("v", "t3"), ("v", "t4"),
         ("w", "t1"), ("w", "t4"), ("w", "t5")],
    )
    rule = GadgetRule(
        name="path_merge",
        delete_vertices=frozenset({"t1", "v"}),
        merge=(("u", "w", "m"),),
        lifts=(
            _either({("m", "t2")}, ("v", "u", "t2")),
            _either({("m", "t3")}, ("v", "t3")),
            _either({("m", "t4")}, ("v", "t4")),
            _either({("m", "t5")}, ("v", "w", "t5")),
        ),
    )
    host = union(
        side,
        Graph(edges=[("t1", "a"),
                     ("t2", "t3"), ("t3", "t4"), ("t4", "t5"),
                     ("t2", "b"), ("b", "t4"),
                     ("t2", "c"), ("c", "t5"),
                     ("t3", "d"), ("d", "t5")]),
    )
    return GadgetCase(rule, _tg(side, ts), (host,))


def _square_triangle_case() -> GadgetCase:
    # Interior 4-cycle with one chord under a 4-cut; reduction deletes the
    # square and inserts the triangle t1 t2 t3.
    ts = tuple(f"t{i}" for i in range(1, 5))
    us = tuple(f"u{i}" for i in range(1, 5))
    side = Graph(
        ts + us,
        [("u1", "u2"), ("u2", "u3"), ("u3", "u4"), ("u4", "u1"), ("u2", "u4"),
         ("u1", "t1"), ("u1", "t2"),
         ("u2", "t2"), ("u2", "t3"),
         ("u3", "t3"), ("u3", "t4"),
         ("u4", "t4"), ("u4", "t1")],
    )
    rule = GadgetRule(
        name="square_triangle",
        delete_vertices=frozenset(us),
        insert_edges=(("t1", "t2"), ("t2", "t3"), ("t3", "t1")),
        lifts=(
            _either({("t1", "t2")}, ("t1", "u1", "t2")),
            _either({("t2", "t3")}, ("t2", "u2", "t3")),
            _either({("t3", "t1")}, ("t3", "u3", "u4", "t1")),
        ),
    )
    host = union(
        side,
        Graph(edges=[("g", "t1"), ("g", "t2"), ("g", "t3"), ("g", "h"),
                     ("h", "t1"), ("h", "t2"), ("h", "t3")]),
    )
    return GadgetCase(rule, _tg(side, ts), (host,))


def _ring_apex4_case() -> GadgetCase:
    # Interior 7-ring with a high-degree hub vertex p; reduction deletes
    # the whole ring and plants an apex on four terminals plus the t1-t5
    # boundary edge.
    ts = tuple(f"t{i}" for i in range(1, 6))
    ring = ("v1", "v2", "v3", "p", "v4", "v5", "q")
    cyc = [(ring[i], ring[(i + 1) % 7]) for i in range(7)]
    side = Graph(
        ts + ring,
        cyc
        + [("p", "v1"), ("p", "q"), ("p", "v5"), ("p", "v2")]
        + [("t1", "v1"), ("t1", "v2"),
           ("t2", "v2"), ("t2", "v3"),
           ("t3", "v3"), ("t3", "v4"),
           ("t4", "v4"), ("t4", "v5"),
           ("t5", "v5"), ("t5", "q")],
    )
    rule = GadgetRule(
        name="ring_apex4",
        delete_vertices=frozenset(ring),
        insert_vertices=("x",),
        insert_edges=(("t1", "t5"), ("x", "t1"), ("x", "t2"), ("x", "t4"), ("x", "t5")),
        lifts=(
            _either({("t1", "t5")}, ("t1", "v1", "q", "t5")),
            _either({("x", "t1")}, ("p", "v2", "t1")),
            _either({("x", "t2")}, ("p", "v3", "t2")),
            _either({("x", "t4")}, ("p", "v4", "t4")),
            _either({("x", "t5")}, ("p", "v5", "t5")),
        ),
    )
    host = union(
        side,
        Graph(edges=[("t1", "t2"), ("t2", "t4"), ("t4", "t5"),
                     ("t1", "g1"), ("g1", "t4"),
                     ("t2", "g2"), ("g2", "t5")]),
    )
    return GadgetCase(rule, _tg(side, ts), (host,))


def _ring_apex5_case() -> GadgetCase:
    # Plain interior pentagon; reduction deletes it and plants an apex on
    # all five terminals.  Any four used apex edges lift through a common
    # ring vertex.
    ts = tuple(f"t{i}" for i in range(1, 6))
    vs = tuple(f"v{i}" for i in range(1, 6))

    def v(i):
        return f"v{(i - 1) % 5 + 1}"

    def t(i):
        return f"t{(i - 1) % 5 + 1}"

    side = Graph(
        ts + vs,
        [(v(i), v(i + 1)) for i in range(1, 6)]
        + [(t(i), v(i)) for i in range(1, 6)]
        + [(t(i), v(i + 1)) for i in range(1, 6)],
    )
    rule = GadgetRule(
        name="ring_apex5",
        delete_vertices=frozenset(vs),
        insert_vertices=("x",),
        insert_edges=tuple(("x", t(i)) for i in range(1, 6)),
        lifts=tuple(
            _either({("x", t(i))}, (v(i), t(i)), (v(i + 1), t(i)),
                    (v(i + 2), v(i + 1), t(i)), (v(i - 1), v(i), t(i)))
            for i in range(1, 6)
        ),
    )
    host = union(
        side,
        Graph(edges=[("t1", "t2"), ("t2", "t3"), ("t3", "t4"), ("t1", "t4"),
                     ("t1", "g1"), ("g1", "t3"),
                     ("t2", "g2"), ("g2", "t4")]),
    )
    return GadgetCase(rule, _tg(side, ts), (host,))


def _gap_fan_case() -> GadgetCase:
    # Pentagon ring broken once by a low vertex a; reduction deletes a and
    # its two ring neighbors and fans t1 onto the surviving v3 and v5.
    ts = tuple(f"t{i}" for i in range(1, 6))
    ring = ("v1", "a", "v2", "v3", "v4", "v5")
    cyc = [(ring[i], ring[(i + 1) % 6]) for i in range(6)]
    side = Graph(
        ts + ring,
        cyc
        + [("a", "v3"), ("a", "v5"), ("v3", "v5")]
        + [("t1", "v1"), ("t1", "v2"),
           ("t2", "v2"), ("t2", "v3"),
           ("t3", "v3"), ("t3", "v4"),
           ("t4", "v4"), ("t4", "v5"),
           ("t5", "v5"), ("t5", "v1")],
    )
    rule = GadgetRule(
        name="gap_fan",
        delete_vertices=frozenset({"a", "v1", "v2"}),
        insert_edges=(("t1", "v3"), ("t1", "v5")),
        lifts=(
            _either({("t1", "v3")}, ("t1", "v2", "v3")),
            _either({("t1", "v5")}, ("t1", "v1", "v5")),
        ),
    )
    host = union(
        side,
        Graph(edges=[("t1", "t2"), ("t1", "t4"), ("t2", "t5"), ("t2", "t4")]),
    )
    return GadgetCase(rule, _tg(side, ts), (host,))


def _pent_triangle_case() -> GadgetCase:
    # Full interior pentagon with both extra chords at v4; reduction
    # deletes it and inserts the triangle t1 t3 t4.
    ts = tuple(f"t{i}" for i in range(1, 6))
    vs = tuple(f"v{i}" for i in range(1, 6))
    side = Graph(
        ts + vs,
        [(f"v{i}", f"v{i % 5 + 1}") for i in range(1, 6)]
        + [("v4", "v1"), ("v4", "v2")]
        + [("t1", "v1"), ("t1", "v2"),
           ("t2", "v2"), ("t2", "v3"),
           ("t3", "v3"), ("t3", "v4"),
           ("t4", "v4"), ("t4", "v5"),
           ("t5", "v5"), ("t5", "v1")],
    )
    rule = GadgetRule(
        name="pent_triangle",
        delete_vertices=frozenset(vs),
        insert_edges=(("t1", "t3"), ("t3", "t4"), ("t4", "t1")),
        lifts=(
            _either({("t1", "t3")}, ("t1", "v2", "v3", "t3")),
            _either({("t3", "t4")}, ("t3", "v4", "t4")),
            _either({("t4", "t1")}, ("t4", "v5", "v1", "t1")),
        ),
    )
    host = union(
        side,
        Graph(edges=[("g", "t1"), ("g", "t3"), ("g", "t4"), ("g", "h"),
                     ("h", "t1"), ("h", "t3"), ("h", "t4")]),
    )
    return GadgetCase(rule, _tg(side, ts), (host,))


def _web5_case() -> GadgetCase:
    # The nine-vertex obstruction grown by one boundary vertex x hanging
    # off q; reduction deletes all five interior vertices and inserts a
    # five-edge web on the cut.  Liftings relocate branch vertices onto
    # the deleted hub z and the path vertex w when the web is used as a
    # triangle or star.
    terminals = ("x", "p", "t", "s", "r")
    side = Graph(
        terminals + ("q", "u", "v", "w", "z"),
        [("z", "p"), ("z", "q"), ("z", "t"), ("z", "u"), ("z", "v"), ("z", "w"),
         ("u", "q"), ("u", "r"), ("u", "v"),
         ("v", "r"), ("v", "s"), ("v", "w"),
         ("w", "s"), ("w", "t"),
         ("q", "x"), ("q", "p")],
    )
    rule = GadgetRule(
        name="web5",
        delete_vertices=frozenset({"q", "u", "v", "w", "z"}),
        insert_edges=(("r", "p"), ("r", "t"), ("p", "t"), ("p", "x"), ("t", "s")),
        lifts=(
            _either({("p", "t")}, ("t", "z", "p")),
            _either({("t", "s")}, ("t", "w", "s")),
            _either({("p", "x")}, ("p", "q", "x")),
            _either({("r", "t")}, ("t", "z", "v", "r"), ("t", "w", "v", "r")),
            _either({("r", "p")}, ("r", "u", "q", "p"), ("r", "u", "z", "p")),
            _either({("r", "p"), ("p", "x")}, ("r", "u", "q", "x")),
            _either({("r", "t"), ("t", "s")}, ("r", "v", "s")),
            _pivot({("p", "t"), ("r", "t"), ("r", "p"), ("t", "s"), ("p", "x")},
                   ("w", "t"), ("w", "s"), ("w", "v", "r"), ("w", "z"),
                   ("z", "p"), ("z", "q", "x"), ("z", "u", "r")),
            _pivot({("p", "t"), ("r", "t"), ("r", "p"), ("t", "s")},
                   ("w", "t"), ("w", "s"), ("w", "v", "r"), ("w", "z", "p"), ("p", "q", "u", "r")),
            _pivot({("p", "t"), ("r", "t"), ("r", "p"), ("p", "x")},
                   ("z", "p"), ("z", "t"), ("z", "q", "x"), ("z", "u", "r"), ("t", "w", "v", "r")),
            _pivot({("p", "t"), ("r", "t"), ("r", "p")},
                   ("t", "z", "p"), ("p", "q", "u", "r"), ("r", "v", "w", "t")),
            _pivot({("p", "t"), ("t", "s"), ("r", "t")},
                   ("w", "t"), ("w", "s"), ("w", "z", "p"), ("w", "v", "r")),
            _pivot({("p", "t"), ("r", "p"), ("p", "x")},
                   ("z", "p"), ("z", "t"), ("z", "q", "x"), ("z", "u", "r")),
        ),
    )
    host_all = union(
        side,
        Graph(edges=[("al", "p"), ("al", "r"), ("al", "s"), ("al", "be"),
                     ("be", "r"), ("be", "t"), ("be", "x"), ("be", "al")]),
    )
    host_triangle = union(
        side,
        Graph(edges=[("al", "p"), ("al", "r"), ("al", "t"), ("al", "be"),
                     ("be", "p"), ("be", "r"), ("be", "t"), ("be", "al")]),
    )
    host_none = union(
        side,
        Graph(edges=[(a, b) for a, b in combinations(("h1", "h2", "h3", "h4", "h5"), 2)]
              + [("h1", "p")]),
    )
    host_path = union(
        side,
        Graph(edges=[("al", "r"), ("al", "t"), ("al", "be"), ("al", "x"),
                     ("be", "r"), ("be", "t"), ("be", "x"), ("s", "x")]),
    )
    # forces the web to carry a path r-t-s plus both p-edges, so the r-p
    # replacement must detour through the hub
    host_tpath = union(
        side,
        Graph(edges=[("al", "r"), ("al", "p"), ("al", "x"), ("al", "be"),
                     ("be", "r"), ("be", "p"), ("be", "x"), ("s", "x")]),
    )
    return GadgetCase(
        rule,
        _tg(side, terminals),
        (host_all, host_triangle, host_none, host_path, host_tpath),
    )


_CASES = (
    _pair_chord_case,
    _triangle_star3_case,
    _triangle_star2_case,
    _path_fan_case,
    _path_merge_case,
    _square_triangle_case,
    _ring_apex4_case,
    _ring_apex5_case,
    _gap_fan_case,
    _pent_triangle_case,
    _web5_case,
)


@lru_cache(maxsize=1)
def gadget_library() -> tuple[GadgetCase, ...]:
    """Every shipped case, built once; the cases are immutable."""
    return tuple(f() for f in _CASES)


def gadget_case(name: str) -> GadgetCase:
    for case in gadget_library():
        if case.rule.name == name:
            return case
    raise PreconditionError(f"unknown gadget rule {name!r}")


def reduced_witnesses(case: GadgetCase):
    """The lifting corpus of one case: for each host and each subset of its
    foreign edges, the reduction without the other foreign edges is
    searched for a K5 subdivision.  Yields (host index, host, kept foreign
    edges, reduced witness) for each search that finds one."""
    for i, host in enumerate(case.hosts):
        reduced = apply_gadget(host, case.rule)
        foreign = sorted(foreign_edges(host, case.rule))
        for r in range(len(foreign) + 1):
            for keep in combinations(foreign, r):
                banned = [e for e in foreign if e not in keep]
                sub = find_k5_subdivision(remove(reduced, edges=banned))
                if sub is not None:
                    yield i, host, keep, sub
