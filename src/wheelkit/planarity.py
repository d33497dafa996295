"""Planarity, disc-planarity of terminal pairs, and combinatorial embeddings.

An embedding is a rotation system (a cyclic order of neighbors at every
vertex); faces come from dart tracing.  "Clockwise" is, by convention,
the direction dart tracing walks a face boundary with the outer face to
its left; the package applies it consistently but it has no geometric
content.  `embed` embeds a planar graph; `embed_terminal` gives the disc
embedding of a disc-planar terminal pair, read off the same apex or
fence augmentation that `is_disc_planar` tests.

Disc-planarity of a terminal pair (G, S) is planarity of G plus the
augmentation that `_augment` builds on G's bitmasks for every user:
- unordered, or ordered with at most three terminals (which have one
  cyclic order up to reflection): an apex adjacent to all of S;
- ordered with four or more terminals: a fence (vertices f_i joined to
  the consecutive terminals t_i and t_{i+1}, plus a hub adjacent to all
  f_i), which pins the cyclic boundary order up to rotation and
  reflection.
All four entry points index G once into adjacency bitmasks, as
`kernels.index_graph` does but without its vertex cap, and build no
`Graph`; `_disc_planar_masks` takes bitmasks the caller already holds,
as the terminal-graph stream does for each candidate.  The augmentation
vertices are the bit positions after G's and have no names.  All
planarity is path addition on those bitmasks: the verdicts come from
`kernels.planar_masks`, which reduces the graph to its core and screens
each part first, and the embeddings from `kernels.planar_rotation`,
restricted to G's indices.  The apex is cross-checked against a
brute-force rotation-system oracle in the test suite, and the fence
against the apex at three terminals and, over every cyclic order, at
four and five.
"""

from __future__ import annotations

from dataclasses import dataclass

from wheelkit.errors import InputDomainError, PreconditionError
from wheelkit.graph import Graph, Vertex, flood_components, vkey
from wheelkit.kernels import _bits, _index, planar_masks, planar_rotation

Dart = tuple[Vertex, Vertex]


@dataclass(frozen=True)
class TerminalGraph:
    """A graph with a distinguished terminal sequence.

    `ordered=True` means the terminal order prescribes the cyclic order on
    the disc boundary; unordered terminal graphs only require some order.
    """

    graph: Graph
    terminals: tuple[Vertex, ...]
    ordered: bool = True

    def __post_init__(self):
        if len(set(self.terminals)) != len(self.terminals):
            raise InputDomainError("duplicate terminals")
        for t in self.terminals:
            if not self.graph.has_vertex(t):
                raise InputDomainError(f"terminal {t!r} not in graph")

    def interior_degree(self, t: Vertex) -> int:
        """The number of t's neighbours outside the terminal set."""
        return sum(1 for x in self.graph.neighbors(t) if x not in self.terminals)


class Embedding:
    """A rotation system with traced faces and a distinguished outer face."""

    def __init__(self, rotation: dict[Vertex, tuple[Vertex, ...]], outer_dart: Dart | None = None):
        self.rotation = rotation
        self.faces: tuple[tuple[Dart, ...], ...] = _trace_faces(rotation)
        if outer_dart is not None:
            self.outer_face = next(i for i, f in enumerate(self.faces) if outer_dart in f)
        else:
            self.outer_face = 0 if self.faces else -1

    def face_vertices(self, i: int) -> tuple[Vertex, ...]:
        return tuple(u for u, _ in self.faces[i])

    def face_count(self) -> int:
        """Face count with the unbounded face shared across components.

        Components are counted by `flood_components` over the rotation; a
        vertex with no neighbour has no face and is not counted.
        """
        rot = self.rotation
        isolated = [v for v, ns in rot.items() if not ns]
        return len(self.faces) - len(flood_components(rot, rot, isolated)) + 1


def _trace_faces(rotation: dict[Vertex, tuple[Vertex, ...]]) -> tuple[tuple[Dart, ...], ...]:
    """The faces of the rotation system, each traced from its least dart
    in vkey order, in the order of those darts: dart (u, v) is followed by
    (v, w), w the neighbour after u around v."""
    after = {(u, v): (v, ns[(i + 1) % len(ns)]) for v, ns in rotation.items() for i, u in enumerate(ns)}
    seen: set[Dart] = set()
    faces = []
    for start in sorted(after, key=lambda d: (vkey(d[0]), vkey(d[1]))):
        if start in seen:
            continue
        face = [start]
        while (d := after[face[-1]]) != start:
            face.append(d)
        seen.update(face)
        faces.append(tuple(face))
    return tuple(faces)


# -- planarity tests --------------------------------------------------------


def is_planar(g: Graph) -> bool:
    """Standard planarity test: `kernels.planar_masks` on g's bitmasks."""
    _, adj = _index(g)
    return planar_masks(adj)


def _augment(adj: list[int], ts: list[int], ordered: bool) -> list[int]:
    """A copy of the adjacency bitmasks `adj` (vertices 0..n-1) plus
    augmentation vertices at indices n, n+1, ...: a graph that is planar
    exactly when the graph is disc-planar with the terminals at indices
    `ts`, in boundary order when `ordered`.  `adj` is left as it is.

    Unordered terminals, and ordered ones up to three (which have one
    cyclic order up to reflection), get an apex joined to every terminal.
    Four or more ordered terminals t_1..t_k get a fence: f_i joined to
    t_i and t_{i+1} (indices mod k), and a hub joined to every f_i.
    The cycle t_1 f_1 t_2 f_2 ... t_k f_k with the hub is a subdivided
    wheel, whose embedding is unique up to reflection.  Each of its spoke
    faces touches only one terminal, so every part of the graph that meets
    two or more terminals lies on the rim side, where the terminals sit
    in the given cyclic order.  A ring f_i f_{i+1} would add nothing to
    that, so the fence has none.
    """
    n = len(adj)
    adj = adj.copy()
    if ordered and len(ts) > 3:
        k = len(ts)
        for i, t in enumerate(ts):
            u = ts[(i + 1) % k]
            adj[t] |= 1 << (n + i)
            adj[u] |= 1 << (n + i)
            adj.append((1 << t) | (1 << u) | (1 << (n + k)))
        adj.append((1 << (n + k)) - (1 << n))
    else:
        for t in ts:
            adj[t] |= 1 << n
        adj.append(sum(1 << t for t in ts))
    return adj


def _augmented(tg: TerminalGraph) -> list[int]:
    """`_augment` of tg.graph, indexed by `_index`, at tg's terminals."""
    if not tg.terminals:
        raise InputDomainError("disc-planarity needs at least one terminal")
    idx, adj = _index(tg.graph)
    return _augment(adj, [idx[t] for t in tg.terminals], tg.ordered)


def _disc_planar_masks(adj: list[int], tmask: int) -> bool:
    """`is_disc_planar` of the unordered terminal graph with adjacency
    bitmasks `adj` and terminal bitmask `tmask` (at least one terminal),
    without building it; `adj` is left as it is."""
    return planar_masks(_augment(adj, _bits(tmask), False))


def is_disc_planar(tg: TerminalGraph) -> bool:
    """Can the graph be drawn in a closed disc with S on the boundary?

    Ordered terminal graphs must realize the given cyclic boundary order
    (up to rotation and reflection); unordered ones may use any order.
    `kernels.planar_masks` decides the bitmasks of `_augmented`.
    """
    return planar_masks(_augmented(tg))


def _rotation(adj: list[int], message: str) -> list[list[int]]:
    """`kernels.planar_rotation` of the graph with adjacency bitmasks
    `adj`; PreconditionError(message) when the graph is not planar."""
    rotation = planar_rotation(adj)
    if rotation is None:
        raise PreconditionError(message)
    return rotation


def embed(g: Graph) -> Embedding:
    """A deterministic combinatorial embedding of a planar graph."""
    names = g.vertices
    rotation = _rotation(_index(g)[1], "graph is not planar")
    return Embedding({v: tuple(names[u] for u in ns) for v, ns in zip(names, rotation)})


def embed_terminal(tg: TerminalGraph) -> Embedding:
    """A disc embedding: the outer face is the one holding the boundary.

    Built by embedding the apex/fence augmentation and deleting the
    augmentation vertices, the indices from n on; the merged face left
    behind is the disc boundary face.  Its corner dart: at the first
    vertex y of G with an augmentation neighbour, the next neighbour z of
    G after that one around y gives the dart (y, z).  With no such dart
    the outer face is the first one.
    """
    names = tg.graph.vertices
    n = len(names)
    rotation = _rotation(_augmented(tg), "terminal pair is not disc-planar")
    corner = None
    for y, ns in enumerate(rotation[:n]):
        i = next((i for i, x in enumerate(ns) if x >= n), None)
        if i is None:
            continue
        z = next((z for z in ns[i + 1 :] + ns[:i] if z < n), None)
        if z is not None:
            corner = (names[y], names[z])
            break
    return Embedding(
        {v: tuple(names[u] for u in ns if u < n) for v, ns in zip(names, rotation)},
        outer_dart=corner,
    )
