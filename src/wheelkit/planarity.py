"""Planarity, disc-planarity of terminal pairs, and combinatorial embeddings.

An embedding is a rotation system (a cyclic order of neighbors at every
vertex); faces come from dart tracing.  "Clockwise" is, by convention,
the direction dart tracing walks a face boundary with the outer face to
its left; the package applies it consistently but it has no geometric
content.  `embed` embeds a planar graph; `embed_terminal` gives the disc
embedding of a disc-planar terminal pair, read off the same apex or
fence augmentation that `is_disc_planar` tests.

Disc-planarity of a terminal pair (G, S) is planarity of G plus the
augmentation that `_augmented` describes once for both users:
- unordered, or ordered with at most three terminals (which have one
  cyclic order up to reflection): one fresh apex adjacent to all of S;
- ordered with four or more terminals: a fence (fresh vertices f_i
  joined to the consecutive terminals t_i and t_{i+1}, plus a hub
  adjacent to all f_i), which pins the cyclic boundary order up to
  rotation and reflection.
All four entry points work on a set-adjacency copy of G (with the
augmentation, for disc-planarity) and build no `Graph`.  All planarity is
path addition on bitmasks: the verdicts go through `_planar` (screens on
the core, then `kernels.planar_masks`), the embeddings through
`_rotation_system` (`kernels.planar_rotation` on the whole graph).  The
apex is cross-checked against a brute-force rotation-system oracle in the
test suite, and the fence against the apex at three terminals and, over
every cyclic order, at four and five.
"""

from __future__ import annotations

from dataclasses import dataclass

from wheelkit.errors import InputDomainError, PreconditionError
from wheelkit.graph import Graph, Vertex, flood_components, vkey
from wheelkit.kernels import planar_masks, planar_rotation

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


def _core(adj: dict[Vertex, set[Vertex]]) -> None:
    """Reduce the adjacency `adj` in place: delete vertices of degree at
    most 1 and smooth vertices of degree 2 until none is left.  Smoothing
    v with neighbours a and b drops v and adds the edge a-b, unless it is
    already there.  Every step keeps planarity in both directions."""
    stack = [v for v, ns in adj.items() if len(ns) <= 2]
    while stack:
        v = stack.pop()
        ns = adj.get(v)
        if ns is None or len(ns) > 2:
            continue
        del adj[v]
        for u in ns:
            adj[u].discard(v)
        if len(ns) == 2:
            a, b = ns
            adj[a].add(b)
            adj[b].add(a)
        stack.extend(u for u in ns if len(adj[u]) <= 2)


def _planar(adj: dict[Vertex, set[Vertex]]) -> bool:
    """Is the graph with adjacency `adj` planar?  Consumes `adj`.

    With n' vertices and m' edges left by `_core`, the core is planar when
    m' <= 8 (a subdivided K5 or K3,3 needs 9 edges) or n' <= 5 and
    m' <= 3n' - 6, and non-planar when n' >= 3 and m' > 3n' - 6.
    Otherwise the core is indexed into bitmasks and decided by path
    addition (`kernels.planar_masks`).
    """
    _core(adj)
    n = len(adj)
    m = sum(len(ns) for ns in adj.values()) // 2
    if m <= 8 or (n <= 5 and m <= 3 * n - 6):
        return True
    if n >= 3 and m > 3 * n - 6:
        return False
    return planar_masks(n, _masks(adj))


def _masks(adj: dict[Vertex, set[Vertex]]) -> list[int]:
    """Adjacency bitmasks of `adj`, its vertices indexed in key order."""
    idx = {v: i for i, v in enumerate(adj)}
    return [sum(1 << idx[u] for u in ns) for ns in adj.values()]


def _adjacency(g: Graph) -> dict[Vertex, set[Vertex]]:
    return {v: set(g.neighbors(v)) for v in g.vertices}


def is_planar(g: Graph) -> bool:
    """Standard planarity test: `_planar` on a set-adjacency copy of g."""
    return _planar(_adjacency(g))


def _rotation_system(adj: dict[Vertex, set[Vertex]], message: str) -> dict[Vertex, tuple[Vertex, ...]]:
    """The rotation system that `kernels.planar_rotation` embeds for the
    graph with adjacency `adj`; PreconditionError(message) when the graph
    is not planar."""
    names = list(adj)
    rotation = planar_rotation(len(names), _masks(adj))
    if rotation is None:
        raise PreconditionError(message)
    return {v: tuple(names[u] for u in ns) for v, ns in zip(names, rotation)}


def _fresh_names(g: Graph, count: int, stem: str) -> list[Vertex]:
    out = []
    i = 0
    while len(out) < count:
        name = f"__{stem}{i}"
        if not g.has_vertex(name):
            out.append(name)
        i += 1
    return out


def _augmented(tg: TerminalGraph) -> dict[Vertex, set[Vertex]]:
    """A set-adjacency copy of tg.graph plus fresh vertices, which is
    planar exactly when tg is disc-planar.

    Unordered terminals, and ordered ones up to three (which have one
    cyclic order up to reflection), get an apex joined to every terminal.
    Four or more ordered terminals t_1..t_k get a fence: fresh f_i joined
    to t_i and t_{i+1} (indices mod k), and a hub joined to every f_i.
    The cycle t_1 f_1 t_2 f_2 ... t_k f_k with the hub is a subdivided
    wheel, whose embedding is unique up to reflection.  Each of its spoke
    faces touches only one terminal, so every part of the graph that meets
    two or more terminals lies on the rim side, where the terminals sit
    in the given cyclic order.  A ring f_i f_{i+1} would add nothing to
    that, so the fence has none.
    """
    ts = tg.terminals
    if len(ts) < 1:
        raise InputDomainError("disc-planarity needs at least one terminal")
    if tg.ordered and len(ts) > 3:
        k = len(ts)
        *fence, hub = _fresh_names(tg.graph, k + 1, "fence")
        fresh = {f: {ts[i], ts[(i + 1) % k]} for i, f in enumerate(fence)}
        fresh[hub] = set(fence)
    else:
        (apex,) = _fresh_names(tg.graph, 1, "apex")
        fresh = {apex: set(ts)}
    adj = _adjacency(tg.graph)
    adj.update(fresh)
    for x, ns in fresh.items():
        for y in ns:
            adj[y].add(x)
    return adj


def is_disc_planar(tg: TerminalGraph) -> bool:
    """Can the graph be drawn in a closed disc with S on the boundary?

    Ordered terminal graphs must realize the given cyclic boundary order
    (up to rotation and reflection); unordered ones may use any order.
    `_planar` decides the set adjacency of `_augmented`; no `Graph` is
    built.
    """
    return _planar(_augmented(tg))


def embed(g: Graph) -> Embedding:
    """A deterministic combinatorial embedding of a planar graph."""
    return Embedding(_rotation_system(_adjacency(g), "graph is not planar"))


def _restrict_rotation(rotation, keep: set[Vertex]):
    return {v: tuple(u for u in ns if u in keep) for v, ns in rotation.items() if v in keep}


def _corner_dart(rotation, added: set[Vertex], keep: set[Vertex]) -> Dart | None:
    """A dart of the rotation restricted to `keep` on the face that held
    the apex or fence vertices `added` (connected, and disjoint from keep):
    at the first kept vertex (in vkey order) with a neighbour in added, the
    next kept neighbour after that one in rotation order.  None when no
    kept vertex has such a next neighbour."""
    for y in sorted(keep, key=vkey):
        ns = rotation[y]
        i = next((i for i, x in enumerate(ns) if x in added), None)
        if i is None:
            continue
        z = next((z for z in ns[i + 1 :] + ns[:i] if z in keep), None)
        if z is not None:
            return (y, z)
    return None


def embed_terminal(tg: TerminalGraph) -> Embedding:
    """A disc embedding: the outer face is the one holding the boundary.

    Built by embedding the apex/fence augmentation and deleting the
    augmentation vertices; the merged face left behind is the disc
    boundary face.
    """
    adj = _augmented(tg)
    rot_aug = _rotation_system(adj, "terminal pair is not disc-planar")
    keep = set(tg.graph.vertices)
    witness = _corner_dart(rot_aug, adj.keys() - keep, keep)
    return Embedding(_restrict_rotation(rot_aug, keep), outer_dart=witness)
