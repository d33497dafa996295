"""Immutable simple graphs and the surgery operations used everywhere else.

Vertex ids are opaque strings.  Derived graphs keep the original ids, and
new ids are always caller-supplied; nothing in this module invents names.
Vertices and edges are kept in a deterministic canonical order so that
serialized output is byte-stable across runs.

All operations are pure: inputs are never mutated, equal inputs give
identical outputs, and values are safe to share between workers.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Mapping

from wheelkit.errors import InputDomainError

Vertex = str
Edge = tuple[Vertex, Vertex]


def vkey(v: Vertex) -> tuple[int, str]:
    """Canonical vertex sort key; numeric-looking ids order naturally."""
    return (len(v), v)


def norm_edge(u: Vertex, v: Vertex) -> Edge:
    """The canonical (ordered) form of the undirected edge {u, v}."""
    if u == v:
        raise InputDomainError(f"self-loop at {u!r}")
    return (u, v) if (len(u), u) < (len(v), v) else (v, u)


class Graph:
    """A finite simple undirected graph with string vertex ids."""

    __slots__ = ("_vertices", "_edges", "_adj", "_hash")

    def __init__(self, vertices: Iterable[Vertex] = (), edges: Iterable = ()):
        vs = set()
        for v in vertices:
            if not isinstance(v, str):
                raise InputDomainError(f"vertex ids must be strings: {v!r}")
            vs.add(v)
        es = set()
        for e in edges:
            u, v = e
            if not isinstance(u, str) or not isinstance(v, str):
                raise InputDomainError(f"vertex ids must be strings: {e!r}")
            es.add(norm_edge(u, v))
            vs.add(u)
            vs.add(v)
        self._fill(
            tuple(sorted(vs, key=vkey)),
            tuple(sorted(es, key=lambda e: (len(e[0]), e[0], len(e[1]), e[1]))),
        )

    @classmethod
    def _from_canonical(cls, vertices: Iterable[Vertex], edges: Iterable[Edge]) -> "Graph":
        """The graph on `vertices`, already in vkey order, and `edges`,
        already normalised and in edge order, with their ends among the
        vertices.  Nothing is checked or sorted: subgraphs filtered out
        of a graph's own tuples, and `generate._from_masks` graphs over
        names in vkey order, are already canonical."""
        g = cls.__new__(cls)
        g._fill(tuple(vertices), tuple(edges))
        return g

    def _fill(self, vertices: tuple[Vertex, ...], edges: tuple[Edge, ...]) -> None:
        self._vertices = vertices
        self._edges = edges
        # Edges come in vkey order, so each vertex first meets its smaller
        # neighbours (as the second end, by the first end's key) and then
        # its larger ones (as the first end, by the second end's key):
        # every neighbour list is built already sorted.
        adj: dict[Vertex, list[Vertex]] = {v: [] for v in vertices}
        for u, v in edges:
            adj[u].append(v)
            adj[v].append(u)
        self._adj: dict[Vertex, tuple[Vertex, ...]] = {v: tuple(ns) for v, ns in adj.items()}
        self._hash = hash((vertices, edges))

    # -- basic queries ----------------------------------------------------

    @property
    def vertices(self) -> tuple[Vertex, ...]:
        return self._vertices

    @property
    def edges(self) -> tuple[Edge, ...]:
        return self._edges

    @property
    def n(self) -> int:
        return len(self._vertices)

    @property
    def m(self) -> int:
        return len(self._edges)

    def has_vertex(self, v: Vertex) -> bool:
        return v in self._adj

    def has_edge(self, u: Vertex, v: Vertex) -> bool:
        return u in self._adj and v in self._adj[u]

    def neighbors(self, v: Vertex) -> tuple[Vertex, ...]:
        if v not in self._adj:
            raise InputDomainError(f"unknown vertex {v!r}")
        return self._adj[v]

    def degree(self, v: Vertex) -> int:
        return len(self.neighbors(v))

    def edge_set(self) -> frozenset[Edge]:
        return frozenset(self._edges)

    # -- derived graphs ---------------------------------------------------

    def induced(self, vs: Iterable[Vertex]) -> "Graph":
        keep = set(vs)
        unknown = keep - self._adj.keys()
        if unknown:
            raise InputDomainError(f"unknown vertex ids: {sorted(unknown, key=vkey)}")
        return Graph._from_canonical(
            (v for v in self._vertices if v in keep),
            (e for e in self._edges if e[0] in keep and e[1] in keep),
        )

    def components(self) -> tuple[frozenset[Vertex], ...]:
        """The vertex sets of the components, in the vkey order of their
        least vertices (`flood_components` over the adjacency)."""
        return tuple(frozenset(c) for c in flood_components(self._adj, self._vertices))

    # -- dunder -----------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph)
            and self._vertices == other._vertices
            and self._edges == other._edges
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def flood_components(
    adj: Mapping[Vertex, Iterable[Vertex]], order: Iterable[Vertex], skip: Iterable[Vertex] = ()
) -> list[list[Vertex]]:
    """The vertex lists of the components of the graph `adj` minus `skip`.

    `order` holds every vertex.  A flood fill starts from each vertex of
    `order` that no earlier fill reached and never enters `skip`, so each
    list starts at its component's first vertex in `order`, and the lists
    come in that order: with `order` in vkey order, the vkey order of the
    components' least vertices.  A vertex with no neighbour is a
    component of its own.  Linear time (Hopcroft and Tarjan, CACM 1973).
    """
    seen = set(skip)
    comps = []
    for start in order:
        if start in seen:
            continue
        seen.add(start)
        comp = [start]
        for x in comp:
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    comp.append(y)
        comps.append(comp)
    return comps


# -- surgery operations ---------------------------------------------------


def remove(g: Graph, vertices: Iterable[Vertex] = (), edges: Iterable = ()) -> Graph:
    """Delete a vertex set and an edge set.

    The result is the subgraph induced on the surviving vertices, minus the
    listed edges.  Listed edges must join two surviving vertices; they need
    not actually be present.
    """
    s = set(vertices)
    unknown = s - set(g.vertices)
    if unknown:
        raise InputDomainError(f"unknown vertex ids: {sorted(unknown, key=vkey)}")
    drop = set()
    for e in edges:
        u, v = e
        if u in s or v in s:
            raise InputDomainError(f"edge {e!r} touches a deleted vertex")
        if not (g.has_vertex(u) and g.has_vertex(v)):
            raise InputDomainError(f"edge {e!r} has an unknown endpoint")
        drop.add(norm_edge(u, v))
    return Graph._from_canonical(
        (v for v in g.vertices if v not in s),
        (e for e in g.edges if e[0] not in s and e[1] not in s and e not in drop),
    )


def add(g: Graph, vertices: Iterable[Vertex] = (), edges: Iterable = ()) -> Graph:
    """Add fresh vertices and new edges; simplicity is enforced.

    New vertex ids must be disjoint from the existing ones, and every new
    edge must join two distinct vertices of the enlarged graph without
    duplicating an existing edge (or another new edge).
    """
    new_vs = list(vertices)
    clash = set(new_vs) & set(g.vertices)
    if clash:
        raise InputDomainError(f"vertex ids already present: {sorted(clash, key=vkey)}")
    if len(set(new_vs)) != len(new_vs):
        raise InputDomainError("duplicate ids in new vertex set")
    allowed = set(g.vertices) | set(new_vs)
    new_es = set()
    for e in edges:
        u, v = e
        if u not in allowed or v not in allowed:
            raise InputDomainError(f"edge {e!r} has an unknown endpoint")
        ne = norm_edge(u, v)
        if g.has_edge(u, v) or ne in new_es:
            raise InputDomainError(f"duplicate edge {ne!r}")
        new_es.add(ne)
    return Graph(allowed, [*g.edges, *new_es])


def identify(g: Graph, u: Vertex, w: Vertex, name: Vertex) -> Graph:
    """Merge u and w into a single vertex `name`; parallel edges collapse."""
    if u == w:
        raise InputDomainError("cannot identify a vertex with itself")
    for x in (u, w):
        if not g.has_vertex(x):
            raise InputDomainError(f"unknown vertex {x!r}")
    if name in set(g.vertices) - {u, w}:
        raise InputDomainError(f"id {name!r} already names another vertex")
    merged_nbrs = (set(g.neighbors(u)) | set(g.neighbors(w))) - {u, w}
    keep = [v for v in g.vertices if v not in (u, w)]
    es = [e for e in g.edges if u not in e and w not in e]
    es += [norm_edge(name, x) for x in merged_nbrs]
    return Graph(keep + [name], es)


def union(g1: Graph, g2: Graph) -> Graph:
    """Vertex-wise and edge-wise union (shared ids are glued)."""
    return Graph(set(g1.vertices) | set(g2.vertices), set(g1.edges) | set(g2.edges))


# -- small constructors (shared by tests, the catalog, and generators) -----


def path_graph(names: Iterable[Vertex]) -> Graph:
    ns = list(names)
    return Graph(ns, [(ns[i], ns[i + 1]) for i in range(len(ns) - 1)])


def cycle_graph(names: Iterable[Vertex]) -> Graph:
    ns = list(names)
    if len(ns) < 3:
        raise InputDomainError("cycle needs at least 3 vertices")
    return Graph(ns, [(ns[i], ns[(i + 1) % len(ns)]) for i in range(len(ns))])


def complete_graph(names: Iterable[Vertex]) -> Graph:
    ns = list(names)
    return Graph(ns, combinations(ns, 2))

