"""Search kernels over bitmask adjacency, in pure Python.

These are the hot loops of the whole package: exact 4-coloring, exact
vertex-disjoint linkage, the Menger count of internally disjoint paths
between two vertices that screens the K5 search before linkage, and
planarity and planar embedding by path addition.  A graph enters
through `index_graph`, which numbers its vertices in canonical order and
builds one adjacency bitmask per vertex.  It caps the vertex count at
63 to bound the searches.  Planarity is uncapped: `planarity` indexes a
graph of any size through the same loop, `_index`, and appends its
augmentation vertices as the next bit positions.

All kernels are deterministic:
- coloring picks the uncolored vertex with the fewest admissible colors
  (ties by index) and tries colors in ascending order;
- linkage runs iterative deepening on the total path length and grows
  paths by ascending neighbor index;
- the disjoint-path count answers yes or no, from common neighbors or
  from breadth-first augmenting paths;
- planarity embeds one path at a time, a forced fragment first, else the
  first fragment in its first admissible face.
"""

from __future__ import annotations

from wheelkit.errors import ResourceLimitError
from wheelkit.graph import Graph, Vertex

BACKEND = "pure"

MAX_KERNEL_VERTICES = 63

_FULL = 0b1111


def index_graph(g: Graph) -> tuple[dict[Vertex, int], list[int]]:
    """Vertex-to-index map and per-vertex adjacency bitmasks of g.

    Indices follow `g.vertices`.  Raises ResourceLimitError above
    MAX_KERNEL_VERTICES vertices.
    """
    if g.n > MAX_KERNEL_VERTICES:
        raise ResourceLimitError(
            f"kernels capped at {MAX_KERNEL_VERTICES} vertices, got {g.n}"
        )
    return _index(g)


def _index(g: Graph) -> tuple[dict[Vertex, int], list[int]]:
    """`index_graph` without the cap."""
    idx = {v: i for i, v in enumerate(g.vertices)}
    adj = [0] * g.n
    for u, v in g.edges:
        adj[idx[u]] |= 1 << idx[v]
        adj[idx[v]] |= 1 << idx[u]
    return idx, adj


def four_color_masks(n: int, adj: list[int]) -> list[int] | None:
    """Exact proper 4-coloring; colors are 0..3, or None if none exists.

    Backtracking with forced-move propagation: assigning a color removes
    it from uncolored neighbors, and a neighbor left with no admissible
    color fails the branch immediately.
    """
    if n == 0:
        return []
    colors = [-1] * n
    avail = [_FULL] * n
    nbrs = [_bits(adj[v]) for v in range(n)]

    def solve() -> bool:
        best = -1
        best_k = 5
        for v in range(n):
            if colors[v] == -1:
                k = avail[v].bit_count()
                if k < best_k:
                    best_k = k
                    best = v
                    if k <= 1:
                        break
        if best == -1:
            return True
        v = best
        mask = avail[v]
        for c in range(4):
            bit = 1 << c
            if not mask & bit:
                continue
            colors[v] = c
            trail = []
            dead = False
            for u in nbrs[v]:
                if colors[u] == -1 and avail[u] & bit:
                    avail[u] &= ~bit
                    trail.append(u)
                    if avail[u] == 0:
                        dead = True
                        break
            if not dead and solve():
                return True
            for u in trail:
                avail[u] |= bit
            colors[v] = -1
        return False

    return colors[:] if solve() else None


def linkage_masks(
    n: int,
    adj: list[int],
    pairs: list[tuple[int, int]],
    forbidden: int,
) -> list[list[int]] | None:
    """Exact vertex-disjoint linkage for the given terminal pairs.

    Finds simple paths, one per pair, whose interiors avoid `forbidden`,
    every pair endpoint, and each other.  Paths may share endpoints only
    where the pairs themselves do.  Complete: returns None only when no
    linkage exists.  Iterative deepening on the total edge count makes the
    first witness a minimum-total one.
    """
    k = len(pairs)
    if k == 0:
        return []
    ep_mask = 0
    for s, t in pairs:
        ep_mask |= (1 << s) | (1 << t)

    # Static per-pair lower bounds: BFS distance ignoring the other paths
    # (admissible).  Interiors may not use forbidden vertices or foreign
    # endpoints, so those are excluded from the frontier except at the
    # pair's own endpoints.
    lbs = []
    for s, t in pairs:
        block = (forbidden | ep_mask) & ~((1 << s) | (1 << t))
        d = bfs_dist(adj, s, t, block)
        if d < 0:
            return None
        lbs.append(d)
    suffix_lb = [0] * (k + 1)
    for i in range(k - 1, -1, -1):
        suffix_lb[i] = suffix_lb[i + 1] + lbs[i]

    free = n - ((ep_mask | forbidden) & ((1 << n) - 1)).bit_count()
    ub = free + k
    paths: list[list[int]] = [[] for _ in range(k)]
    nbrs = [_bits(adj[v]) for v in range(n)]

    def reachable_all(i: int, used: int) -> bool:
        for j in range(i, k):
            s, t = pairs[j]
            block = (used | forbidden) & ~((1 << s) | (1 << t))
            if bfs_dist(adj, s, t, block) < 0:
                return False
        return True

    def route(i: int, used: int, budget: int) -> bool:
        if i == k:
            return True
        if not reachable_all(i, used):
            return False
        s, t = pairs[i]
        limit = budget - suffix_lb[i + 1]

        def extend(v: int, length: int, interior: int) -> bool:
            for w in nbrs[v]:
                if w == t:
                    paths[i] = [s] + interior_order + [t]
                    if route(i + 1, used | interior, budget - (length + 1)):
                        return True
                    continue
                bit = 1 << w
                # used already contains forbidden and all pair endpoints
                if (used | interior) & bit:
                    continue
                if length + 1 >= limit:
                    continue
                interior_order.append(w)
                if extend(w, length + 1, interior | bit):
                    return True
                interior_order.pop()
            return False

        interior_order: list[int] = []
        # Direct edge s-t handled inside extend (w == t at length 0).
        return extend(s, 0, 0)

    total = suffix_lb[0]
    while total <= ub:
        if route(0, ep_mask | forbidden, total):
            return [p[:] for p in paths]
        total += 1
    return None


def disjoint_paths_at_least(n: int, adj: list[int], s: int, t: int, k: int) -> bool:
    """Whether s and t are joined by k internally vertex-disjoint paths.

    A direct edge s-t counts as one path.  When the common neighbors and
    the direct edge already number k the answer is yes at once.
    Otherwise the flow starts from the paths s-c-t through the common
    neighbors c and grows by augmenting paths until it reaches k or no
    augmenting path is left; by Menger's theorem the flow's value is the
    largest number of such paths.

    The flow is held as links: `nxt[v]` and `prv[v]` are the vertices
    after and before v on its flow path (-1 off every path), and `first`
    is the bitmask of the vertices that follow s.  An augmenting path is
    found by breadth-first search over the vertex-split graph, in which
    every vertex but s and t has capacity one: a vertex is entered, then
    left.  A vertex on a flow path can be entered only to go back along
    its in-arc, and left by a fresh arc or back through its own entry.
    `seen_in` and `seen_out` mark the states reached; `via_in[w]` is the
    vertex left just before w is entered, and `via_out[v]` the vertex
    entered just before v is left.
    """
    direct = adj[s] >> t & 1
    common = adj[s] & adj[t]
    found = direct + common.bit_count()
    if found >= k:
        return True
    sbit, tbit = 1 << s, 1 << t
    prv = [-1] * n
    nxt = [-1] * n
    first = common
    rest = common
    while rest:
        b = rest & -rest
        rest ^= b
        c = b.bit_length() - 1
        prv[c], nxt[c] = s, t
    via_in = [0] * n
    via_out = [0] * n
    while found < k:
        seen_in, seen_out = 0, sbit
        leave = sbit  # the vertices left in the current layer
        while True:
            enter = 0
            while leave:
                b = leave & -leave
                leave ^= b
                v = b.bit_length() - 1
                if v == s:
                    fresh = adj[s] & ~(tbit | first)
                else:
                    fresh = adj[v] & ~sbit
                    w = nxt[v]
                    if w >= 0:
                        fresh &= ~(1 << w)
                        if not seen_in & b:
                            via_in[v] = v
                            enter |= b
                            seen_in |= b
                fresh &= ~seen_in
                seen_in |= fresh
                enter |= fresh
                while fresh:
                    b = fresh & -fresh
                    fresh ^= b
                    via_in[b.bit_length() - 1] = v
            if seen_in & tbit:
                break
            while enter:
                b = enter & -enter
                enter ^= b
                w = b.bit_length() - 1
                u = prv[w]
                if u < 0:
                    u = w
                if not seen_out >> u & 1:
                    via_out[u] = w
                    seen_out |= 1 << u
                    leave |= 1 << u
            if not leave:
                return False
        # Walk the path back from t.  Leaving u into another vertex w adds
        # the arc u-w; leaving u back through its own entry takes u off the
        # flow; going from an entered x back to the vertex u before it
        # cancels the arc u-x.
        w = t
        while True:
            u = via_in[w]
            if u == w:
                nxt[u] = -1
            else:
                prv[w] = u
                if u == s:
                    first |= 1 << w
                    break
                nxt[u] = w
            x = via_out[u]
            if x != u:
                prv[x] = -1
            w = x
        found += 1
    return True


def planar_masks(adj: list[int]) -> bool:
    """Exact planarity test.  `_core` reduces a copy of the graph first:
    deleting a vertex of degree at most 1 or smoothing one of degree 2
    keeps planarity both ways, and keeps the cycle rank (smoothing onto
    an edge that is already there lowers it by one).  Then each
    connected part is screened, with `size` vertices and m edges; a part
    no screen settles goes to `_embed_part`.
    - m <= 8 or m - size < 3 is planar: a subdivided K5 or K3,3 has 9
      edges or more, and cycle rank m - size + 1 of 4 or more.
    - size <= 5 with m <= 3 size - 6 is planar: only K5 is non-planar on
      at most 5 vertices, and it has 10 > 9 edges.
    - m > 3 size - 6 is not planar, by Euler's formula (size >= 5 here).
    """
    adj = adj[:]
    parts = _parts(_core(adj), adj)
    while parts:
        part = parts.pop()
        size = part.bit_count()
        m = sum((adj[v] & part).bit_count() for v in _bits(part)) // 2
        if m <= 8 or m - size < 3 or (size <= 5 and m <= 3 * size - 6):
            continue
        if m > 3 * size - 6 or _embed_part(adj, part, parts) is None:
            return False
    return True


def _core(adj: list[int]) -> int:
    """Reduce `adj` in place to its core: delete vertices of degree at
    most 1 and smooth vertices of degree 2 until none is left, and return
    the bitmask of the vertices left, each of degree 3 or more.  Smoothing
    v with neighbours a and b drops v and adds the edge a-b, unless it is
    already there.  A deleted vertex keeps no neighbours, so popping it
    again changes nothing."""
    alive = (1 << len(adj)) - 1
    stack = [v for v, ns in enumerate(adj) if ns.bit_count() <= 2]
    while stack:
        v = stack.pop()
        ns = adj[v]
        if ns.bit_count() > 2:
            continue
        bit = 1 << v
        alive &= ~bit
        adj[v] = 0
        if not ns:
            continue
        a = ns & -ns
        u = a.bit_length() - 1
        adj[u] ^= bit
        b = ns ^ a
        if b:
            w = b.bit_length() - 1
            adj[u] |= b
            adj[w] = (adj[w] ^ bit) | a
        if adj[u].bit_count() <= 2:
            stack.append(u)
        if b and adj[w].bit_count() <= 2:
            stack.append(w)
    return alive


def planar_rotation(adj: list[int]) -> list[list[int]] | None:
    """The neighbours of each vertex in the cyclic order of a planar
    embedding, or None when the graph is not planar.  Each face walk
    ... p v s ... of a part from `_embed_part` puts s just after p around
    v; these pairs chain into one cycle per block at v, and the blocks at
    a cut vertex follow each other there."""
    succ: list[dict[int, int]] = [{} for _ in adj]
    parts = _parts((1 << len(adj)) - 1, adj)
    while parts:
        faces = _embed_part(adj, parts.pop(), parts)
        if faces is None:
            return None
        for face in faces:
            for i, v in enumerate(face):
                succ[v][face[i - 1]] = face[(i + 1) % len(face)]
    rotation = []
    for after in succ:
        order = []
        while after:
            u = next(iter(after))
            while u in after:
                order.append(u)
                u = after.pop(u)
        rotation.append(order)
    return rotation


def _parts(left: int, adj: list[int]) -> list[int]:
    """The vertex bitmasks of the connected components of the subgraph
    induced by `left`."""
    parts = []
    while left:
        part, _ = _flood(adj, left & -left, left)
        left &= ~part
        parts.append(part)
    return parts


def _flood(adj: list[int], seed: int, allowed: int) -> tuple[int, int]:
    """The vertices reachable from `seed` inside `allowed`, and the union
    of their neighbourhoods."""
    comp = frontier = seed
    reach = 0
    while frontier:
        nxt = 0
        while frontier:
            b = frontier & -frontier
            frontier ^= b
            nxt |= adj[b.bit_length() - 1]
        reach |= nxt
        frontier = nxt & allowed & ~comp
        comp |= frontier
    return comp, reach


def _cycle(adj: list[int], part: int) -> list[int]:
    """A cycle of the connected subgraph induced by `part`, or [] when it
    has none: the tree path that the first back edge of a depth-first
    search closes."""
    v = (part & -part).bit_length() - 1
    path = [v]
    on_path = seen = 1 << v
    while path:
        u = path[-1]
        back = adj[u] & on_path
        if len(path) > 1:
            back &= ~(1 << path[-2])
        if back:
            return path[path.index((back & -back).bit_length() - 1) :]
        fresh = adj[u] & part & ~seen
        if fresh:
            b = fresh & -fresh
            path.append(b.bit_length() - 1)
            seen |= b
            on_path |= b
        else:
            path.pop()
            on_path ^= 1 << u
    return []


def _embed_part(adj: list[int], part: int, parts: list[int]) -> list[list[int]] | None:
    """The faces, as closed walks, of a planar embedding of the connected
    subgraph induced by `part` by path addition (Demoucron, Malgrange and
    Pertuiset, 1964), or None if it is not planar.  Parts hanging at a
    single vertex are appended to `parts`.

    A part with no cycle hands back each edge u-w as the walk u w, a block
    of its own at both ends.  Otherwise the cycle and its reverse are the
    two faces of the embedded subgraph H.  Each round computes the
    fragments of H: an edge between embedded vertices that is not yet
    embedded (a chord), or a component of the part minus H with the edges
    that join it to H.  A fragment's attachments are the embedded
    vertices it meets; it fits a face that holds all of them.  A fragment
    that fits no face makes the part non-planar.  A fragment that fits
    exactly one face goes there; otherwise the first fragment goes into
    its first face.  One path of the fragment between two attachments is
    embedded, which splits that face in two, each walked the way the face
    was.  A component with a single attachment v is a union of blocks
    hanging at v, so it is set aside with v as a part of its own and
    dropped from the current one; every fragment left has two attachments
    or more, and H stays 2-connected, its faces cycles.
    """
    cycle = _cycle(adj, part)
    if not cycle:
        return [[u, w] for u in _bits(part) for w in _bits(adj[u] & part & ~((2 << u) - 1))]
    _, emb = face = _face(cycle)
    n = len(adj)
    done = [0] * n  # the embedded neighbours of each vertex
    for i, v in enumerate(cycle):
        u = cycle[i - 1]
        done[u] |= 1 << v
        done[v] |= 1 << u
    faces = [_face(cycle[::-1]), face]
    prev = [0] * n
    while True:
        # fragments as (attachments, component), a chord with component 0
        frags = []
        for u in _bits(emb):
            rest = adj[u] & emb & ~done[u] & ~((2 << u) - 1)
            for w in _bits(rest):
                frags.append(((1 << u) | (1 << w), 0))
        free = part & ~emb
        while free:
            comp, reach = _flood(adj, free & -free, free)
            free &= ~comp
            att = reach & emb
            if att & (att - 1):
                frags.append((att, comp))
            else:
                parts.append(comp | att)
                part &= ~comp
        if not frags:
            return [boundary for boundary, _ in faces]
        choice = None
        for att, comp in frags:
            fits = [i for i, (_, mask) in enumerate(faces) if not att & ~mask]
            if not fits:
                return None
            if len(fits) == 1:
                choice = att, comp, fits[0]
                break
            if choice is None:
                choice = att, comp, fits[0]
        att, comp, fi = choice
        a = (att & -att).bit_length() - 1
        if comp:
            # breadth-first from a into the component, up to a vertex that
            # sees another attachment b; the path runs b .. a
            others = att & ~(1 << a)
            start = adj[a] & comp
            queue = _bits(start)
            for x in queue:
                prev[x] = a
            seen = start
            for x in queue:
                hit = adj[x] & others
                if hit:
                    path = [(hit & -hit).bit_length() - 1, x]
                    while x != a:
                        x = prev[x]
                        path.append(x)
                    break
                fresh = adj[x] & comp & ~seen
                seen |= fresh
                for y in _bits(fresh):
                    prev[y] = x
                    queue.append(y)
        else:
            path = _bits(att)
        for u, v in zip(path, path[1:]):
            done[u] |= 1 << v
            done[v] |= 1 << u
        inner = path[1:-1]
        for v in inner:
            emb |= 1 << v
        # the face walked from path[0]: up to path[-1], then back again
        boundary, _ = faces[fi]
        i = boundary.index(path[0])
        walk = boundary[i:] + boundary[:i]
        j = walk.index(path[-1])
        faces[fi] = _face(walk[: j + 1] + inner[::-1])
        faces.append(_face(walk[j:] + walk[:1] + inner))


def _face(cycle: list[int]) -> tuple[list[int], int]:
    """A face: its boundary cycle and the bitmask of its vertices."""
    mask = 0
    for v in cycle:
        mask |= 1 << v
    return cycle, mask


def bfs_dist(adj: list[int], s: int, t: int, block: int) -> int:
    """Shortest path length from s to t with interior vertices outside
    `block`; -1 when unreachable."""
    if s == t:
        return 0
    if adj[s] & (1 << t):
        return 1
    seen = (1 << s) | block
    frontier = adj[s] & ~seen
    d = 1
    while frontier:
        # t is never expanded through: reaching it returns immediately.
        if frontier & (1 << t):
            return d
        seen |= frontier
        nxt = 0
        f = frontier
        while f:
            b = f & -f
            nxt |= adj[b.bit_length() - 1]
            f ^= b
        frontier = nxt & ~seen
        d += 1
    return -1


# -- helpers ---------------------------------------------------------------


def _bits(mask: int) -> list[int]:
    out = []
    while mask:
        b = mask & -mask
        out.append(b.bit_length() - 1)
        mask ^= b
    return out
