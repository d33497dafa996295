"""Reading and writing graphs: graph6, plain edge lists, and DOT.

Edge-list format: first line is the vertex count n, then one `u v` pair
per line (0-indexed against the graph's canonical vertex order).  Terminal
graphs append a trailing ``S: i1 i2 ...`` line.  Parsed vertices get the
string ids "0".."n-1".
"""

from __future__ import annotations

from wheelkit.errors import InputDomainError
from wheelkit.graph import Graph, Vertex

_G6_MAX = 62


def to_graph6(g: Graph) -> str:
    """Encode in graph6 (vertices taken in canonical order)."""
    n = g.n
    if n > _G6_MAX:
        raise InputDomainError(f"graph6 writer supports n <= {_G6_MAX}, got {n}")
    idx = {v: i for i, v in enumerate(g.vertices)}
    bits = [0] * (n * (n - 1) // 2)
    for u, v in g.edges:
        i, j = sorted((idx[u], idx[v]))
        bits[j * (j - 1) // 2 + i] = 1
    out = [chr(n + 63)]
    for start in range(0, len(bits), 6):
        group = bits[start : start + 6]
        group += [0] * (6 - len(group))
        val = 0
        for b in group:
            val = (val << 1) | b
        out.append(chr(val + 63))
    return "".join(out)


def from_graph6(line: str) -> Graph:
    """Decode one graph6 line (optionally carrying the standard header)."""
    s = line.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<") :]
    if not s:
        raise InputDomainError("empty graph6 line")
    n = ord(s[0]) - 63
    if not 0 <= n <= _G6_MAX:
        raise InputDomainError("unsupported graph6 size prefix")
    need = (n * (n - 1) // 2 + 5) // 6
    body = s[1:]
    if len(body) < need:
        raise InputDomainError("truncated graph6 line")
    if len(body) > need:
        raise InputDomainError(f"graph6 line holds {len(body) - need} bytes past its {n}-vertex encoding")
    bits = []
    for ch in body:
        val = ord(ch) - 63
        if not 0 <= val < 64:
            raise InputDomainError(f"bad graph6 byte {ch!r}")
        bits.extend((val >> (5 - i)) & 1 for i in range(6))
    names = [str(i) for i in range(n)]
    edges = []
    k = 0
    for j in range(1, n):
        for i in range(j):
            if bits[k]:
                edges.append((names[i], names[j]))
            k += 1
    return Graph(names, edges)


def to_edgelist(g: Graph, terminals: tuple[Vertex, ...] | None = None) -> str:
    idx = {v: i for i, v in enumerate(g.vertices)}
    lines = [str(g.n)]
    lines += [f"{idx[u]} {idx[v]}" for u, v in g.edges]
    if terminals is not None:
        for t in terminals:
            if t not in idx:
                raise InputDomainError(f"terminal {t!r} not in graph")
        lines.append("S: " + " ".join(str(idx[t]) for t in terminals))
    return "\n".join(lines) + "\n"


def parse_edgelist(text: str) -> tuple[Graph, tuple[Vertex, ...] | None]:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise InputDomainError("empty edge-list input")
    try:
        n = int(lines[0])
    except ValueError as exc:
        raise InputDomainError(f"first line must be a vertex count: {lines[0]!r}") from exc
    if n < 0:
        raise InputDomainError("negative vertex count")
    names = [str(i) for i in range(n)]
    edges = []
    terminals = None
    for ln in lines[1:]:
        if ln.startswith("S:"):
            ids = ln[2:].split()
            terminals = tuple(names[_index(tok, n)] for tok in ids)
            continue
        parts = ln.split()
        if len(parts) != 2:
            raise InputDomainError(f"bad edge line: {ln!r}")
        u, v = (_index(tok, n) for tok in parts)
        edges.append((names[u], names[v]))
    return Graph(names, edges), terminals


def _index(tok: str, n: int) -> int:
    try:
        i = int(tok)
    except ValueError as exc:
        raise InputDomainError(f"bad vertex index {tok!r}") from exc
    if not 0 <= i < n:
        raise InputDomainError(f"vertex index {i} out of range 0..{n - 1}")
    return i


def to_dot(g: Graph, terminals: tuple[Vertex, ...] = ()) -> str:
    """DOT output for visual inspection; terminals are drawn as boxes."""
    tset = set(terminals)
    lines = ["graph G {"]
    for v in g.vertices:
        shape = "box" if v in tset else "circle"
        lines.append(f'  "{v}" [shape={shape}];')
    for u, v in g.edges:
        lines.append(f'  "{u}" -- "{v}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def sniff_graph(text: str) -> tuple[Graph, tuple[Vertex, ...] | None]:
    """Parse either format: edge list when the first line is an integer,
    otherwise a single graph6 line."""
    first = next((ln for ln in text.splitlines() if ln.strip()), "")
    try:
        int(first.strip())
    except ValueError:
        return from_graph6(first), None
    return parse_edgelist(text)
