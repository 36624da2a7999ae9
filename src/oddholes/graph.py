"""Immutable simple-graph core: construction, interchange formats, traversal.

Vertices are dense integers ``0..n-1``; external names are out of scope.
graph6 is the canonical interchange format (bit-exact per the published
format description); the edge-list format ("n <count>" header, then one
"u v" pair per line) is the human-editable one.
"""

from __future__ import annotations

import re
from collections import deque
from math import isqrt
from typing import Iterable, Iterator, Sequence


class GraphError(Exception):
    """A structural invariant or an operation precondition was violated."""


class ParseError(Exception):
    """Malformed graph text; the message names the offending line or byte."""


class Graph:
    """Simple undirected graph on vertices ``0..n-1``.

    Instances are immutable after construction and safe to share across
    concurrent tasks; every operation in this package is a pure function
    of its inputs.  The bitmask adjacency is derived from the edges on
    first use; two tasks racing to build it build the same value.
    """

    __slots__ = ("n", "_adj", "_m", "_masks")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()) -> None:
        if n < 0:
            raise GraphError(f"vertex count must be nonnegative, got {n}")
        adj: list[set[int]] = [set() for _ in range(n)]
        m = 0
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise GraphError(f"self-loop at vertex {u}")
            if v not in adj[u]:
                adj[u].add(v)
                adj[v].add(u)
                m += 1
        self.n = n
        self._adj = tuple(frozenset(s) for s in adj)
        self._m = m
        self._masks: tuple[int, ...] | None = None

    @property
    def m(self) -> int:
        """Number of edges."""
        return self._m

    def neighbors(self, v: int) -> frozenset[int]:
        return self._adj[v]

    def neighbor_masks(self) -> tuple[int, ...]:
        """Adjacency as int bitmasks: bit ``w`` of entry ``v`` is set when
        v-w is an edge.  Built on first use and kept with the graph."""
        if self._masks is None:
            self._masks = tuple(vertex_mask(nbrs) for nbrs in self._adj)
        return self._masks

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return v in self._adj[u]

    def edges(self) -> list[tuple[int, int]]:
        """All edges as sorted (u, v) pairs with u < v."""
        return [(u, v) for u in range(self.n) for v in sorted(self._adj[u]) if u < v]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self._adj == other._adj

    def __hash__(self) -> int:
        return hash((self.n, self._adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self._m})"


# ---------------------------------------------------------------------------
# graph6 encoding (bit-exact)

_G6_HEADER = ">>graph6<<"
_G6_NONZERO = re.compile(r"[^?]")
# The set bits of a 6-bit value, as offsets from its most significant bit.
_G6_BITS = [tuple(b for b in range(6) if value >> (5 - b) & 1) for value in range(64)]


def _g6_encode_size(n: int) -> str:
    if n <= 62:
        return chr(n + 63)
    if n <= 258047:
        return "~" + "".join(chr(((n >> s) & 63) + 63) for s in (12, 6, 0))
    if n <= 68719476735:
        return "~~" + "".join(chr(((n >> s) & 63) + 63) for s in (30, 24, 18, 12, 6, 0))
    raise GraphError(f"graph too large for graph6: n={n}")


def to_graph6(g: Graph) -> str:
    """Encode a graph in graph6, without header or trailing newline."""
    parts = [_g6_encode_size(g.n)]
    bits = 0
    nbits = 0
    for j in range(1, g.n):
        column = g.neighbors(j)
        for i in range(j):
            bits = (bits << 1) | (1 if i in column else 0)
            nbits += 1
            if nbits == 6:
                parts.append(chr(bits + 63))
                bits = 0
                nbits = 0
    if nbits:
        bits <<= 6 - nbits
        parts.append(chr(bits + 63))
    return "".join(parts)


def parse_graph6(text: bytes | str) -> Graph:
    """Decode one graph6 line (optional ``>>graph6<<`` header tolerated)."""
    if isinstance(text, bytes):
        try:
            text = text.decode("ascii")
        except UnicodeDecodeError as exc:
            raise ParseError(f"graph6 input is not ASCII at byte {exc.start}") from None
    s = text.strip()
    if s.startswith(_G6_HEADER):
        s = s[len(_G6_HEADER):]
    if not s:
        raise ParseError("empty graph6 input")
    if min(s) < "?" or max(s) > "~":
        for pos, ch in enumerate(s):
            if not 63 <= ord(ch) <= 126:
                raise ParseError(f"invalid graph6 byte {ord(ch)} at offset {pos}")
    if s[0] != "~":
        n = ord(s[0]) - 63
        body = s[1:]
    elif len(s) >= 2 and s[1] != "~":
        if len(s) < 4:
            raise ParseError("truncated graph6 size field")
        n = 0
        for ch in s[1:4]:
            n = (n << 6) | (ord(ch) - 63)
        body = s[4:]
    else:
        if len(s) < 8:
            raise ParseError("truncated graph6 size field")
        n = 0
        for ch in s[2:8]:
            n = (n << 6) | (ord(ch) - 63)
        body = s[8:]
    nbits = n * (n - 1) // 2
    expected = (nbits + 5) // 6
    if len(body) != expected:
        raise ParseError(
            f"graph6 body length {len(body)} != expected {expected} for n={n}"
        )
    if nbits % 6:
        last = ord(body[-1]) - 63
        if last & ((1 << (6 - nbits % 6)) - 1):
            raise ParseError("nonzero padding bits in final graph6 byte")
    # Bit k of the body is the pair (i, j) with k = j(j-1)/2 + i, i < j;
    # only bytes other than "?" (all six bits clear) hold edges.
    edges = []
    for match in _G6_NONZERO.finditer(body):
        base = 6 * match.start()
        for offset in _G6_BITS[ord(match.group()) - 63]:
            k = base + offset
            j = (1 + isqrt(8 * k + 1)) // 2
            edges.append((k - j * (j - 1) // 2, j))
    return Graph(n, edges)


# ---------------------------------------------------------------------------
# edge-list format: header "n <count>", then one "u v" pair per line


def to_edge_list(g: Graph) -> str:
    lines = [f"n {g.n}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def parse_edge_list(text: bytes | str) -> Graph:
    if isinstance(text, bytes):
        try:
            text = text.decode("ascii")
        except UnicodeDecodeError as exc:
            raise ParseError(f"edge-list input is not ASCII at byte {exc.start}") from None
    n = None
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        tokens = line.split()
        if n is None:
            if len(tokens) != 2 or tokens[0] != "n" or not tokens[1].isdigit():
                raise ParseError(f"line {lineno}: expected header 'n <count>', got {line!r}")
            n = int(tokens[1])
            continue
        if len(tokens) != 2:
            raise ParseError(f"line {lineno}: expected 'u v', got {line!r}")
        try:
            u, v = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise ParseError(f"line {lineno}: non-integer vertex in {line!r}") from None
        if not (0 <= u < n and 0 <= v < n):
            raise ParseError(f"line {lineno}: vertex out of range in {line!r} (n={n})")
        if u == v:
            raise ParseError(f"line {lineno}: self-loop at vertex {u}")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise ParseError(f"line {lineno}: duplicate edge {u} {v}")
        seen.add(key)
        edges.append((u, v))
    if n is None:
        raise ParseError("missing 'n <count>' header line")
    return Graph(n, edges)


def parse_graph(text: bytes | str, fmt: str = "graph6") -> Graph:
    """Parse ``text`` in the named format ('graph6' or 'edge-list')."""
    if fmt == "graph6":
        return parse_graph6(text)
    if fmt == "edge-list":
        return parse_edge_list(text)
    raise ParseError(f"unknown graph format {fmt!r}")


# ---------------------------------------------------------------------------
# vertex sets as int bitmasks (bit v stands for vertex v)


def vertex_mask(vertices: Iterable[int]) -> int:
    """The mask with bit v set for each given vertex v."""
    mask = 0
    for v in vertices:
        mask |= 1 << v
    return mask


def mask_vertices(mask: int) -> Iterator[int]:
    """The vertices of a nonnegative mask, in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# ---------------------------------------------------------------------------
# traversal primitives


def bfs_levels(
    adj: Sequence[int], sources: int, within: int = -1, depth: int | None = None
) -> list[int]:
    """Breadth-first levels over the neighbor masks ``adj``: entry d is the
    mask of the vertices at distance d from the vertex mask ``sources``,
    walking only inside the mask ``within``, for d up to ``depth`` (all
    levels when None).  Sources outside ``within`` are dropped, and no level
    is empty, so the list has no entry at all when none is left.  The levels
    are disjoint, so their sum is the ball of radius ``depth``."""
    levels: list[int] = []
    seen = level = sources & within
    while level:
        levels.append(level)
        if len(levels) - 1 == depth:
            break
        reached = 0
        for v in mask_vertices(level):
            reached |= adj[v]
        level = reached & within & ~seen
        seen |= level
    return levels


def bfs_distances(
    adj: Sequence[int], sources: int, within: int = -1, depth: int | None = None
) -> dict[int, int]:
    """:func:`bfs_levels` as a map from each vertex reached to its distance."""
    levels = bfs_levels(adj, sources, within, depth)
    return {v: d for d, level in enumerate(levels) for v in mask_vertices(level)}


def _component_masks(adj: Sequence[int], within: int) -> Iterator[int]:
    """The components of the subgraph induced on the mask ``within``, as
    masks, by least vertex: each is the ball around its least vertex."""
    while within:
        comp = sum(bfs_levels(adj, within & -within, within))
        yield comp
        within ^= comp


def components(g: Graph) -> list[list[int]]:
    """Connected components as sorted vertex lists, ordered by minimum vertex."""
    return [list(mask_vertices(c)) for c in _component_masks(g.neighbor_masks(), (1 << g.n) - 1)]


def components_of_subset(g: Graph, subset: Iterable[int]) -> list[frozenset[int]]:
    """Components of the subgraph induced on ``subset``, ordered by minimum vertex."""
    vs = set(subset)
    if vs and not 0 <= min(vs) <= max(vs) < g.n:
        raise GraphError(f"subset vertex out of range for n={g.n}")
    return [frozenset(mask_vertices(c)) for c in _component_masks(g.neighbor_masks(), vertex_mask(vs))]


def _canonical_rotation(cycle: list[int]) -> tuple[int, ...]:
    """Rotate to the minimum vertex and orient toward its smaller neighbor."""
    i = cycle.index(min(cycle))
    rotated = cycle[i:] + cycle[:i]
    if len(rotated) > 2 and rotated[-1] < rotated[1]:
        rotated = [rotated[0]] + rotated[:0:-1]
    return tuple(rotated)


def bipartition_or_odd_cycle(
    g: Graph, scope: Iterable[int] | None = None
) -> tuple[dict[int, int] | None, tuple[int, ...] | None]:
    """2-color the subgraph induced on ``scope``, or exhibit an odd cycle in it.

    Returns ``(coloring, None)`` with colors in {0, 1}, or ``(None, cycle)``
    where the cycle (not necessarily induced) has odd length and lies inside
    the scope.  Exactly one of the two slots is populated.
    """
    vertices = sorted(set(scope)) if scope is not None else list(range(g.n))
    for v in vertices:
        if not 0 <= v < g.n:
            raise GraphError(f"scope vertex {v} out of range")
    in_scope = set(vertices)
    color: dict[int, int] = {}
    parent: dict[int, int | None] = {}
    for root in vertices:
        if root in color:
            continue
        color[root] = 0
        parent[root] = None
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for w in sorted(g.neighbors(u)):
                if w not in in_scope:
                    continue
                if w not in color:
                    color[w] = color[u] ^ 1
                    parent[w] = u
                    queue.append(w)
                elif color[w] == color[u]:
                    return None, _odd_cycle_from_parents(parent, u, w)
    return color, None


def _odd_cycle_from_parents(parent: dict[int, int | None], u: int, w: int) -> tuple[int, ...]:
    up_u = [u]
    while parent[up_u[-1]] is not None:
        up_u.append(parent[up_u[-1]])
    pos = {v: i for i, v in enumerate(up_u)}
    up_w = [w]
    while up_w[-1] not in pos:
        up_w.append(parent[up_w[-1]])
    meet = up_w[-1]
    cycle = up_u[: pos[meet] + 1] + up_w[-2::-1]
    assert len(cycle) % 2 == 1 and len(cycle) >= 3
    return _canonical_rotation(cycle)


def is_bipartite_subset(g: Graph, scope: Iterable[int] | None = None) -> bool:
    return bipartition_or_odd_cycle(g, scope)[0] is not None


def induced_subgraph(g: Graph, vertices: Iterable[int]) -> tuple[Graph, dict[int, int], list[int]]:
    """Subgraph induced on ``vertices`` with a dense relabeling.

    Returns ``(subgraph, to_sub, from_sub)`` where the relabeling is
    monotone in the original identifiers.
    """
    from_sub = sorted(set(vertices))
    for v in from_sub:
        if not 0 <= v < g.n:
            raise GraphError(f"vertex {v} out of range")
    to_sub = {v: i for i, v in enumerate(from_sub)}
    edges = [
        (to_sub[u], to_sub[v])
        for u in from_sub
        for v in g.neighbors(u)
        if v in to_sub and u < v
    ]
    return Graph(len(from_sub), edges), to_sub, from_sub


def is_induced_path(g: Graph, seq: Iterable[int]) -> bool:
    """True when ``seq`` is a path of distinct vertices with no edge between
    non-consecutive ones."""
    vs = list(seq)
    on_path = set(vs)
    if len(on_path) != len(vs) or (vs and not 0 <= min(vs) <= max(vs) < g.n):
        return False
    # Induced iff each vertex's neighbors on the path are exactly the
    # vertices next to it in the sequence.
    return all(
        g.neighbors(x) & on_path == set(vs[max(i - 1, 0):i + 2]) - {x} for i, x in enumerate(vs)
    )
