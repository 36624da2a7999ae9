"""Independent answer checks for the benchmark.

Nothing here calls into ``oddholes``: graphs are plain adjacency lists
(``list[set[int]]``), the class clauses are restated from the paper's
table, membership is decided with networkx's ``girth`` and
``chordless_cycles``, and the chromatic checks use their own greedy
clique and small backtracking colourer.  networkx is imported on first
use so that the benchmark's set-up time measures only the library.
"""

from __future__ import annotations

from collections import deque

Adj = list  # list[set[int]]


def adjacency(n: int, edges) -> Adj:
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def edge_list(adj: Adj) -> list[tuple[int, int]]:
    return [(u, v) for u in range(len(adj)) for v in sorted(adj[u]) if u < v]


def graph6(adj: Adj) -> bytes:
    """graph6 encoding: the upper triangle column by column, six bits per
    byte, after a size field of 1 byte (n < 63) or 4 bytes."""
    n = len(adj)
    bits = bytearray(b"0" * (n * (n - 1) // 2))
    for j in range(n):
        base = j * (j - 1) // 2
        for i in adj[j]:
            if i < j:
                bits[base + i] = ord("1")
    bits += b"0" * (-len(bits) % 6)
    size = [n] if n < 63 else [63, n >> 12, (n >> 6) & 63, n & 63]
    body = [int(bits[k:k + 6], 2) for k in range(0, len(bits), 6)]
    return bytes(x + 63 for x in size + body)


# ---------------------------------------------------------------------------
# class clauses, restated from the paper's table


def clauses(family: str, ell: int) -> tuple[int, int, bool]:
    """(minimum girth, minimum forbidden odd-hole length, 5-holes forbidden)."""
    girth_min = {"A": 2 * ell, "B": 4, "G": 2 * ell + 1, "F": 2 * ell + 1}[family]
    odd_min = 2 * ell + 5 if family == "G" else 2 * ell + 3
    return girth_min, odd_min, family == "B"


def violating_cycle_length(k: int, induced: bool, family: str, ell: int) -> bool:
    """True when a cycle of length k (induced or not) breaks a class clause."""
    girth_min, odd_min, no5 = clauses(family, ell)
    if k < girth_min:
        return True
    return induced and ((no5 and k == 5) or (k % 2 == 1 and k >= odd_min))


def is_induced_cycle(adj: Adj, cycle) -> bool:
    k = len(cycle)
    if k < 3 or len(set(cycle)) != k:
        return False
    for i in range(k):
        for j in range(i + 1, k):
            consecutive = j - i == 1 or (i == 0 and j == k - 1)
            if (cycle[j] in adj[cycle[i]]) != consecutive:
                return False
    return True


def is_member(adj: Adj, family: str, ell: int) -> bool:
    """Class membership from networkx: girth, then every chordless cycle of
    each non-bipartite block (a bipartite block holds no odd hole)."""
    import networkx as nx

    G = nx.Graph()
    G.add_nodes_from(range(len(adj)))
    G.add_edges_from(edge_list(adj))
    girth_min, odd_min, no5 = clauses(family, ell)
    if nx.girth(G) < girth_min:
        return False
    for block in nx.biconnected_components(G):
        H = G.subgraph(block)
        if len(block) < 5 or nx.is_bipartite(H):
            continue
        for cyc in nx.chordless_cycles(H):
            k = len(cyc)
            if (no5 and k == 5) or (k % 2 == 1 and k >= odd_min):
                return False
    return True


def greedy_clique(adj: Adj) -> int:
    """Size of the largest clique grown greedily from each vertex, a lower
    bound on chi."""
    best = 0
    for v in range(len(adj)):
        clique = {v}
        for w in sorted(adj[v], key=lambda x: -len(adj[x])):
            if clique <= adj[w]:
                clique.add(w)
        best = max(best, len(clique))
    return best


# ---------------------------------------------------------------------------
# colourings and chromatic numbers


def is_proper(adj: Adj, colour: dict) -> bool:
    """Every vertex coloured and no edge monochromatic."""
    return set(colour) == set(range(len(adj))) and all(
        colour[u] != colour[v] for u in range(len(adj)) for v in adj[u])


def chromatic_number(adj: Adj, vertices=None) -> int:
    """Exact chi of the subgraph induced on ``vertices`` by plain
    backtracking in a fixed largest-degree-first order.  Meant for the
    small, sparse sets the levelling checks hand it."""
    vs = sorted(range(len(adj)) if vertices is None else vertices, key=lambda v: -len(adj[v]))
    inside = set(vs)
    if not vs:
        return 0
    colour: dict[int, int] = {}

    def fits(i: int, k: int) -> bool:
        if i == len(vs):
            return True
        v = vs[i]
        used = {colour[w] for w in adj[v] if w in inside and w in colour}
        for c in range(min(k, max(colour.values(), default=-1) + 2)):
            if c not in used:
                colour[v] = c
                if fits(i + 1, k):
                    return True
                del colour[v]
        return False

    k = 1
    while not fits(0, k):
        k += 1
    return k


def two_colouring(adj: Adj, vertices) -> dict[int, int] | None:
    """A proper 2-colouring of the induced subgraph, or None if it has an
    odd cycle."""
    vs = set(vertices)
    side: dict[int, int] = {}
    for root in vs:
        if root in side:
            continue
        side[root] = 0
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for w in adj[u] & vs:
                if w not in side:
                    side[w] = 1 - side[u]
                    queue.append(w)
                elif side[w] == side[u]:
                    return None
    return side


def chi_at_least(adj: Adj, vertices, k: int) -> bool:
    """chi of the induced subgraph is at least k, for k <= 3: nonempty,
    has an edge, or holds an odd cycle (a BFS 2-colouring fails)."""
    vs = set(vertices)
    if k <= 1:
        return bool(vs) or k <= 0
    if k == 2:
        return any(adj[v] & vs for v in vs)
    if k > 3:
        raise ValueError("chi_at_least decides k <= 3 only")
    return two_colouring(adj, vs) is None


# ---------------------------------------------------------------------------
# levellings, paths and lollipops


def bfs_dist(adj: Adj, sources, within=None) -> dict[int, int]:
    dist = {s: 0 for s in sources}
    queue = deque(dist)
    while queue:
        u = queue.popleft()
        for w in adj[u]:
            if w not in dist and (within is None or w in within):
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def is_induced_path(adj: Adj, path) -> bool:
    if len(set(path)) != len(path):
        return False
    for i, a in enumerate(path):
        for j in range(i + 1, len(path)):
            if (path[j] in adj[a]) != (j == i + 1):
                return False
    return True


def shortest_induced_path(adj: Adj, u: int, v: int, pool, parity: str) -> int | None:
    """Edge count of a shortest induced u-v path of the given parity whose
    interior lies in ``pool``, or None if there is none.

    Parity first: if u, v and the pool induce a bipartite graph, every u-v
    path has the parity of the two sides, so the other parity has no path.
    Otherwise a depth-first enumeration of induced paths from u, cut off
    when the path so far plus the distance to v cannot beat the best found.
    """
    want = 0 if parity == "even" else 1
    if v in adj[u]:
        return 1 if want == 1 else None  # the edge would chord any longer path
    inside = set(pool) - {u, v}
    span = inside | {u, v}
    side = two_colouring(adj, span)
    if side is not None and u in side and v in side and (side[u] != side[v]) != want:
        return None
    dist = bfs_dist(adj, [v], within=span)
    if u not in dist:
        return None
    best: list = [None]
    path, on_path = [u], {u}

    def extend() -> None:
        edges = len(path) - 1
        for w in adj[path[-1]]:
            if w not in inside or w in on_path or w not in dist:
                continue
            if any(w in adj[x] for x in path[:-1]):
                continue
            if best[0] is not None and edges + 1 + dist[w] >= best[0]:
                continue
            if v in adj[w]:  # w can only be the last interior vertex
                if (edges + 2) % 2 == want:
                    best[0] = edges + 2
                continue
            path.append(w)
            on_path.add(w)
            extend()
            path.pop()
            on_path.discard(w)

    extend()
    return best[0]


def levelling_error(adj: Adj, levels) -> str | None:
    """None when the sets form a levelling: one root, every vertex with a
    parent one level up and no neighbour further up."""
    seen: set[int] = set()
    for level in levels:
        if seen & set(level):
            return "levels overlap"
        seen |= set(level)
    if not levels or len(levels[0]) != 1:
        return "level 0 is not a single root"
    for i in range(1, len(levels)):
        above = set().union(*levels[: i - 1]) if i > 1 else set()
        for v in levels[i]:
            if not adj[v] & set(levels[i - 1]):
                return f"vertex {v} of level {i} has no parent"
            if adj[v] & above:
                return f"vertex {v} of level {i} has a back edge"
    return None


def is_weak_stable(adj: Adj, levels) -> bool:
    """Levels 1..k-2 are independent sets (k = last index)."""
    return all(not (adj[v] & set(levels[i])) for i in range(1, len(levels) - 2) for v in levels[i])


def connected(adj: Adj, vertices) -> bool:
    vs = set(vertices)
    return bool(vs) and len(bfs_dist(adj, [min(vs)], within=vs)) == len(vs)


def lollipop_error(adj: Adj, core, stick) -> str | None:
    core = set(core)
    if len(stick) < 2 or not core or core & set(stick):
        return "malformed lollipop"
    if not is_induced_path(adj, stick):
        return "stick is not an induced path"
    if not connected(adj, core):
        return "core is not connected"
    if not adj[stick[-1]] & core or any(adj[t] & core for t in stick[:-1]):
        return "only the stick tip may touch the core"
    return None


def cleanliness(adj: Adj, core, stick) -> int:
    dist = bfs_dist(adj, core)
    count = 0
    for t in stick:
        if t in dist and dist[t] < 3:
            break
        count += 1
    return count


def ball(adj: Adj, source: int, radius: int) -> set[int]:
    """Vertices within ``radius`` edges of ``source``."""
    seen = {source}
    frontier = {source}
    for _ in range(radius):
        frontier = {w for u in frontier for w in adj[u]} - seen
        seen |= frontier
    return seen


def licking_exists(adj: Adj, core, stick, gain: int, target_chi: int) -> bool:
    """Whether some licking of the lollipop (core, stick) exists: a stick
    extended by core vertices into a longer induced path, and a connected
    core' inside the old core, with only the new tip touching core', the
    first ``cleanliness + gain`` stick vertices at distance >= 3 from
    core', and chi(core') >= target_chi (<= 3).

    For a fixed stick the best core' is a whole component of what the
    stick leaves of the core (chi and distances only grow by shrinking
    it), so the search runs over induced stick extensions and stops at the
    first that admits one.
    """
    core = set(core)
    target = cleanliness(adj, core, stick) + gain
    ball2 = {x: ball(adj, x, 2) for x in set(stick) | core}

    def closes(path) -> bool:
        avail = core - set(path)
        for x in path[:-1]:
            avail -= adj[x]
        for x in path[:target]:
            avail -= ball2[x]
        seen: set[int] = set()
        for start in adj[path[-1]] & avail:
            if start in seen:
                continue
            comp = set(bfs_dist(adj, [start], within=avail))
            seen |= comp
            if chi_at_least(adj, comp, target_chi):
                return True
        return False

    stack = [list(stick)]
    while stack:
        path = stack.pop()
        if closes(path):
            return True
        for w in adj[path[-1]] & core:
            if w not in path and not any(w in adj[x] for x in path[:-1]):
                stack.append(path + [w])
    return False
