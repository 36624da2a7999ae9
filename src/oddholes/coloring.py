"""Proper colorings: DSATUR, the saturation branch and bound behind the
exact oracle (DSATUR is its first descent), and the layered 4-coloring.

The layered colorer exploits the structural fact driving this package: for
graphs of girth at least 6 with no odd hole of length 9 or more (class A,
ell = 3), every BFS layer induces a bipartite subgraph, so two colors per
layer parity suffice.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Graph, bfs_levels, bipartition_or_odd_cycle, mask_vertices
from .util import Deadline


@dataclass(frozen=True)
class Coloring:
    """Vertex -> color map; colors are small positive integers."""

    assignment: dict[int, int]

    @property
    def colors_used(self) -> int:
        return len(set(self.assignment.values()))


def is_proper(g: Graph, coloring: Coloring) -> bool:
    """Independent re-check: every vertex colored, no monochromatic edge."""
    a = coloring.assignment
    if set(a) != set(range(g.n)):
        return False
    return all(a[u] != a[v] for u, v in g.edges())


def saturation_search(
    g: Graph, k: int, deadline: Deadline | None = None
) -> dict[int, int] | None:
    """DSATUR branch and bound: a proper coloring with at most ``k`` colors,
    as a vertex -> color dict in coloring order, or None when exhaustive
    search rules one out.

    Each node colors the uncolored vertex of highest saturation (distinct
    neighbor colors), ties broken by higher degree and then by lower vertex
    identifier, and tries its allowed colors in increasing order; a new
    color may only be the next unused one.  With ``k >= n`` the first
    descent never backtracks and is DSATUR itself.  The search keeps an
    explicit stack, so its depth is not bounded by the recursion limit, and
    checks the deadline once per node.
    """
    n = g.n
    adj = [g.neighbors(v) for v in range(n)]
    # key[v] = saturation * n + rank, rank ordering vertices by (degree, -v):
    # the largest key is the branch vertex.
    key = [0] * n
    for rank, v in enumerate(sorted(range(n), key=lambda v: (len(adj[v]), -v))):
        key[v] = rank
    used = [0] * n  # bit c of used[v]: a colored neighbor of v has color c
    colors = [0] * n
    uncolored = set(range(n))
    check = deadline.check if deadline is not None else None
    # Frames: (v, color, limit, max_used at entry, neighbors whose used
    # gained the color).
    stack: list[tuple[int, int, int, int, list[int]]] = []
    max_used = 0
    while True:
        if check is not None:
            check()
        if not uncolored:
            return {frame[0]: frame[1] for frame in stack}
        v = max(uncolored, key=key.__getitem__)
        limit = min(k, max_used + 1)
        c = 0
        while True:
            free = ((2 << limit) - (2 << c)) & ~used[v]  # allowed colors c+1..limit
            if free:
                break
            if not stack:
                return None
            v, c, limit, max_used, touched = stack.pop()
            bit = 1 << c
            for w in touched:
                used[w] ^= bit
                key[w] -= n
            colors[v] = 0
            uncolored.add(v)
        c = (free & -free).bit_length() - 1
        bit = 1 << c
        colors[v] = c
        uncolored.discard(v)
        touched = []
        for w in adj[v]:
            if not colors[w] and not used[w] & bit:
                used[w] |= bit
                key[w] += n
                touched.append(w)
        stack.append((v, c, limit, max_used, touched))
        if c > max_used:
            max_used = c


def dsatur(g: Graph) -> Coloring:
    """Greedy coloring in saturation-degree order.

    Ties break by degree, then by minimum vertex identifier, making the
    result deterministic.  Used wherever an upper bound on the chromatic
    number is enough.
    """
    return Coloring(saturation_search(g, g.n))


def four_color_a3_components(g: Graph) -> tuple[Coloring | None, tuple[int, ...] | None]:
    """Color a graph with <= 4 colors via BFS layers, or exhibit why not.

    Each component is layered from its least vertex.  Each layer is
    2-colored; the final color is ``2 * (layer parity) + layer color``,
    proper by construction because edges join only consecutive layers or
    stay inside one.  If some layer is not bipartite, the odd cycle found
    inside it is returned as evidence that the graph is not in class A with
    ell = 3; success does not certify membership.
    """
    adj = g.neighbor_masks()
    assignment: dict[int, int] = {}
    rest = (1 << g.n) - 1
    while rest:
        for i, layer in enumerate(bfs_levels(adj, rest & -rest)):
            rest ^= layer
            two_coloring, odd_cycle = bipartition_or_odd_cycle(g, mask_vertices(layer))
            if odd_cycle is not None:
                return None, odd_cycle
            base = 2 * (i % 2)
            for v, c in two_coloring.items():
                assignment[v] = base + c + 1
    return Coloring(assignment), None
