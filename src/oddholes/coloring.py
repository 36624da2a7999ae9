"""Proper colorings: the DSATUR heuristic and the layered 4-coloring.

The layered colorer exploits the structural fact driving this package: for
graphs of girth at least 6 with no odd hole of length 9 or more (class A,
ell = 3), every BFS layer induces a bipartite subgraph, so two colors per
layer parity suffice.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import (
    Graph,
    GraphError,
    bfs_distances,
    bipartition_or_odd_cycle,
    components,
    induced_subgraph,
)


@dataclass(frozen=True)
class Coloring:
    """Vertex -> color map; colors are small positive integers."""

    assignment: dict[int, int]

    @property
    def colors_used(self) -> int:
        return len(set(self.assignment.values()))

    def color_of(self, v: int) -> int:
        return self.assignment[v]


def is_proper(g: Graph, coloring: Coloring) -> bool:
    """Independent re-check: every vertex colored, no monochromatic edge."""
    a = coloring.assignment
    if set(a) != set(range(g.n)):
        return False
    return all(a[u] != a[v] for u, v in g.edges())


def dsatur(g: Graph) -> Coloring:
    """Greedy coloring in saturation-degree order.

    Ties break by degree, then by minimum vertex identifier, making the
    result deterministic.  Used wherever an upper bound on the chromatic
    number is enough.
    """
    n = g.n
    colors: dict[int, int] = {}
    neighbor_colors: list[set[int]] = [set() for _ in range(n)]
    uncolored = set(range(n))
    while uncolored:
        v = max(uncolored, key=lambda x: (len(neighbor_colors[x]), g.degree(x), -x))
        c = 1
        while c in neighbor_colors[v]:
            c += 1
        colors[v] = c
        uncolored.discard(v)
        for w in g.neighbors(v):
            if w in uncolored:
                neighbor_colors[w].add(c)
    return Coloring(colors)


def four_color_a3(g: Graph) -> tuple[Coloring | None, tuple[int, ...] | None]:
    """Color a connected graph with <= 4 colors via BFS layers, or exhibit why not.

    Layers are rooted at vertex 0.  Each layer is 2-colored; the final color
    is ``2 * (layer parity) + layer color``, proper by construction because
    edges join only consecutive layers or stay inside one.  If some layer is
    not bipartite, the odd cycle found inside it is returned as evidence
    that the graph is not in class A with ell = 3; success does not certify
    membership.
    """
    if g.n == 0:
        return Coloring({}), None
    if len(components(g)) != 1:
        raise GraphError("four_color_a3 requires a connected graph; color components separately")
    dist = bfs_distances(g, [0])
    layers: list[list[int]] = [[] for _ in range(max(dist.values()) + 1)]
    for v, d in dist.items():
        layers[d].append(v)
    assignment: dict[int, int] = {}
    for i, layer in enumerate(layers):
        two_coloring, odd_cycle = bipartition_or_odd_cycle(g, layer)
        if odd_cycle is not None:
            return None, odd_cycle
        base = 2 * (i % 2)
        for v, c in two_coloring.items():
            assignment[v] = base + c + 1
    return Coloring(assignment), None


def four_color_a3_components(g: Graph) -> tuple[Coloring | None, tuple[int, ...] | None]:
    """Apply the layered colorer per component and merge the colorings."""
    merged: dict[int, int] = {}
    for comp in components(g):
        sub, _, from_sub = induced_subgraph(g, comp)
        coloring, evidence = four_color_a3(sub)
        if evidence is not None:
            return None, tuple(from_sub[v] for v in evidence)
        for v, c in coloring.assignment.items():
            merged[from_sub[v]] = c
    return Coloring(merged), None
