"""Exact chromatic number: the ground truth for every chi comparison here.

Iterative deepening over k-colorability with DSATUR branching and
color-symmetry breaking (a new color may only be the next unused one).
Instances above the vertex cap get an explicit error, never a silent
heuristic; the cap can be overridden with the ODDHOLES_EXACT_CAP
environment variable.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Iterable

from .coloring import Coloring, dsatur
from .graph import Graph, GraphError, induced_subgraph
from .util import Deadline, check_deadline

DEFAULT_VERTEX_CAP = 64
_CAP_ENV = "ODDHOLES_EXACT_CAP"


class OracleCapExceeded(GraphError):
    """The instance is larger than the exact oracle's vertex cap."""


@dataclass(frozen=True)
class ChromaResult:
    chi: int
    coloring: Coloring


def _vertex_cap(cap: int | None) -> int:
    if cap is not None:
        return cap
    env = os.environ.get(_CAP_ENV)
    if not env:
        return DEFAULT_VERTEX_CAP
    try:
        return int(env)
    except ValueError:
        raise GraphError(f"{_CAP_ENV} must be an integer, got {env!r}") from None


def is_k_colorable(g: Graph, k: int, deadline: Deadline | None = None) -> Coloring | None:
    """A proper k-coloring, or None when exhaustive search rules one out."""
    if k < 0:
        raise GraphError(f"color count must be nonnegative, got {k}")
    n = g.n
    if n == 0:
        return Coloring({})
    if k == 0:
        return None
    if k >= n:
        return Coloring({v: v + 1 for v in range(n)})
    colors = [0] * n
    neighbor_colors: list[set[int]] = [set() for _ in range(n)]
    uncolored = set(range(n))

    def pick() -> int:
        return max(uncolored, key=lambda v: (len(neighbor_colors[v]), g.degree(v), -v))

    def assign(v: int, c: int) -> list[int]:
        colors[v] = c
        uncolored.discard(v)
        touched = []
        for w in g.neighbors(v):
            if colors[w] == 0 and c not in neighbor_colors[w]:
                neighbor_colors[w].add(c)
                touched.append(w)
        return touched

    def unassign(v: int, c: int, touched: list[int]) -> None:
        for w in touched:
            neighbor_colors[w].discard(c)
        colors[v] = 0
        uncolored.add(v)

    def backtrack(max_used: int) -> bool:
        check_deadline(deadline)
        if not uncolored:
            return True
        v = pick()
        limit = min(k, max_used + 1)
        for c in range(1, limit + 1):
            if c in neighbor_colors[v]:
                continue
            touched = assign(v, c)
            if backtrack(max(max_used, c)):
                return True
            unassign(v, c, touched)
        return False

    if backtrack(0):
        return Coloring({v: colors[v] for v in range(n)})
    return None


def _greedy_clique_lower_bound(g: Graph) -> int:
    if g.n == 0:
        return 0
    best = 1
    order = sorted(range(g.n), key=lambda v: (-g.degree(v), v))
    for v in order[: min(g.n, 16)]:
        clique = [v]
        for w in sorted(g.neighbors(v)):
            if all(g.has_edge(w, x) for x in clique):
                clique.append(w)
        best = max(best, len(clique))
    return best


def chromatic_number(
    g: Graph, cap: int | None = None, deadline: Deadline | None = None
) -> ChromaResult:
    """Exact chromatic number with an optimal coloring.

    Deterministic: the search order is fixed by saturation, degree, and
    vertex identifier.
    """
    limit = _vertex_cap(cap)
    if g.n > limit:
        raise OracleCapExceeded(
            f"instance too large for exact oracle (n={g.n}, cap={limit})"
        )
    if g.n == 0:
        return ChromaResult(0, Coloring({}))
    if g.m == 0:
        return ChromaResult(1, Coloring({v: 1 for v in range(g.n)}))
    upper = dsatur(g)
    lower = max(2, _greedy_clique_lower_bound(g))
    for k in range(lower, upper.colors_used):
        coloring = is_k_colorable(g, k, deadline)
        if coloring is not None:
            return ChromaResult(k, coloring)
    return ChromaResult(upper.colors_used, upper)


def chi(g: Graph, cap: int | None = None, deadline: Deadline | None = None) -> int:
    return chromatic_number(g, cap, deadline).chi


def chi_of_subset(
    g: Graph,
    vertices: Iterable[int],
    cap: int | None = None,
    deadline: Deadline | None = None,
) -> int:
    """Exact chromatic number of the subgraph induced on ``vertices``."""
    sub, _, _ = induced_subgraph(g, vertices)
    return chromatic_number(sub, cap, deadline).chi
