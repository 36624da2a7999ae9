"""Exact chromatic number: the ground truth for every chi comparison here.

Iterative deepening over k-colorability, from a greedy clique bound up to
the DSATUR count.  Each k runs ``coloring.saturation_search``: DSATUR
branch and bound (Brelaz 1979; San Segundo 2012) with color-symmetry
breaking (a new color may only be the next unused one), neighbor colors
kept as int bitmasks, one integer priority key per vertex, and an explicit
stack of frames, so long inputs hit no recursion limit.  Instances above
the vertex cap get an explicit error, never a silent heuristic; the cap
is set only by the ODDHOLES_EXACT_CAP environment variable.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Iterable

from .coloring import Coloring, dsatur, saturation_search
from .graph import Graph, GraphError, induced_subgraph
from .util import Deadline

DEFAULT_VERTEX_CAP = 64
_CAP_ENV = "ODDHOLES_EXACT_CAP"


class OracleCapExceeded(GraphError):
    """The instance is larger than the exact oracle's vertex cap."""


@dataclass(frozen=True)
class ChromaResult:
    chi: int
    coloring: Coloring


def _vertex_cap() -> int:
    env = os.environ.get(_CAP_ENV)
    try:
        return int(env) if env else DEFAULT_VERTEX_CAP
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
    found = saturation_search(g, k, deadline)
    if found is None:
        return None
    return Coloring(dict(sorted(found.items())))


def _greedy_clique_lower_bound(g: Graph) -> int:
    if g.n == 0:
        return 0
    masks = g.neighbor_masks()
    best = 1
    order = sorted(range(g.n), key=lambda v: (-g.degree(v), v))
    for v in order[: min(g.n, 16)]:
        size, common = 1, masks[v]  # common: vertices adjacent to the whole clique
        for w in sorted(g.neighbors(v)):
            if common >> w & 1:
                size += 1
                common &= masks[w]
        best = max(best, size)
    return best


def chromatic_number(g: Graph, deadline: Deadline | None = None) -> ChromaResult:
    """Exact chromatic number with an optimal coloring.

    Deterministic: the search order is fixed by saturation, degree, and
    vertex identifier.
    """
    limit = _vertex_cap()
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


def chi_of_subset(g: Graph, vertices: Iterable[int], deadline: Deadline | None = None) -> int:
    """Exact chromatic number of the subgraph induced on ``vertices``."""
    sub, _, _ = induced_subgraph(g, vertices)
    return chromatic_number(sub, deadline).chi
