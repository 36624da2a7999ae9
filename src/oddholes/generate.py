"""Named graphs, the Mycielski construction, and seeded class-member generation.

Random members are built edge by edge: candidate pairs are visited in a
seeded random order and an edge is kept only when the partial graph still
satisfies every clause of the target class; the partial graph is one list
of neighbor masks, updated in place, and one ``Graph`` is built at the end.
Every new cycle runs through the new edge, so one BFS from its end decides
most edges: one that joins two components closes no cycle, one that closes
too short a cycle breaks the girth bound, and one that leaves its component
bipartite closes no odd cycle, while every other clause bans an odd length.
The rest get one induced-cycle search through the edge, inside the 2-core
of the component that BFS found, which keeps generation tractable under
high-girth constraints where generate-then-filter would be hopeless.

Randomness comes from splitmix64 (the standard 64-bit splittable
generator); see the format reference for the exact algorithm so corpora
reproduce byte-for-byte elsewhere.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Graph, GraphError, mask_vertices
from .holes import ClassSpec, forbidden_cycle_through_edge
from .util import Deadline, check_deadline

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """splitmix64: golden-ratio increments plus two xor-multiply mixes."""

    __slots__ = ("state",)

    def __init__(self, seed: int) -> None:
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        # Modulo bias is irrelevant here; determinism is what matters.
        return self.next_u64() % n

    def shuffle(self, items: list) -> None:
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]


# ---------------------------------------------------------------------------
# named constructions (canonical numbering documented in the format reference)


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise GraphError(f"cycle needs at least 3 vertices, got {n}")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n: int) -> Graph:
    if n < 1:
        raise GraphError(f"path needs at least 1 vertex, got {n}")
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def complete_bipartite(a: int, b: int) -> Graph:
    if a < 0 or b < 0:
        raise GraphError("part sizes must be nonnegative")
    return Graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def petersen() -> Graph:
    """Outer 5-cycle 0..4, inner pentagram 5..9, spokes i -- i+5."""
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    return Graph(10, edges)


def mycielskian(g: Graph) -> Graph:
    """Shadow construction: raises the chromatic number, keeps triangles out.

    Vertices 0..n-1 are the originals, n..2n-1 their shadows (shadow n+i
    adjacent to the neighbors of i), and vertex 2n an apex adjacent to all
    shadows.
    """
    n = g.n
    edges = list(g.edges())
    edges += [(n + i, j) for i in range(n) for j in g.neighbors(i)]
    edges += [(n + i, 2 * n) for i in range(n)]
    return Graph(2 * n + 1, edges)


def grotzsch() -> Graph:
    """The Mycielskian of the 5-cycle: 11 vertices, 20 edges, triangle-free."""
    return mycielskian(cycle_graph(5))


def random_tree(n: int, seed: int) -> Graph:
    if n < 1:
        raise GraphError(f"tree needs at least 1 vertex, got {n}")
    rng = SplitMix64(seed)
    return Graph(n, [(rng.below(i), i) for i in range(1, n)])


def named_graph(name: str, *args: int) -> Graph:
    """Dispatch on a construction name: cycle(n), path(n),
    complete_bipartite(a, b), petersen, grotzsch, tree(n, seed)."""
    table = {
        "cycle": (cycle_graph, 1),
        "path": (path_graph, 1),
        "complete_bipartite": (complete_bipartite, 2),
        "petersen": (petersen, 0),
        "grotzsch": (grotzsch, 0),
        "tree": (random_tree, 2),
    }
    if name not in table:
        raise GraphError(f"unknown named graph {name!r}")
    fn, arity = table[name]
    if len(args) != arity:
        raise GraphError(f"{name} takes {arity} parameter(s), got {len(args)}")
    return fn(*args)


# ---------------------------------------------------------------------------
# seeded generation of class members


@dataclass(frozen=True)
class GenSpec:
    """Deterministic recipe for one random class member."""

    cspec: ClassSpec
    n: int
    density: float
    seed: int
    retry_budget: int = 0  # 0 disables the rejection cutoff

    def __post_init__(self) -> None:
        if self.n < 0:
            raise GraphError(f"vertex count must be nonnegative, got {self.n}")
        if not 0.0 <= self.density <= 1.0:
            raise GraphError(f"density must lie in [0, 1], got {self.density}")


@dataclass
class GenResult:
    graph: Graph
    attempts: int
    added: int
    rejected: int
    degenerate: bool


def _edge_admissible(adj: list[int], u: int, v: int, cspec: ClassSpec,
                     deadline: Deadline | None) -> bool:
    """Whether the member with neighbor masks ``adj`` plus the edge (u, v)
    is still a member; if so the edge is added to ``adj``, else ``adj`` is
    left as it was.  One BFS from u, level by level, finds v's distance,
    u's component and whether an old edge lies inside a level, which is
    the only way an edge joins two equal BFS parities."""
    seen = level = 1 << u
    d, dv, flat = 0, None, False
    while level:
        if level >> v & 1:
            if d + 1 < cspec.girth_min:  # the shortest new cycle is too short
                return False
            dv = d
        reached = 0
        for x in mask_vertices(level):
            reached |= adj[x]
            if adj[x] & level:
                flat = True
        level = reached & ~seen
        seen |= level
        d += 1
    adj[u] |= 1 << v
    adj[v] |= 1 << u
    # An edge between components closes no cycle, and one that keeps its
    # component bipartite no odd one; every clause left bans odd lengths.
    searched = dv is not None and (dv % 2 == 0 or flat)
    if searched and forbidden_cycle_through_edge(adj, u, v, cspec, seen, deadline) is not None:
        adj[u] ^= 1 << v
        adj[v] ^= 1 << u
        return False
    return True


def generate_member(gs: GenSpec, deadline: Deadline | None = None) -> GenResult:
    """Grow a member of the class edge by edge; the result always passes
    membership because every accepted edge was re-checked through itself.
    The deadline is checked once per attempt and inside each search."""
    n = gs.n
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng = SplitMix64(gs.seed)
    rng.shuffle(pairs)
    budget = round(gs.density * len(pairs))
    adj = [0] * n
    edges: list[tuple[int, int]] = []
    attempts = rejected = 0
    for u, v in pairs[:budget]:
        if gs.retry_budget > 0 and rejected >= gs.retry_budget:
            break
        check_deadline(deadline)
        attempts += 1
        if _edge_admissible(adj, u, v, gs.cspec, deadline):
            edges.append((u, v))
        else:
            rejected += 1
    return GenResult(
        graph=Graph(n, edges),
        attempts=attempts,
        added=len(edges),
        rejected=rejected,
        degenerate=attempts > 0 and not edges,
    )


def random_in_class(gs: GenSpec, deadline: Deadline | None = None) -> Graph:
    return generate_member(gs, deadline).graph


def corpus_filename(gs: GenSpec) -> str:
    return f"{gs.cspec.family}{gs.cspec.ell}_{gs.n}_{gs.seed}.g6"
