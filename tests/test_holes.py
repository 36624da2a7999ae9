import hashlib

import pytest

from oddholes import (
    ClassSpec,
    Graph,
    GraphError,
    class_membership,
    complete_bipartite,
    cycle_graph,
    enumerate_induced_cycles,
    find_long_odd_hole,
    girth,
    grotzsch,
    hole_attachment_profile,
    induced_cycles_of_length,
    is_induced_cycle,
    petersen,
    random_in_class,
    random_tree,
    shortest_cycle,
    witness_violates,
    GenSpec,
)
from oddholes.util import Deadline, DeadlineExceeded
from naive_oracles import (
    all_anchor_cycles_of_length,
    all_roots_girth,
    naive_induced_cycles,
    pairwise_is_induced_cycle,
    planted_odd_hole,
    random_graph,
    set_bfs_distances,
    set_induced_cycle_search,
    sweep_two_core,
)


class TestGirth:
    def test_cycles(self):
        for n in range(3, 10):
            assert girth(cycle_graph(n)) == n

    def test_trees_acyclic(self):
        for seed in range(5):
            assert girth(random_tree(12, seed)) is None

    def test_petersen(self):
        assert girth(petersen()) == 5

    def test_grotzsch(self):
        assert girth(grotzsch()) == 4

    def test_shortest_cycle_is_canonical_and_induced(self):
        for seed in range(30):
            g = random_graph(11, 0.3, seed)
            g0 = girth(g)
            cyc = shortest_cycle(g)
            if g0 is None:
                assert cyc is None
                continue
            assert len(cyc) == g0
            assert is_induced_cycle(g, cyc)
            assert cyc[0] == min(cyc) and cyc[1] < cyc[-1]

    def test_girth_matches_naive_minimum(self):
        # Shortest cycles are induced, so girth equals the naive minimum.
        for seed in range(40):
            g = random_graph(9, 0.3, seed)
            naive = naive_induced_cycles(g, 9)
            expect = min((len(c) for c in naive), default=None)
            assert girth(g) == expect

    def test_expired_deadline_stops_girth_and_membership(self):
        g, _ = planted_odd_hole(1001, 7)
        with pytest.raises(DeadlineExceeded):
            girth(g, Deadline(-1.0))
        with pytest.raises(DeadlineExceeded):
            class_membership(g, ClassSpec("G", 2), Deadline(-1.0))


def disjoint_union(*graphs):
    edges, offset = [], 0
    for h in graphs:
        edges += [(u + offset, v + offset) for u, v in h.edges()]
        offset += h.n
    return Graph(offset, edges)


class TestAnchorPoolsAgainstAllRoots:
    """girth and induced_cycles_of_length search anchor pools; the kept
    all-roots / all-anchor versions and networkx give the same answers."""

    GRAPHS = (
        [random_graph(n, p, seed) for n, p, seed in
         [(12, 0.3, 1), (20, 0.15, 2), (30, 0.1, 3), (40, 0.06, 4), (60, 0.04, 5), (80, 0.03, 6)]]
        + [random_tree(n, seed) for n, seed in [(1, 0), (15, 1), (40, 2)]]
        + [Graph(0), Graph(5), disjoint_union(random_tree(10, 3), random_tree(7, 4))]
        + [disjoint_union(random_graph(25, 0.12, 7), cycle_graph(9), random_tree(6, 5)),
           disjoint_union(petersen(), grotzsch(), complete_bipartite(3, 3), cycle_graph(8))]
        + [planted_odd_hole(length, length)[0] for length in (3, 5, 7, 9, 15)]
        + [disjoint_union(planted_odd_hole(7, 1)[0], planted_odd_hole(5, 2)[0])]
    )

    @pytest.mark.parametrize("g", GRAPHS, ids=repr)
    def test_girth(self, g):
        nx = pytest.importorskip("networkx")
        nxg = nx.Graph(g.edges())
        nxg.add_nodes_from(range(g.n))
        expected = nx.girth(nxg)
        assert girth(g) == all_roots_girth(g) == (None if expected == float("inf") else expected)

    @pytest.mark.parametrize("g", GRAPHS, ids=repr)
    def test_cycles_of_each_length(self, g):
        for k in range(3, 10):
            assert induced_cycles_of_length(g, k) == all_anchor_cycles_of_length(g, k)


class TestEnumerateInducedCycles:
    def test_c5(self):
        out = enumerate_induced_cycles(cycle_graph(5), 10)
        assert len(out) == 1 and out[0].length == 5

    def test_k33_four_holes(self):
        out = enumerate_induced_cycles(complete_bipartite(3, 3), 4)
        assert len(out) == 9 and all(w.length == 4 for w in out)

    def test_petersen_census(self):
        out = enumerate_induced_cycles(petersen(), 6)
        lengths = sorted(w.length for w in out)
        assert lengths == [5] * 12 + [6] * 10

    def test_petersen_nothing_longer_is_induced(self):
        out = enumerate_induced_cycles(petersen(), 10)
        assert sorted(w.length for w in out) == [5] * 12 + [6] * 10

    def test_max_len_precondition(self):
        with pytest.raises(GraphError, match="max_len"):
            enumerate_induced_cycles(cycle_graph(5), 2)

    def test_canonical_form(self):
        for w in enumerate_induced_cycles(random_graph(10, 0.35, 1), 10):
            cyc = w.cycle
            assert cyc[0] == min(cyc)
            assert cyc[1] < cyc[-1]
            assert is_induced_cycle(random_graph(10, 0.35, 1), cyc)

    def test_matches_naive_enumeration(self):
        for seed in range(30):
            g = random_graph(9, 0.35, seed)
            got = {w.cycle for w in enumerate_induced_cycles(g, 9)}
            assert got == naive_induced_cycles(g, 9)

    def test_triangle_kind(self):
        out = enumerate_induced_cycles(Graph(3, [(0, 1), (1, 2), (0, 2)]), 3)
        assert [w.kind for w in out] == ["triangle"]

    @pytest.mark.parametrize("seed", range(20))
    def test_route_prune_matches_distance_prune(self, seed):
        # The listing prunes by a route that fits max_len, the fixed-length
        # searches by distance; max_len cuts longer cycles off 17 of these 20.
        n = 14 + seed
        g = random_graph(n, 4 / n, seed)
        max_len = 4 + seed % 7
        expected = [c for k in range(3, max_len + 1) for c in induced_cycles_of_length(g, k)]
        assert [w.cycle for w in enumerate_induced_cycles(g, max_len)] == expected


class TestFindLongOddHole:
    def test_c9(self):
        assert find_long_odd_hole(cycle_graph(9), 9) == tuple(range(9))

    def test_c7_below_threshold(self):
        assert find_long_odd_hole(cycle_graph(7), 9) is None

    def test_bipartite_fast_path(self):
        assert find_long_odd_hole(complete_bipartite(7, 7), 5) is None

    def test_shortest_is_reported(self):
        # C9 and C11 sharing nothing: the 9-hole wins.
        edges = [(i, (i + 1) % 9) for i in range(9)]
        edges += [(9 + i, 9 + (i + 1) % 11) for i in range(11)]
        g = Graph(20, edges)
        assert find_long_odd_hole(g, 9) == tuple(range(9))

    def test_matches_naive_on_random_graphs(self):
        for seed in range(25):
            g = random_graph(10, 0.25, seed)
            naive = {
                c for c in naive_induced_cycles(g, 10) if len(c) % 2 and len(c) >= 5
            }
            got = find_long_odd_hole(g, 5)
            if not naive:
                assert got is None
            else:
                best = min(len(c) for c in naive)
                assert got == min(c for c in naive if len(c) == best)

    def test_through_edge_searches_require_an_edge(self):
        from oddholes.holes import forbidden_cycle_through_edge

        adj, everything = cycle_graph(6).neighbor_masks(), (1 << 6) - 1
        assert forbidden_cycle_through_edge(adj, 0, 1, ClassSpec("A", 4), everything) == tuple(range(6))
        assert forbidden_cycle_through_edge(adj, 0, 1, ClassSpec("B", 2), everything) is None
        with pytest.raises(GraphError, match="not an edge"):
            forbidden_cycle_through_edge(adj, 0, 2, ClassSpec("A", 4), everything)
        with pytest.raises(GraphError, match="not an edge"):
            forbidden_cycle_through_edge(adj, 0, 3, ClassSpec("B", 2), everything)


class TestSearchDepth:
    """Searches deeper than the interpreter's recursion limit."""

    def test_cycle_through_edge_of_c3001(self):
        from oddholes.holes import forbidden_cycle_through_edge

        # Girth bound 3002: the cycle is banned as too short.
        adj = cycle_graph(3001).neighbor_masks()
        got = forbidden_cycle_through_edge(adj, 0, 1, ClassSpec("A", 1501), (1 << 3001) - 1)
        assert got == tuple(range(3001))

    def test_odd_cycle_through_edge_of_c3001(self):
        from oddholes.holes import forbidden_cycle_through_edge

        # Odd holes from length 9 on are banned.
        adj = cycle_graph(3001).neighbor_masks()
        got = forbidden_cycle_through_edge(adj, 0, 1, ClassSpec("B", 3), (1 << 3001) - 1)
        assert got == tuple(range(3001))


class TestBitmaskEngine:
    """The bitmask engine yields the same cycles in the same order as the
    set-based search it replaced; ceiling/floor paths and the searches
    through an edge keep the first hit, so order is part of the answer."""

    @staticmethod
    def _starts(g, rng):
        s = rng.randrange(g.n)
        edge = rng.choice(g.edges())
        non_edges = [(u, v) for u in range(g.n) for v in range(u + 1, g.n) if not g.has_edge(u, v)]
        u, v = rng.choice(non_edges)
        # (path0, floor): a vertex anchor, an edge, a non-edge.
        return [([s], s), ([0], 0), (list(edge), -1), ([v, u], -1)]

    def test_same_sequence_as_set_based_search(self):
        import random

        from oddholes.graph import vertex_mask
        from oddholes.holes import induced_cycle_search

        hits = 0
        for seed in range(16):
            g = random_graph(16, 0.22 + 0.01 * (seed % 8), seed)
            rng = random.Random(seed)
            pool = {v for v in range(g.n) if rng.random() < 0.8}
            for path0, floor in self._starts(g, rng):
                pool_dist = set_bfs_distances(g, [path0[0]], within=pool | set(path0))
                for kwargs in (
                    {},
                    {"max_len": 6},
                    {"exact": 5},
                    {"exact": 8},
                    {"allowed": pool},
                    {"max_len": 7, "allowed": pool},
                    {"exact": 6, "allowed": pool},
                    {"exact": 7, "allowed": pool, "dist": pool_dist},
                ):
                    expected = list(set_induced_cycle_search(g, path0, floor=floor, **kwargs))
                    if "allowed" in kwargs:
                        kwargs = dict(kwargs, allowed=vertex_mask(kwargs["allowed"]))
                    got = list(induced_cycle_search(g.neighbor_masks(), path0, floor=floor, **kwargs))
                    assert got == expected, (seed, path0, kwargs)
                    hits += len(got)
        assert hits > 1000  # the cases exercise the search, not just empty pools

    def test_two_core_matches_sweep(self):
        import random

        from oddholes.graph import mask_vertices, vertex_mask
        from oddholes.holes import _two_core

        for seed in range(30):
            g = random_graph(30, 0.04 + 0.005 * (seed % 10), seed)
            rng = random.Random(seed)
            within = [v for v in range(g.n) if rng.random() < 0.8]
            core = _two_core(g.neighbor_masks(), vertex_mask(within))
            assert set(mask_vertices(core)) == sweep_two_core(g, within)

    def test_anchor_pools_are_two_cores_above_the_anchor(self):
        from oddholes.graph import mask_vertices
        from oddholes.holes import _anchor_pools

        for seed in range(20):
            g = random_graph(30, 0.06 + 0.005 * (seed % 10), seed)
            within = range(0, g.n, 1 + seed % 2)
            expected = []
            for s in range(g.n):
                core = sweep_two_core(g, [v for v in within if v >= s])
                if s in core:
                    expected.append((s, core))
            got = [(s, set(mask_vertices(pool))) for s, pool in _anchor_pools(g, within)]
            assert got == expected


class SearchBudget(Deadline):
    """Counts search checks and stops the search after ``limit`` of them, so
    a regression in search work fails fast instead of running on."""

    def __init__(self, limit: int) -> None:
        super().__init__(None)
        self.limit = limit
        self.checks = 0

    def check(self) -> None:
        self.checks += 1
        if self.checks > self.limit:
            raise DeadlineExceeded(f"more than {self.limit} search checks")


class TestLongHoleWork:
    """Long odd holes cost one exact-length search per odd length; anchor
    pools and per-anchor distance maps keep that near L**2 checks."""

    def test_c1001_in_g2(self):
        # About 253k checks; one search per (length, anchor) with whole-graph
        # distances runs past the limit.
        budget = SearchBudget(400_000)
        verdict = class_membership(cycle_graph(1001), ClassSpec("G", 2), budget)
        assert verdict.witness.kind == "long-odd-hole"
        assert verdict.witness.cycle == tuple(range(1001))

    def test_planted_c151_with_pendant_trees(self):
        import random

        # About 6k checks (78k without anchor pools).
        rng = random.Random(151)
        length, n = 151, 302
        edges = [(i, (i + 1) % length) for i in range(length)]
        edges += [(rng.randrange(v), v) for v in range(length, n)]
        perm = list(range(n))
        rng.shuffle(perm)
        g = Graph(n, [(perm[u], perm[v]) for u, v in edges])
        budget = SearchBudget(20_000)
        verdict = class_membership(g, ClassSpec("G", 2), budget)
        cycle = verdict.witness.cycle
        assert set(cycle) == {perm[i] for i in range(length)}
        assert is_induced_cycle(g, cycle) and len(cycle) == length
        assert cycle[0] == min(cycle) and cycle[1] < cycle[-1]


class TestReachabilityPruneWork:
    """The existence pass of find_long_odd_hole has no length bound; tips
    that cannot reach the anchor any more are pruned, so it does not walk
    every induced path of a graph with many of them."""

    def test_dense_random_graph(self):
        # G(300, 4/300): about 450 checks for a 7-hole and 5.5k for a
        # 9-hole; without the prune the first search ran past 10 s.
        g = random_graph(300, 4 / 300, 4)
        assert len(find_long_odd_hole(g, 7, SearchBudget(5_000))) == 7
        assert len(find_long_odd_hole(g, 9, SearchBudget(20_000))) == 9


class TestBoundedSearchWork:
    """A search under max_len prunes by a free route back to the anchor that
    fits the bound, and membership stops at its first violation."""

    def test_c2001_listing(self):
        # 3,999 checks; 2,004,999 when the bound switched the route prune off.
        out = enumerate_induced_cycles(cycle_graph(2001), 2001, SearchBudget(4_000))
        assert [w.cycle for w in out] == [tuple(range(2001))]

    def test_girth_violation_settles_membership(self):
        # 11 checks; 35 when the 5-hole clause ran after the triangle.
        g = Graph(12, petersen().edges() + [(0, 10), (10, 11), (0, 11)])
        verdict = class_membership(g, ClassSpec("B", 3), SearchBudget(11))
        assert (verdict.witness.kind, verdict.witness.cycle) == ("triangle", (0, 10, 11))


class TestGirthWork:
    """girth and class_membership search each anchor's pool only; on an odd
    hole carrying pendant trees the hole's least vertex is the one anchor."""

    def test_planted_c1001_girth_is_one_anchor(self):
        # The all-roots search ran a whole-graph BFS from each of the 2002
        # vertices.
        g, _ = planted_odd_hole(1001, 1001)
        assert girth(g, SearchBudget(4)) == 1001

    def test_planted_c1001_in_g2(self):
        # About 253k checks, nearly all in the long-odd-hole length scan.
        g, hole = planted_odd_hole(1001, 1001)
        verdict = class_membership(g, ClassSpec("G", 2), SearchBudget(260_000))
        assert verdict.witness.kind == "long-odd-hole"
        assert set(verdict.witness.cycle) == hole


class TestPinnedVerdicts:
    """sha256 of the repr of the class_membership verdicts over a fixed set
    of sparse random graphs and planted odd holes, fixed so that verdicts
    and witnesses stay the same."""

    def test_verdict_digest(self):
        graphs = [
            random_graph(n, c / n, seed)
            for seed, n in enumerate((100, 150, 200))
            for c in (1.5, 2.5, 4.0)
        ]
        graphs += [planted_odd_hole(length, length)[0] for length in (31, 61)]
        verdicts = [
            class_membership(g, ClassSpec(family, ell))
            for g in graphs
            for family, ell in (("G", 2), ("A", 3), ("B", 3), ("F", 2))
        ]
        digest = hashlib.sha256(repr(verdicts).encode()).hexdigest()
        assert digest == "a2e8e97289a11eac1cb844e6543dc24a630c8b2b44ee4af7c7eededc929d4e2e"


class TestAgainstNetworkx:
    """Differential check against networkx's chordless-cycle enumeration on
    sparse G(n, c/n); the cases cover a 9-hole, an 11-hole, a 13-hole beyond
    the enumeration bound, and no long odd hole at all."""

    CASES = [(40, 2.5, 2), (60, 2.0, 1), (80, 2.0, 2), (100, 1.5, 1), (100, 1.5, 2), (120, 2.5, 2)]

    @pytest.mark.parametrize("n, c, seed", CASES)
    def test_sparse_random_graph(self, n, c, seed):
        import random

        nx = pytest.importorskip("networkx")
        rng = random.Random(f"{n}/{c}/{seed}")
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < c / n]
        g = Graph(n, edges)
        nxg = nx.Graph(edges)
        nxg.add_nodes_from(range(n))
        expected = [frozenset(cyc) for cyc in nx.chordless_cycles(nxg, length_bound=12)]
        got = [frozenset(w.cycle) for w in enumerate_induced_cycles(g, 12)]
        assert sorted(map(sorted, got)) == sorted(map(sorted, expected))

        def odd_lengths(cycles):
            return [len(cyc) for cyc in cycles if len(cyc) % 2 and len(cyc) >= 9]

        hole = find_long_odd_hole(g, 9)
        odd = odd_lengths(expected)
        if not odd:
            # Beyond the bound: enumerate up to the reported length, or
            # without bound (cheap at these densities) when none is reported.
            bound = len(hole) if hole is not None else None
            odd = odd_lengths(nx.chordless_cycles(nxg, length_bound=bound))
        assert (None if hole is None else len(hole)) == (min(odd) if odd else None)


class TestClassMembership:
    def test_c9_not_in_g2(self):
        verdict = class_membership(cycle_graph(9), ClassSpec("G", 2))
        assert not verdict.member
        assert verdict.witness.kind == "long-odd-hole"
        assert verdict.witness.cycle == tuple(range(9))

    def test_c7_in_g2_but_not_f2(self):
        assert class_membership(cycle_graph(7), ClassSpec("G", 2)).member
        verdict = class_membership(cycle_graph(7), ClassSpec("F", 2))
        assert not verdict.member and verdict.witness.length == 7

    def test_c7_in_a3(self):
        assert class_membership(cycle_graph(7), ClassSpec("A", 3)).member

    def test_grotzsch_in_a2(self):
        assert class_membership(grotzsch(), ClassSpec("A", 2)).member

    def test_grotzsch_not_in_g2(self):
        verdict = class_membership(grotzsch(), ClassSpec("G", 2))
        assert not verdict.member and verdict.witness.length == 4

    def test_petersen_in_g2_and_f2(self):
        assert class_membership(petersen(), ClassSpec("G", 2)).member
        assert class_membership(petersen(), ClassSpec("F", 2)).member

    def test_triangle_rejected_from_b(self):
        verdict = class_membership(Graph(3, [(0, 1), (1, 2), (0, 2)]), ClassSpec("B", 2))
        assert not verdict.member and verdict.witness.kind == "triangle"

    def test_five_hole_rejected_from_b(self):
        verdict = class_membership(cycle_graph(5), ClassSpec("B", 3))
        assert not verdict.member
        assert verdict.witness.kind == "k-hole" and verdict.witness.length == 5

    def test_seven_hole_flag(self):
        ok = class_membership(cycle_graph(7), ClassSpec("B", 3))
        assert ok.member
        flagged = class_membership(cycle_graph(7), ClassSpec("B", 3, seven_hole_free=True))
        assert not flagged.member and flagged.witness.length == 7

    def test_four_hole_allowed_in_b_not_in_g(self):
        c4 = cycle_graph(4)
        assert class_membership(c4, ClassSpec("B", 2)).member
        verdict = class_membership(c4, ClassSpec("G", 2))
        assert not verdict.member and verdict.witness.kind == "short-cycle"

    def test_empty_graph_in_every_class(self):
        for family in "ABGF":
            assert class_membership(Graph(0), ClassSpec(family, 2)).member

    def test_witnesses_self_certify(self):
        specs = [ClassSpec("A", 2), ClassSpec("B", 2), ClassSpec("G", 2), ClassSpec("F", 2)]
        for seed in range(25):
            g = random_graph(11, 0.3, seed)
            for cspec in specs:
                verdict = class_membership(g, cspec)
                if not verdict.member:
                    assert witness_violates(g, verdict.witness, cspec)

    def test_f_members_are_g_and_a_members(self):
        for ell in (2, 3):
            for seed in range(12):
                g = random_in_class(GenSpec(ClassSpec("F", ell), 24, 0.15, seed))
                assert class_membership(g, ClassSpec("G", ell)).member
                assert class_membership(g, ClassSpec("A", ell)).member

    def test_invalid_spec(self):
        with pytest.raises(GraphError, match="family"):
            ClassSpec("X", 2)
        with pytest.raises(GraphError, match=">= 2"):
            ClassSpec("G", 1)


class TestInducedCycleCheck:
    """is_induced_cycle walks each vertex's neighbors; it gives the answers
    of the pairwise test it replaced."""

    @staticmethod
    def _sequences(g, rng):
        """Induced cycles, their rotations and reversals, cycles with chords
        (closed random walks), and broken copies: a repeated vertex, a
        swapped pair, a dropped vertex, and prefixes shorter than three."""
        out = [list(c.cycle) for c in enumerate_induced_cycles(g, 8)]
        for _ in range(200):
            walk = [rng.randrange(g.n)]
            while True:
                free = sorted(g.neighbors(walk[-1]) - set(walk))
                if not free:
                    break
                walk.append(rng.choice(free))
                if len(walk) >= 3 and g.has_edge(walk[-1], walk[0]):
                    out.append(list(walk))
        for cyc in list(out):
            i = rng.randrange(len(cyc))
            out += [cyc[i:] + cyc[:i], cyc[::-1], cyc + [cyc[i]], cyc[:i] + cyc[i + 1:], cyc[:2]]
            j = rng.randrange(len(cyc))
            swapped = list(cyc)
            swapped[i], swapped[j] = swapped[j], swapped[i]
            out.append(swapped)
        return out

    def test_matches_pairwise_test(self):
        import random

        answers = []
        for seed in range(12):
            g = random_graph(14, 0.2 + 0.02 * (seed % 6), seed)
            for seq in self._sequences(g, random.Random(seed)):
                expected = pairwise_is_induced_cycle(g, seq)
                assert is_induced_cycle(g, seq) == expected, (seed, seq)
                answers.append(expected)
        assert answers.count(True) > 500 and answers.count(False) > 500

    def test_hand_made_non_cycles(self):
        c6 = cycle_graph(6)
        chorded = Graph(6, c6.edges() + [(0, 3)])
        cases = [
            (c6, ()), (c6, (0,)), (c6, (0, 1)), (c6, (0, 1, 0)),
            (c6, (0, 1, 2, 3, 4, 5, 0)), (c6, (0, 1, 2, 1, 4, 5)),
            (c6, (0, 1, 2, 3, 5, 4)), (c6, (0, 1, 2, 3, 4)),
            (chorded, tuple(range(6))), (Graph(3, [(0, 1), (1, 2)]), (0, 1, 2)),
        ]
        for g, seq in cases:
            assert not is_induced_cycle(g, seq), seq
            assert not pairwise_is_induced_cycle(g, seq), seq
        assert is_induced_cycle(chorded, (0, 1, 2, 3)) and is_induced_cycle(c6, (3, 2, 1, 0, 5, 4))

    def test_vertices_outside_the_graph_are_no_cycle(self):
        c6 = cycle_graph(6)
        assert not is_induced_cycle(c6, (0, 1, 2, 3, 4, 6))
        assert not is_induced_cycle(c6, (-1, 0, 1, 2, 3, 4))

    def test_planted_c151_witness(self):
        g, hole = planted_odd_hole(151, 3)
        witness = class_membership(g, ClassSpec("G", 2)).witness
        assert set(witness.cycle) == hole
        assert is_induced_cycle(g, witness.cycle) and witness_violates(g, witness, ClassSpec("G", 2))
        assert not witness_violates(g, witness, ClassSpec("G", 75))


class TestAttachmentProfiles:
    def test_petersen_all_single(self):
        g = petersen()
        for hole in induced_cycles_of_length(g, 5):
            inside = set(hole)
            for u in range(10):
                if u in inside or not g.neighbors(u) & inside:
                    continue
                assert hole_attachment_profile(g, hole, u).kind == "single"

    def test_pair_on_c7(self):
        g = Graph(8, [(i, (i + 1) % 7) for i in range(7)] + [(7, 0), (7, 3)])
        profile = hole_attachment_profile(g, tuple(range(7)), 7)
        assert profile.kind == "pair" and profile.anchors == (0, 3)

    def test_pair_detected_in_both_rotational_directions(self):
        g = Graph(8, [(i, (i + 1) % 7) for i in range(7)] + [(7, 0), (7, 4)])
        profile = hole_attachment_profile(g, tuple(range(7)), 7)
        assert profile.kind == "pair" and set(profile.anchors) == {0, 4}

    def test_other_on_c5_triangle(self):
        g = Graph(6, [(i, (i + 1) % 5) for i in range(5)] + [(5, 0), (5, 1)])
        assert hole_attachment_profile(g, tuple(range(5)), 5).kind == "other"

    def test_errors(self):
        g = cycle_graph(5)
        with pytest.raises(GraphError, match="on the hole"):
            hole_attachment_profile(g, tuple(range(5)), 2)
        h = Graph(6, [(i, (i + 1) % 5) for i in range(5)])
        with pytest.raises(GraphError, match="no neighbor"):
            hole_attachment_profile(h, tuple(range(5)), 5)

    @pytest.mark.parametrize("u", [-1, 7, 9])
    def test_vertex_outside_the_graph(self, u):
        # -1 would otherwise read as vertex 6, a neighbour of 0 and 5.
        with pytest.raises(GraphError, match=f"vertex {u} out of range for n=7"):
            hole_attachment_profile(cycle_graph(7), tuple(range(5)), u)
