import hashlib
import itertools

import pytest

from oddholes import (
    ClassSpec,
    GenSpec,
    Graph,
    GraphError,
    SplitMix64,
    chromatic_number,
    class_membership,
    complete_bipartite,
    corpus_filename,
    cycle_graph,
    generate_member,
    girth,
    grotzsch,
    mycielskian,
    named_graph,
    path_graph,
    petersen,
    random_in_class,
    random_tree,
    to_graph6,
)
from oddholes.generate import _edge_admissible
from naive_oracles import four_check_edge_admissible


class TestNamedGraphs:
    def test_cycle(self):
        g = cycle_graph(5)
        assert g.n == 5 and g.m == 5
        with pytest.raises(GraphError):
            cycle_graph(2)

    def test_path(self):
        assert path_graph(1).m == 0
        assert path_graph(6).m == 5

    def test_complete_bipartite(self):
        g = complete_bipartite(3, 4)
        assert g.n == 7 and g.m == 12

    def test_petersen(self):
        g = petersen()
        assert g.n == 10 and g.m == 15
        assert all(g.degree(v) == 3 for v in range(10))
        assert girth(g) == 5

    def test_grotzsch(self):
        g = grotzsch()
        assert g.n == 11 and g.m == 20
        assert girth(g) == 4  # triangle-free with 4-holes
        assert chromatic_number(g).chi == 4

    def test_tree(self):
        g = random_tree(9, 3)
        assert g.m == g.n - 1 and girth(g) is None
        assert random_tree(9, 3) == g

    def test_dispatcher(self):
        assert named_graph("petersen") == petersen()
        assert named_graph("cycle", 6) == cycle_graph(6)
        assert named_graph("tree", 5, 1) == random_tree(5, 1)
        with pytest.raises(GraphError, match="unknown named graph"):
            named_graph("hypercube")
        with pytest.raises(GraphError, match="parameter"):
            named_graph("cycle")


class TestMycielskian:
    def test_k2_gives_c5(self):
        g = mycielskian(Graph(2, [(0, 1)]))
        assert g.n == 5 and g.m == 5
        assert girth(g) == 5 and all(g.degree(v) == 2 for v in range(5))

    def test_c5_gives_grotzsch(self):
        g = mycielskian(cycle_graph(5))
        assert g.n == 11 and g.m == 20
        assert girth(g) > 3
        assert chromatic_number(g).chi == 4

    def test_k1(self):
        g = mycielskian(Graph(1))
        assert g.n == 3 and g.m == 1

    def test_chi_increases_triangle_free_preserved(self):
        g = cycle_graph(7)
        m = mycielskian(g)
        assert chromatic_number(m).chi == chromatic_number(g).chi + 1
        assert girth(m) > 3


class TestSplitMix64:
    def test_known_sequence(self):
        # splitmix64 reference outputs for seed 1234567.
        rng = SplitMix64(1234567)
        assert rng.next_u64() == 6457827717110365317
        assert rng.next_u64() == 3203168211198807973

    def test_shuffle_deterministic(self):
        a = list(range(20))
        b = list(range(20))
        SplitMix64(99).shuffle(a)
        SplitMix64(99).shuffle(b)
        assert a == b and a != list(range(20))


class TestRandomInClass:
    def test_deterministic_bytes(self):
        gs = GenSpec(ClassSpec("G", 2), 20, 0.3, 1)
        assert to_graph6(random_in_class(gs)) == to_graph6(random_in_class(gs))

    def test_members_for_every_family(self):
        cases = [
            ClassSpec("G", 2),
            ClassSpec("A", 2),
            ClassSpec("A", 3),
            ClassSpec("B", 3),
            ClassSpec("B", 3, seven_hole_free=True),
            ClassSpec("F", 2),
        ]
        for cspec in cases:
            for seed in (0, 1, 2):
                g = random_in_class(GenSpec(cspec, 22, 0.25, seed))
                assert class_membership(g, cspec).member, (cspec, seed)

    def test_empty_and_zero_density(self):
        assert random_in_class(GenSpec(ClassSpec("G", 2), 0, 0.5, 3)).n == 0
        assert random_in_class(GenSpec(ClassSpec("G", 2), 10, 0.0, 3)).m == 0

    def test_gen_result_accounting(self):
        result = generate_member(GenSpec(ClassSpec("G", 2), 18, 0.5, 4))
        assert result.attempts == result.added + result.rejected
        assert result.added == result.graph.m
        assert result.degenerate is False

    def test_retry_budget_stops_early(self):
        gs_free = GenSpec(ClassSpec("G", 2), 18, 1.0, 4, retry_budget=0)
        gs_cut = GenSpec(ClassSpec("G", 2), 18, 1.0, 4, retry_budget=3)
        free = generate_member(gs_free)
        cut = generate_member(gs_cut)
        assert cut.rejected <= 3
        assert cut.attempts <= free.attempts
        assert cut.added <= free.added

    def test_spec_validation(self):
        with pytest.raises(GraphError, match="density"):
            GenSpec(ClassSpec("G", 2), 5, 1.5, 0)
        with pytest.raises(GraphError, match="nonnegative"):
            GenSpec(ClassSpec("G", 2), -1, 0.5, 0)

    def test_corpus_filename(self):
        gs = GenSpec(ClassSpec("B", 3), 40, 0.2, 17)
        assert corpus_filename(gs) == "B3_40_17.g6"

    def test_nontrivial_structure_appears(self):
        # With room to work, generated G2 members include odd holes.
        non_bipartite = 0
        for seed in range(10):
            g = random_in_class(GenSpec(ClassSpec("G", 2), 24, 0.3, seed))
            from oddholes import is_bipartite_subset

            if not is_bipartite_subset(g):
                non_bipartite += 1
        assert non_bipartite >= 5


ADMISSIBILITY_SPECS = [
    ClassSpec("G", 2),
    ClassSpec("G", 3),
    ClassSpec("A", 2),
    ClassSpec("A", 3),
    ClassSpec("B", 2),
    ClassSpec("B", 3),
    ClassSpec("B", 3, seven_hole_free=True),
    ClassSpec("F", 2),
]
SPEC_IDS = ["G2", "G3", "A2", "A3", "B2", "B3", "B3-seven-hole-free", "F2"]


class TestEdgeAdmissibility:
    @pytest.mark.parametrize("cspec", ADMISSIBILITY_SPECS, ids=SPEC_IDS)
    def test_one_bfs_test_matches_four_checks(self, cspec):
        # Replays generate_member attempt by attempt, asking both tests.
        for n, seed, degree in itertools.product((24, 30, 36), (1, 2), (4.0, 6.0)):
            gs = GenSpec(cspec, n, degree / n, seed)
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            SplitMix64(seed).shuffle(pairs)
            edges: list[tuple[int, int]] = []
            current = Graph(n)
            for u, v in pairs[: round(gs.density * len(pairs))]:
                candidate = Graph(n, edges + [(u, v)])
                verdict = _edge_admissible(current, u, v, cspec, None)
                assert verdict == four_check_edge_admissible(current, candidate, u, v, cspec)
                if verdict:
                    edges.append((u, v))
                    current = candidate
            assert current == generate_member(gs).graph

    @pytest.mark.parametrize("cspec", ADMISSIBILITY_SPECS, ids=SPEC_IDS)
    def test_cycle_membership_is_forbids(self, cspec):
        for k in range(3, 16):
            assert class_membership(cycle_graph(k), cspec).member == (not cspec.forbids(k)), k


class TestPinnedCorpora:
    """sha256 of the graph6 text and the GenResult counters of one member per
    family, fixed so that generated corpora stay byte-identical."""

    @pytest.mark.parametrize(
        "gs, digest, attempts, added, rejected",
        [
            (GenSpec(ClassSpec("A", 3), 60, 3.5 / 60, 11),
             "4922af8596c68f45c4740ae116d0eb0d6dc677e195dfe481b44f3a5f04734c47", 103, 72, 31),
            (GenSpec(ClassSpec("B", 3, seven_hole_free=True), 48, 4.0 / 48, 12),
             "5212c7f4b0cf7d5447542f44ae658c7bfafb01a1da48c86c31d55c509d83526c", 94, 72, 22),
            (GenSpec(ClassSpec("G", 2), 56, 3.5 / 56, 13),
             "dc300795d04b99ce2a6c609c2e5ab7e6c11a2b02b0bb88040a5219510a9fe686", 96, 63, 33),
            (GenSpec(ClassSpec("F", 2), 48, 3.5 / 48, 14),
             "c95fea9e2284b5d05935e56e2b6c993ca58a82cfa4a2216f34c504504c850676", 82, 56, 26),
        ],
        ids=["A3", "B3-seven-hole-free", "G2", "F2"],
    )
    def test_member_bytes_and_counters(self, gs, digest, attempts, added, rejected):
        res = generate_member(gs)
        assert hashlib.sha256(to_graph6(res.graph).encode()).hexdigest() == digest
        assert (res.attempts, res.added, res.rejected, res.degenerate) == (
            attempts, added, rejected, False
        )
