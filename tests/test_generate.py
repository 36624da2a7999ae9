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
from oddholes.util import Deadline, DeadlineExceeded
from naive_oracles import four_check_edge_admissible


class CheckCounter(Deadline):
    """A deadline that never expires and counts its checks."""

    def __init__(self) -> None:
        super().__init__(None)
        self.checks = 0

    def check(self) -> None:
        self.checks += 1


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

    def test_expired_deadline_stops_a_forest(self):
        # Every attempt of this forest-density spec is decided by the BFS
        # alone (no search through an edge runs), so only the per-attempt
        # check can see the deadline.
        gs = GenSpec(ClassSpec("A", 3), 400, 0.0005, 1)
        counter = CheckCounter()
        assert generate_member(gs, counter).attempts == counter.checks == 40
        with pytest.raises(DeadlineExceeded):
            generate_member(gs, Deadline(-1.0))

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
        # Replays generate_member attempt by attempt on one mask list, asking
        # both tests; an attempt changes the masks by exactly its edge or not
        # at all.
        for n, seed, degree in itertools.product((24, 30, 36), (1, 2), (4.0, 6.0)):
            gs = GenSpec(cspec, n, degree / n, seed)
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            SplitMix64(seed).shuffle(pairs)
            edges: list[tuple[int, int]] = []
            adj = [0] * n
            for u, v in pairs[: round(gs.density * len(pairs))]:
                current = Graph(n, edges)
                candidate = Graph(n, edges + [(u, v)])
                before = list(adj)
                verdict = _edge_admissible(adj, u, v, cspec, None)
                assert verdict == four_check_edge_admissible(current, candidate, u, v, cspec)
                if verdict:
                    before[u] |= 1 << v
                    before[v] |= 1 << u
                    edges.append((u, v))
                assert adj == before
            assert tuple(adj) == generate_member(gs).graph.neighbor_masks()

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

    # Classes that coincide give equal digests: A2 with and without the
    # seven-hole flag, B2 and B3 with it, G2 with it and F2.
    GRID_DIGESTS = {
        ("G", 2, False): "73b2d5fac144301fc4b807f6f81a2a2fdf5601435069018522b63e9ca05996ca",
        ("G", 2, True): "d3b28aad6fa0c4dd1a08d93cf9d0e18e43c8d4eaf0be51f08f3746ec811ab5d9",
        ("G", 3, False): "6012b5e100aae40a5b1cd03325e5f0bd142a4268c2d9cb2c1d57d6b056251adf",
        ("G", 3, True): "85730897b4283517c3d2b76807de2c01129a613b5e6fa51220ba6e035140b353",
        ("A", 2, False): "c12ac39676f745c9f924d7cb48ef004081292df4bf7db188828cb4238fc0d439",
        ("A", 2, True): "c12ac39676f745c9f924d7cb48ef004081292df4bf7db188828cb4238fc0d439",
        ("A", 3, False): "c7545449465aff5bbd8bd3c8660259abcd2778ce5faffcc6bb5b51406c6b8fd8",
        ("A", 3, True): "3642102330eb3c73ba8c9ecbcda6bddcfc01359dec224c38fdaeafb9c78ef1c5",
        ("B", 2, False): "158c4afaa35ed0f7ae83f676fb3da8a467bc1b7f687dffdc778c9edc2dbb01e2",
        ("B", 2, True): "158c4afaa35ed0f7ae83f676fb3da8a467bc1b7f687dffdc778c9edc2dbb01e2",
        ("B", 3, False): "912c7dbf9a649bb690d33db9c0af9fe052477880ef539c03eeab7e12e00af4c0",
        ("B", 3, True): "158c4afaa35ed0f7ae83f676fb3da8a467bc1b7f687dffdc778c9edc2dbb01e2",
        ("F", 2, False): "d3b28aad6fa0c4dd1a08d93cf9d0e18e43c8d4eaf0be51f08f3746ec811ab5d9",
        ("F", 2, True): "d3b28aad6fa0c4dd1a08d93cf9d0e18e43c8d4eaf0be51f08f3746ec811ab5d9",
        ("F", 3, False): "a51c9f27ef09a7d94e9397e663d2f8fa07547443cba6f69de7d09a7ec5fdc2b0",
        ("F", 3, True): "3faee18d9f2710e27d5aae816f5c3aa132b88c2f244cfe70fb4f89b4ecf0e5f6",
    }

    @pytest.mark.parametrize(
        "key", GRID_DIGESTS, ids=[f"{f}{ell}{'-seven-hole-free' * flag}" for f, ell, flag in GRID_DIGESTS]
    )
    def test_grid_bytes_and_counters(self, key):
        # n 20/30/40 at density 0.2, seeds 0-2; seed 2 with a retry budget of 5.
        digest = hashlib.sha256()
        for n, seed in itertools.product((20, 30, 40), (0, 1, 2)):
            gs = GenSpec(ClassSpec(*key), n, 0.2, seed, retry_budget=5 if seed == 2 else 0)
            res = generate_member(gs)
            line = f"{to_graph6(res.graph)} {res.attempts} {res.added} {res.rejected} {res.degenerate}\n"
            digest.update(line.encode())
        assert digest.hexdigest() == self.GRID_DIGESTS[key]

    def test_search_checks(self):
        # 457 checks inside the searches through edges, plus one per attempt.
        # The searches prune by the free route back to the anchor (1478
        # checks when a length bound of the core's size kept that prune off).
        counter = CheckCounter()
        res = generate_member(GenSpec(ClassSpec("G", 2), 56, 3.5 / 56, 13), counter)
        assert res.attempts == 96
        assert counter.checks == 457 + 96
