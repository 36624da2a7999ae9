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
from naive_oracles import naive_induced_cycles, random_graph


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
        from oddholes.holes import (
            induced_cycle_through_edge,
            induced_odd_cycle_through_edge,
        )

        g = cycle_graph(6)
        assert induced_cycle_through_edge(g, 0, 1, 6) == tuple(range(6))
        assert induced_cycle_through_edge(g, 0, 1, 5) is None
        assert induced_odd_cycle_through_edge(g, 0, 1, 5) is None
        with pytest.raises(GraphError, match="not an edge"):
            induced_cycle_through_edge(g, 0, 2, 4)
        with pytest.raises(GraphError, match="not an edge"):
            induced_odd_cycle_through_edge(g, 0, 3, 5)


class TestSearchDepth:
    """Searches deeper than the interpreter's recursion limit."""

    def test_cycle_through_edge_of_c3001(self):
        from oddholes.holes import induced_cycle_through_edge

        assert induced_cycle_through_edge(cycle_graph(3001), 0, 1, 3001) == tuple(range(3001))

    def test_odd_cycle_through_edge_of_c3001(self):
        from oddholes.holes import induced_odd_cycle_through_edge

        assert induced_odd_cycle_through_edge(cycle_graph(3001), 0, 1, 9) == tuple(range(3001))


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
