import pytest

from oddholes import (
    ClassSpec,
    GenSpec,
    Graph,
    MembershipError,
    certified_class_color,
    class_bound,
    class_membership,
    complete_bipartite,
    cycle_graph,
    dsatur,
    four_color_a3_components,
    grotzsch,
    is_proper,
    petersen,
    random_in_class,
)
from naive_oracles import brute_chromatic, random_graph


class TestDsatur:
    def test_k2(self):
        g = Graph(2, [(0, 1)])
        assert dsatur(g).colors_used == 2

    def test_c5(self):
        assert dsatur(cycle_graph(5)).colors_used == 3

    def test_petersen(self):
        assert dsatur(petersen()).colors_used == 3

    def test_always_proper_and_at_least_chi(self):
        for seed in range(30):
            g = random_graph(9, 0.35, seed)
            coloring = dsatur(g)
            assert is_proper(g, coloring)
            assert coloring.colors_used >= brute_chromatic(g)

    def test_exact_on_bipartite(self):
        for a, b in [(1, 1), (2, 3), (4, 4)]:
            g = complete_bipartite(a, b)
            assert dsatur(g).colors_used == 2
        assert dsatur(cycle_graph(8)).colors_used == 2


class TestFourColorA3:
    def test_c6_two_colors(self):
        g = cycle_graph(6)
        coloring, evidence = four_color_a3_components(g)
        assert evidence is None
        assert is_proper(g, coloring) and coloring.colors_used == 2

    def test_c7_layer_palette(self):
        g = cycle_graph(7)
        coloring, evidence = four_color_a3_components(g)
        assert evidence is None and is_proper(g, coloring)
        assert coloring.colors_used <= 4
        # The last layer {3, 4} is a single edge at odd parity: colors 3, 4.
        assert {coloring.assignment[3], coloring.assignment[4]} == {3, 4}

    def test_grotzsch_apex_second_layer_is_the_base_cycle(self):
        # Layered from the apex, the second layer is the original 5-cycle,
        # the structure the evidence branch reports.
        from oddholes import bfs_layers, bipartition_or_odd_cycle

        g = grotzsch()
        lv = bfs_layers(g, 10)
        assert lv.levels[2] == frozenset(range(5))
        _, cyc = bipartition_or_odd_cycle(g, lv.levels[2])
        assert cyc is not None and len(cyc) == 5

    def test_grotzsch_yields_evidence(self):
        g = grotzsch()
        coloring, evidence = four_color_a3_components(g)
        assert coloring is None
        assert len(evidence) % 2 == 1
        assert all(
            g.has_edge(evidence[i], evidence[(i + 1) % len(evidence)])
            for i in range(len(evidence))
        )
        # Evidence certifies non-membership.
        assert not class_membership(g, ClassSpec("A", 3)).member

    def test_components_helper(self):
        g = Graph(13, [(i, (i + 1) % 6) for i in range(6)]
                  + [(6 + i, 6 + (i + 1) % 7) for i in range(7)])
        coloring, evidence = four_color_a3_components(g)
        assert evidence is None
        assert is_proper(g, coloring) and coloring.colors_used <= 4

    def test_never_evidence_on_verified_members(self):
        for seed in range(12):
            g = random_in_class(GenSpec(ClassSpec("A", 3), 30, 0.12, seed))
            assert class_membership(g, ClassSpec("A", 3)).member
            coloring, evidence = four_color_a3_components(g)
            assert evidence is None
            assert is_proper(g, coloring) and coloring.colors_used <= 4

    def test_empty_graph(self):
        coloring, evidence = four_color_a3_components(Graph(0))
        assert evidence is None and coloring.colors_used == 0


class TestCertifiedClassColor:
    def test_c7_in_g2(self):
        cert = certified_class_color(cycle_graph(7), ClassSpec("G", 2))
        assert cert.bound == 1456 and cert.within is True

    def test_grotzsch_in_a2_has_no_bound(self):
        cert = certified_class_color(grotzsch(), ClassSpec("A", 2))
        assert cert.bound is None and cert.within is None
        assert is_proper(grotzsch(), cert.coloring)
        assert cert.coloring.colors_used == 4

    def test_a3_uses_layered_colorer(self):
        cert = certified_class_color(cycle_graph(7), ClassSpec("A", 3))
        assert cert.bound == 4 and cert.within is True
        assert cert.coloring.colors_used <= 4

    def test_b3_seven_hole_free_bound(self):
        cspec = ClassSpec("B", 3, seven_hole_free=True)
        assert class_bound(cspec) == 44
        g = random_in_class(GenSpec(cspec, 26, 0.15, 5))
        cert = certified_class_color(g, cspec)
        assert cert.bound == 44 and cert.within is True

    def test_non_member_raises_with_witness(self):
        with pytest.raises(MembershipError) as exc_info:
            certified_class_color(cycle_graph(9), ClassSpec("G", 2))
        assert exc_info.value.witness.cycle == tuple(range(9))

    def test_bound_table(self):
        assert class_bound(ClassSpec("G", 2)) == 1456
        assert class_bound(ClassSpec("G", 3)) is None
        assert class_bound(ClassSpec("A", 3)) == 4
        assert class_bound(ClassSpec("A", 2)) is None
        assert class_bound(ClassSpec("B", 2, seven_hole_free=True)) == 32
        assert class_bound(ClassSpec("B", 4)) is None
        assert class_bound(ClassSpec("F", 2)) is None
