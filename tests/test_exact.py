import pytest

from oddholes import (
    Graph,
    GraphError,
    OracleCapExceeded,
    chi_of_subset,
    chromatic_number,
    complete_bipartite,
    cycle_graph,
    dsatur,
    grotzsch,
    is_k_colorable,
    is_proper,
    petersen,
)
from oddholes.exact import _greedy_clique_lower_bound
from oddholes.util import Deadline
from naive_oracles import (
    brute_chromatic,
    random_graph,
    recursive_is_k_colorable,
    set_dsatur,
)


class CountingDeadline(Deadline):
    """Counts search checks; never expires."""

    def __init__(self) -> None:
        super().__init__(None)
        self.checks = 0

    def check(self) -> None:
        self.checks += 1


class TestIsKColorable:
    def test_c5_two_none(self):
        assert is_k_colorable(cycle_graph(5), 2) is None

    def test_c5_three(self):
        g = cycle_graph(5)
        coloring = is_k_colorable(g, 3)
        assert coloring is not None and is_proper(g, coloring)
        assert coloring.colors_used <= 3

    def test_petersen_three(self):
        g = petersen()
        coloring = is_k_colorable(g, 3)
        assert coloring is not None and is_proper(g, coloring)

    def test_zero_colors(self):
        assert is_k_colorable(Graph(0), 0) is not None
        assert is_k_colorable(Graph(1), 0) is None

    def test_negative_rejected(self):
        with pytest.raises(GraphError):
            is_k_colorable(Graph(1), -1)

    def test_monotone_in_k(self):
        for seed in range(15):
            g = random_graph(8, 0.4, seed)
            feasible = [is_k_colorable(g, k) is not None for k in range(g.n + 1)]
            # Once colorable, always colorable with more colors.
            assert feasible == sorted(feasible)

    def test_long_odd_cycle_needs_no_recursion(self):
        # The search keeps its own stack: depth 1201 stays within the
        # default recursion limit.
        assert is_k_colorable(cycle_graph(1201), 2) is None


class TestAgainstRecursiveSearch:
    """The explicit-stack search against the earlier recursive one: the same
    coloring or None, in the same node order (same number of checks)."""

    @staticmethod
    def graphs():
        for seed in range(20):
            n = 20 + (seed * 7) % 26
            p = 0.2 + 0.3 * ((seed * 3) % 10) / 9
            yield random_graph(n, p, seed)

    def test_same_colorings_and_checks_for_every_k(self):
        for g in self.graphs():
            upper = dsatur(g).colors_used
            for k in range(_greedy_clique_lower_bound(g), upper + 1):
                new, old = CountingDeadline(), CountingDeadline()
                got = is_k_colorable(g, k, new)
                want = recursive_is_k_colorable(g, k, old)
                if want is None:
                    assert got is None
                else:
                    assert list(got.assignment.items()) == list(want.assignment.items())
                assert new.checks == old.checks

    def test_dsatur_matches_set_based_dsatur(self):
        for g in self.graphs():
            got, want = dsatur(g).assignment, set_dsatur(g).assignment
            assert list(got.items()) == list(want.items())


class TestChromaticNumber:
    def test_named_values(self):
        assert chromatic_number(cycle_graph(5)).chi == 3
        assert chromatic_number(complete_bipartite(3, 3)).chi == 2
        assert chromatic_number(grotzsch()).chi == 4
        assert chromatic_number(petersen()).chi == 3

    def test_optimal_coloring_is_proper_and_tight(self):
        for seed in range(10):
            g = random_graph(10, 0.4, seed)
            result = chromatic_number(g)
            assert is_proper(g, result.coloring)
            assert result.coloring.colors_used == result.chi
            assert is_k_colorable(g, result.chi - 1) is None

    def test_agrees_with_brute_force(self):
        for seed in range(30):
            g = random_graph(8, 0.35, seed)
            assert chromatic_number(g).chi == brute_chromatic(g)

    def test_edgeless_and_empty(self):
        assert chromatic_number(Graph(0)).chi == 0
        assert chromatic_number(Graph(5)).chi == 1

    def test_bipartite_with_edge_is_two(self):
        for a, b in [(1, 1), (3, 4)]:
            assert chromatic_number(complete_bipartite(a, b)).chi == 2

    def test_cap_is_enforced(self, monkeypatch):
        with pytest.raises(OracleCapExceeded, match="too large"):
            chromatic_number(Graph(70))
        monkeypatch.setenv("ODDHOLES_EXACT_CAP", "128")
        assert chromatic_number(Graph(70)).chi == 1

    def test_long_odd_cycle_above_default_cap(self, monkeypatch):
        monkeypatch.setenv("ODDHOLES_EXACT_CAP", "5000")
        result = chromatic_number(cycle_graph(1201))
        assert result.chi == 3 and is_proper(cycle_graph(1201), result.coloring)

    def test_cap_env_override(self, monkeypatch):
        monkeypatch.setenv("ODDHOLES_EXACT_CAP", "8")
        with pytest.raises(OracleCapExceeded):
            chromatic_number(Graph(9))
        monkeypatch.setenv("ODDHOLES_EXACT_CAP", "256")
        assert chromatic_number(Graph(70)).chi == 1


class TestChiOfSubset:
    def test_petersen_five_hole(self):
        assert chi_of_subset(petersen(), [0, 1, 2, 3, 4]) == 3

    def test_empty_subset(self):
        assert chi_of_subset(petersen(), []) == 0
