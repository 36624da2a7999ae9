import pytest

from oddholes import (
    ClassSpec,
    GenSpec,
    Graph,
    GraphError,
    InexactChiWarning,
    cycle_graph,
    generate_member,
    petersen,
    to_graph6,
)
from oddholes.verify import (
    CorpusReport,
    GraphRecord,
    PropertyRecord,
    _prop_filtered_third_sphere_bipartite,
    _prop_last_level_chi_le,
    _prop_second_sphere_bipartite,
    _prop_third_sphere_chi_le,
    specs_for_filename,
    verify_corpus,
    verify_graph,
)


class TestVerifyGraph:
    def test_c7_g2_suite_all_pass(self):
        record = verify_graph(cycle_graph(7), "c7.g6", ClassSpec("G", 2))
        assert record.member is True
        assert record.chi == 3
        assert [p.status for p in record.properties] == ["pass"] * 7

    def test_petersen_g2_suite_all_pass(self):
        record = verify_graph(petersen(), "petersen.g6", ClassSpec("G", 2))
        assert record.member is True
        assert all(p.status == "pass" for p in record.properties)

    def test_non_member_skips_everything(self):
        record = verify_graph(cycle_graph(9), "c9.g6", ClassSpec("G", 2))
        assert record.member is False
        assert record.membership_witness["cycle"] == list(range(9))
        assert all(p.status == "skip" for p in record.properties)

    def test_b_family_suite(self):
        # C9 is in B4 and contains no 7-hole, so the bound applies.
        record = verify_graph(cycle_graph(9), "x.g6", ClassSpec("B", 4))
        names = {p.name: p.status for p in record.properties}
        assert names["weak_stable_extraction_inequality"] == "pass"
        assert names["chi_le_12ell_plus_8"] == "pass"

    def test_b_bound_skipped_when_seven_hole_present(self):
        # C7 is itself a 7-hole: the bound's hypothesis fails, so it skips.
        record = verify_graph(cycle_graph(7), "x.g6", ClassSpec("B", 4))
        names = {p.name: p.status for p in record.properties}
        assert names["weak_stable_extraction_inequality"] == "pass"
        assert names["chi_le_12ell_plus_8"] == "skip"

    def test_f_containment(self):
        record = verify_graph(petersen(), "x.g6", ClassSpec("F", 2))
        assert [p.status for p in record.properties] == ["pass"]

    def test_a3_four_coloring(self):
        record = verify_graph(cycle_graph(7), "x.g6", ClassSpec("A", 3))
        assert [p.status for p in record.properties] == ["pass"]

    def test_timeout_status(self):
        record = verify_graph(petersen(), "x.g6", ClassSpec("G", 2), timeout=0.0)
        statuses = {p.status for p in record.properties}
        assert record.membership_status == "timeout" or "timeout" in statuses


class TestOverExactCap:
    """Bounds are proven by a proper colouring, so members above the exact
    oracle's vertex cap verify; a property that needs the oracle records
    ``error`` instead of raising."""

    def test_g2_member_above_the_cap(self):
        g = generate_member(GenSpec(ClassSpec("G", 2), 70, 0.03, 3)).graph
        record = verify_graph(g, "G2_70_3.g6", ClassSpec("G", 2))
        assert record.member is True and record.chi is None
        assert [p.status for p in record.properties] == ["pass"] * 7
        assert record.properties[-1].detail == "certified colors=3"

    def test_oracle_cap_is_recorded_as_error(self, monkeypatch):
        monkeypatch.setenv("ODDHOLES_EXACT_CAP", "1")
        record = verify_graph(cycle_graph(7), "c7.g6", ClassSpec("G", 2))
        statuses = {p.name: p.status for p in record.properties}
        assert statuses["last_level_chi_le_104"] == "error"
        assert statuses["chi_le_1456_certified"] == "pass"
        last_level = next(p for p in record.properties if p.name == "last_level_chi_le_104")
        assert last_level.detail.startswith("exact oracle unavailable: ")

        # weak_stabilize falls back to a greedy bound, and says so.
        with pytest.warns(InexactChiWarning):
            record = verify_graph(cycle_graph(9), "c9.g6", ClassSpec("B", 4))
        statuses = {p.name: p.status for p in record.properties}
        assert statuses == {
            "weak_stable_extraction_inequality": "error",
            "chi_le_12ell_plus_8": "pass",
        }

    def test_malformed_cap_raises(self, monkeypatch):
        monkeypatch.setenv("ODDHOLES_EXACT_CAP", "abc")
        g = generate_member(GenSpec(ClassSpec("A", 3), 30, 0.1, 1)).graph
        with pytest.raises(GraphError, match="ODDHOLES_EXACT_CAP must be an integer"):
            verify_graph(g, "A3_30_1.g6", ClassSpec("A", 3))


class TestSpecsForFilename:
    def test_inference(self):
        specs = specs_for_filename("B3_40_17.g6")
        assert len(specs) == 1 and specs[0] == ClassSpec("B", 3)

    def test_default(self):
        specs = specs_for_filename("random.g6")
        assert specs == [ClassSpec("G", 2), ClassSpec("A", 3)]


class TestReportShape:
    def test_summary_counts(self):
        report = CorpusReport()
        rec = GraphRecord("a.g6", 3, 2, "G", 2, True)
        rec.properties.append(PropertyRecord("p1", "pass"))
        rec.properties.append(PropertyRecord("p2", "fail", witness={"cycle": [0, 1, 2]}))
        report.records.append(rec)
        assert report.has_failures
        payload = report.to_dict()
        assert payload["schema_version"] == "1"
        assert payload["summary"]["fail"] == 1
        failing = payload["records"][0]["properties"][1]
        assert failing["witness"] == {"cycle": [0, 1, 2]}

    def test_corpus_directory_run(self, tmp_path):
        d = tmp_path / "corpus"
        d.mkdir()
        (d / "G2_7_0.g6").write_text(to_graph6(cycle_graph(7)) + "\n")
        (d / "notgraph.g6").write_text("!!!\n")
        report = verify_corpus(d)
        assert report.summary()["unreadable_files"] == 1
        assert not report.has_failures
        assert report.records[0].family == "G"

    def test_badly_named_file_is_recorded_and_the_run_continues(self, tmp_path):
        d = tmp_path / "corpus"
        d.mkdir()
        (d / "G1_7_0.g6").write_text(to_graph6(cycle_graph(7)) + "\n")
        (d / "G2_7_0.g6").write_text(to_graph6(cycle_graph(7)) + "\n")
        report = verify_corpus(d)
        assert report.file_errors == [
            {"file": "G1_7_0.g6", "error": "class parameter must be >= 2, got 1"}
        ]
        assert [r.filename for r in report.records] == ["G2_7_0.g6"]
        assert report.summary()["unreadable_files"] == 1

    def test_not_a_directory(self, tmp_path):
        regular = tmp_path / "x.el"
        regular.write_text("0 1\n")
        for target in (tmp_path / "missing", regular):
            with pytest.raises(GraphError, match="is not a directory"):
                verify_corpus(target)

    def test_class_options_without_family(self, tmp_path):
        (tmp_path / "c7.g6").write_text(to_graph6(cycle_graph(7)) + "\n")
        with pytest.raises(GraphError, match="--ell requires --class"):
            verify_corpus(tmp_path, ell=5)
        with pytest.raises(GraphError, match="--seven-hole-free requires --class"):
            verify_corpus(tmp_path, seven_hole_free=True)


class TestG2LemmaFailures:
    """The FAIL branch of each G2 lemma property, on one small graph.

    Root 0 has the single neighbour 1, whose other neighbours 2..9 form the
    last level of the stable levelling from 0: a path 2-3-4 whose end 4 sees
    every vertex of the 5-cycle 5..9.  So the 5-cycle is the second sphere
    of 3 and the third sphere of 2 inside the last level, and the last
    level (a 5-wheel plus a path) has chromatic number 4.
    """

    @staticmethod
    def _graph():
        edges = [(0, 1), (2, 3), (3, 4)]
        edges += [(1, v) for v in range(2, 10)]
        edges += [(4, c) for c in range(5, 10)]
        edges += [(c, 5 + (c - 4) % 5) for c in range(5, 10)]
        return Graph(10, edges)

    def _run(self, prop, **kwargs):
        return prop(self._graph(), ClassSpec("G", 2), {}, None, **kwargs)

    def test_second_sphere_bipartite(self):
        assert self._run(_prop_second_sphere_bipartite) == (
            "fail",
            "second sphere inside the last level is not bipartite",
            {"root": 0, "z": 3, "sphere": [5, 6, 7, 8, 9]},
        )

    def test_filtered_third_sphere_bipartite(self):
        assert self._run(_prop_filtered_third_sphere_bipartite) == (
            "fail",
            "third-sphere vertices whose upper parents all touch z "
            "do not induce a bipartite graph",
            {"root": 0, "z": 2, "subset": [5, 6, 7, 8, 9]},
        )

    def test_third_sphere_chi(self):
        assert self._run(_prop_third_sphere_chi_le, bound=1) == (
            "fail",
            "third sphere has chromatic number 3 > 1",
            {"root": 0, "z": 2, "sphere": [5, 6, 7, 8, 9]},
        )

    def test_last_level_chi(self):
        assert self._run(_prop_last_level_chi_le, bound=1) == (
            "fail",
            "last level has chromatic number 4 > 1",
            {"root": 0, "last_level": [2, 3, 4, 5, 6, 7, 8, 9]},
        )
