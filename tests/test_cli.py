import json

import pytest

from oddholes import (
    cycle_graph,
    grotzsch,
    petersen,
    to_edge_list,
    to_graph6,
)
from oddholes.cli import main


def write_g6(path, g):
    path.write_text(to_graph6(g) + "\n")


@pytest.fixture
def corpus_dir(tmp_path):
    d = tmp_path / "fixtures"
    d.mkdir()
    write_g6(d / "c7.g6", cycle_graph(7))
    write_g6(d / "c9.g6", cycle_graph(9))
    write_g6(d / "grotzsch.g6", grotzsch())
    write_g6(d / "petersen.g6", petersen())
    return d


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


class TestCheck:
    def test_c9_not_member(self, corpus_dir, capsys):
        code, payload = run(
            capsys, "check", str(corpus_dir / "c9.g6"), "--class", "G", "--ell", "2"
        )
        assert code == 0
        assert payload["member"] is False
        assert payload["witness"] == list(range(9))

    def test_c7_member(self, corpus_dir, capsys):
        code, payload = run(
            capsys, "check", str(corpus_dir / "c7.g6"), "--class", "G", "--ell", "2"
        )
        assert code == 0 and payload["member"] is True and payload["witness"] is None

    def test_edge_list_input(self, tmp_path, capsys):
        path = tmp_path / "c5.el"
        path.write_text(to_edge_list(cycle_graph(5)))
        code, payload = run(capsys, "check", str(path), "--class", "B", "--ell", "2")
        assert code == 0 and payload["member"] is False


class TestColor:
    def test_a3_method_on_c7(self, corpus_dir, capsys):
        code, payload = run(capsys, "color", str(corpus_dir / "c7.g6"), "--method", "a3")
        assert code == 0
        assert payload["colors_used"] <= 4
        assert len(payload["assignment"]) == 7

    def test_a3_method_evidence_exit_1(self, corpus_dir, capsys):
        code, payload = run(
            capsys, "color", str(corpus_dir / "grotzsch.g6"), "--method", "a3"
        )
        assert code == 1 and "evidence" in payload

    def test_exact_method(self, corpus_dir, capsys):
        code, payload = run(
            capsys, "color", str(corpus_dir / "petersen.g6"), "--method", "exact"
        )
        assert code == 0 and payload["colors_used"] == 3

    def test_certified(self, corpus_dir, capsys):
        code, payload = run(
            capsys, "color", str(corpus_dir / "c7.g6"), "--class", "G", "--ell", "2"
        )
        assert code == 0 and payload["bound"] == 1456 and payload["within"] is True

    def test_certified_non_member_exit_1(self, corpus_dir, capsys):
        code, payload = run(
            capsys, "color", str(corpus_dir / "c9.g6"), "--class", "G", "--ell", "2"
        )
        assert code == 1 and payload["witness"] == list(range(9))


class TestChromaAndHoles:
    def test_chroma(self, corpus_dir, capsys):
        code, payload = run(capsys, "chroma", str(corpus_dir / "grotzsch.g6"))
        assert code == 0 and payload == {"chi": 4}

    def test_chroma_long_odd_cycle_above_default_cap(self, tmp_path, capsys, monkeypatch):
        # Exited 3 with a RecursionError while the exact search recursed.
        path = tmp_path / "c1201.g6"
        write_g6(path, cycle_graph(1201))
        monkeypatch.setenv("ODDHOLES_EXACT_CAP", "5000")
        assert run(capsys, "chroma", str(path)) == (0, {"chi": 3})

    def test_holes(self, corpus_dir, capsys):
        code, payload = run(
            capsys, "holes", str(corpus_dir / "petersen.g6"), "--max-len", "6"
        )
        assert code == 0 and payload["count"] == 22
        lengths = sorted(c["length"] for c in payload["cycles"])
        assert lengths == [5] * 12 + [6] * 10


class TestGenAndVerify:
    def test_gen_writes_named_files(self, tmp_path, capsys):
        out = tmp_path / "corpus"
        code, payload = run(
            capsys, "gen", "--class", "G", "--ell", "2", "--n", "14",
            "--seed", "5", "--count", "2", "--density", "0.25", "--out", str(out),
        )
        assert code == 0
        assert payload["files"] == ["G2_14_5.g6", "G2_14_6.g6"]
        assert (out / "G2_14_5.g6").exists()

    def test_gen_determinism_bytes(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        run(capsys, "gen", "--class", "B", "--ell", "3", "--n", "20",
            "--seed", "9", "--out", str(a))
        run(capsys, "gen", "--class", "B", "--ell", "3", "--n", "20",
            "--seed", "9", "--out", str(b))
        assert (a / "B3_20_9.g6").read_bytes() == (b / "B3_20_9.g6").read_bytes()

    def test_verify_mixed_corpus(self, tmp_path, capsys):
        d = tmp_path / "corpus"
        d.mkdir()
        write_g6(d / "c7.g6", cycle_graph(7))
        write_g6(d / "petersen.g6", petersen())
        write_g6(d / "c9.g6", cycle_graph(9))
        (d / "broken.g6").write_text("A!\n")
        report_path = tmp_path / "report.json"
        code, payload = run(
            capsys, "verify", str(d), "--class", "G", "--ell", "2",
            "--report", str(report_path),
        )
        assert code == 0  # non-membership is not a property failure
        assert payload["schema_version"] == "1"
        by_file = {r["file"]: r for r in payload["records"]}
        assert by_file["c7.g6"]["member"] is True
        assert all(p["status"] == "pass" for p in by_file["c7.g6"]["properties"])
        assert all(p["status"] == "pass" for p in by_file["petersen.g6"]["properties"])
        assert by_file["c9.g6"]["member"] is False
        assert all(p["status"] == "skip" for p in by_file["c9.g6"]["properties"])
        assert payload["file_errors"][0]["file"] == "broken.g6"
        assert json.loads(report_path.read_text()) == payload

    def test_verify_infers_class_from_filename(self, tmp_path, capsys):
        d = tmp_path / "corpus"
        d.mkdir()
        write_g6(d / "B3_7_0.g6", cycle_graph(7))
        code, payload = run(capsys, "verify", str(d))
        assert code == 0
        rec = payload["records"][0]
        assert rec["family"] == "B" and rec["ell"] == 3 and rec["member"] is True
        names = [p["name"] for p in rec["properties"]]
        assert "weak_stable_extraction_inequality" in names

    def test_verify_empty_dir(self, tmp_path, capsys):
        d = tmp_path / "empty"
        d.mkdir()
        code, payload = run(capsys, "verify", str(d))
        assert code == 0 and payload["records"] == []

    def test_verify_not_a_directory(self, tmp_path, capsys):
        regular = tmp_path / "x.el"
        regular.write_text("0 1\n")
        for target in (tmp_path / "missing", regular):
            assert main(["verify", str(target)]) == 2
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err == f"error: {target} is not a directory\n"

    def test_verify_class_without_ell(self, tmp_path, capsys):
        d = tmp_path / "empty"
        d.mkdir()
        assert main(["verify", str(d), "--class", "G"]) == 2

    def test_verify_badly_named_file_and_error_count(self, tmp_path, capsys):
        d = tmp_path / "corpus"
        d.mkdir()
        write_g6(d / "G1_7_0.g6", cycle_graph(7))
        write_g6(d / "G2_7_0.g6", cycle_graph(7))
        assert main(["verify", str(d)]) == 0
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert payload["file_errors"][0]["file"] == "G1_7_0.g6"
        assert [r["file"] for r in payload["records"]] == ["G2_7_0.g6"]
        assert captured.err.strip() == (
            "verified 1 graphs: 7 pass, 0 fail, 0 skip, 0 timeout, 0 error"
        )

    def test_verify_exit_1_on_failure(self, tmp_path, capsys, monkeypatch):
        import oddholes.cli as cli_mod
        from oddholes.verify import CorpusReport, GraphRecord, PropertyRecord

        def fake_verify(*args, **kwargs):
            report = CorpusReport()
            rec = GraphRecord("x.g6", 1, 0, "G", 2, True)
            rec.properties.append(PropertyRecord("demo", "fail", "forced"))
            report.records.append(rec)
            return report

        monkeypatch.setattr(cli_mod, "verify_corpus", fake_verify)
        d = tmp_path / "any"
        d.mkdir()
        code, payload = run(capsys, "verify", str(d))
        assert code == 1 and payload["summary"]["fail"] == 1


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        assert main(["nonsense"]) == 2

    def test_missing_required_flag(self, corpus_dir, capsys):
        assert main(["check", str(corpus_dir / "c7.g6")]) == 2

    def test_unreadable_file(self, capsys):
        assert main(["chroma", "/does/not/exist.g6"]) == 2

    def test_malformed_graph(self, tmp_path, capsys):
        path = tmp_path / "bad.g6"
        path.write_text("A!\n")
        assert main(["chroma", str(path)]) == 2

    @pytest.mark.parametrize("command, flags, message", [
        ("color", ["--class", "A"], "--class requires --ell"),
        ("color", ["--ell", "3"], "--ell requires --class"),
        ("color", ["--seven-hole-free"], "--seven-hole-free requires --class"),
        ("verify", ["--class", "G"], "--class requires --ell"),
        ("verify", ["--ell", "2"], "--ell requires --class"),
        ("verify", ["--seven-hole-free"], "--seven-hole-free requires --class"),
    ])
    def test_half_given_class(self, corpus_dir, capsys, command, flags, message):
        target = corpus_dir / "c7.g6" if command == "color" else corpus_dir
        assert main([command, str(target), *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.endswith(f"error: {message}\n")

    def test_malformed_exact_cap(self, corpus_dir, capsys, monkeypatch):
        monkeypatch.setenv("ODDHOLES_EXACT_CAP", "abc")
        assert main(["chroma", str(corpus_dir / "petersen.g6")]) == 2
        assert "ODDHOLES_EXACT_CAP" in capsys.readouterr().err

    def test_internal_error_exits_3(self, corpus_dir, capsys, monkeypatch):
        import oddholes.cli as cli_mod

        def crash(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli_mod, "chromatic_number", crash)
        assert main(["chroma", str(corpus_dir / "petersen.g6")]) == 3
        assert capsys.readouterr().err == "internal error: RuntimeError: boom\n"
