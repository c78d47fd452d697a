"""CLI: commands, exit codes, end-to-end flows."""

import io
import json
import os
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import skelgraph as sk
from skelgraph import io as sio
from skelgraph.cli import _emit, build_parser, main
from skelgraph.sampling import random_pair_fixture

from dot_reader import awkward_graph, dot_strings, parse_dot


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


# text with lone surrogates, quotes, backslashes and control characters in it
_JSON_TEXT = st.text(st.characters(exclude_categories=()) | st.characters(categories=["Cs"])
                     | st.sampled_from('"\\\x00\x1f\x7f\u00e9\u2028'), max_size=8)


def _document_argv(tmp_path, g, subject, doc):
    """``export-dot`` reading doc as its --locus, ``verify essential``
    reading g with doc's fields written over it, or ``verify subject``
    reading doc as its --data."""
    if subject == "essential":
        return ["verify", subject, "--graph",
                write_json(tmp_path / "g.json", {**sio.graph_to_json(g), **doc})]
    gpath = write_json(tmp_path / "g.json", sio.graph_to_json(g))
    dpath = write_json(tmp_path / "d.json", doc)
    if subject == "export-dot":
        return ["export-dot", "--graph", gpath, "--locus", dpath]
    return ["verify", subject, "--graph", gpath, "--data", dpath]


_KODAIRA_NU = sio.data_to_json(sk.fixtures.kodaira_type_ii_data(1))["nu"]


class TestFixtureCommand:
    def test_kodaira(self, capsys):
        code, out, _ = run(capsys, "fixture", "kodaira-II")
        assert code == 0
        g = sio.graph_from_json(json.loads(out))
        assert g == sk.fixtures.kodaira_type_ii()

    def test_cycle_with_n(self, capsys):
        code, out, _ = run(capsys, "fixture", "cycle", "--n", "5")
        assert code == 0
        assert len(json.loads(out)["vertices"]) == 5

    def test_stable_metric_flag(self, capsys):
        code, out, _ = run(capsys, "fixture", "kodaira-II", "--metric", "stable")
        assert code == 0
        assert json.loads(out)["metric"] == "stable"

    def test_in_star_one(self, capsys):
        code, out, _ = run(capsys, "fixture", "kodaira-In-star", "--n", "1")
        assert code == 0
        doc = json.loads(out)
        mults = sorted(v["N"] for v in doc["vertices"])
        assert mults == [1, 1, 1, 1, 2, 2]

    def test_unknown_fixture_is_usage_error(self, capsys):
        with pytest.raises(SystemExit):
            main(["fixture", "nope"])


class TestParserReuse:
    """main parses with one parser per process; a failed parse or a
    failed command leaves nothing behind for the next call."""

    def test_one_parser_per_process(self):
        assert build_parser() is build_parser()

    def test_after_exit_two_verify_prints_what_a_fresh_process_prints(self, tmp_path,
                                                                      capsys):
        gpath = write_json(tmp_path / "g.json", sio.graph_to_json(sk.fixtures.dumbbell(1)))
        argv = ["verify", "bridge", "--graph", gpath]
        with pytest.raises(SystemExit) as usage:
            main(["verify", "nope", "--graph", gpath])
        assert usage.value.code == 2
        assert run(capsys, "verify", "bridge", "--graph", str(tmp_path / "none.json"))[0] == 2
        code, out, _ = run(capsys, *argv)
        src = Path(sk.__file__).resolve().parent.parent
        fresh = subprocess.run([sys.executable, "-m", "skelgraph.cli", *argv],
                               env=dict(os.environ, PYTHONPATH=str(src)),
                               capture_output=True, text=True, timeout=120)
        assert code == fresh.returncode == 0 and out == fresh.stdout
        assert json.loads(out)["ok"] is True


class TestVerifyCommand:
    def test_laplacian_pass(self, tmp_path, capsys):
        gpath = write_json(tmp_path / "g.json",
                           sio.graph_to_json(sk.fixtures.kodaira_type_ii()))
        dpath = write_json(tmp_path / "d.json",
                           sio.data_to_json(sk.fixtures.kodaira_type_ii_data()))
        code, out, _ = run(capsys, "verify", "laplacian",
                           "--graph", gpath, "--data", dpath)
        assert code == 0
        report = json.loads(out)
        assert report["ok"] is True
        lap = sio.divisor_from_json(report["laplacian"])
        assert lap == sk.GraphDivisor({
            sk.GraphPoint.at_vertex("v1"): -1, sk.GraphPoint.at_vertex("v2"): -2,
            sk.GraphPoint.at_vertex("v3"): -3, sk.GraphPoint.at_vertex("v4"): 6})

    def test_laplacian_fail_exits_one(self, tmp_path, capsys):
        gpath = write_json(tmp_path / "g.json",
                           sio.graph_to_json(sk.fixtures.kodaira_type_ii()))
        bad = sk.PluricanonicalModelData(m=1, nu={"v1": 0, "v2": 2, "v3": 3, "v4": 5})
        dpath = write_json(tmp_path / "d.json", sio.data_to_json(bad))
        code, out, _ = run(capsys, "verify", "laplacian",
                           "--graph", gpath, "--data", dpath)
        assert code == 1
        assert json.loads(out)["ok"] is False

    def test_essential_kodaira(self, tmp_path, capsys):
        gpath = write_json(tmp_path / "g.json",
                           sio.graph_to_json(sk.fixtures.kodaira_type_ii()))
        code, out, _ = run(capsys, "verify", "essential", "--graph", gpath)
        assert code == 0
        skel = json.loads(out)["essential_skeleton"]
        assert [v["id"] for v in skel["vertices"]] == ["v4"]

    def test_essential_reports_warnings_under_any_filter(self, tmp_path, capsys):
        # on the path u-v-w with w of genus 1, leaf u's neighbour has its
        # multiplicity, so the minimality lint warns; under -W error the
        # warning goes into the report, and the exit code stays 0
        g = sk.WeightedDualGraph([sk.VertexLabel("u"), sk.VertexLabel("v"),
                                  sk.VertexLabel("w", 1, 1)], [("u", "v"), ("v", "w")])
        gpath = write_json(tmp_path / "g.json", sio.graph_to_json(g))
        src = Path(sk.__file__).resolve().parent.parent
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "skelgraph.cli",
             "verify", "essential", "--graph", gpath],
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True, text=True, timeout=120)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert json.loads(proc.stdout)["warnings"] == [
            "leaf 'u' looks like a contractible exceptional component; "
            "is this really the minimal model?"]
        assert run(capsys, "verify", "essential", "--graph", gpath) == (0, proc.stdout, "")
        quiet = write_json(tmp_path / "k.json", sio.graph_to_json(sk.fixtures.kodaira_type_ii()))
        code, out, _ = run(capsys, "verify", "essential", "--graph", quiet)
        assert (code, json.loads(out)["warnings"]) == (0, [])

    def test_ks_kodaira(self, tmp_path, capsys):
        gpath = write_json(tmp_path / "g.json",
                           sio.graph_to_json(sk.fixtures.kodaira_type_ii()))
        dpath = write_json(tmp_path / "d.json",
                           sio.data_to_json(sk.fixtures.kodaira_type_ii_data()))
        code, out, _ = run(capsys, "verify", "ks", "--graph", gpath, "--data", dpath)
        assert code == 0
        assert json.loads(out)["ks_skeleton"]["vertices"] == ["v4"]

    def test_min_locus_theta(self, tmp_path, capsys):
        gpath = write_json(tmp_path / "g.json",
                           sio.graph_to_json(sk.fixtures.theta_graph()))
        code, out, _ = run(capsys, "verify", "min-locus", "--graph", gpath)
        assert code == 0
        report = json.loads(out)
        assert set(report["edges"]) == {"e0", "e1", "e2"}
        assert all(entry["ok"] for entry in report["edges"].values())

    def test_min_locus_broken_hypotheses_exits_one(self, tmp_path, capsys):
        # a tree has only bridges, so requesting a specific edge fails
        gpath = write_json(tmp_path / "g.json",
                           sio.graph_to_json(sk.fixtures.path_graph(3)))
        data = write_json(tmp_path / "w.json", {"edge": "e0"})
        code, out, _ = run(capsys, "verify", "min-locus",
                           "--graph", gpath, "--data", data)
        assert code == 1
        report = json.loads(out)
        assert not report["ok"]
        assert "bridge" in report["edges"]["e0"]["error"]

    @pytest.mark.parametrize("doc, message", [
        ({"edge": "e9"}, "unknown edge 'e9'"),
        ({"edge": "e0", "tree": ["e9"]}, "unknown edge 'e9'"),
        ({"edge": "e0", "tree": []}, "not a spanning tree avoiding 'e0'"),
        ({"edge": "e0", "tree": ["e0"]}, "not a spanning tree avoiding 'e0'"),
        ({"edge": "e0", "tree": ["e1", "e2"]}, "not a spanning tree avoiding 'e0'"),
    ], ids=["unknown-edge", "unknown-tree-edge", "empty-tree", "tree-holds-edge",
            "not-a-tree"])
    def test_min_locus_bad_request_exits_two(self, tmp_path, capsys, doc, message):
        argv = _document_argv(tmp_path, sk.fixtures.theta_graph(), "min-locus", doc)
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err

    def test_min_locus_given_tree(self, tmp_path, capsys):
        argv = _document_argv(tmp_path, sk.fixtures.theta_graph(), "min-locus",
                              {"edge": "e0", "tree": ["e1"]})
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert json.loads(out)["edges"]["e0"]["witness"]["tree"] == ["e1"]

    def test_min_locus_reads_a_given_tree_once(self, tmp_path, capsys, monkeypatch):
        # the entry check reads the list; witness_cycle and its lemma get
        # the tree it checked, which the reader passes at once
        from skelgraph import cli, potential, skeleton
        reads = []
        real = potential._edge_set

        def counting(graph, ids, what="tree"):
            if what == "tree" and (type(ids) is not frozenset or ids not in graph._trees):
                reads.append(ids)
            return real(graph, ids, what)

        for module in (cli, potential, skeleton):
            monkeypatch.setattr(module, "_edge_set", counting, raising=False)
        argv = _document_argv(tmp_path, sk.fixtures.theta_graph(), "min-locus",
                              {"edge": "e0", "tree": ["e1"]})
        code, out, _ = run(capsys, *argv)
        assert code == 0 and json.loads(out)["ok"] is True
        assert reads == [["e1"]]

    def test_bridge_dumbbell(self, tmp_path, capsys):
        gpath = write_json(tmp_path / "g.json",
                           sio.graph_to_json(sk.fixtures.dumbbell(2)))
        code, out, _ = run(capsys, "verify", "bridge", "--graph", gpath)
        assert code == 0
        report = json.loads(out)
        assert len(report["chains"]) == 1
        assert len(report["chains"][0]["chain"]) == 2

    @pytest.mark.parametrize("edges", [["e6", "e7", "e8"], ["e8", "e6", "e7"]])
    def test_bridge_named_chain(self, tmp_path, capsys, edges):
        argv = _document_argv(tmp_path, sk.fixtures.dumbbell(3), "bridge", {"chain": edges})
        code, out, _ = run(capsys, *argv)
        assert code == 0
        report = json.loads(out)
        assert report["ok"] is True
        assert [entry["chain"] for entry in report["chains"]] == [["e6", "e7", "e8"]]

    def test_bridge_unknown_chain_exits_two(self, tmp_path, capsys):
        argv = _document_argv(tmp_path, sk.fixtures.dumbbell(3), "bridge", {"chain": ["e0"]})
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == "error: no maximal bridge chain with edges ['e0']\n"

    def test_bridge_with_pendant_leaf_exits_one(self, tmp_path, capsys):
        # two triangles joined by a bridge, plus a pendant leaf: every
        # chain's witness is refused, and each entry says why
        tri = [("a0", "a1"), ("a1", "a2"), ("a2", "a0"),
               ("b0", "b1"), ("b1", "b2"), ("b2", "b0")]
        g = sk.WeightedDualGraph(
            vertices=[sk.VertexLabel(v)
                      for v in ("a0", "a1", "a2", "b0", "b1", "b2", "leaf")],
            edges=tri + [("a0", "b0"), ("a1", "leaf")])
        gpath = write_json(tmp_path / "g.json", sio.graph_to_json(g))
        code, out, _ = run(capsys, "verify", "bridge", "--graph", gpath)
        assert code == 1
        report = json.loads(out)
        assert report["ok"] is False and report["chains"]
        for entry in report["chains"]:
            assert list(entry) == ["chain", "ok", "error"]
            assert entry["ok"] is False
            assert "1-valent" in entry["error"]

    def test_nonbridge_union(self, tmp_path, capsys):
        gpath = write_json(tmp_path / "g.json",
                           sio.graph_to_json(sk.fixtures.dumbbell(1)))
        code, out, _ = run(capsys, "verify", "nonbridge", "--graph", gpath)
        assert code == 0
        assert json.loads(out)["ok"] is True

    def test_nonbridge_failed_witness_exits_one(self, tmp_path, capsys):
        # these lengths need a lattice past the reduction cap, so the
        # first witness fails; that is a verification failure
        g = sk.WeightedDualGraph(
            vertices=[sk.VertexLabel("u"), sk.VertexLabel("v")],
            edges=[("u", "v", sio.parse_rational(x))
                   for x in ("1/101", "1/103", "1/107")])
        gpath = write_json(tmp_path / "g.json", sio.graph_to_json(g))
        code, out, _ = run(capsys, "verify", "nonbridge", "--graph", gpath)
        assert code == 1
        report = json.loads(out)
        assert report["ok"] is False
        assert report["failed"]["edge"] == "e0"
        assert report["canonical_form_locus"] == sio.locus_to_json(
            sk.canonical_form_locus(g))

    def test_schema_violation_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run(capsys, "verify", "essential", "--graph", str(bad))
        assert code == 2
        assert "error" in err

    def test_undecodable_file_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b"\xff\xfe{")
        code, out, err = run(capsys, "verify", "essential", "--graph", str(bad))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("subject, doc", [
        ("min-locus", [1, 2]), ("min-locus", {"edge": "e0", "tree": 5}),
        ("min-locus", {"tree": ["e0"]}), ("bridge", [1, 2]), ("bridge", {"chain": 7}),
        ("export-dot", [1]), ("laplacian", {"m": 1, "nu": [1]}),
        ("ks", {"m": 1, "nu": _KODAIRA_NU, "rays": [1]}),
        ("laplacian", {"m": 1.9, "nu": _KODAIRA_NU}),
        ("laplacian", {"m": 1, "nu": {**_KODAIRA_NU, "v1": 1.5}}),
        ("ks", {"m": True, "nu": _KODAIRA_NU}),
        ("ks", {"m": 1, "nu": _KODAIRA_NU, "rays": {"x": {"deg_div": 2.5}}}),
        ("essential", {"pair_model": "false"}),
        ("ks", {"m": 1, "nu": _KODAIRA_NU, "horizontal_edges": "e12"}),
        ("essential", {"name": None}),
        ("essential", {"vertices": [{"id": 5, "g": 1}], "edges": []}),
        ("min-locus", {"edge": 0}), ("min-locus", {"edge": "e0", "tree": [1, 2]}),
        ("bridge", {"chain": [0]}), ("export-dot", {"vertices": [0]}),
        ("export-dot", {"segments": [{"edge": 1, "start": "0", "end": "1/2"}]}),
        ("ks", {"m": 1, "nu": _KODAIRA_NU, "horizontal_edges": [12]}),
    ])
    def test_data_shape_errors_exit_two(self, tmp_path, capsys, subject, doc):
        g = sk.fixtures.kodaira_type_ii() if subject in ("laplacian", "ks") \
            else sk.fixtures.theta_graph()
        code, out, err = run(capsys, *_document_argv(tmp_path, g, subject, doc))
        assert code == 2
        assert out == ""
        assert "malformed" in err
        # a malformed optional field is named in the message
        for field in ("pair_model", "horizontal_edges", "name"):
            assert field in err or field not in doc

    @pytest.mark.parametrize("stdin", [False, True])
    def test_oversized_integer_exits_two(self, tmp_path, capsys, monkeypatch, stdin):
        # json refuses integers past sys.get_int_max_str_digits() with a ValueError
        text = '{"vertices": [{"id": "v", "N": %s, "g": 1}], "edges": []}' % ("7" * 5001)
        if stdin:
            monkeypatch.setattr("sys.stdin", io.StringIO(text))
            path = "-"
        else:
            path = tmp_path / "g.json"
            path.write_text(text)
        code, out, err = run(capsys, "verify", "essential", "--graph", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("length", ["1e400000", "0.5", "1_000", " 2 "])
    def test_undocumented_rational_exits_two(self, tmp_path, capsys, length):
        doc = sio.graph_to_json(sk.fixtures.theta_graph())
        doc["edges"][0]["length"] = length
        code, out, err = run(capsys, "verify", "essential",
                             "--graph", write_json(tmp_path / "g.json", doc))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "not a rational" in err

    def test_missing_data_exits_two(self, tmp_path, capsys):
        gpath = write_json(tmp_path / "g.json",
                           sio.graph_to_json(sk.fixtures.kodaira_type_ii()))
        code, _, err = run(capsys, "verify", "laplacian", "--graph", gpath)
        assert code == 2

    @pytest.mark.parametrize("subject", ["laplacian", "ks"])
    def test_omitted_data_is_named(self, tmp_path, capsys, subject):
        gpath = write_json(tmp_path / "g.json",
                           sio.graph_to_json(sk.fixtures.kodaira_type_ii()))
        code, out, err = run(capsys, "verify", subject, "--graph", gpath)
        assert (code, out) == (2, "")
        assert err == f"error: verify {subject} requires --data\n"

    @pytest.mark.parametrize("subject", ["laplacian", "ks"])
    def test_null_data_document_exits_two(self, tmp_path, capsys, subject):
        argv = _document_argv(tmp_path, sk.fixtures.kodaira_type_ii(), subject, None)
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"error: verify {subject}: the --data document is null\n"

    @pytest.mark.parametrize("subject", ["min-locus", "bridge"])
    def test_null_request_is_no_request(self, tmp_path, capsys, subject):
        g = sk.fixtures.dumbbell(1)
        code, out, _ = run(capsys, *_document_argv(tmp_path, g, subject, None))
        assert code == 0
        gpath = write_json(tmp_path / "g.json", sio.graph_to_json(g))
        assert run(capsys, "verify", subject, "--graph", gpath) == (code, out, "")


class TestExportDot:
    def test_star_with_lengths(self, tmp_path, capsys):
        gpath = write_json(tmp_path / "g.json",
                           sio.graph_to_json(sk.fixtures.kodaira_type_ii()))
        code, out, _ = run(capsys, "export-dot", "--graph", gpath)
        assert code == 0
        for frac in ("1/6", "1/12", "1/18"):
            assert frac in out

    def test_locus_overlay(self, tmp_path, capsys):
        g = sk.fixtures.kodaira_type_ii()
        gpath = write_json(tmp_path / "g.json", sio.graph_to_json(g))
        lpath = write_json(tmp_path / "l.json",
                           sio.locus_to_json(sk.vertex_locus(g, "v4")))
        code, out, _ = run(capsys, "export-dot", "--graph", gpath,
                           "--locus", lpath)
        assert code == 0
        assert 'locus="1"' in out


class TestVerifyLaplacianReport:
    """verify laplacian reports Delta(wt) as the report's discrepancy
    plus mK, validating the model data only inside the theorem check."""

    @staticmethod
    def reported(tmp_path, capsys, g, data):
        gpath = write_json(tmp_path / "g.json", sio.graph_to_json(g))
        dpath = write_json(tmp_path / "d.json", sio.data_to_json(data))
        code, out, _ = run(capsys, "verify", "laplacian", "--graph", gpath, "--data", dpath)
        return code, json.loads(out)["laplacian"]

    def test_failing_data_reports_the_weight_laplacian(self, tmp_path, capsys):
        g = sk.fixtures.kodaira_type_ii()
        bad = sk.PluricanonicalModelData(m=1, nu={"v1": 0, "v2": 2, "v3": 3, "v4": 5})
        code, lap = self.reported(tmp_path, capsys, g, bad)
        assert code == 1
        assert lap == sio.divisor_to_json(sk.laplacian(g, sk.weight_function(g, bad)))

    def test_pair_fixtures_report_the_weight_laplacian(self, tmp_path, capsys):
        rng = random.Random(31)
        for m in (1, 2, 3):
            for _ in range(4):
                g, data = random_pair_fixture(rng, m)
                code, lap = self.reported(tmp_path, capsys, g, data)
                assert code == 0
                assert lap == sio.divisor_to_json(sk.laplacian(g, sk.weight_function(g, data)))

    def test_data_is_validated_once(self, tmp_path, capsys, monkeypatch):
        seen = []
        real = sk.PluricanonicalModelData.validate_on
        monkeypatch.setattr(sk.PluricanonicalModelData, "validate_on",
                            lambda self, graph: seen.append(graph) or real(self, graph))
        code, _ = self.reported(tmp_path, capsys, sk.fixtures.kodaira_type_ii(),
                                sk.fixtures.kodaira_type_ii_data())
        assert code == 0 and len(seen) == 1


class TestExportDotEscaping:
    def test_quoted_ids_round_trip(self, tmp_path, capsys):
        g = awkward_graph()
        gpath = write_json(tmp_path / "g.json", sio.graph_to_json(g))
        code, out, _ = run(capsys, "export-dot", "--graph", gpath)
        assert code == 0
        assert parse_dot(out) == dot_strings(g)


class TestSolveRaySlopesFile:
    """Only null and an object are ray-slope documents; null means none."""

    @pytest.mark.parametrize("doc, code", [
        ([], 2), (0, 2), (False, 2), ("", 2), ([1], 2), (None, 0), ({}, 0),
    ], ids=["list", "zero", "false", "empty-string", "list-of-int", "null", "object"])
    def test_exit_code(self, tmp_path, capsys, doc, code):
        g = sk.fixtures.theta_graph()
        gpath = write_json(tmp_path / "g.json", sio.graph_to_json(g))
        dpath = write_json(tmp_path / "d.json",
                           sio.divisor_to_json(sk.GraphDivisor({"u": 1, "v": -1})))
        spath = write_json(tmp_path / "s.json", doc)
        got, out, err = run(capsys, "solve", "--graph", gpath, "--divisor", dpath,
                            "--anchor", "u", "--ray-slopes", spath)
        assert got == code, err
        if code == 2:
            assert (out, err) == ("", f"error: malformed ray slopes JSON: expected a dict, "
                                      f"got {doc!r}\n")


class TestEmptyFileOption:
    """An empty value of an optional file option is a file name, as for
    any other value: nothing opens as "", so each command exits 2."""

    @pytest.mark.parametrize("option", ["export-dot --locus", "solve --ray-slopes",
                                        "verify --data"])
    def test_empty_name_exits_two(self, tmp_path, capsys, option):
        g = sk.fixtures.theta_graph()
        gpath = write_json(tmp_path / "g.json", sio.graph_to_json(g))
        dpath = write_json(tmp_path / "d.json",
                           sio.divisor_to_json(sk.GraphDivisor({"u": 1, "v": -1})))
        argv = {
            "export-dot --locus": ["export-dot", "--graph", gpath, "--locus", ""],
            "solve --ray-slopes": ["solve", "--graph", gpath, "--divisor", dpath,
                                   "--anchor", "u", "--ray-slopes", ""],
            "verify --data": ["verify", "min-locus", "--graph", gpath, "--data", ""],
        }[option]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "No such file or directory" in err
        assert run(capsys, *argv[:-2])[0] == 0  # the option left out is no request


_ODD = '"\\\x01\u00e9'  # a quote, a backslash, a control character and non-ASCII


def _odd_graph(g):
    """g's JSON with its name, every vertex id and every ray label made
    to need escaping."""
    doc = sio.graph_to_json(g)
    odd = (g.name or "g") + _ODD
    return {**doc, "name": odd,
            "vertices": [{**v, "id": v["id"] + _ODD} for v in doc["vertices"]],
            "edges": [{**e, "a": e["a"] + _ODD, "b": e["b"] + _ODD} for e in doc["edges"]],
            "rays": [{**r, "attach": r["attach"] + _ODD, "label": r["label"] + _ODD}
                     for r in doc["rays"]]}


def _odd_data(data):
    """data's JSON renamed as _odd_graph renames its graph."""
    doc = sio.data_to_json(data)
    return {**doc, "nu": {k + _ODD: v for k, v in doc["nu"].items()},
            "rays": {k + _ODD: v for k, v in doc["rays"].items()}}


_BAD_KODAIRA_DATA = sk.PluricanonicalModelData(m=1, nu={"v1": 0, "v2": 2, "v3": 3, "v4": 5})

# JSON subcommand -> (graph, model data or None, extra --data document or None, exit code)
_EMITTING = {
    "solve": (sk.fixtures.theta_graph(), None, None, 0),
    "laplacian": (sk.fixtures.kodaira_type_ii(), sk.fixtures.kodaira_type_ii_data(), None, 0),
    "laplacian-fails": (sk.fixtures.kodaira_type_ii(), _BAD_KODAIRA_DATA, None, 1),
    "ks": (sk.fixtures.kodaira_type_ii(), sk.fixtures.kodaira_type_ii_data(), None, 0),
    "essential": (sk.fixtures.kodaira_type_ii(), None, None, 0),
    "min-locus": (sk.fixtures.triangle_chain(3), None, None, 0),
    "min-locus-fails": (sk.fixtures.path_graph(3), None, {"edge": "e0"}, 1),
    "bridge": (sk.fixtures.dumbbell(2), None, None, 0),
    "nonbridge": (sk.fixtures.theta_graph(), None, None, 0),
}


class TestEmitFormat:
    """A JSON report is byte for byte json.dumps(doc, indent=2) and one newline."""

    @staticmethod
    def _is_indented_json(out):
        return out == json.dumps(json.loads(out), indent=2) + "\n"

    @pytest.mark.parametrize("name", sk.fixtures.fixture_names())
    def test_fixture(self, capsys, name):
        code, out, err = run(capsys, "fixture", name)
        assert (code, err) == (0, "")
        assert self._is_indented_json(out)

    @pytest.mark.parametrize("odd", [False, True], ids=["plain", "escaped-ids"])
    @pytest.mark.parametrize("command", list(_EMITTING))
    def test_report(self, tmp_path, capsys, command, odd):
        g, data, request, expected = _EMITTING[command]
        gdoc = _odd_graph(g) if odd else sio.graph_to_json(g)
        argv = ["--graph", write_json(tmp_path / "g.json", gdoc)]
        if data is not None:
            ddoc = _odd_data(data) if odd else sio.data_to_json(data)
            argv += ["--data", write_json(tmp_path / "d.json", ddoc)]
        if request is not None:
            argv += ["--data", write_json(tmp_path / "d.json", request)]
        if command == "solve":
            u, v = ("u" + _ODD, "v" + _ODD) if odd else ("u", "v")
            target = sio.divisor_to_json(sk.GraphDivisor({u: 1, v: -1}))
            argv = ["solve", *argv, "--divisor", write_json(tmp_path / "t.json", target),
                    "--anchor", u]
        else:
            argv = ["verify", command.removesuffix("-fails"), *argv]
        code, out, err = run(capsys, *argv)
        assert (code, err) == (expected, "")
        assert self._is_indented_json(out)
        assert (json.dumps(_ODD)[1:-1] in out) == odd

    @settings(max_examples=150, deadline=None)
    @given(doc=st.recursive(
        st.none() | st.booleans() | st.integers() | st.integers(2**64, 2**200)
        | st.integers(-2**200, -2**64) | st.floats() | _JSON_TEXT,
        lambda kids: (st.lists(kids) | st.lists(kids).map(tuple)
                      | st.dictionaries(_JSON_TEXT, kids)),
        max_leaves=25))
    @example(doc={"": [], "a": {}, "b": [[], {}, ()], "c": [{"d": [[]]}], "\ud800": "\udfff"})
    @example(doc=())
    def test_writer_is_json_dumps(self, doc):
        out = io.StringIO()
        with redirect_stdout(out):
            _emit(doc)
        assert out.getvalue() == json.dumps(doc, indent=2) + "\n"

    @pytest.mark.parametrize("key", [1, 1.5, True, None, ("a",)])
    def test_non_str_key_raises_before_writing(self, capsys, key):
        # json.dumps writes an int, float, bool or None key as a string;
        # no report has one, and the writer refuses it instead
        with pytest.raises(TypeError, match=f"keys must be str, not {type(key).__name__}"):
            _emit({"ok": True, "nested": [{key: 1}]})
        assert capsys.readouterr().out == ""


class TestUndecodableText:
    """A lone surrogate is not UTF-8 text: a graph that holds one is
    malformed input, refused where it is read."""

    @pytest.mark.parametrize("where, doc", [
        ("vertex id", {"vertices": [{"id": "\ud800"}, {"id": "b"}],
                       "edges": [{"a": "\ud800", "b": "b"}]}),
        ("graph name", {**sio.graph_to_json(sk.fixtures.theta_graph()), "name": "t\udfff"}),
    ])
    @pytest.mark.parametrize("argv", [["export-dot"], ["verify", "essential"]],
                             ids=["export-dot", "verify-essential"])
    def test_exits_two(self, tmp_path, capsys, argv, where, doc):
        code, out, err = run(capsys, *argv, "--graph", write_json(tmp_path / "g.json", doc))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: malformed {where} JSON: ") and err.count("\n") == 1
        assert err.endswith(" is not UTF-8 text\n")


class TestSolve:
    def test_kodaira_poisson(self, tmp_path, capsys):
        g = sk.fixtures.kodaira_type_ii()
        gpath = write_json(tmp_path / "g.json", sio.graph_to_json(g))
        dpath = write_json(tmp_path / "d.json",
                           sio.divisor_to_json(sk.canonical_divisor(g)))
        code, out, _ = run(capsys, "solve", "--graph", gpath,
                           "--divisor", dpath, "--anchor", "v4")
        assert code == 0
        f = sio.function_from_json(json.loads(out))
        assert sk.laplacian(g, f) == sk.canonical_divisor(g)

    def test_high_genus_rational_target(self, tmp_path, capsys):
        import random
        from fractions import Fraction
        from skelgraph.sampling import random_reduced_graph
        rng = random.Random(20)
        g = random_reduced_graph(rng, max_vertices=10, genus=20)
        assert sk.graph_genus(g) >= 20
        coeffs = {sk.GraphPoint.at_vertex(v): Fraction(rng.randint(-5, 5), rng.randint(1, 6))
                  for v in g.vertex_ids}
        e = g.edges[-1]
        coeffs[sk.GraphPoint.on_edge(e.id, g.edge_length(e.id) / 3)] = Fraction(2, 7)
        coeffs[sk.GraphPoint.at_vertex(g.vertex_ids[0])] -= sum(coeffs.values())
        target = sk.GraphDivisor(coeffs)
        assert not target.is_integral()
        gpath = write_json(tmp_path / "g.json", sio.graph_to_json(g))
        dpath = write_json(tmp_path / "d.json", sio.divisor_to_json(target))
        code, out, _ = run(capsys, "solve", "--graph", gpath,
                           "--divisor", dpath, "--anchor", g.vertex_ids[-1])
        assert code == 0
        f = sio.function_from_json(json.loads(out))
        assert sk.laplacian(g, f) == target
        assert f.evaluate(g, g.vertex_ids[-1]) == 0

    def test_degree_mismatch_exits_two(self, tmp_path, capsys):
        g = sk.fixtures.theta_graph()
        gpath = write_json(tmp_path / "g.json", sio.graph_to_json(g))
        dpath = write_json(tmp_path / "d.json",
                           sio.divisor_to_json(sk.GraphDivisor.at("u", 1)))
        code, _, err = run(capsys, "solve", "--graph", gpath,
                           "--divisor", dpath, "--anchor", "u")
        assert code == 2

    def test_non_integral_ray_slope_exits_two(self, tmp_path, capsys):
        g = sk.WeightedDualGraph(vertices=[sk.VertexLabel("a"), sk.VertexLabel("b")],
                                 edges=[("a", "b")], rays=[sk.Ray("a", "x", 1)])
        gpath = write_json(tmp_path / "g.json", sio.graph_to_json(g))
        dpath = write_json(tmp_path / "d.json",
                           sio.divisor_to_json(sk.GraphDivisor.at("b", 1)))
        for slope in ("3/2", 1.5):
            spath = write_json(tmp_path / "s.json", {"x": slope})
            code, _, err = run(capsys, "solve", "--graph", gpath, "--divisor", dpath,
                               "--anchor", "a", "--ray-slopes", spath)
            assert code == 2, slope
            assert "error" in err


# Documents near the shape solve expects, plus arbitrary JSON values.
_json = st.recursive(
    st.none() | st.booleans() | st.integers(-5, 5) | st.floats(allow_nan=False)
    | st.sampled_from(["u", "v", "e0", "x", "1/2", "-1", "3/2", "0", "1/0"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["point", "coeff", "vertex", "edge", "ray",
                                       "position", "distance", "x", "a"]),
                      inner, max_size=3),
    max_leaves=8)
_point = st.fixed_dictionaries({"vertex": st.sampled_from(["u", "v", "w"])}) | \
    st.fixed_dictionaries({"edge": st.sampled_from(["e0", "e9"]),
                           "position": st.sampled_from(["1/2", "1/3", "2", "-1", 0])}) | \
    st.fixed_dictionaries({"ray": st.sampled_from(["x", "y"]),
                           "distance": st.sampled_from(["1", "0", 1])}) | _json
_entry = st.fixed_dictionaries({"point": _point,
                                "coeff": st.integers(-2, 2) | _json}) | _json


class TestSolveFuzz:
    @settings(max_examples=120, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(divisor=st.lists(_entry, max_size=4) | _json,
           slopes=st.none() | st.dictionaries(st.sampled_from(["x", "y"]),
                                              _json, max_size=2) | _json)
    @example(divisor={"a": 1}, slopes=None)
    @example(divisor=[{"point": {"vertex": "u"}}], slopes=None)
    @example(divisor=[5], slopes=None)
    @example(divisor=[], slopes=["x"])
    def test_exit_code_contract(self, tmp_path, divisor, slopes):
        g = sk.WeightedDualGraph(vertices=[sk.VertexLabel("u"), sk.VertexLabel("v")],
                                 edges=[("u", "v"), ("u", "v")],
                                 rays=[sk.Ray("u", "x", 1)])
        argv = ["solve", "--graph", write_json(tmp_path / "g.json", sio.graph_to_json(g)),
                "--divisor", write_json(tmp_path / "d.json", divisor), "--anchor", "u"]
        if slopes is not None:
            argv += ["--ray-slopes", write_json(tmp_path / "s.json", slopes)]
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            assert main(argv) in (0, 1, 2)


# Documents near the shapes verify min-locus and bridge expect.
_verify_json = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 2)
    | st.sampled_from(["e0", "e1", "e2", "e9", "u", ""]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["edge", "tree", "chain", "x"]), inner, max_size=3),
    max_leaves=6)
_edge_list = st.lists(st.sampled_from(["e0", "e1", "e2", "e9"]), max_size=3)
_verify_data = st.fixed_dictionaries({"edge": st.sampled_from(["e0", "e2", "e9"])},
                                     optional={"tree": _edge_list | _verify_json}) | \
    st.fixed_dictionaries({"chain": _edge_list | _verify_json}) | _verify_json


class TestVerifyFuzz:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(subject=st.sampled_from(["min-locus", "bridge"]), data=_verify_data)
    @example(subject="min-locus", data=[1, 2])
    @example(subject="min-locus", data={"edge": "e0", "tree": 5})
    @example(subject="bridge", data={"chain": 7})
    @example(subject="bridge", data=[])
    def test_exit_code_contract(self, tmp_path, subject, data):
        argv = ["verify", subject,
                "--graph", write_json(tmp_path / "g.json",
                                      sio.graph_to_json(sk.fixtures.theta_graph())),
                "--data", write_json(tmp_path / "d.json", data)]
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            assert main(argv) in (0, 1, 2)


# Documents near the shapes export-dot --locus and verify laplacian|ks
# --data expect, on the kodaira-II graph (vertices v1-v4, edges e0-e2).
_doc_json = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 6) | st.floats(allow_nan=False)
    | st.sampled_from(["v1", "v4", "e0", "e9", "x", "1/2", "1/6", "-1", "1/0", ""]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["vertices", "edges", "segments", "edge", "start",
                                       "end", "m", "nu", "rays", "deg_div", "v1"]),
                      inner, max_size=3),
    max_leaves=8)
_vertex = st.sampled_from(["v1", "v2", "v3", "v4", "v9"])
_bound = st.sampled_from(["0", "1/12", "1/6", "1", "-1", 0]) | _doc_json
_segment = st.fixed_dictionaries({"edge": st.sampled_from(["e0", "e2", "e9"]),
                                  "start": _bound, "end": _bound}) | _doc_json
_locus = st.fixed_dictionaries({}, optional={
    "vertices": st.lists(_vertex, max_size=3) | _doc_json,
    "edges": st.lists(st.sampled_from(["e0", "e1", "e9"]), max_size=2) | _doc_json,
    "segments": st.lists(_segment, max_size=2) | _doc_json}) | _doc_json
_model_data = st.fixed_dictionaries(
    {"m": st.integers(-1, 3) | _doc_json,
     "nu": st.dictionaries(_vertex, st.integers(-3, 6) | _doc_json, max_size=4)
     | st.just(_KODAIRA_NU) | _doc_json},
    optional={"rays": st.dictionaries(st.sampled_from(["x", "v1"]),
                                      st.fixed_dictionaries({"deg_div": _doc_json})
                                      | _doc_json, max_size=2) | _doc_json,
              "horizontal_edges": st.lists(st.sampled_from(["e0", "e9"]), max_size=2)
              | _doc_json}) | _doc_json


class TestDocumentFuzz:
    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(subject=st.sampled_from(["export-dot", "laplacian", "ks"]),
           locus=_locus, model_data=_model_data)
    @example(subject="export-dot", locus=[1], model_data=None)
    @example(subject="laplacian", locus=None, model_data={"m": 1, "nu": [1]})
    @example(subject="ks", locus=None, model_data={"m": 1, "nu": _KODAIRA_NU, "rays": [1]})
    @example(subject="ks", locus=None, model_data={"m": 1e999, "nu": _KODAIRA_NU})
    def test_exit_code_contract(self, tmp_path, subject, locus, model_data):
        argv = _document_argv(tmp_path, sk.fixtures.kodaira_type_ii(), subject,
                              locus if subject == "export-dot" else model_data)
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            assert main(argv) in (0, 1, 2)


# Graph documents near the shape graph_from_json reads: vertices u, v, w
# and up to four edges of small lengths, so each verify runs fast; junk
# comes from _doc_json, whose keys include vertices, edges and rays.
_end = st.sampled_from(["u", "v", "w"])


def _edge_doc(a, b):
    return st.fixed_dictionaries({"a": a, "b": b},
                                 optional={"length": st.sampled_from(["1", "1/2", "2", 1])})


_well_formed_graph = st.fixed_dictionaries(
    {"vertices": st.tuples(*(st.fixed_dictionaries(
        {"id": st.just(v)}, optional={"N": st.integers(1, 3), "g": st.integers(0, 1)})
        for v in "uvw")).map(list),
     # the path u - v - w keeps the graph connected
     "edges": st.tuples(_edge_doc(st.just("u"), st.just("v")),
                        _edge_doc(st.just("v"), st.just("w")),
                        st.lists(_edge_doc(_end, _end), max_size=2)).map(
                            lambda t: [t[0], t[1], *t[2]])},
    optional={"rays": st.lists(st.fixed_dictionaries(
                  {"attach": _end, "label": st.sampled_from(["x", "y"])},
                  optional={"degree": st.integers(1, 2)}),
                  max_size=2, unique_by=lambda r: r["label"]),
              "metric": st.sampled_from(["model", "stable"]),
              "name": st.just("g"),
              "pair_model": st.booleans()})


@st.composite
def _graph_docs(draw):
    """A quarter JSON junk, a quarter well formed but for one field or
    entry, at any depth, replaced by junk, and half well formed."""
    kind = draw(st.integers(0, 3))
    if kind == 0:
        return draw(_doc_json)
    doc = node = draw(_well_formed_graph)
    if kind == 1:
        while True:
            key = draw(st.sampled_from(sorted(node) if isinstance(node, dict)
                                       else range(len(node))))
            if not (isinstance(node[key], (dict, list)) and node[key]
                    and draw(st.booleans())):
                break
            node = node[key]
        node[key] = draw(_doc_json)
    return doc


_MALFORMED_GRAPHS = [{}, [], {"vertices": [5]}]


class TestGraphDocumentFuzz:
    # verify essential warns on a leaf that looks contractible, and exits 0
    @pytest.mark.filterwarnings("ignore:leaf .* looks like a contractible:UserWarning")
    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(subject=st.sampled_from(["essential", "nonbridge", "min-locus", "bridge"]),
           graph=_graph_docs())
    @example(subject="essential", graph={})
    @example(subject="nonbridge", graph=[])
    @example(subject="min-locus", graph={"vertices": [5]})
    def test_exit_code_contract(self, tmp_path, subject, graph):
        argv = ["verify", subject, "--graph", write_json(tmp_path / "g.json", graph)]
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2)
        if graph in _MALFORMED_GRAPHS:
            assert code == 2 and "malformed graph JSON" in err.getvalue()
