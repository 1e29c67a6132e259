"""CLI subcommands, exit codes, and artifact reproducibility headers."""

import argparse
import contextlib
import contextvars
import copy
import gc
import io
import json
import os
import pickle
import re
import resource
import signal
import subprocess
import sys
import threading
import time
import warnings
import weakref
from collections import Counter
from dataclasses import fields, replace
from pathlib import Path
from xml.sax.saxutils import quoteattr

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from clonemap import cli, ingest, pipeline
from clonemap.cli import build_parser, main
from clonemap.errors import CloneMapWarning
from clonemap.evaluation import GroupMapping, SynthConfig
from clonemap.ingest import (VersionSnapshot, parse_clone_report, resolve_snapshot,
                             snapshot_to_dict)
from clonemap.mapping import MappingConfig, Metric, Strategy
from clonemap.preprocess import TokenDocument, strip_comments
from clonemap.topicmodel import LdaConfig, count_version


@pytest.fixture()
def evolution(tmp_path):
    out = tmp_path / "evo"
    rc = main(["synth", "--out", str(out), "--groups", "10",
               "--deaths", "0.1", "--births", "0.1", "--seed", "7"])
    assert rc == 0
    return out


def run_map_cmd(evolution, *extra, fmt="json"):
    return [
        "map",
        "--newer", str(evolution / "newer_report.json"),
        "--older", str(evolution / "older_report.json"),
        "--source-newer", str(evolution / "newer_src"),
        "--source-older", str(evolution / "older_src"),
        "--format", fmt,
        *extra,
    ]


class TestMapCommand:
    def test_json_output_schema(self, evolution, capsys):
        rc = main(run_map_cmd(evolution))
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["newer"] == "v2"
        assert doc["older"] == "v1"
        assert doc["metric"] == "cosine"
        assert doc["delta"] == 0.8
        assert {"new_group", "old_group", "similarity"} <= set(doc["mappings"][0])
        assert isinstance(doc["unmatched_old"], list)
        assert doc["tool"]["name"] == "clonemap"
        assert doc["config"]["subcommand"] == "map"
        assert doc["config"]["seed"] == 42

    def test_table_output_lists_every_group(self, evolution, capsys):
        rc = main(run_map_cmd(evolution, fmt="table"))
        assert rc == 0
        out = capsys.readouterr().out
        assert "->" in out
        # verdict rows use a wide arrow; the header's "v2 -> v1" does not
        rows = [l for l in out.splitlines() if "  ->  " in l]
        report = json.loads(
            (evolution / "newer_report.json").read_text(encoding="utf-8")
        )
        assert len(rows) == len(report["groups"])

    def test_out_file_written(self, evolution, tmp_path, capsys):
        out_path = tmp_path / "mapping.json"
        rc = main(run_map_cmd(evolution, "--out", str(out_path), fmt="table"))
        assert rc == 0
        doc = json.loads(out_path.read_text(encoding="utf-8"))
        assert doc["config"]["subcommand"] == "map"

    def test_lcs_strategy(self, evolution, capsys):
        rc = main(run_map_cmd(evolution, "--strategy", "lcs"))
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["strategy"] == "lcs"

    def test_bad_delta_is_usage_error(self, evolution, capsys):
        rc = main(run_map_cmd(evolution, "--delta", "1.5"))
        assert rc == 2

    def test_negative_lda_seed_is_config_error(self, evolution, capsys):
        rc = main(run_map_cmd(evolution, "--topics", "2", "--seed", "-1"))
        assert rc == 2
        assert "configuration error" in capsys.readouterr().err

    def test_missing_file_is_io_error(self, evolution, capsys):
        args = run_map_cmd(evolution)
        args[args.index("--newer") + 1] = "/does/not/exist.json"
        rc = main(args)
        assert rc == 4

    def test_malformed_report_is_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        rc = main(["map", "--newer", str(bad), "--older", str(bad)])
        assert rc == 3

    def test_non_integer_xml_class_id_is_parse_error(self, tmp_path, capsys):
        report = tmp_path / "r.xml"
        report.write_text(
            '<clones version="1"><class id="x">'
            '<source file="a.c" startline="1" endline="1"/>'
            '<source file="b.c" startline="1" endline="1"/>'
            "</class></clones>",
            encoding="utf-8",
        )
        rc = main(["map", "--newer", str(report), "--older", str(report)])
        assert rc == 3
        assert "not an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("class_id, start, end", [
        ("1_0", "1", "1"), ("0", " 1 ", "1"), ("0", "1", "+1"),
        ("0", "1", "\u0661")])
    def test_non_decimal_xml_integer_exits_3(self, tmp_path, capsys,
                                             class_id, start, end):
        """``int`` reads each of these; the report parser must not."""
        report = tmp_path / "r.xml"
        report.write_text(
            f'<clones version="1"><class id="{class_id}">'
            f'<source file="a.c" startline="{start}" endline="{end}"/>'
            '<source file="b.c" startline="1" endline="1"/>'
            "</class></clones>",
            encoding="utf-8",
        )
        rc = main(["map", "--newer", str(report), "--older", str(report)])
        assert rc == 3
        assert "is not an integer" in capsys.readouterr().err

    def test_fragment_outside_source_is_validation_error(self, evolution,
                                                         capsys):
        report_path = evolution / "newer_report.json"
        report = json.loads(report_path.read_text(encoding="utf-8"))
        fragment = report["groups"][0]["fragments"][0]
        fragment["file"] = "../older_src/" + fragment["file"]
        report_path.write_text(json.dumps(report), encoding="utf-8")
        rc = main(run_map_cmd(evolution))
        assert rc == 3
        assert "outside the source root" in capsys.readouterr().err

    @pytest.mark.parametrize("file", ["a\u0000b.c", "a\ud800.c"])
    def test_unencodable_fragment_file_is_validation_error(self, evolution,
                                                           capsys, file):
        report_path = evolution / "newer_report.json"
        report = json.loads(report_path.read_text(encoding="utf-8"))
        report["groups"][0]["fragments"][0]["file"] = file
        report_path.write_text(json.dumps(report), encoding="utf-8")
        rc = main(run_map_cmd(evolution))
        assert rc == 3
        assert "not a valid path" in capsys.readouterr().err

    def test_lone_surrogate_version_prints_escaped(self, evolution):
        report_path = evolution / "newer_report.json"
        report = json.loads(report_path.read_text(encoding="utf-8"))
        report["version"] = "v\ud800"
        report_path.write_text(json.dumps(report), encoding="utf-8")
        rc, out = run_quietly(run_map_cmd(evolution, fmt="table"))
        assert rc == 0
        assert out.startswith("mapping v\\ud800 -> v1")
        rc, out = run_quietly(["topics", "--report", str(report_path),
                               "--source", str(evolution / "newer_src")])
        assert rc == 0
        assert out.startswith("group 0 of v\\ud800")

    def test_json_boolean_line_number_exits_3(self, evolution, capsys):
        report_path = evolution / "newer_report.json"
        report = json.loads(report_path.read_text(encoding="utf-8"))
        report["groups"][0]["fragments"][0]["start_line"] = True
        report_path.write_text(json.dumps(report), encoding="utf-8")
        rc = main(run_map_cmd(evolution))
        assert rc == 3
        assert "groups[0].fragments[0]: bad fragment" in capsys.readouterr().err

    def test_rerun_reproduces_artifact_bytes(self, evolution, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert main(run_map_cmd(evolution, "--out", str(a))) == 0
        assert main(run_map_cmd(evolution, "--out", str(b))) == 0
        assert a.read_bytes() == b.read_bytes()


class TestOutOfOrderReport:
    """A report may list its groups in any order; every verdict and dump
    row is keyed by the group's own index."""

    TEXT_A = "widget = frobnicate(gadget);"
    TEXT_B = "sprocket = rotate(pinion);"

    @staticmethod
    def report(version, indexed_texts):
        return {"version": version, "groups": [
            {"index": index, "fragments": [
                {"file": f"g{index}{side}.c", "start_line": 1,
                 "end_line": 1, "text": text} for side in "ab"]}
            for index, text in indexed_texts]}

    @pytest.fixture()
    def reports(self, tmp_path):
        paths = {}
        for name, indexed in (
                ("newer", [(1, self.TEXT_A), (0, self.TEXT_B)]),
                ("older", [(0, self.TEXT_A), (1, self.TEXT_B)])):
            paths[name] = tmp_path / f"{name}.json"
            paths[name].write_text(json.dumps(self.report(f"v{name}", indexed)),
                                   encoding="utf-8")
        return paths

    @pytest.mark.parametrize("strategy", ["topic", "lcs"])
    def test_map_keys_verdicts_by_index(self, reports, capsys, strategy):
        rc = main(["map", "--newer", str(reports["newer"]),
                   "--older", str(reports["older"]), "--strategy", strategy,
                   "--format", "json"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert [(m["new_group"], m["old_group"]) for m in doc["mappings"]] == [
            (0, 1), (1, 0)]
        assert [m["similarity"] for m in doc["mappings"]] == [1.0, 1.0]

    def test_topics_keys_words_by_index(self, reports, capsys):
        rc = main(["topics", "--report", str(reports["newer"]),
                   "--format", "json"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        words = {e["group"]: {w["word"] for w in e["words"]}
                 for e in doc["topics"]}
        assert "sprocket" in words[0] and "widget" not in words[0]
        assert "widget" in words[1] and "sprocket" not in words[1]

    @pytest.mark.parametrize("fmt", ["json", "xml"])
    def test_map_bytes_match_the_sorted_report(self, evolution, tmp_path,
                                               capsys, fmt):
        """The newer report with its groups reversed maps to the same
        bytes as the report in index order, written at the same path."""
        doc = json.loads((evolution / "newer_report.json").read_text())
        permuted = dict(doc, groups=doc["groups"][::-1])
        assert len(doc["groups"]) > 2
        newer = tmp_path / f"newer.{fmt}"
        write = report_xml if fmt == "xml" else json.dumps
        argv = ["map", "--newer", str(newer),
                "--older", str(evolution / "older_report.json"),
                "--source-newer", str(evolution / "newer_src"),
                "--source-older", str(evolution / "older_src"),
                "--format", "json"]
        outputs = []
        for report in (doc, permuted):
            newer.write_text(write(report), encoding="utf-8")
            assert main(argv) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]


class TestMissingSourceRoot:
    """A version whose fragments carry no text and whose source root is
    not given exits 3 naming the version."""

    @pytest.mark.parametrize("given_root, version", [
        ("--source-newer", "v1"), ("--source-older", "v2")])
    def test_error_names_the_version(self, evolution, capsys, given_root,
                                     version):
        side = "newer" if given_root == "--source-newer" else "older"
        rc = main(["map", "--newer", str(evolution / "newer_report.json"),
                   "--older", str(evolution / "older_report.json"),
                   given_root, str(evolution / f"{side}_src"),
                   "--format", "json"])
        assert rc == 3
        assert capsys.readouterr().err == (
            f"clonemap: version {version!r}, group 0: no source root to "
            "resolve 'group000_frag0.c'\n")


class TestEvalCommand:
    def test_perfect_run_scores_one(self, evolution, tmp_path, capsys):
        mapping_path = tmp_path / "mapping.json"
        assert main(run_map_cmd(evolution, "--out", str(mapping_path))) == 0
        capsys.readouterr()  # drop the map command's own stdout
        rc = main(["eval", "--mapping", str(mapping_path),
                   "--truth", str(evolution / "truth.json"),
                   "--format", "json"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["precision"] == 1.0
        assert doc["recall"] == 1.0

    def test_version_mismatch_exits_nonzero(self, evolution, tmp_path, capsys):
        mapping_path = tmp_path / "mapping.json"
        assert main(run_map_cmd(evolution, "--out", str(mapping_path))) == 0
        truth = json.loads(
            (evolution / "truth.json").read_text(encoding="utf-8"))
        truth["newer"] = "v99"
        bad = tmp_path / "truth.json"
        bad.write_text(json.dumps(truth), encoding="utf-8")
        rc = main(["eval", "--mapping", str(mapping_path),
                   "--truth", str(bad)])
        assert rc == 3

    @pytest.mark.parametrize("bad_row", [
        {"old_group": 0, "similarity": 1.0},
        {"new_group": "0", "old_group": 0, "similarity": 1.0},
        {"new_group": True, "old_group": 0, "similarity": 1.0},
        {"new_group": 0, "old_group": "0", "similarity": 1.0},
        [0, 0, 1.0],
    ])
    def test_malformed_mapping_row_is_validation_error(self, evolution,
                                                       tmp_path, capsys,
                                                       bad_row):
        mapping_path = tmp_path / "mapping.json"
        assert main(run_map_cmd(evolution, "--out", str(mapping_path))) == 0
        doc = json.loads(mapping_path.read_text(encoding="utf-8"))
        doc["mappings"][0] = bad_row
        mapping_path.write_text(json.dumps(doc), encoding="utf-8")
        capsys.readouterr()
        rc = main(["eval", "--mapping", str(mapping_path),
                   "--truth", str(evolution / "truth.json")])
        assert rc == 3
        assert "mapping row" in capsys.readouterr().err

    @pytest.mark.parametrize("which,bad_doc", [
        ("mapping", 5),
        ("mapping", {"newer": "v2", "older": "v1", "mappings": 5}),
        ("truth", [1]),
        ("truth", {"newer": "v2", "older": "v1", "pairs": 5}),
    ])
    def test_non_object_document_is_validation_error(self, evolution,
                                                     tmp_path, capsys,
                                                     which, bad_doc):
        paths = {"mapping": tmp_path / "mapping.json",
                 "truth": evolution / "truth.json"}
        assert main(run_map_cmd(evolution, "--out", str(paths["mapping"]))) == 0
        paths[which] = tmp_path / "bad.json"
        paths[which].write_text(json.dumps(bad_doc), encoding="utf-8")
        capsys.readouterr()
        rc = main(["eval", "--mapping", str(paths["mapping"]),
                   "--truth", str(paths["truth"])])
        assert rc == 3
        assert "must be a" in capsys.readouterr().err

    def test_linked_rows_must_select_the_truths_older_version(
            self, evolution, tmp_path, capsys):
        """A header that names another older version gives its linked rows
        that version, and ``score`` refuses the first of them before the
        header itself is checked."""
        mapping_path = tmp_path / "mapping.json"
        assert main(run_map_cmd(evolution, "--out", str(mapping_path))) == 0
        doc = json.loads(mapping_path.read_text(encoding="utf-8"))
        assert any(row["old_group"] is not None for row in doc["mappings"])
        doc["older"] = "v0"
        mapping_path.write_text(json.dumps(doc), encoding="utf-8")
        capsys.readouterr()
        rc = main(["eval", "--mapping", str(mapping_path),
                   "--truth", str(evolution / "truth.json")])
        assert rc == 3
        assert ("mapping selects version 'v0' but ground truth covers 'v1'"
                in capsys.readouterr().err)

    def test_repeated_mapping_row_is_validation_error(self, evolution,
                                                      tmp_path, capsys):
        mapping_path = tmp_path / "mapping.json"
        assert main(run_map_cmd(evolution, "--out", str(mapping_path))) == 0
        doc = json.loads(mapping_path.read_text(encoding="utf-8"))
        doc["mappings"][1] = dict(doc["mappings"][0])
        mapping_path.write_text(json.dumps(doc), encoding="utf-8")
        capsys.readouterr()
        rc = main(["eval", "--mapping", str(mapping_path),
                   "--truth", str(evolution / "truth.json")])
        assert rc == 3
        assert "duplicate mapping row" in capsys.readouterr().err

    @pytest.mark.parametrize("edit_mapping,edit_truth,message", [
        pytest.param(lambda m: m.update(newer="None"),
                     lambda t: t.update(newer=None),
                     "ground truth: newer version must be a non-empty string",
                     id="null-truth-version"),
        pytest.param(lambda m: m.update(newer="2"),
                     lambda t: t.update(newer=2),
                     "ground truth: newer version must be a non-empty string",
                     id="integer-truth-version"),
        pytest.param(lambda m: m.update(older=""),
                     lambda t: t.update(older=""),
                     "ground truth: older version must be a non-empty string",
                     id="empty-older-version"),
        pytest.param(lambda m: m["mappings"][1].update(similarity="high"),
                     lambda t: None,
                     "mapping row 1: similarity must be a number in [0, 1]",
                     id="text-similarity"),
        pytest.param(lambda m: m["mappings"][1].pop("similarity"),
                     lambda t: None,
                     "mapping row 1 must be a JSON object with 'new_group', "
                     "'old_group' and 'similarity' keys", id="missing-similarity"),
        pytest.param(lambda m: None,
                     lambda t: t["pairs"][1].update(old=-5),
                     "ground truth: pairs[1]: 'old' must be an integer >= 0",
                     id="negative-truth-old"),
    ])
    def test_invalid_eval_value_names_its_position(self, evolution, tmp_path,
                                                   capsys, edit_mapping,
                                                   edit_truth, message):
        """Each of these inputs once scored, through a coercion or a
        skipped check."""
        paths = {"mapping": tmp_path / "mapping.json",
                 "truth": evolution / "truth.json"}
        assert main(run_map_cmd(evolution, "--out", str(paths["mapping"]))) == 0
        for name, edit in (("mapping", edit_mapping), ("truth", edit_truth)):
            doc = json.loads(paths[name].read_text(encoding="utf-8"))
            edit(doc)
            paths[name] = tmp_path / f"edited_{name}.json"
            paths[name].write_text(json.dumps(doc), encoding="utf-8")
        capsys.readouterr()
        rc = main(["eval", "--mapping", str(paths["mapping"]),
                   "--truth", str(paths["truth"])])
        assert rc == 3
        assert message in capsys.readouterr().err


    @pytest.mark.parametrize("keep", [0, 1])
    def test_missing_mapping_rows_exit_3(self, evolution, tmp_path, capsys,
                                         keep):
        """A mapping with no rows, or fewer rows than the truth, once
        exited 0 with the missing rows counted as misses."""
        mapping_path = tmp_path / "mapping.json"
        assert main(run_map_cmd(evolution, "--out", str(mapping_path))) == 0
        doc = json.loads(mapping_path.read_text(encoding="utf-8"))
        doc["mappings"] = doc["mappings"][:keep]
        if not keep:
            doc.update(newer=None, older=5)
        mapping_path.write_text(json.dumps(doc), encoding="utf-8")
        capsys.readouterr()
        rc = main(["eval", "--mapping", str(mapping_path),
                   "--truth", str(evolution / "truth.json")])
        assert rc == 3
        first = "1, 2, 3, 4, 5" if keep else "0, 1, 2, 3, 4"
        assert (f"mapping has no row for newer group {first} and"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("mapping,truth", [
        ({"newer": None, "older": 5, "mappings": []},
         {"newer": "v2", "older": "v1", "pairs": []}),
        ({"newer": "v2", "older": "vX", "mappings": [
            {"new_group": 0, "old_group": None, "similarity": 0.25}]},
         {"newer": "v2", "older": "v1", "pairs": [{"new": 0, "old": None}]}),
    ], ids=["no-rows", "null-verdicts-only"])
    def test_header_versions_must_match_the_truth(self, tmp_path, capsys,
                                                  mapping, truth):
        """Rows that name no older version once let a mismatched header
        score precision and recall 1."""
        paths = {}
        for name, doc in (("mapping", mapping), ("truth", truth)):
            paths[name] = tmp_path / f"{name}.json"
            paths[name].write_text(json.dumps(doc), encoding="utf-8")
        rc = main(["eval", "--mapping", str(paths["mapping"]),
                   "--truth", str(paths["truth"])])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("clonemap: mapping artifact maps version ")
        assert "but ground truth maps 'v2' onto 'v1'" in err


class TestAllEmptyPair:
    """When every token document is empty, each group maps to null, at
    any topic count."""

    def test_topic_count_does_not_change_the_verdicts(self, tmp_path, capsys):
        for version in ("newer", "older"):
            report = {"version": version, "groups": [{"index": 0, "fragments": [
                {"file": f"{side}.c", "start_line": 1, "end_line": 1,
                 "text": text}
                for side, text in (("a", "int x;"), ("b", "return 0;"))]}]}
            (tmp_path / f"{version}.json").write_text(json.dumps(report),
                                                      encoding="utf-8")
        rows = {}
        for topics in ("1", "2"):
            with pytest.warns(CloneMapWarning, match="empty token document"):
                rc = main(["map", "--newer", str(tmp_path / "newer.json"),
                           "--older", str(tmp_path / "older.json"),
                           "--topics", topics, "--format", "json"])
            assert rc == 0
            rows[topics] = json.loads(capsys.readouterr().out)["mappings"]
        assert rows["2"] == rows["1"] == [
            {"new_group": 0, "old_group": None, "similarity": 0.0}]


class TestZeroGroupPair:
    """Two reports without groups map to no rows under the sampler too,
    which then fits a corpus of no documents."""

    def test_topics_two_gives_no_rows(self, tmp_path, capsys):
        for version in ("newer", "older"):
            (tmp_path / f"{version}.json").write_text(
                json.dumps({"version": version, "groups": []}), encoding="utf-8")
        rc = main(["map", "--newer", str(tmp_path / "newer.json"),
                   "--older", str(tmp_path / "older.json"),
                   "--topics", "2", "--format", "json"])
        assert rc == 0
        result = json.loads(capsys.readouterr().out)
        assert result["mappings"] == result["unmatched_old"] == []


class TestInvalidUtf8:
    """A file that must be UTF-8 but is not exits 3, not in a traceback."""

    @pytest.mark.parametrize("which", ["mapping", "truth", "keywords"])
    def test_invalid_utf8_is_validation_error(self, evolution, tmp_path,
                                              capsys, which):
        mapping_path = tmp_path / "mapping.json"
        assert main(run_map_cmd(evolution, "--out", str(mapping_path))) == 0
        bad = tmp_path / "bad"
        bad.write_bytes(b'{"newer": "v\xff2"}\n')
        capsys.readouterr()
        if which == "keywords":
            argv = ["topics", "--report", str(evolution / "older_report.json"),
                    "--source", str(evolution / "older_src"),
                    "--keywords", str(bad)]
        else:
            paths = {"mapping": mapping_path, "truth": evolution / "truth.json",
                     which: bad}
            argv = ["eval", "--mapping", str(paths["mapping"]),
                    "--truth", str(paths["truth"])]
        assert main(argv) == 3
        assert "not valid UTF-8" in capsys.readouterr().err

    @pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"], ids=["", "bom"])
    @pytest.mark.parametrize("fmt", ["json", "xml"])
    def test_invalid_utf8_report_is_validation_error(self, tmp_path, capsys,
                                                     fmt, bom):
        """A report naming ``b\\xff.c`` is malformed input, even when a file
        of that name exists: decoding the byte as U+FFFD would name a path
        nobody wrote and exit with an I/O error. The byte offset counts a
        leading BOM."""
        src = tmp_path / "src"
        src.mkdir()
        for name in (b"a.c", b"b\xff.c"):
            with open(os.path.join(os.fsencode(src), name), "wb") as handle:
                handle.write(b"int widget;\n")
        if fmt == "json":
            body = (b'{"version": "v1", "groups": [{"index": 0, "fragments": ['
                    b'{"file": "a.c", "start_line": 1, "end_line": 1}, '
                    b'{"file": "b\xff.c", "start_line": 1, "end_line": 1}]}]}')
        else:
            body = (b'<clones version="v1"><class id="0">'
                    b'<source file="a.c" startline="1" endline="1"/>'
                    b'<source file="b\xff.c" startline="1" endline="1"/>'
                    b"</class></clones>")
        report = tmp_path / f"report.{fmt}"
        body = bom + body
        report.write_bytes(body)
        offset = body.index(b"\xff")
        rc = main(["topics", "--report", str(report), "--source", str(src)])
        assert rc == 3
        err = capsys.readouterr().err
        assert f"{report}: not valid UTF-8" in err
        assert f"at byte {offset})" in err


class TestMalformedJson:
    """Every input document that is not JSON Python can hold exits 3
    naming its file, never in a traceback: a syntax error, nesting past
    the decoder's recursion limit, or an integer past the interpreter's
    digit limit."""

    @pytest.mark.parametrize("text", [
        '{"version": "v1", "groups": [',
        "[" * 10_000,
        '{"version": ' + "7" * 5000 + "}",
    ], ids=["syntax", "deep", "long-integer"])
    @pytest.mark.parametrize("which", ["report", "truth", "mapping"])
    def test_exits_3_naming_the_file(self, tmp_path, capsys, which, text):
        bad = tmp_path / "bad.json"
        bad.write_text(text, encoding="utf-8")
        # Only the bad file is decoded: the mapping is read before the
        # truth, and the truth before the mapping's shape is checked.
        empty = tmp_path / "empty.json"
        empty.write_text("{}", encoding="utf-8")
        if which == "report":
            argv = ["map", "--newer", str(bad), "--older", str(bad)]
        else:
            paths = {"mapping": empty, "truth": empty, which: bad}
            argv = ["eval", "--mapping", str(paths["mapping"]),
                    "--truth", str(paths["truth"])]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"clonemap: {bad}: malformed JSON")
        assert "Traceback" not in err and len(err) < 200


class TestByteOrderMark:
    @pytest.mark.parametrize("which", ["mapping", "truth"])
    def test_eval_reads_a_bom_file_as_without(self, evolution, tmp_path,
                                              capsys, which):
        """A BOM'd mapping or truth once exited 3 as malformed JSON."""
        paths = {"mapping": tmp_path / "mapping.json",
                 "truth": evolution / "truth.json"}
        assert main(run_map_cmd(evolution, "--out", str(paths["mapping"]))) == 0
        capsys.readouterr()
        argv = ["eval", "--mapping", str(paths["mapping"]),
                "--truth", str(paths["truth"])]
        assert main(argv) == 0
        plain = capsys.readouterr()
        marked = tmp_path / "marked.json"
        marked.write_text("\ufeff" + paths[which].read_text(encoding="utf-8"),
                          encoding="utf-8")
        argv[argv.index(str(paths[which]))] = str(marked)
        assert main(argv) == 0
        assert capsys.readouterr() == plain


class TestUnreadableFragment:
    """A fragment name that cannot be read keeps its exit code and names
    the path it failed on, whichever way the reader reached it."""

    @pytest.fixture
    def src(self, tmp_path):
        src = tmp_path / "src"
        (src / "sub").mkdir(parents=True)
        (src / "a.c").write_text("int widget;\n", encoding="utf-8")
        (tmp_path / "outside.c").write_text("int secret;\n", encoding="utf-8")
        links = {"linkdir": "sub", "dangling.c": "gone.c",
                 "loop1.c": "loop2.c", "loop2.c": "loop1.c",
                 "out.c": "../outside.c"}
        for name, target in links.items():
            (src / name).symlink_to(target)
        return src

    @pytest.mark.parametrize("file, rc, message", [
        ("sub", 4, "I/O error: [Errno 21] Is a directory: '{src}/sub'"),
        (".", 4, "I/O error: [Errno 21] Is a directory: '{src}'"),
        ("linkdir", 4, "I/O error: [Errno 21] Is a directory: '{src}/sub'"),
        ("missing.c", 4,
         "I/O error: [Errno 2] No such file or directory: '{src}/missing.c'"),
        ("dangling.c", 4,
         "I/O error: [Errno 2] No such file or directory: '{src}/gone.c'"),
        ("loop1.c", 4, "I/O error: [Errno 40] Too many levels of symbolic "
                       "links: '{src}/loop1.c'"),
        ("out.c", 3, "fragment file 'out.c' lies outside the source root '{src}'"),
        # The root lies inside itself, however a name spells it.
        ("../src", 4, "I/O error: [Errno 21] Is a directory: '{src}'"),
        ("../src/", 4, "I/O error: [Errno 21] Is a directory: '{src}'"),
        ("sub/..", 4, "I/O error: [Errno 21] Is a directory: '{src}'"),
        ("../outside.c", 3,
         "fragment file '../outside.c' lies outside the source root '{src}'"),
    ], ids=["directory", "dot", "symlink-to-directory", "missing",
            "dangling-symlink", "symlink-loop", "symlink-out-of-root",
            "root-by-parent", "root-by-parent-slash", "root-by-sub-dotdot",
            "file-outside"])
    def test_stderr_and_exit_code(self, src, tmp_path, capsys, file, rc,
                                  message):
        report = tmp_path / "report.json"
        report.write_text(json.dumps({"version": "v1", "groups": [
            {"index": 0, "fragments": [
                {"file": "a.c", "start_line": 1, "end_line": 1},
                {"file": file, "start_line": 1, "end_line": 1}]}]}),
            encoding="utf-8")
        assert main(["topics", "--report", str(report), "--source", str(src)]) == rc
        real = os.path.realpath(src)
        assert capsys.readouterr().err == f"clonemap: {message.format(src=real)}\n"

    @staticmethod
    def write_report(tmp_path, file: str) -> Path:
        report = tmp_path / "report.json"
        report.write_text(json.dumps({"version": "v1", "groups": [
            {"index": 0, "fragments": [
                {"file": file, "start_line": 1, "end_line": 1}] * 2}]}),
            encoding="utf-8")
        return report

    @pytest.mark.skipif(not os.path.exists("/dev/null"),
                        reason="no /dev/null on this system")
    def test_device_is_not_read(self, tmp_path, capsys):
        report = self.write_report(tmp_path, "null")
        assert main(["topics", "--report", str(report), "--source", "/dev"]) == 4
        assert capsys.readouterr().err == (
            "clonemap: I/O error: [Errno 22] Not a regular file: '/dev/null'\n")

    def test_fifo_does_not_wait_for_a_writer(self, src, tmp_path):
        """Opening a FIFO for reading waits for a writer unless it may not
        block, so the run is a subprocess with a timeout."""
        os.mkfifo(src / "pipe.c")
        report = self.write_report(tmp_path, "pipe.c")
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "clonemap.cli", "topics",
             "--report", str(report), "--source", str(src)],
            env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 4
        real = os.path.realpath(src)
        assert proc.stderr == ("clonemap: I/O error: [Errno 22] Not a regular "
                               f"file: '{real}/pipe.c'\n")


class TestDeviceInput:
    """A report, a truth, a mapping or a word list given as a device path
    exits 4 naming it, before a byte is read; a pipe still reads."""

    @pytest.mark.skipif(not os.path.exists("/dev/null"),
                        reason="no /dev/null on this system")
    @pytest.mark.parametrize("which", ["report", "truth", "mapping",
                                       "stopwords"])
    def test_device_is_an_io_error(self, evolution, tmp_path, capsys, which):
        mapping_path = tmp_path / "mapping.json"
        assert main(run_map_cmd(evolution, "--out", str(mapping_path))) == 0
        capsys.readouterr()
        paths = {"report": evolution / "older_report.json",
                 "truth": evolution / "truth.json", "mapping": mapping_path,
                 which: "/dev/null"}
        if which in ("report", "stopwords"):
            argv = ["topics", "--report", str(paths["report"]),
                    "--source", str(evolution / "older_src")]
            if which == "stopwords":
                argv += ["--stopwords", "/dev/null"]
        else:
            argv = ["eval", "--mapping", str(paths["mapping"]),
                    "--truth", str(paths["truth"])]
        assert main(argv) == 4
        assert capsys.readouterr().err == (
            "clonemap: I/O error: [Errno 22] Is a device, not a file: "
            "'/dev/null'\n")

    @pytest.mark.skipif(not os.path.exists("/dev/zero"),
                        reason="no /dev/zero on this system")
    def test_endless_device_is_not_read(self):
        """Reading ``/dev/zero`` would never end, so the run is a
        subprocess with a timeout and an 800 MiB address-space limit."""
        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (800 * 2 ** 20,) * 2)
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "clonemap.cli", "topics",
             "--report", "/dev/zero"],
            env=env, capture_output=True, text=True, timeout=60,
            preexec_fn=limit)
        assert proc.returncode == 4
        assert proc.stderr == ("clonemap: I/O error: [Errno 22] Is a device, "
                               "not a file: '/dev/zero'\n")

    def test_pipe_reads(self, evolution):
        """``--report /dev/stdin`` reads the report from a pipe, as
        ``<(cat report.json)`` does, and gives the same dump as the file."""
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        report = evolution / "older_report.json"
        outs = []
        for path, stdin in ((str(report), ""),
                            ("/dev/stdin", report.read_text(encoding="utf-8"))):
            proc = subprocess.run(
                [sys.executable, "-m", "clonemap.cli", "topics",
                 "--report", path, "--source", str(evolution / "older_src")],
                env=env, input=stdin, capture_output=True, text=True,
                timeout=60)
            assert proc.returncode == 0, proc.stderr
            outs.append(proc.stdout)
        assert outs[0] == outs[1] != ""


# The topic map at K = 1 and K = 2, and the LCS map.
READ_MODES = [(None, None), (LdaConfig(K=2, iterations=2), None),
              (None, MappingConfig(strategy=Strategy.LCS_BASELINE))]


@pytest.fixture(params=["forked", "in-process"])
def branch(request, monkeypatch):
    """Run the test with the older version of a K = 1 topic map counted
    in a forked child, and again in this process, whatever the machine."""
    if request.param == "forked" and not hasattr(os, "fork"):
        pytest.skip("no os.fork on this system")
    monkeypatch.setattr(pipeline, "_fork_pays",
                        lambda *snapshots: request.param == "forked")
    return request.param


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestOneVersionAtATime:
    """``map`` parses both reports before it reads either version. Both
    strategies then read the newer version, as token documents or as
    line ids, and its text is gone before the older version is read. So
    with a fault in each version the older report's parse error wins over
    the newer text's I/O error, and the newer text's warning comes before
    the older text's I/O error; each fault alone keeps its message and
    exit code. All of it holds whether a forked child counts the older
    version or this process does."""

    TEXT = "int widget_count;\nint gadget_total;\n"

    def write_pair(self, root: Path, faults: dict) -> list[str]:
        """Two one-group versions under ``root``, each with the fault that
        ``faults`` names for it, if any; the ``map`` argv of the pair."""
        argv = ["map", "--format", "json"]
        for version in ("newer", "older"):
            fault = faults.get(version)
            src = root / f"{version}_src"
            src.mkdir()
            text = self.TEXT
            if fault == "open-comment":
                text = text.replace("total;", "total; /* never closed")
            (src / "a.c").write_text(text, encoding="utf-8")
            (src / "b.c").write_text(self.TEXT, encoding="utf-8")
            report = root / f"{version}.json"
            if fault == "malformed":
                report.write_text('{"version": "v1", "groups": [',
                                  encoding="utf-8")
            else:
                second = "gone.c" if fault == "missing-file" else "b.c"
                report.write_text(json.dumps({"version": version, "groups": [
                    {"index": 0, "fragments": [
                        {"file": name, "start_line": 1, "end_line": 2}
                        for name in ("a.c", second)]}]}), encoding="utf-8")
            argv += [f"--{version}", str(report),
                     f"--source-{version}", str(src)]
        return argv

    @staticmethod
    def message(root: Path, version: str, fault: str) -> str:
        if fault == "malformed":
            return (f"clonemap: {root / f'{version}.json'}: malformed JSON at "
                    f"line 1 column 30: Expecting value\n")
        src = os.path.realpath(root / f"{version}_src")
        return (f"clonemap: I/O error: [Errno 2] No such file or directory: "
                f"'{src}/gone.c'\n")

    def run(self, argv, capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(argv)
        return rc, capsys.readouterr().err, [str(w.message) for w in caught]

    @pytest.mark.parametrize("strategy", ["topic", "lcs"])
    @pytest.mark.parametrize("faults, rc, at", [
        ({"newer": "missing-file"}, 4, "newer"),
        ({"older": "malformed"}, 3, "older"),
        ({"newer": "missing-file", "older": "malformed"}, 3, "older"),
    ], ids=["newer-file-missing", "older-report-malformed", "both"])
    def test_both_reports_parse_before_either_version_is_read(
            self, tmp_path, capsys, branch, strategy, faults, rc, at):
        argv = self.write_pair(tmp_path, faults) + ["--strategy", strategy]
        assert self.run(argv, capsys) == (
            rc, self.message(tmp_path, at, faults[at]), [])
        assert_no_child_left()

    @pytest.mark.parametrize("faults, rc", [
        ({"newer": "open-comment"}, 0),
        ({"older": "missing-file"}, 4),
        ({"newer": "open-comment", "older": "missing-file"}, 4),
    ], ids=["newer-comment-open", "older-file-missing", "both"])
    def test_newer_text_is_tokenized_before_older_text_is_read(
            self, tmp_path, capsys, branch, faults, rc):
        err = (self.message(tmp_path, "older", "missing-file")
               if "older" in faults else "")
        caught = (["unterminated block comment; stripped to end of input"]
                  if "newer" in faults else [])
        assert self.run(self.write_pair(tmp_path, faults), capsys) == (
            rc, err, caught)
        assert_no_child_left()

    @pytest.mark.parametrize("faults", [
        {"older": "open-comment"},
        {"newer": "open-comment", "older": "open-comment"},
    ], ids=["older-comment-open", "both-comments-open"])
    def test_older_warning_is_the_in_process_one(self, tmp_path, capsys,
                                                 branch, faults):
        """A warning the older version raises in the child is raised
        again here, after any of the newer version's, with its category
        and the line that warns."""
        argv = self.write_pair(tmp_path, faults)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            strip_comments("/* open")
            assert main(argv) == 0
        assert capsys.readouterr().err == ""
        assert len(caught) == 1 + len(faults)
        assert {(w.category, w.filename, w.lineno, str(w.message))
                for w in caught} == {(caught[0].category, caught[0].filename,
                                      caught[0].lineno, str(caught[0].message))}
        assert caught[0].category is CloneMapWarning
        assert_no_child_left()

    @pytest.mark.parametrize("lda_config, mapping_config", READ_MODES,
                             ids=["K1", "K2", "lcs"])
    def test_newer_text_is_released_before_older_is_resolved(
            self, evolution, monkeypatch, branch, lda_config, mapping_config):
        """Weak references to the resolved newer snapshot, its groups and
        its fragments are all dead when the older report is resolved. When
        a child counts the older version, this process resolves only the
        newer one and reads no file of the older tree."""
        resolve = pipeline.resolve_snapshot
        refs: list = []
        alive_at_call = []
        resolved_ids = []

        def tracked(snapshot, source_root):
            alive_at_call.append(sum(ref() is not None for ref in refs))
            resolved = resolve(snapshot, source_root)
            resolved_ids.append(resolved.version_id)
            refs.extend(weakref.ref(obj) for obj in (
                resolved, *resolved.groups,
                *(f for g in resolved.groups for f in g.fragments)))
            return resolved

        read_file, read = ingest._read_file, []

        def tracked_read(path):
            read.append(Path(path))
            return read_file(path)

        monkeypatch.setattr(pipeline, "resolve_snapshot", tracked)
        monkeypatch.setattr(ingest, "_read_file", tracked_read)
        pipeline.run_map(evolution / "newer_report.json",
                         evolution / "older_report.json",
                         evolution / "newer_src", evolution / "older_src",
                         mapping_config=mapping_config, lda_config=lda_config)
        assert len(refs) > 20
        newer_src = Path(os.path.realpath(evolution / "newer_src"))
        if branch == "forked" and lda_config is mapping_config is None:
            assert resolved_ids == ["v2"]
            assert alive_at_call == [0]
            assert read and all(p.is_relative_to(newer_src) for p in read)
        else:
            assert resolved_ids == ["v2", "v1"]
            assert alive_at_call == [0, 0]
        assert_no_child_left()

    @pytest.mark.parametrize("lda_config, mapping_config", READ_MODES,
                             ids=["K1", "K2", "lcs"])
    def test_inline_text_is_released_before_older_is_resolved(
            self, evolution, tmp_path, monkeypatch, branch, lda_config,
            mapping_config):
        """With reports that carry their text inline, weak references to
        the parsed newer snapshot, its groups and its fragments are all
        dead when the older version is resolved. When a child counts the
        older version, this process resolves only the newer one."""
        reports = []
        for version in ("newer", "older"):
            snapshot = resolve_snapshot(
                parse_clone_report(evolution / f"{version}_report.json"),
                evolution / f"{version}_src")
            reports.append(tmp_path / f"{version}.json")
            reports[-1].write_text(json.dumps(snapshot_to_dict(snapshot)),
                                   encoding="utf-8")
        parse, resolve = pipeline.parse_clone_report, pipeline.resolve_snapshot
        refs: list = []
        alive_at_call = []
        resolved_ids = []

        def tracked_parse(path):
            parsed = parse(path)
            if not refs:  # the newer report is parsed first
                refs.extend(weakref.ref(obj) for obj in (
                    parsed, *parsed.groups,
                    *(f for g in parsed.groups for f in g.fragments)))
            return parsed

        def tracked_resolve(snapshot, source_root):
            alive_at_call.append(sum(ref() is not None for ref in refs))
            resolved_ids.append(snapshot.version_id)
            return resolve(snapshot, source_root)

        monkeypatch.setattr(pipeline, "parse_clone_report", tracked_parse)
        monkeypatch.setattr(pipeline, "resolve_snapshot", tracked_resolve)
        pipeline.run_map(*reports, mapping_config=mapping_config,
                         lda_config=lda_config)
        assert len(refs) > 20
        if branch == "forked" and lda_config is mapping_config is None:
            assert resolved_ids == ["v2"]
            assert alive_at_call == [len(refs)]
        else:
            assert resolved_ids == ["v2", "v1"]
            assert alive_at_call == [len(refs), 0]
        assert_no_child_left()

    @pytest.mark.parametrize("lda_config, mapping_config", READ_MODES,
                             ids=["K1", "K2", "lcs"])
    def test_each_part_is_released_before_the_next_is_resolved(
            self, evolution, monkeypatch, branch, lda_config, mapping_config):
        """With a one-line part budget each group is a part, since no two
        groups of the fixture share a file. Weak references to every
        resolved part, its groups, its fragments and its texts are dead
        when the next part is resolved, within a version and across the
        two. A plain ``str`` takes no weak reference, so each text is
        handed on as a ``str`` subclass, which does."""
        class Text(str):
            pass

        resolve = pipeline.resolve_snapshot
        refs: list = []
        alive_at_call = []
        resolved = Counter()

        def tracked(snapshot, source_root):
            alive_at_call.append(sum(ref() is not None for ref in refs))
            part = resolve(snapshot, source_root)
            part = replace(part, text=tuple(map(Text, part.text)))
            resolved[part.version_id] += len(part.bounds) - 1
            refs.extend(weakref.ref(obj) for obj in (
                part, *part.text, *part.groups,
                *(f for g in part.groups for f in g.fragments)))
            return part

        monkeypatch.setattr(ingest, "_PART_LINES", 1)
        monkeypatch.setattr(pipeline, "resolve_snapshot", tracked)
        pipeline.run_map(evolution / "newer_report.json",
                         evolution / "older_report.json",
                         evolution / "newer_src", evolution / "older_src",
                         mapping_config=mapping_config, lda_config=lda_config)
        sizes = {version: len(parse_clone_report(
                     evolution / f"{version}_report.json").bounds) - 1
                 for version in ("newer", "older")}
        assert min(sizes.values()) > 2
        if branch == "forked" and lda_config is mapping_config is None:
            assert resolved == {"v2": sizes["newer"]}
        else:
            assert resolved == {"v2": sizes["newer"], "v1": sizes["older"]}
        # One resolve per group: each part is one group.
        assert alive_at_call == [0] * sum(resolved.values())
        assert_no_child_left()


class TestLatePartFaults:
    """A version read in parts fails in a late part as it fails in one:
    each fault keeps its message and exit code, whichever process counts
    the version. Only the order against warnings moves: an earlier part's
    warning now comes before a later part's error."""

    GROUPS = 4
    TEXT = TestOneVersionAtATime.TEXT
    run = TestOneVersionAtATime.run

    def write_pair(self, root: Path, fault: str, at: str) -> list[str]:
        """Two versions of ``GROUPS`` groups under ``root``, each group
        naming files of its own, with ``fault`` in the last group of
        version ``at``; the ``map`` argv of the pair."""
        argv = ["map", "--format", "json"]
        for version in ("newer", "older"):
            src = root / f"{version}_src"
            src.mkdir()
            # With no root, every text but the faulty last one is inline.
            no_root = version == at and fault == "no-root"
            groups = []
            for g in range(self.GROUPS):
                fragments = []
                for m in range(2):
                    (src / f"g{g}_{m}.c").write_text(self.TEXT, encoding="utf-8")
                    fragments.append({"file": f"g{g}_{m}.c", "start_line": 1,
                                      "end_line": 2})
                    if no_root:
                        fragments[-1]["text"] = self.TEXT
                groups.append({"index": g, "fragments": fragments})
            last = groups[-1]["fragments"][-1]
            if no_root:
                del last["text"]
            elif version == at:
                last.update({"missing-file": {"file": "gone.c"},
                             "range": {"end_line": 9},
                             "outside": {"file": "../outside.c"}}[fault])
            report = root / f"{version}.json"
            report.write_text(json.dumps({"version": version, "groups": groups}),
                              encoding="utf-8")
            argv += [f"--{version}", str(report)]
            if not no_root:
                argv += [f"--source-{version}", str(src)]
        return argv

    def message(self, root: Path, fault: str, at: str) -> tuple[int, str]:
        src = os.path.realpath(root / f"{at}_src")
        last = self.GROUPS - 1
        return {
            "missing-file": (4, "clonemap: I/O error: [Errno 2] No such file "
                                f"or directory: '{src}/gone.c'\n"),
            "range": (3, f"clonemap: g{last}_1.c: lines 1..9 exceed file "
                         "length 2\n"),
            "outside": (3, "clonemap: fragment file '../outside.c' lies "
                           f"outside the source root '{src}'\n"),
            "no-root": (3, f"clonemap: version {at!r}, group {last}: no "
                           f"source root to resolve 'g{last}_1.c'\n"),
        }[fault]

    @pytest.mark.parametrize("at", ["newer", "older"])
    @pytest.mark.parametrize("fault", ["missing-file", "range", "outside",
                                       "no-root"])
    def test_late_part_fault_keeps_message_and_exit_code(
            self, tmp_path, capsys, monkeypatch, branch, fault, at):
        argv = self.write_pair(tmp_path, fault, at)
        rc, err = self.message(tmp_path, fault, at)
        assert self.run(argv, capsys) == (rc, err, [])
        monkeypatch.setattr(ingest, "_PART_LINES", 1)
        assert self.run(argv, capsys) == (rc, err, [])
        assert_no_child_left()

    def test_earlier_part_warns_before_later_part_fails(
            self, tmp_path, capsys, monkeypatch, branch):
        """One part resolves the whole version, so its error comes before
        any group is tokenized; in parts, the first group's warning comes
        first."""
        argv = self.write_pair(tmp_path, "missing-file", "newer")
        (tmp_path / "newer_src" / "g0_0.c").write_text(
            "int x; /* never closed\nint y;\n", encoding="utf-8")
        rc, err = self.message(tmp_path, "missing-file", "newer")
        assert self.run(argv, capsys) == (rc, err, [])
        monkeypatch.setattr(ingest, "_PART_LINES", 1)
        assert self.run(argv, capsys) == (rc, err, [
            "unterminated block comment; stripped to end of input"])
        assert_no_child_left()


class TestSerializeOnce:
    def test_out_and_json_stdout_share_one_text(self, evolution, tmp_path,
                                                capsys, monkeypatch):
        """With ``--out`` and ``--format json`` the file and stdout hold
        the same bytes, and the payload is serialized once."""
        calls = []
        canonical = pipeline.canonical_json

        def counted(payload):
            calls.append(1)
            return canonical(payload)

        monkeypatch.setattr(pipeline, "canonical_json", counted)
        monkeypatch.setattr(cli, "canonical_json", counted)
        out = tmp_path / "m.json"
        assert main(run_map_cmd(evolution, "--out", str(out))) == 0
        assert capsys.readouterr().out.encode("utf-8") == out.read_bytes()
        assert calls == [1]


class TestForkedCount:
    """A K = 1 topic map counts the older version in a forked child; any
    trouble there makes this process count it, and no child outlives the
    map."""

    @staticmethod
    def map_json(evolution, capsys, *extra) -> str:
        assert main(run_map_cmd(evolution, *extra)) == 0
        return capsys.readouterr().out

    @pytest.fixture
    def expected(self, evolution, capsys, monkeypatch):
        """The artifact this process gives with no child."""
        with monkeypatch.context() as patch:
            patch.setattr(pipeline, "_fork_pays", lambda *snapshots: False)
            return self.map_json(evolution, capsys)

    @pytest.fixture
    def fork_calls(self, monkeypatch):
        calls = []
        fork = os.fork

        def counted():
            calls.append(1)
            return fork()

        monkeypatch.setattr(os, "fork", counted)
        return calls

    @pytest.fixture
    def forks(self, monkeypatch, fork_calls):
        monkeypatch.setattr(pipeline, "_fork_pays", lambda *snapshots: True)
        return fork_calls

    def test_child_gives_the_in_process_artifact(self, evolution, capsys,
                                                 expected, forks):
        assert self.map_json(evolution, capsys) == expected
        assert forks == [1]
        assert_no_child_left()

    @pytest.mark.parametrize("extra", [("--topics", "2", "--iterations", "2"),
                                       ("--strategy", "lcs")],
                             ids=["K2", "lcs"])
    def test_other_maps_do_not_fork(self, evolution, capsys, forks, extra):
        self.map_json(evolution, capsys, *extra)
        assert forks == []

    def test_failed_fork_counts_here(self, evolution, capsys, expected,
                                     monkeypatch):
        def refuse():
            raise OSError(11, "Resource temporarily unavailable")

        monkeypatch.setattr(pipeline, "_fork_pays", lambda *snapshots: True)
        monkeypatch.setattr(os, "fork", refuse)
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, ())
        assert self.map_json(evolution, capsys) == expected
        assert signal.pthread_sigmask(signal.SIG_BLOCK, ()) == mask
        assert_no_child_left()

    def test_signal_mask_is_restored(self, evolution, capsys, expected,
                                     forks):
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, ())
        assert self.map_json(evolution, capsys) == expected
        assert signal.pthread_sigmask(signal.SIG_BLOCK, ()) == mask
        assert forks == [1]
        assert_no_child_left()

    @pytest.mark.parametrize("lines", [100, pipeline._FORK_MIN_LINES],
                             ids=["small", "large"])
    def test_only_large_versions_fork(self, tmp_path, capsys, monkeypatch,
                                      fork_calls, lines):
        """On a machine where a child can run alongside, a map of two
        one-group versions forks only when each spans
        ``_FORK_MIN_LINES`` lines, and gives the in-process bytes."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(pipeline, "_QUOTA_FILES", ())
        monkeypatch.setattr(threading, "active_count", lambda: 1)
        argv = ["map", "--format", "json"]
        for version in ("newer", "older"):
            src = tmp_path / f"{version}_src"
            src.mkdir()
            (src / "a.c").write_text(
                "".join(f"int {version}_{i % 97};\n" for i in range(lines)),
                encoding="utf-8")
            report = tmp_path / f"{version}.json"
            report.write_text(json.dumps({"version": version, "groups": [
                {"index": 0, "fragments": [
                    {"file": "a.c", "start_line": start, "end_line": end}
                    for start, end in ((1, lines - 1), (lines, lines))]}]}),
                encoding="utf-8")
            argv += [f"--{version}", str(report),
                     f"--source-{version}", str(src)]
        assert main(argv) == 0
        assert fork_calls == ([1] if lines == pipeline._FORK_MIN_LINES
                              else [])
        got = capsys.readouterr().out
        monkeypatch.setattr(pipeline, "_fork_pays", lambda *snapshots: False)
        assert main(argv) == 0
        assert capsys.readouterr().out == got
        assert_no_child_left()

    @pytest.mark.parametrize("cut", [1, 8, 33, -1], ids=str)
    def test_truncated_buffer_counts_here(self, evolution, capsys, expected,
                                          forks, monkeypatch, cut):
        """The child's pickle stream cut to its first ``cut`` bytes, or
        missing its last byte."""
        dumps = pickle.dumps

        def cut_dump(obj, file, protocol):
            file.write(dumps(obj, protocol)[:cut])

        monkeypatch.setattr(pickle, "dump", cut_dump)
        assert self.map_json(evolution, capsys) == expected
        assert forks == [1]
        assert_no_child_left()

    @pytest.mark.parametrize("category", [DeprecationWarning, RuntimeWarning],
                             ids=lambda category: category.__name__)
    def test_warning_in_child_counts_here(self, evolution, capsys, expected,
                                          forks, monkeypatch, category):
        """A warning of any category while the child counts, one that the
        default filters hide included, makes this process count the
        older version."""
        parent = os.getpid()
        count = pipeline.count_version
        here = []

        def warning(docs):
            if os.getpid() == parent:
                here.append(1)
            else:
                warnings.warn("counted in the child", category)
            return count(docs)

        monkeypatch.setattr(pipeline, "count_version", warning)
        assert self.map_json(evolution, capsys) == expected
        assert forks == [1]
        assert here == [1, 1]
        assert_no_child_left()

    def test_child_that_dies_counts_here(self, evolution, capsys, expected,
                                         forks, monkeypatch):
        parent = os.getpid()
        count = pipeline.count_version

        def dying(docs):
            if os.getpid() != parent:
                os._exit(0)
            return count(docs)

        monkeypatch.setattr(pipeline, "count_version", dying)
        assert self.map_json(evolution, capsys) == expected
        assert_no_child_left()

    def test_interrupt_kills_and_reaps_the_child(self, evolution, forks,
                                                 monkeypatch):
        """An interrupt while this process counts the newer version ends
        the child, which would otherwise count on."""
        parent = os.getpid()
        count = pipeline.count_version

        def interrupted(docs):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            time.sleep(60)
            return count(docs)

        monkeypatch.setattr(pipeline, "count_version", interrupted)
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            main(run_map_cmd(evolution))
        assert time.monotonic() - start < 30
        assert forks == [1]
        assert_no_child_left()


    def test_signal_at_the_fork_kills_and_reaps_the_child(
            self, evolution, forks, monkeypatch):
        """A SIGINT that lands as the fork returns waits until the child's
        pid is held, then ends the map and the child, which would
        otherwise count on."""
        parent = os.getpid()
        fork, count = os.fork, pipeline.count_version

        def fork_then_interrupt():
            pid = fork()
            if pid:
                signal.pthread_kill(threading.get_ident(), signal.SIGINT)
            return pid

        def slow(docs):
            if os.getpid() != parent:
                time.sleep(60)
            return count(docs)

        monkeypatch.setattr(os, "fork", fork_then_interrupt)
        monkeypatch.setattr(pipeline, "count_version", slow)
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            main(run_map_cmd(evolution))
        assert time.monotonic() - start < 30
        assert_no_child_left()


class TestForkPays:
    """Whether to fork is read from the parsed reports and the machine:
    each version spans ``_FORK_MIN_LINES`` lines or more, two CPUs are
    usable and one thread runs."""

    @staticmethod
    def spanning(lines: int) -> VersionSnapshot:
        """A one-group version whose two fragments span ``lines`` lines."""
        return VersionSnapshot("v", ("a.c", "b.c"), (1, 5), (lines - 1, 5),
                               (None, None), (0, 2))

    @pytest.fixture(autouse=True)
    def machine(self, monkeypatch):
        """Two CPUs, no CPU quota and one thread, whatever the host."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(pipeline, "_QUOTA_FILES", ())
        monkeypatch.setattr(threading, "active_count", lambda: 1)

    def test_each_version_must_span_the_minimum(self):
        low, high = (self.spanning(pipeline._FORK_MIN_LINES - 1),
                     self.spanning(pipeline._FORK_MIN_LINES))
        assert pipeline._fork_pays(high, high)
        assert not pipeline._fork_pays(low, high)
        assert not pipeline._fork_pays(high, low)

    def test_one_cpu_does_not_fork(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        high = self.spanning(10 * pipeline._FORK_MIN_LINES)
        assert not pipeline._fork_pays(high, high)

    @pytest.mark.parametrize("contents, cpus", [
        (["max 100000\n"], 2),
        (["200000 100000\n"], 2),
        (["100000 100000\n"], 1),
        (["-1\n", "100000\n"], 2),
        (["150000\n", "100000\n"], 1.5),
        (["garbled\n"], 2),
    ], ids=["v2-none", "v2-two", "v2-one", "v1-none", "v1-one-and-a-half",
            "unreadable"])
    def test_a_cpu_quota_caps_the_cpus(self, tmp_path, monkeypatch,
                                       contents, cpus):
        """A container's quota of less than two CPUs stops the fork, as
        one CPU of affinity does."""
        files = []
        for pos, text in enumerate(contents):
            files.append(tmp_path / f"quota{pos}")
            files[-1].write_text(text, encoding="utf-8")
        monkeypatch.setattr(pipeline, "_QUOTA_FILES",
                            ((tmp_path / "absent",), tuple(map(str, files))))
        assert pipeline._usable_cpus() == cpus
        high = self.spanning(10 * pipeline._FORK_MIN_LINES)
        assert pipeline._fork_pays(high, high) == (cpus >= 2)

    def test_a_second_thread_does_not_fork(self, monkeypatch):
        monkeypatch.setattr(threading, "active_count", lambda: 2)
        high = self.spanning(10 * pipeline._FORK_MIN_LINES)
        assert not pipeline._fork_pays(high, high)


class TestCountsTransport:
    """The forked count's counts come back as one pickle stream, and a
    cut stream raises one of the two types ``_frequency_pair`` catches."""

    def counts(self):
        return count_version([TokenDocument(("zeta", "alpha", "zeta")),
                              TokenDocument(()),
                              TokenDocument(("mid_1", "alpha"))])

    @staticmethod
    def stream(counts) -> bytes:
        """``counts`` as ``_count_in_child`` writes them into the pipe."""
        out = io.BytesIO()
        pickle.dump(counts, out, pickle.HIGHEST_PROTOCOL)
        return out.getvalue()

    def test_round_trip(self):
        """A three-document version and an empty one come back with the
        same vocabulary and equal int64 arrays."""
        for counts in (self.counts(), count_version([])):
            back = pickle.load(io.BytesIO(self.stream(counts)))
            assert back.vocabulary == counts.vocabulary
            for name in ("indptr", "ids", "tallies"):
                got, want = getattr(back, name), getattr(counts, name)
                assert got.dtype == want.dtype == np.int64
                assert np.array_equal(got, want)

    def test_every_cut_is_refused(self):
        data = self.stream(self.counts())
        for n in range(len(data)):
            with pytest.raises((EOFError, pickle.UnpicklingError)):
                pickle.load(io.BytesIO(data[:n]))


class TestNoFragmentObjects:
    """No stage of ``map`` builds a per-fragment or per-group object: the
    snapshot's ``groups`` view is for callers outside it."""

    @pytest.mark.parametrize("lda_config, mapping_config", READ_MODES,
                             ids=["K1", "K2", "lcs"])
    def test_map_builds_no_records(self, evolution, monkeypatch, lda_config,
                                   mapping_config):
        args = (evolution / "newer_report.json", evolution / "older_report.json",
                evolution / "newer_src", evolution / "older_src")
        expected = pipeline.run_map(*args, mapping_config=mapping_config,
                                    lda_config=lda_config)

        def refuse(*args, **kwargs):
            raise AssertionError("a record was built on the map path")

        monkeypatch.setattr(ingest, "CloneFragment", refuse)
        monkeypatch.setattr(ingest, "CloneGroup", refuse)
        with pytest.raises(AssertionError, match="record was built"):
            parse_clone_report(args[0]).groups
        assert pipeline.run_map(*args, mapping_config=mapping_config,
                                lda_config=lda_config) == expected


class TestNoVerdictObjects:
    """No stage of ``map`` builds a ``GroupMapping``: the verdicts stay
    two columns until ``mapping_result`` writes the artifact's rows."""

    @pytest.mark.parametrize("fork, lda_config, mapping_config", [
        (True, None, None),
        (False, None, None),
        (False, LdaConfig(K=2, iterations=2), None),
        (False, None, MappingConfig(strategy=Strategy.LCS_BASELINE)),
        (False, None, MappingConfig(metric=Metric.HELLINGER,
                                    enforce_injective=True)),
    ], ids=["K1-forked", "K1-in-process", "K2", "lcs", "hellinger-injective"])
    def test_map_builds_no_verdict_records(self, evolution, monkeypatch, fork,
                                           lda_config, mapping_config):
        if fork and not hasattr(os, "fork"):
            pytest.skip("no os.fork on this system")
        monkeypatch.setattr(pipeline, "_fork_pays", lambda *snapshots: fork)
        args = (evolution / "newer_report.json", evolution / "older_report.json",
                evolution / "newer_src", evolution / "older_src")
        expected = pipeline.run_map(*args, mapping_config=mapping_config,
                                    lda_config=lda_config, run_config=None)

        def refuse(self):
            raise AssertionError("a verdict record was built on the map path")

        monkeypatch.setattr(GroupMapping, "__post_init__", refuse)
        with pytest.raises(AssertionError, match="verdict record was built"):
            GroupMapping(("v2", 0), None, 0.0)
        assert pipeline.run_map(*args, mapping_config=mapping_config,
                                lda_config=lda_config,
                                run_config=None) == expected
        assert_no_child_left()


class TestSynthCommand:
    def test_zero_groups_is_config_error(self, tmp_path, capsys):
        rc = main(["synth", "--out", str(tmp_path / "x"), "--groups", "0"])
        assert rc == 2

    def test_nan_mix_is_config_error(self, tmp_path, capsys):
        rc = main(["synth", "--out", str(tmp_path / "x"),
                   "--mix", "nan", "0", "0", "1"])
        assert rc == 2
        assert "configuration error" in capsys.readouterr().err

    def test_manifest_printed(self, tmp_path, capsys):
        rc = main(["synth", "--out", str(tmp_path / "x"), "--groups", "4"])
        assert rc == 0
        manifest = json.loads(capsys.readouterr().out)
        assert len(manifest["outputs"]) == 5

    def test_negative_seed_is_config_error(self, tmp_path, capsys):
        """``random.Random`` seeds with |n|, so ``--seed -3`` would write
        the fixture of ``--seed 3`` under another recorded seed."""
        out = tmp_path / "x"
        rc = main(["synth", "--out", str(out), "--groups", "4",
                   "--seed", "-3"])
        assert rc == 2
        assert "seed must be >= 0, got -3" in capsys.readouterr().err
        assert not out.exists()


    def test_one_line_type3_fragments_never_go_empty(self, tmp_path, capsys):
        """A type-3 edit of a one-line fragment that draws a delete
        modifies the line instead, so no fragment spans zero lines."""
        out = tmp_path / "x"
        rc = main(["synth", "--out", str(out), "--groups", "30",
                   "--lines", "1", "1", "--mix", "0", "0", "0", "1",
                   "--seed", "3"])
        assert rc == 0, capsys.readouterr().err
        for version in ("older", "newer"):
            snapshot = parse_clone_report(out / f"{version}_report.json")
            assert all(end >= start for start, end
                       in zip(snapshot.starts, snapshot.ends))

    def test_non_empty_out_is_config_error(self, tmp_path, capsys):
        """A second run into one directory would leave the first run's
        files beside the ones its manifest lists."""
        out = tmp_path / "x"
        out.mkdir()
        assert main(["synth", "--out", str(out), "--groups", "20"]) == 0
        before = sorted(out.rglob("*"))
        capsys.readouterr()
        assert main(["synth", "--out", str(out), "--groups", "4"]) == 2
        assert "is not empty" in capsys.readouterr().err
        assert sorted(out.rglob("*")) == before


class TestJsonStdoutIsTheArtifact:
    """``--format json`` prints exactly the bytes ``--out`` writes, and
    ``synth`` prints exactly the bytes of ``manifest.json``."""

    def assert_stdout_is(self, argv, path, capsys):
        capsys.readouterr()
        assert main(argv) == 0
        assert capsys.readouterr().out.encode("utf-8") == path.read_bytes()

    def test_map(self, evolution, tmp_path, capsys):
        out = tmp_path / "mapping.json"
        self.assert_stdout_is(run_map_cmd(evolution, "--out", str(out)), out,
                              capsys)

    def test_eval(self, evolution, tmp_path, capsys):
        mapping_path = tmp_path / "mapping.json"
        assert main(run_map_cmd(evolution, "--out", str(mapping_path))) == 0
        out = tmp_path / "eval.json"
        self.assert_stdout_is(
            ["eval", "--mapping", str(mapping_path),
             "--truth", str(evolution / "truth.json"),
             "--format", "json", "--out", str(out)], out, capsys)

    def test_topics(self, evolution, tmp_path, capsys):
        out = tmp_path / "topics.json"
        self.assert_stdout_is(
            ["topics", "--report", str(evolution / "newer_report.json"),
             "--source", str(evolution / "newer_src"),
             "--format", "json", "--out", str(out)], out, capsys)

    def test_synth(self, tmp_path, capsys):
        out = tmp_path / "evo"
        self.assert_stdout_is(
            ["synth", "--out", str(out), "--groups", "6", "--deaths", "0.2",
             "--births", "0.2"], out / "manifest.json", capsys)


class TestTopicsCommand:
    def test_dump_for_single_report(self, evolution, tmp_path, capsys):
        out_path = tmp_path / "topics.json"
        rc = main(["topics", "--report", str(evolution / "older_report.json"),
                   "--source", str(evolution / "older_src"),
                   "--out", str(out_path), "--format", "json"])
        assert rc == 0
        doc = json.loads(out_path.read_text(encoding="utf-8"))
        report = json.loads(
            (evolution / "older_report.json").read_text(encoding="utf-8"))
        assert len(doc["topics"]) == len(report["groups"])
        assert all(e["version"] == "v1" for e in doc["topics"])

    def test_json_entries_hold_weighted_words(self, evolution, capsys):
        rc = main(["topics", "--report", str(evolution / "newer_report.json"),
                   "--source", str(evolution / "newer_src"), "--format", "json"])
        assert rc == 0
        entries = json.loads(capsys.readouterr().out)["topics"]
        assert entries
        for entry in entries:
            assert {"version", "group", "total_tokens", "words"} <= set(entry)
            words = entry["words"]
            assert words == sorted(words, key=lambda w: -w["weight"])
            for w in words:
                assert w["weight"] == pytest.approx(
                    w["count"] / entry["total_tokens"])

    def test_table_format(self, evolution, capsys):
        rc = main(["topics", "--report", str(evolution / "older_report.json"),
                   "--source", str(evolution / "older_src")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "group 0 of v1" in out

    def test_versionless_xml_report_is_parse_error(self, tmp_path, capsys):
        report = tmp_path / "r.xml"
        report.write_text(
            '<clones><class id="0">'
            '<source file="a.c" startline="1" endline="1"/>'
            '<source file="b.c" startline="1" endline="1"/>'
            '</class></clones>', encoding="utf-8")
        rc = main(["topics", "--report", str(report)])
        assert rc == 3
        assert ("XML report carries no version: the <clones> root needs a "
                "'version' attribute" in capsys.readouterr().err)


class TestThreadsFlag:
    """``map --threads`` is accepted and ignored; only the config records
    it. ``topics`` has no such flag, and ``map`` no longer has
    ``--dump-topics``: each is a usage error."""

    def test_map_output_does_not_depend_on_threads(self, evolution, capsys):
        for strategy in ("topic", "lcs"):
            docs = []
            for threads in ("1", "4"):
                assert main(run_map_cmd(evolution, "--strategy", strategy,
                                        "--threads", threads)) == 0
                docs.append(json.loads(capsys.readouterr().out))
            assert docs[0]["mappings"] == docs[1]["mappings"], strategy
            assert docs[0]["unmatched_old"] == docs[1]["unmatched_old"], strategy
            assert [d["config"]["threads"] for d in docs] == [1, 4]

    def test_topics_rejects_threads(self, evolution, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["topics", "--report", str(evolution / "older_report.json"),
                  "--source", str(evolution / "older_src"),
                  "--threads", "1"])
        assert exit_info.value.code == 2
        assert "--threads" in capsys.readouterr().err

    def test_map_rejects_dump_topics(self, evolution, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(run_map_cmd(evolution, "--dump-topics",
                             str(tmp_path / "dump.json")))
        assert exit_info.value.code == 2
        assert "--dump-topics" in capsys.readouterr().err



def subparsers(parser: argparse.ArgumentParser) -> dict:
    return next(action for action in parser._actions
                if isinstance(action, argparse._SubParsersAction)).choices


class TestRecordedConfig:
    """Each artifact's ``config`` records every flag of its subcommand
    except ``--out`` and ``--format``, with the four word-list flags under
    ``filters``."""

    FILTERS = {"language", "keywords", "progwords", "stopwords"}

    @staticmethod
    def subparser_dests(name: str) -> set:
        parser = subparsers(build_parser(None))[name]
        return {a.dest for a in parser._actions} - {"help"}

    def expected_keys(self, name: str) -> tuple[set, set]:
        dests = self.subparser_dests(name) - {"out", "format"}
        top = {"subcommand"} | dests - self.FILTERS
        filters = dests & self.FILTERS
        return (top | {"filters"} if filters else top), filters

    def check(self, name: str, artifact: Path) -> None:
        config = json.loads(artifact.read_text(encoding="utf-8"))["config"]
        top, filters = self.expected_keys(name)
        assert set(config) == top
        assert set(config.get("filters", {})) == filters
        assert config["subcommand"] == name

    def test_map_eval_and_topics(self, evolution, tmp_path, capsys):
        mapping = tmp_path / "mapping.json"
        assert main(run_map_cmd(evolution, "--out", str(mapping))) == 0
        self.check("map", mapping)
        evaluation = tmp_path / "eval.json"
        assert main(["eval", "--mapping", str(mapping),
                     "--truth", str(evolution / "truth.json"),
                     "--out", str(evaluation)]) == 0
        self.check("eval", evaluation)
        topics = tmp_path / "topics.json"
        assert main(["topics", "--report", str(evolution / "newer_report.json"),
                     "--source", str(evolution / "newer_src"),
                     "--out", str(topics)]) == 0
        self.check("topics", topics)
        capsys.readouterr()

class TestParserDefaults:
    """A flag that sets a config field defaults to that field's default."""

    @staticmethod
    def defaults(config_type) -> dict:
        return {f.name: f.default for f in fields(config_type)}

    def test_map_flags_default_to_the_config_defaults(self):
        args = build_parser(None).parse_args(["map", "--newer", "n.json",
                                              "--older", "o.json"])
        mapping, lda = self.defaults(MappingConfig), self.defaults(LdaConfig)
        assert args.delta == mapping["delta"]
        assert args.metric == mapping["metric"].value
        assert args.strategy == mapping["strategy"].value
        assert args.injective == mapping["enforce_injective"]
        assert args.topics == lda["K"]
        assert args.iterations == lda["iterations"]
        assert args.seed == lda["seed"]

    def test_delta_help_shows_the_config_default(self, capsys):
        with pytest.raises(SystemExit):
            main(["map", "--help"])
        delta = self.defaults(MappingConfig)["delta"]
        assert f"similarity threshold (default {delta})" in capsys.readouterr().out

    @staticmethod
    def built_synth_configs(monkeypatch) -> list:
        """The configs ``cmd_synth`` hands the generator, which writes nothing."""
        import clonemap.evaluation as evaluation

        built = []
        monkeypatch.setattr(evaluation, "generate_evolution",
                            lambda config, out: built.append(config) or {})
        return built

    def test_synth_flags_default_to_the_config_defaults(self, tmp_path,
                                                        monkeypatch):
        built = self.built_synth_configs(monkeypatch)
        assert main(["synth", "--out", str(tmp_path / "evo")]) == 0
        assert built == [SynthConfig()]
        assert not (tmp_path / "evo").exists()

    def test_each_synth_flag_sets_its_field(self, tmp_path, monkeypatch):
        built = self.built_synth_configs(monkeypatch)
        assert main(["synth", "--out", str(tmp_path / "evo"),
                     "--groups", "7", "--fragments", "3", "5",
                     "--lines", "4", "9", "--mix", "0.5", "0.25", "0.125", "0.125",
                     "--edit-fraction", "0.05", "0.5", "--deaths", "0.25",
                     "--births", "0.375", "--seed", "11"]) == 0
        assert built == [SynthConfig(
            group_count=7, fragments_per_group=(3, 5), lines_per_fragment=(4, 9),
            p_unchanged=0.5, p_type1=0.25, p_type2=0.125, p_type3=0.125,
            type3_edit_fraction=(0.05, 0.5), death_fraction=0.25,
            birth_fraction=0.375, seed=11)]
        # Every value differs from its default, so a flag that missed its
        # field would leave the default and fail the comparison above.
        defaults = self.defaults(SynthConfig)
        assert all(getattr(built[0], name) != default
                   for name, default in defaults.items())


class TestEmptyOut:
    """``--out ""`` names no file that can be written, so it fails as any
    such path does: exit 4, an I/O error that names the empty path, not
    the current directory, and nothing printed."""

    def check(self, argv, capsys) -> None:
        assert main(argv) == 4
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("clonemap: I/O error: ")
        assert err.rstrip().endswith("No such file or directory: ''")
        assert "'.'" not in err

    def test_map(self, evolution, capsys):
        self.check(run_map_cmd(evolution, "--out", ""), capsys)

    def test_eval(self, evolution, tmp_path, capsys):
        mapping = tmp_path / "mapping.json"
        assert main(run_map_cmd(evolution, "--out", str(mapping))) == 0
        capsys.readouterr()
        self.check(["eval", "--mapping", str(mapping),
                    "--truth", str(evolution / "truth.json"), "--out", ""],
                   capsys)

    def test_topics(self, evolution, capsys):
        self.check(["topics", "--report", str(evolution / "older_report.json"),
                    "--source", str(evolution / "older_src"), "--out", ""],
                   capsys)

    def test_synth(self, tmp_path, monkeypatch, capsys):
        """``synth`` writes nothing, not a fixture in the current
        directory."""
        monkeypatch.chdir(tmp_path)
        self.check(["synth", "--out", "", "--groups", "2"], capsys)
        assert list(tmp_path.iterdir()) == []


MAP_ARGV = ("map", "--newer", "{evo}/newer_report.json",
            "--older", "{evo}/older_report.json",
            "--source-newer", "{evo}/newer_src",
            "--source-older", "{evo}/older_src")
EVAL_ARGV = ("eval", "--mapping", "{evo}/mapping.json",
             "--truth", "{evo}/truth.json")
TOPICS_ARGV = ("topics", "--report", "{evo}/older_report.json",
               "--source", "{evo}/older_src")
WORD_FILES = ("--keywords", "{evo}/words.txt",
              "--progwords", "{evo}/words.txt",
              "--stopwords", "{evo}/words.txt")

# Command lines that ``main`` must treat as the parser of every option
# does. Outputs are relative, so each side writes under its own directory.
PARSER_ARGVS = {
    "top-help": ("-h",),
    "version": ("--version",),
    "no-argument": (),
    "unknown-subcommand": ("bogus", *MAP_ARGV),
    "unknown-top-option": ("--bogus", *EVAL_ARGV),
    "dash-dash-first": ("--", *MAP_ARGV),
    "map-help": ("map", "-h"),
    "map-every-option": (*MAP_ARGV, "--delta", "0.5", "--metric", "hellinger",
                         "--strategy", "topic", "--injective",
                         "--threads", "2",
                         "--language", "c", *WORD_FILES, "--out", "m.json",
                         "--format", "json"),
    "map-gibbs": (*MAP_ARGV, "--topics", "2", "--iterations", "2",
                  "--seed", "5", "--out", "m.json"),
    "map-lcs": (*MAP_ARGV, "--strategy", "lcs", "--language", "java",
                "--format", "table"),
    "map-out-names-a-subcommand": (*MAP_ARGV, "--out", "eval"),
    "map-missing-required": ("map", "--newer", "{evo}/newer_report.json"),
    "map-invalid-choice": (*MAP_ARGV, "--metric", "jaccard"),
    "map-config-error": (*MAP_ARGV, "--delta", "2"),
    "map-unknown-option": (*MAP_ARGV, "--mapping", "x"),
    "eval-help": ("eval", "-h"),
    "eval-every-option": (*EVAL_ARGV, "--out", "e.json", "--format", "json"),
    "eval-table": EVAL_ARGV,
    "eval-missing-required": ("eval", "--truth", "{evo}/truth.json"),
    "synth-help": ("synth", "-h"),
    "synth-every-option": ("synth", "--out", "evo", "--groups", "3",
                           "--fragments", "2", "3", "--lines", "4", "6",
                           "--mix", "0.4", "0.2", "0.2", "0.2",
                           "--edit-fraction", "0.1", "0.3",
                           "--deaths", "0.25", "--births", "0.25",
                           "--seed", "4"),
    "synth-missing-required": ("synth", "--groups", "2"),
    "topics-help": ("topics", "-h"),
    "topics-every-option": (*TOPICS_ARGV, "--language", "java", *WORD_FILES,
                            "--out", "t.json", "--format", "json"),
    "topics-table": TOPICS_ARGV,
    "topics-missing-required": ("topics",),
}


class TestOneSubcommandParser:
    """``main`` adds options only to the subcommand it runs; the others
    stay bare entries. Every help text, usage line, error, exit code,
    printed result and written file is the one the parser of every
    option gives."""

    def test_help_texts_are_the_full_parsers(self):
        full = build_parser(None)
        for command in cli._SUBCOMMANDS:
            parser = build_parser(command)
            assert parser.format_help() == full.format_help()
            assert (subparsers(parser)[command].format_help()
                    == subparsers(full)[command].format_help())

    def test_table_gives_every_option(self):
        for command, parser in subparsers(build_parser(None)).items():
            given = {arg for argv in PARSER_ARGVS.values()
                     if argv[:1] == (command,) for arg in argv}
            for action in parser._actions:
                assert set(action.option_strings) & given, (command, action)

    @pytest.fixture
    def inputs(self, evolution):
        (evolution / "words.txt").write_text("# words\nint\nreturn\n",
                                             encoding="utf-8")
        assert run_quietly(run_map_cmd(
            evolution, "--out", str(evolution / "mapping.json")))[0] == 0
        return evolution

    @staticmethod
    def outcome(argv, cwd: Path, monkeypatch, capsys, full: bool):
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        with monkeypatch.context() as patch:
            if full:
                patch.setattr(cli, "_subcommand", lambda argv: None)
            try:
                rc = main(argv)
            except SystemExit as exc:
                rc = exc.code
        out, err = capsys.readouterr()
        files = {str(path.relative_to(cwd)): path.read_bytes()
                 for path in sorted(cwd.rglob("*")) if path.is_file()}
        return rc, out, err, files

    @pytest.mark.parametrize("name", PARSER_ARGVS)
    def test_main_acts_as_the_full_parser(self, inputs, tmp_path, monkeypatch,
                                          capsys, name):
        argv = [arg.format(evo=inputs) for arg in PARSER_ARGVS[name]]
        got = self.outcome(argv, tmp_path / "one", monkeypatch, capsys, False)
        want = self.outcome(argv, tmp_path / "all", monkeypatch, capsys, True)
        assert got == want
        if name.endswith("every-option"):
            assert got[0] == 0 and got[3], "the run wrote no artifact"


class TestPaysForOneCommand:
    """Guards without timing: ``main`` builds the options of one
    subcommand, and runs it with the import-time heap frozen out of the
    cyclic collector, which it gives back on every way out as the caller
    left it."""

    def test_map_builds_no_other_subcommands_options(self, evolution,
                                                     monkeypatch, capsys):
        built = []
        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser",
                            lambda command: built.append(build(command))
                            or built[-1])
        assert main(run_map_cmd(evolution)) == 0
        capsys.readouterr()
        [choices] = [subparsers(p) for p in built]
        full = subparsers(build_parser(None))
        for command, sub in choices.items():
            options = [action.option_strings for action in sub._actions]
            if command == "map":
                assert options == [action.option_strings
                                   for action in full["map"]._actions]
            else:
                assert options == [["-h", "--help"]], command

    @pytest.fixture
    def frozen_in_command(self, monkeypatch):
        """The freeze counts seen where ``cmd_map`` starts its map."""
        seen = []
        run_map = cli.run_map

        def spy(*args, **kwargs):
            seen.append(gc.get_freeze_count())
            return run_map(*args, **kwargs)

        monkeypatch.setattr(cli, "run_map", spy)
        return seen

    @pytest.mark.parametrize("extra, rc", [
        ((), 0), (("--delta", "2"), 2), (("--newer", "{bad}"), 3),
        (("--out", ""), 4)], ids=["0", "2", "3", "4"])
    def test_nothing_stays_frozen(self, evolution, tmp_path, capsys,
                                  frozen_in_command, extra, rc):
        bad = tmp_path / "bad.json"
        bad.write_text("{", encoding="utf-8")
        argv = run_map_cmd(evolution, *(arg.format(bad=bad) for arg in extra))
        assert main(argv) == rc
        capsys.readouterr()
        assert gc.get_freeze_count() == 0
        assert all(count > 0 for count in frozen_in_command)

    def test_usage_error_freezes_nothing(self, capsys):
        with pytest.raises(SystemExit):
            main(["map"])
        capsys.readouterr()
        assert gc.get_freeze_count() == 0

    def test_interrupt_unfreezes(self, evolution, monkeypatch):
        def interrupted(*args, **kwargs):
            assert gc.get_freeze_count() > 0
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "run_map", interrupted)
        with pytest.raises(KeyboardInterrupt):
            main(run_map_cmd(evolution))
        assert gc.get_freeze_count() == 0

    def test_a_callers_freeze_is_kept(self, evolution, tmp_path, capsys,
                                      monkeypatch):
        """A caller that froze its own heap gets its freeze count back
        when the command succeeds, fails with exit code 4 or is
        interrupted. Each command runs once first, so no cache that a
        first run fills frees a frozen object, and each runs in an empty
        ``contextvars.Context``: numpy's ``errstate`` sets a context
        variable, which would replace, and so free, the caller's frozen
        context mapping."""
        map_argv = run_map_cmd(evolution)
        missing = str(tmp_path / "missing.json")
        eval_argv = ["eval", "--mapping", missing, "--truth", missing]

        def run(argv):
            return contextvars.Context().run(main, argv)

        assert (run(map_argv), run(eval_argv)) == (0, 4)
        gc.collect()
        gc.freeze()
        try:
            frozen = gc.get_freeze_count()
            assert frozen > 0
            assert run(map_argv) == 0
            assert gc.get_freeze_count() == frozen
            assert run(eval_argv) == 4
            assert gc.get_freeze_count() == frozen

            def interrupted(*args, **kwargs):
                raise KeyboardInterrupt

            monkeypatch.setattr(cli, "run_map", interrupted)
            with pytest.raises(KeyboardInterrupt):
                run(map_argv)
            assert gc.get_freeze_count() == frozen
        finally:
            gc.unfreeze()
        capsys.readouterr()

    def test_both_counting_branches_unfreeze(self, evolution, capsys, branch,
                                             frozen_in_command):
        assert main(run_map_cmd(evolution)) == 0
        capsys.readouterr()
        assert len(frozen_in_command) == 1 and frozen_in_command[0] > 0
        assert gc.get_freeze_count() == 0
        assert_no_child_left()


# Values a mutation swaps in: other JSON types, path escapes, an integer
# past 64 bits, an embedded NUL and lone surrogates. "ABSOLUTE" stands for
# the absolute path of a real file outside the source roots.
NASTY = st.sampled_from([
    None, True, False, 0, -1, 1.5, 2**70, "", "x", [], {}, [0], {"a": 1},
    "../older_src/group000_frag0.c", "../truth.json", "ABSOLUTE",
    "a\u0000b.c", "\u0000", "a\ud800.c", "\udfff", "v\ud800",
])


def mutate_json(data, doc, absolute: str):
    """Apply one to three drawn deletions or value swaps to ``doc``. Each
    walks down from the root and stops at each level with chance 1/4, so
    top-level keys are hit as often as fields deep inside fragments."""
    for _ in range(data.draw(st.integers(1, 3))):
        path = []
        node = doc
        while (isinstance(node, (dict, list)) and node
               and data.draw(st.integers(0, 3)) > 0):
            key = data.draw(st.sampled_from(
                list(node) if isinstance(node, dict) else range(len(node))))
            path.append(key)
            node = node[key]
        value = copy.deepcopy(data.draw(NASTY))
        value = absolute if value == "ABSOLUTE" else value
        if not path:
            doc = value
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if data.draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
    return doc


def report_xml(doc: dict) -> str:
    classes = "".join(
        f'<class id="{g["index"]}">' + "".join(
            f"<source file={quoteattr(f['file'])} "
            f'startline="{f["start_line"]}" endline="{f["end_line"]}"/>'
            for f in g["fragments"]) + "</class>"
        for g in doc["groups"])
    return f"<clones version={quoteattr(doc['version'])}>{classes}</clones>"


_XML_ATTR = re.compile(r'(\w+)="([^"]*)"')


def mutate_xml(data, text: str, absolute: str) -> str:
    """Apply one to three drawn attribute swaps or deletions, or a cut."""
    for _ in range(data.draw(st.integers(1, 3))):
        matches = list(_XML_ATTR.finditer(text))
        action = data.draw(st.sampled_from(["swap", "drop", "cut"]))
        if action == "cut" or not matches:
            text = text[:data.draw(st.integers(0, len(text)))]
            continue
        match = data.draw(st.sampled_from(matches))
        if action == "drop":
            text = text[:match.start()] + text[match.end():]
            continue
        value = data.draw(NASTY)
        value = absolute if value == "ABSOLUTE" else str(value)
        start, end = match.span(2)
        text = text[:start] + quoteattr(value)[1:-1] + text[end:]
    return text


def run_quietly(argv) -> tuple[int, str]:
    """``main`` with stdout going to a strict UTF-8 buffer, as on a UTF-8
    terminal, so an unprintable result shows as an exception; returns the
    exit code and what was printed."""
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    err = io.TextIOWrapper(io.BytesIO(), encoding="utf-8",
                           errors="backslashreplace")
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
        out.flush()
    return rc, out.buffer.getvalue().decode("utf-8")


@pytest.fixture(scope="module")
def fuzz_base(tmp_path_factory):
    """A 4-group evolution plus its mapping artifact, built once."""
    out = tmp_path_factory.mktemp("fuzz") / "evo"
    assert run_quietly(["synth", "--out", str(out), "--groups", "4",
                        "--deaths", "0.25", "--births", "0.25",
                        "--seed", "3"])[0] == 0
    assert run_quietly(run_map_cmd(out, "--out", str(out / "mapping.json")))[0] == 0
    return out


class TestExitCodeFuzz:
    """Mutated reports, truth files and mapping artifacts end in exit 0,
    2, 3 or 4, never in a traceback."""

    EXITS = {0, 2, 3, 4}
    SETTINGS = settings(max_examples=40, deadline=None, derandomize=True,
                        suppress_health_check=[HealthCheck.too_slow])

    @SETTINGS
    @given(data=st.data(), which=st.sampled_from(["newer", "older", "topics"]),
           fmt=st.sampled_from(["json", "table"]))
    def test_mutated_json_report(self, fuzz_base, data, which, fmt):
        version = "older" if which == "topics" else which
        path = fuzz_base / f"{version}_report.json"
        doc = json.loads(path.read_text(encoding="utf-8"))
        doc = mutate_json(data, doc, str(fuzz_base / "truth.json"))
        bad = fuzz_base / "bad_report.json"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        if which == "topics":
            argv = ["topics", "--report", str(bad),
                    "--source", str(fuzz_base / "older_src"), "--format", fmt]
        else:
            argv = run_map_cmd(fuzz_base, fmt=fmt)
            argv[argv.index(f"--{which}") + 1] = str(bad)
        assert run_quietly(argv)[0] in self.EXITS

    @SETTINGS
    @given(data=st.data(), strategy=st.sampled_from(["topic", "lcs"]))
    def test_mutated_xml_report(self, fuzz_base, data, strategy):
        doc = json.loads((fuzz_base / "newer_report.json").read_text(encoding="utf-8"))
        text = mutate_xml(data, report_xml(doc), str(fuzz_base / "truth.json"))
        bad = fuzz_base / "bad_report.xml"
        bad.write_text(text, encoding="utf-8", errors="surrogatepass")
        argv = run_map_cmd(fuzz_base, "--strategy", strategy, fmt="table")
        argv[argv.index("--newer") + 1] = str(bad)
        assert run_quietly(argv)[0] in self.EXITS

    @SETTINGS
    @given(data=st.data(), which=st.sampled_from(["mapping", "truth"]),
           fmt=st.sampled_from(["json", "table"]))
    def test_mutated_eval_input(self, fuzz_base, data, which, fmt):
        paths = {"mapping": fuzz_base / "mapping.json",
                 "truth": fuzz_base / "truth.json"}
        doc = json.loads(paths[which].read_text(encoding="utf-8"))
        doc = mutate_json(data, doc, str(paths["truth"]))
        paths[which] = fuzz_base / f"bad_{which}.json"
        paths[which].write_text(json.dumps(doc), encoding="utf-8")
        argv = ["eval", "--mapping", str(paths["mapping"]),
                "--truth", str(paths["truth"]), "--format", fmt]
        assert run_quietly(argv)[0] in self.EXITS


REPO = Path(__file__).resolve().parents[1]

TRACED_MAP = """
import json, sys
import tracer
import clonemap.cli as cli
trace = tracer.install()
rc = cli.main(sys.argv[1:])
record = trace.record()
calls = {}
for call in record["calls"]:
    calls[call["name"]] = calls.get(call["name"], 0) + call["count"]
spans = {}
for span in record["spans"]:
    spans[span["name"]] = spans.get(span["name"], 0) + 1
print(json.dumps({"exit": rc, "calls": calls, "spans": spans}))
"""


class TestBenchmarkTracer:
    """``perfbench/tracer.py`` wraps functions by name and the benchmark
    passes ``--threads 1``; both must keep working under a real map."""

    # The LCS path streams row blocks from ``lcs_matrix``'s row scorer and
    # calls no function the tracer wraps, so that case checks the stage
    # span instead. Only K > 1 builds a corpus, and the tracer's observer
    # of that span reads its ``vocabulary_size`` and ``documents``: a
    # missing one fails the traced process.
    @pytest.mark.parametrize("flags,kind,name", [
        pytest.param(("--strategy", "topic"), "calls",
                     "preprocess.strip_comments",
                     id="topic-preprocess.strip_comments"),
        pytest.param(("--strategy", "topic"), "calls", "preprocess.tokenize",
                     id="topic-preprocess.tokenize"),
        pytest.param(("--strategy", "topic"), "spans", "ingest.resolve_snapshot",
                     id="topic-ingest.resolve_snapshot"),
        pytest.param(("--strategy", "lcs"), "spans", "mapping.baseline_text_map",
                     id="lcs-mapping.baseline_text_map"),
        pytest.param(("--topics", "2", "--iterations", "1"), "spans",
                     "topicmodel.build_corpus",
                     id="topics2-topicmodel.build_corpus"),
    ])
    def test_traced_map_runs(self, evolution, tmp_path, flags, kind, name):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(REPO / "src"), str(REPO / "perfbench")])
        argv = run_map_cmd(evolution, *flags,
                           "--threads", "1", "--out", str(tmp_path / "m.json"))
        proc = subprocess.run([sys.executable, "-c", TRACED_MAP, *argv],
                              env=env, capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result["exit"] == 0
        assert result[kind].get(name, 0) > 0


IMPORT_SET = """
import json, sys
import clonemap.cli as cli

LAZY = ("clonemap.evaluation", "xml.etree.ElementTree", "signal")
imported = [name for name in LAZY if name in sys.modules]
rc = cli.main(sys.argv[1:])
mapped = [name for name in LAZY if name in sys.modules]
print(json.dumps({"exit": rc, "imported": imported, "mapped": mapped}))
"""


class TestImportSet:
    """``map`` starts without the ground-truth scorer, the fixture
    generator, the XML parser or ``signal``: it runs none of them, and
    loading them costs a fresh interpreter milliseconds. Only an XML
    report loads the parser, and only a forked count loads ``signal``,
    which a map of the small ``evolution`` fixture never does."""

    @staticmethod
    def run(argv) -> dict:
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        proc = subprocess.run([sys.executable, "-c", IMPORT_SET, *argv],
                              env=env, capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout.splitlines()[-1])

    def test_json_map_loads_neither(self, evolution, tmp_path):
        argv = run_map_cmd(evolution, "--out", str(tmp_path / "m.json"))
        assert self.run(argv) == {"exit": 0, "imported": [], "mapped": []}

    def test_xml_map_loads_only_the_xml_parser(self, evolution, tmp_path):
        for version in ("newer", "older"):
            doc = json.loads((evolution / f"{version}_report.json").read_text())
            (tmp_path / f"{version}.xml").write_text(report_xml(doc))
        argv = ["map", "--newer", str(tmp_path / "newer.xml"),
                "--older", str(tmp_path / "older.xml"),
                "--source-newer", str(evolution / "newer_src"),
                "--source-older", str(evolution / "older_src"),
                "--out", str(tmp_path / "m.json")]
        assert self.run(argv) == {"exit": 0, "imported": [],
                                  "mapped": ["xml.etree.ElementTree"]}
