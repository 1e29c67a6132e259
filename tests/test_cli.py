"""CLI subcommands, exit codes, and artifact reproducibility headers."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from clonemap.cli import main


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

    def test_dump_topics(self, evolution, tmp_path, capsys):
        dump_path = tmp_path / "topics.json"
        rc = main(run_map_cmd(evolution, "--dump-topics", str(dump_path)))
        assert rc == 0
        dump = json.loads(dump_path.read_text(encoding="utf-8"))
        entry = dump["topics"][0]
        assert {"version", "group", "total_tokens", "words"} <= set(entry)
        words = entry["words"]
        assert words == sorted(words, key=lambda w: -w["weight"])
        for w in words:
            assert w["weight"] == pytest.approx(
                w["count"] / entry["total_tokens"])

    def test_lcs_strategy(self, evolution, capsys):
        rc = main(run_map_cmd(evolution, "--strategy", "lcs"))
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["strategy"] == "lcs"

    def test_bad_delta_is_usage_error(self, evolution, capsys):
        rc = main(run_map_cmd(evolution, "--delta", "1.5"))
        assert rc == 2

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

    def test_json_boolean_line_number_is_parse_error(self, evolution, capsys):
        report_path = evolution / "newer_report.json"
        report = json.loads(report_path.read_text(encoding="utf-8"))
        report["groups"][0]["fragments"][0]["start_line"] = True
        report_path.write_text(json.dumps(report), encoding="utf-8")
        rc = main(run_map_cmd(evolution))
        assert rc == 3
        assert "wrongly typed" in capsys.readouterr().err

    def test_rerun_reproduces_artifact_bytes(self, evolution, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert main(run_map_cmd(evolution, "--out", str(a))) == 0
        assert main(run_map_cmd(evolution, "--out", str(b))) == 0
        assert a.read_bytes() == b.read_bytes()


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


class TestSynthCommand:
    def test_zero_groups_is_config_error(self, tmp_path, capsys):
        rc = main(["synth", "--out", str(tmp_path / "x"), "--groups", "0"])
        assert rc == 2

    def test_manifest_printed(self, tmp_path, capsys):
        rc = main(["synth", "--out", str(tmp_path / "x"), "--groups", "4"])
        assert rc == 0
        manifest = json.loads(capsys.readouterr().out)
        assert len(manifest["outputs"]) == 5


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

    def test_table_format(self, evolution, capsys):
        rc = main(["topics", "--report", str(evolution / "older_report.json"),
                   "--source", str(evolution / "older_src")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "group 0 of v1" in out


class TestThreadsFlag:
    """``--threads`` is accepted and ignored; only the config records it."""

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

    def test_topics_output_does_not_depend_on_threads(self, evolution, capsys):
        docs = []
        for threads in ("1", "4"):
            assert main(["topics",
                         "--report", str(evolution / "older_report.json"),
                         "--source", str(evolution / "older_src"),
                         "--threads", threads, "--format", "json"]) == 0
            docs.append(json.loads(capsys.readouterr().out))
        assert docs[0]["topics"] == docs[1]["topics"]
        assert [d["config"]["threads"] for d in docs] == [1, 4]


REPO = Path(__file__).resolve().parents[1]

TRACED_MAP = """
import json, sys
import tracer
import clonemap.cli as cli
trace = tracer.install()
rc = cli.main(sys.argv[1:])
calls = {}
for call in trace.record()["calls"]:
    calls[call["name"]] = calls.get(call["name"], 0) + call["count"]
print(json.dumps({"exit": rc, "calls": calls}))
"""


class TestBenchmarkTracer:
    """``perfbench/tracer.py`` wraps functions by name and the benchmark
    passes ``--threads 1``; both must keep working under a real map."""

    @pytest.mark.parametrize("strategy,call", [
        ("topic", "preprocess.strip_comments"),
        ("lcs", "similarity.lcs_similarity"),
    ])
    def test_traced_map_runs(self, evolution, tmp_path, strategy, call):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(REPO / "src"), str(REPO / "perfbench")])
        argv = run_map_cmd(evolution, "--strategy", strategy,
                           "--threads", "1", "--out", str(tmp_path / "m.json"))
        proc = subprocess.run([sys.executable, "-c", TRACED_MAP, *argv],
                              env=env, capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result["exit"] == 0
        assert result["calls"].get(call, 0) > 0
