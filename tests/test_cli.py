"""CLI subcommands, exit codes, and artifact reproducibility headers."""

import contextlib
import copy
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path
from xml.sax.saxutils import quoteattr

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

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
    """``map --threads`` is accepted and ignored; only the config records
    it. ``topics`` has no such flag."""

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

    # The LCS path scores all pairs in one ``lcs_matrix`` call, which the
    # tracer does not wrap, so that case checks the stage span instead.
    @pytest.mark.parametrize("strategy,kind,name", [
        pytest.param("topic", "calls", "preprocess.strip_comments",
                     id="topic-preprocess.strip_comments"),
        pytest.param("topic", "calls", "preprocess.tokenize",
                     id="topic-preprocess.tokenize"),
        pytest.param("topic", "spans", "ingest.resolve_snapshot",
                     id="topic-ingest.resolve_snapshot"),
        pytest.param("lcs", "spans", "mapping.baseline_text_map",
                     id="lcs-mapping.baseline_text_map"),
    ])
    def test_traced_map_runs(self, evolution, tmp_path, strategy, kind, name):
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
        assert result[kind].get(name, 0) > 0
