"""Golden digests of the CLI outputs the map golden does not cover.

Two fixtures. ``synth`` is the map golden's 40-group run; its cases are
plain Hellinger, the plain LCS baseline, ``eval --format json`` on the
cosine mapping, and ``topics --format json`` for the older and for the
newer report. ``inline`` is a report pair with fragment text inline, in
which two newer groups come out empty and three non-empty newer groups
contend for two older ones; it runs under cosine and under
``--injective --delta 0``, so the empty-row path of the mapper and the
0.0 null once every older group is taken have a golden too. Every
command runs from inside its fixture directory with relative paths, so
the artifact header records the same paths on every machine. A case
digests the stdout of its last command, or the file it names.

After a change that moves these bytes on purpose, regenerate the golden
from the repository root and say why in CHANGES.md:

    PYTHONPATH=src python3 tests/test_cli_golden.py
"""

import hashlib
import json
import os
import tempfile
import warnings
from pathlib import Path

import numpy as np

from test_map_golden import MAP_ARGV, SYNTH_ARGV, _run

GOLDEN = Path(__file__).resolve().parent / "golden" / "cli_digests.json"
INLINE_TEXTS = {
    "older": ["widget = frobnicate(gadget);", "sprocket = rotate(pinion);"],
    "newer": ["widget = frobnicate(gadget, sprocket);",
              "/* widget */ return 0;",
              "sprocket = rotate(pinion);",
              "// sprocket\nbreak;",
              "widget = frobnicate(gizmo);"],
}
INLINE_MAP_ARGV = ["map", "--newer", "newer.json", "--older", "older.json",
                   "--format", "json"]
CASES = {
    "hellinger": {"fixture": "synth", "digest": "stdout",
                  "commands": [MAP_ARGV + ["--metric", "hellinger"]]},
    "lcs": {"fixture": "synth", "digest": "stdout",
            "commands": [MAP_ARGV + ["--strategy", "lcs"]]},
    "eval-cosine": {"fixture": "synth", "digest": "stdout", "commands": [
        MAP_ARGV + ["--out", "mapping.json"],
        ["eval", "--mapping", "mapping.json", "--truth", "truth.json",
         "--format", "json"]]},
    "topics-older": {"fixture": "synth", "digest": "stdout", "commands": [
        ["topics", "--report", "older_report.json", "--source", "older_src",
         "--format", "json"]]},
    "topics-newer": {"fixture": "synth", "digest": "stdout", "commands": [
        ["topics", "--report", "newer_report.json", "--source", "newer_src",
         "--format", "json"]]},
    "inline-cosine": {"fixture": "inline", "digest": "stdout",
                      "commands": [INLINE_MAP_ARGV]},
    "inline-injective-delta0": {"fixture": "inline", "digest": "stdout",
                                "commands": [INLINE_MAP_ARGV + [
                                    "--injective", "--delta", "0"]]},
}


def _write_inline(root: Path) -> None:
    root.mkdir()
    for side, texts in INLINE_TEXTS.items():
        report = {"version": side, "groups": [
            {"index": i, "fragments": [
                {"file": f"g{i}{half}.c", "start_line": 1,
                 "end_line": text.count("\n") + 1, "text": text}
                for half in "ab"]}
            for i, text in enumerate(texts)]}
        (root / f"{side}.json").write_text(json.dumps(report),
                                          encoding="utf-8")


def _case_digest(root: Path, case: dict) -> str:
    previous = os.getcwd()
    os.chdir(root)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for argv in case["commands"]:
                stdout = _run(argv)
        data = (stdout.encode("utf-8") if case["digest"] == "stdout"
                else Path(case["digest"]).read_bytes())
    finally:
        os.chdir(previous)
    return hashlib.sha256(data).hexdigest()


def cli_digests(scratch: Path) -> dict:
    """Write both fixtures under ``scratch`` and digest each case."""
    _run(["synth", "--out", str(scratch / "synth"), *SYNTH_ARGV])
    _write_inline(scratch / "inline")
    return {name: _case_digest(scratch / case["fixture"], case)
            for name, case in CASES.items()}


def test_cli_outputs_match_golden(tmp_path):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert golden["synth_argv"] == SYNTH_ARGV
    assert golden["inline_texts"] == INLINE_TEXTS
    assert golden["cases"] == CASES
    expected = golden["sha256"]
    actual = cli_digests(tmp_path)
    moved = sorted(name for name in expected.keys() | actual.keys()
                   if expected.get(name) != actual.get(name))
    assert not moved, (f"CLI outputs moved from the golden under numpy "
                       f"{np.__version__}: {', '.join(moved)}")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        digests = cli_digests(Path(scratch))
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps({
        "synth_argv": SYNTH_ARGV,
        "inline_texts": INLINE_TEXTS,
        "cases": CASES,
        "sha256": digests,
    }, indent=2, sort_keys=True) + "\n", encoding="utf-8")
