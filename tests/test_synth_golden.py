"""Golden digests of every output of one ``clonemap synth`` run.

The run is the smallest with deaths and births whose identifier draws
pass the 900 adjective-noun compounds, so the numbered variants
(``amber_anchor1``) are written too. The golden holds one sha256 per
report, truth and manifest file, one per source tree and one for stdout.

After a change that moves synth's bytes on purpose, regenerate the golden
from the repository root and say why in CHANGES.md:

    PYTHONPATH=src python3 tests/test_synth_golden.py
"""

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

from clonemap.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden" / "synth_digests.json"
ARGV = ["--groups", "81", "--deaths", "0.1", "--births", "0.1", "--seed", "42"]
FILES = ("older_report.json", "newer_report.json", "truth.json", "manifest.json")
TREES = ("older_src", "newer_src")


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def tree_digest(root: Path) -> str:
    """One digest over a tree's sorted (relative name, bytes) pairs, each
    length-prefixed so that no two trees share a byte stream."""
    digest = hashlib.sha256()
    files = sorted((p.relative_to(root).as_posix(), p)
                   for p in root.rglob("*") if p.is_file())
    for name, path in files:
        data = path.read_bytes()
        encoded = name.encode("utf-8")
        digest.update(b"%d:%s%d:" % (len(encoded), encoded, len(data)))
        digest.update(data)
    return digest.hexdigest()


def synth_digests(out: Path) -> dict:
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        rc = main(["synth", "--out", str(out), *ARGV])
    if rc != 0:
        raise RuntimeError(f"synth exited {rc}")
    digests = {"stdout": _sha256(stdout.getvalue().encode("utf-8"))}
    digests.update((name, _sha256((out / name).read_bytes())) for name in FILES)
    digests.update((f"{tree}/", tree_digest(out / tree)) for tree in TREES)
    return digests


def test_synth_outputs_match_golden(tmp_path):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert golden["argv"] == ARGV
    expected = golden["sha256"]
    actual = synth_digests(tmp_path / "evo")
    moved = sorted(name for name in expected.keys() | actual.keys()
                   if expected.get(name) != actual.get(name))
    assert not moved, f"synth outputs moved from the golden: {', '.join(moved)}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        digests = synth_digests(Path(scratch) / "evo")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps({"argv": ARGV, "sha256": digests}, indent=2,
                                 sort_keys=True) + "\n", encoding="utf-8")
