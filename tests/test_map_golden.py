"""Golden digests of ``clonemap map --format json`` stdout on one fixture.

The fixture is one 40-group ``synth`` run with deaths and births. ``map``
runs from inside its directory with relative paths, so the artifact header
records the same paths on every machine. The cases cover the default
cosine map and every injective path: cosine and Hellinger at the default
``delta`` and at ``delta`` 0, where every birth contends for the lowest
older columns and the auction runs several rounds, and the LCS baseline,
plain and injective, at both. A birth shares no line with any older
group, so its LCS row is all 0.0: at ``delta`` 0 the plain map links it to
older group 0 and the injective auction hands it a free zero column.

After a change that moves map's bytes on purpose, regenerate the golden
from the repository root and say why in CHANGES.md:

    PYTHONPATH=src python3 tests/test_map_golden.py
"""

import contextlib
import hashlib
import io
import json
import os
import tempfile
from pathlib import Path

import numpy as np

from clonemap.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden" / "map_digests.json"
SYNTH_ARGV = ["--groups", "40", "--deaths", "0.1", "--births", "0.1",
              "--seed", "5"]
MAP_ARGV = ["map", "--newer", "newer_report.json", "--older", "older_report.json",
            "--source-newer", "newer_src", "--source-older", "older_src",
            "--format", "json"]
CASES = {
    "cosine": [],
    "injective": ["--injective"],
    "injective-delta0": ["--injective", "--delta", "0"],
    "hellinger-injective": ["--metric", "hellinger", "--injective"],
    "hellinger-injective-delta0": ["--metric", "hellinger", "--injective",
                                   "--delta", "0"],
    "lcs": ["--strategy", "lcs"],
    "lcs-delta0": ["--strategy", "lcs", "--delta", "0"],
    "lcs-injective": ["--strategy", "lcs", "--injective"],
    "lcs-injective-delta0": ["--strategy", "lcs", "--injective", "--delta", "0"],
}


def _run(argv) -> str:
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        rc = main(argv)
    if rc != 0:
        raise RuntimeError(f"{argv[0]} exited {rc}")
    return stdout.getvalue()


def map_digests(scratch: Path) -> dict:
    """Write the fixture under ``scratch`` and digest each case's stdout."""
    _run(["synth", "--out", str(scratch / "evo"), *SYNTH_ARGV])
    previous = os.getcwd()
    os.chdir(scratch / "evo")
    try:
        return {name: hashlib.sha256(
                    _run(MAP_ARGV + extra).encode("utf-8")).hexdigest()
                for name, extra in CASES.items()}
    finally:
        os.chdir(previous)


def test_map_outputs_match_golden(tmp_path):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert golden["synth_argv"] == SYNTH_ARGV
    assert golden["cases"] == {name: MAP_ARGV + extra
                               for name, extra in CASES.items()}
    expected = golden["sha256"]
    actual = map_digests(tmp_path)
    moved = sorted(name for name in expected.keys() | actual.keys()
                   if expected.get(name) != actual.get(name))
    assert not moved, (f"map outputs moved from the golden under numpy "
                       f"{np.__version__}: {', '.join(moved)}")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        digests = map_digests(Path(scratch))
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps({
        "synth_argv": SYNTH_ARGV,
        "cases": {name: MAP_ARGV + extra for name, extra in CASES.items()},
        "sha256": digests,
    }, indent=2, sort_keys=True) + "\n", encoding="utf-8")
