"""Smoke test of the benchmark itself, on tiny fixtures.

Run from the root of a checkout:

    python3 perfbench/smoke.py

It checks that every workload, shrunk to a few groups, emits each metric
that BENCHMARK.json names, with its unit; that corrupted artifacts count as
failed runs; and that the benchmark refuses to run without the program's
sources. Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import run

sys.path.insert(0, str(run.SRC))

import fixtures  # noqa: E402


def require(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"smoke: FAIL: {message}")


def tiny(workload: fixtures.Workload) -> fixtures.Workload:
    config = replace(workload.config, group_count=10, fragments_per_group=(2, 3),
                     lines_per_fragment=(5, 10))
    return replace(workload, config=config)


def check_metrics(spec: dict) -> None:
    require([w["name"] for w in spec["workloads"]] == list(fixtures.WORKLOADS),
            "BENCHMARK.json workloads differ from fixtures.WORKLOADS")
    for workload in fixtures.WORKLOADS.values():
        result = run.measure(tiny(workload), seed=3, seconds=0, trace=True)
        require(result["correct"] and result["failed"] == 0,
                f"{workload.name}: failed runs {result['problems']}")
        for trace, key, measured in ((False, "end_to_end", "metrics"),
                                     (True, "per_layer", "layers")):
            named = [m["name"] for m in spec[key]]
            require(sorted(result[measured]) == sorted(named),
                    f"{workload.name}: measures {sorted(result[measured])}, "
                    f"BENCHMARK.json names {sorted(named)}")
            for name, metric in run.emit(result, trace)["metrics"].items():
                value = metric["value"]
                require(isinstance(value, (int, float)) and not isinstance(value, bool)
                        and math.isfinite(value), f"{workload.name}: {name} = {value!r}")
        print(f"smoke: ok: {workload.name} emits every metric")


def check_corruption() -> None:
    """Runs 2 and 3 get a subtly changed and a truncated verdict list."""
    original = run.invoke
    maps = 0

    def corrupting(work, mode, argv):
        nonlocal maps
        record = original(work, mode, argv)
        if mode != "map":
            return record
        maps += 1
        path = Path(work) / argv[argv.index("--out") + 1]
        doc = json.loads(path.read_text(encoding="utf-8"))
        if maps == 2:
            row = doc["mappings"][0]
            row["similarity"] = 0.25 if row["similarity"] == 0.5 else 0.5
        elif maps == 3:
            doc["mappings"].pop()
        path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        return record

    run.invoke = corrupting
    try:
        result = run.measure(tiny(fixtures.WORKLOADS["topic-wide"]), seed=4,
                             seconds=0, trace=False)
    finally:
        run.invoke = original
    require(result["attempted"] == 3 and result["failed"] == 2 and not result["correct"],
            f"corrupted artifacts not counted: {result['attempted']} attempted, "
            f"{result['failed']} failed")
    require(math.isclose(result["metrics"]["ok_share"], 1 / 3), "ok_share is not 1/3")
    print("smoke: ok: corrupted artifacts count as failed")


def check_refuses_without_sources() -> None:
    run.STATE.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=run.STATE))
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.HERE, bare / run.HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, f"{run.HERE.name}/run.py", "--workload", "topic-wide",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    require(proc.returncode != 0 and '"metrics"' not in proc.stdout,
            f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}")
    print("smoke: ok: refuses to run without src/clonemap")


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check_metrics(spec)
    check_corruption()
    check_refuses_without_sources()
    return 0


if __name__ == "__main__":
    sys.exit(main())
