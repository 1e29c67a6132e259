"""Benchmark of ``clonemap map`` on seeded synthetic clone evolutions.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The run builds the workload's fixture from the seed, then measures a closed
loop of one client: one ``clonemap map --threads 1`` process at a time,
each followed by SETUP_RUNS_PER_MAP import-only processes. The loop repeats
while another cycle fits in S seconds, and at least MIN_MAP_RUNS times.
Every artifact is checked; a nonzero exit or any failed check makes that
run count as failed. Timings are scaled to a reference host speed by the
probes in calibration.py. With ``--trace 1`` one more process runs the
same map under the benchmark tracer, and the per-layer metrics replace the
end-to-end ones in the result.

The last line of stdout is the result as one JSON object. The lines before
it record the environment and the samples; the full record, spans and raw
timings included, is also written under ``.perfbench/out``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy

from calibration import scaled

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"

MIN_MAP_RUNS = 3
SETUP_RUNS_PER_MAP = 2
CHILD_TIMEOUT_S = 150
LIMITS = ("shared machine; no CPU pinning, no cache control, no machine "
          "settings changed")

NEAR_DELTA = 0.05


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "load_start": os.getloadavg(),
        "limits": LIMITS,
    }


def invoke(work: Path, mode: str, argv: list[str]) -> dict:
    """Run child.py once in ``work``; return its record plus the parent's view."""
    record_path = work / f"record-{time.monotonic_ns()}.json"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), str(record_path), mode, *argv],
        cwd=work, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        text=True, timeout=CHILD_TIMEOUT_S,
    )
    wall = time.monotonic() - start
    record = {}
    if record_path.exists():
        try:
            record = json.loads(record_path.read_text(encoding="utf-8"))
        except ValueError:
            pass
        record_path.unlink()
    record.update(returncode=proc.returncode, wall_s=wall,
                  stderr=proc.stderr[-2000:])
    if "imported" in record:
        record["setup_s"] = record["imported"] - start
    return record


def check_artifact(data: bytes, newer_count: int, older_count: int, truth):
    """Problems found in one mapping artifact, and its evaluation report."""
    from clonemap import CloneMapError, GroupMapping, score

    try:
        doc = json.loads(data)
        rows = doc["mappings"]
        newer, older = doc["newer"], doc["older"]
        mappings = [
            GroupMapping(
                new_group=(newer, row["new_group"]),
                old_group=None if row["old_group"] is None else (older, row["old_group"]),
                similarity=row["similarity"],
            )
            for row in rows
        ]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable artifact: {exc!r}"], None
    problems = []
    if sorted(m.new_group[1] for m in mappings) != list(range(newer_count)):
        problems.append("not exactly one verdict per newer group")
    if not all(isinstance(m.similarity, (int, float)) and 0.0 <= m.similarity <= 1.0
               for m in mappings):
        problems.append("similarity outside [0, 1]")
    chosen = {m.old_group[1] for m in mappings if m.old_group is not None}
    if not chosen <= set(range(older_count)):
        problems.append("verdict names an older group that does not exist")
    if doc.get("unmatched_old") != [j for j in range(older_count) if j not in chosen]:
        problems.append("unmatched_old disagrees with the verdicts")
    try:
        report = score(mappings, truth)
    except CloneMapError as exc:
        return problems + [f"evaluation failed: {exc}"], None
    return problems, report


def map_argv(workload, out: str) -> list[str]:
    return ["map",
            "--newer", "fixture/newer_report.json",
            "--older", "fixture/older_report.json",
            "--source-newer", "fixture/newer_src",
            "--source-older", "fixture/older_src",
            "--threads", "1", *workload.map_flags, "--out", out]


def measure(workload, seed: int, seconds: float, trace: bool) -> dict:
    """Build the fixture, run the closed loop, check every artifact."""
    from clonemap import load_ground_truth

    import fixtures

    env = environment()
    STATE.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-{seed}-", dir=STATE))
    try:
        generate_s = fixtures.build_fixture(workload, seed, work / "fixture")
        truth = load_ground_truth(work / "fixture" / "truth.json")
        counts = {}
        for version in ("newer", "older"):
            doc = json.loads((work / "fixture" / f"{version}_report.json").read_text())
            counts[version] = len(doc["groups"])
        (work / "out").mkdir()

        invoke(work, "setup", [])  # fills the bytecode and page caches
        setup = []
        runs = []
        reference = None
        report = None
        start = time.monotonic()

        def run_once(mode: str) -> dict:
            nonlocal reference, report
            out = f"out/{mode}-{len(runs)}.json"
            record = invoke(work, mode, map_argv(workload, out))
            problems = []
            if record["returncode"] != 0 or "map_s" not in record:
                problems.append(f"exit {record['returncode']}: {record['stderr'][-300:]}")
            elif not Path(record["clonemap"]).resolve().is_relative_to(SRC):
                problems.append(f"ran clonemap from {record['clonemap']}")
            else:
                data = (work / out).read_bytes()
                record["artifact_bytes"] = len(data)
                problems, checked = check_artifact(data, counts["newer"], counts["older"], truth)
                if not problems:
                    if reference is None:
                        reference, report = data, checked
                    elif data != reference:
                        problems.append("artifact differs from the first run's bytes")
                if not problems and mode == "trace":
                    record["artifact"] = json.loads(data)
            record["problems"] = problems
            runs.append(record)
            return record

        # Import-only processes are interleaved with the maps so that both
        # sample the same stretch of host time.
        while (len(runs) < MIN_MAP_RUNS
               or time.monotonic() - start + cycle_s <= seconds):
            cycle = time.monotonic()
            run_once("map")
            setup.extend(invoke(work, "setup", []) for _ in range(SETUP_RUNS_PER_MAP))
            cycle_s = time.monotonic() - cycle
        traced = run_once("trace") if trace else None
    finally:
        shutil.rmtree(work, ignore_errors=True)
    env["load_end"] = os.getloadavg()

    good = [r for r in runs if not r["problems"] and "trace" not in r]
    failed = sum(1 for r in runs if r["problems"])
    timed_setup = [r for r in setup + runs if "setup_s" in r and "setup_probes" in r]
    result = {
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "env": env,
        "problems": [p for r in runs for p in r["problems"]],
        "samples": {
            "map_s": [r.get("map_s") for r in runs],
            "map_probes": [r.get("map_probes") for r in runs],
            "setup_s": [r["setup_s"] for r in timed_setup],
            "setup_probes": [r["setup_probes"] for r in timed_setup],
            "peak_rss_mb": [r["maxrss_kb"] / 1024 for r in runs if "maxrss_kb" in r],
        },
    }
    if not good:
        return result
    map_s = statistics.median(scaled(r["map_s"], r["map_probes"]) for r in good)
    result["raw"] = {"map_s": statistics.median(r["map_s"] for r in good),
                     "setup_s": statistics.median(r["setup_s"] for r in timed_setup)}
    result["metrics"] = {
        "map_s": map_s,
        "setup_s": statistics.median(scaled(r["setup_s"], r["setup_probes"])
                                     for r in timed_setup),
        "peak_rss_mb": statistics.median(r["maxrss_kb"] / 1024 for r in good),
        "precision": report.precision,
        "recall": report.recall,
        "ok_share": (len(runs) - failed) / len(runs),
    }
    if traced is not None and not traced["problems"]:
        import tracer

        layers = tracer.layer_metrics(traced["trace"])
        artifact = traced["artifact"]
        verdicts = artifact["mappings"]
        layers.update({
            "mapping.links": sum(v["old_group"] is not None for v in verdicts),
            "mapping.nulls": sum(v["old_group"] is None for v in verdicts),
            "mapping.near_delta": sum(abs(v["similarity"] - artifact["delta"]) <= NEAR_DELTA
                                      for v in verdicts),
            "pipeline.artifact_bytes": traced["artifact_bytes"],
            "trace.overhead_s": scaled(traced["map_s"], traced["map_probes"]) - map_s,
            "evaluation.generate_s": generate_s,
        })
        result["layers"] = layers
        result["spans"] = traced["trace"]
    return result


def emit(result: dict, trace: bool) -> dict:
    """The result line: the metrics BENCHMARK.json names, each with its unit."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    named = spec["per_layer"] if trace else spec["end_to_end"]
    values = result["layers"] if trace else result["metrics"]
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in named},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "clonemap" / "__init__.py").is_file():
        print(f"perfbench: no clonemap sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import fixtures

    if args.workload not in fixtures.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(fixtures.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = fixtures.WORKLOADS[args.workload]
    result = measure(workload, args.seed, args.seconds, bool(args.trace))

    out = STATE / "out" / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    print(json.dumps({"env": result["env"]}))
    print(json.dumps({"samples": result["samples"]}))
    for problem in result["problems"]:
        print(f"failed run: {problem}")
    if "metrics" not in result or (args.trace and "layers" not in result):
        print("perfbench: no passing run to report on", file=sys.stderr)
        return 1
    if args.trace:
        for span in result["spans"]["spans"]:
            print(f"span {span['name']:<32} self {span['self_s']:9.4f} s  "
                  f"total {span['end_s'] - span['start_s']:9.4f} s")
        for call in result["spans"]["calls"]:
            print(f"calls {call['name']:<31} n {call['count']:>8}  total {call['s']:9.4f} s")
    print(json.dumps(emit(result, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
