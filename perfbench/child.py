"""One ``clonemap map`` process, measured from the inside.

Usage: python3 child.py RECORD MODE [MAP_ARGS...]

MODE is ``setup`` (import only), ``map`` or ``trace`` (map under the
benchmark tracer). The clonemap package must be importable, normally by
putting the checkout's ``src`` on PYTHONPATH. RECORD receives a JSON object
with the monotonic clock reading once ``clonemap.cli`` is imported, the
calibration probes taken right after it, the time spent in ``cli.main``
less the probes run during it, the probes to scale that time by, its exit
code, the process's peak RSS and, when traced, the spans.
"""

import json
import resource
import sys
import time

import clonemap.cli as cli

imported = time.monotonic()

BRACKET_PROBES = 5
MIN_SAMPLED_PROBES = 3


def main() -> int:
    record_path, mode, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    from calibration import Sampler, probe_s

    before = [probe_s() for _ in range(BRACKET_PROBES)]
    record = {"imported": imported, "clonemap": cli.__file__, "exit": 0,
              "setup_probes": before}
    tracer = None
    if mode == "trace":
        import tracer as tracing

        tracer = tracing.install()
    if mode != "setup":
        with Sampler() as sampler:
            start = time.perf_counter()
            record["exit"] = cli.main(argv)
            elapsed = time.perf_counter() - start
        record["map_s"] = elapsed - sampler.spent_s
        # Probes taken inside the map see the caches as the map leaves them;
        # a map too short to be sampled is scaled by probes around it.
        record["map_probes"] = (sampler.probes if len(sampler.probes) >= MIN_SAMPLED_PROBES
                                else before + [probe_s() for _ in range(BRACKET_PROBES)])
    if tracer is not None:
        record["trace"] = tracer.record()
    record["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    text = json.dumps(record)
    with open(record_path, "w", encoding="utf-8") as handle:
        handle.write(text)
    return 0 if record["exit"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
