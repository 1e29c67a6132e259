"""Command-line front end: map, eval, synth, and topics subcommands.

Exit codes: 0 success, 2 usage or configuration error, 3 parse or
validation error, 4 I/O error. Every artifact written embeds the resolved
run configuration and the tool version, so a run can be reproduced from
its own output.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .errors import CloneMapError, ConfigError, ValidationError, is_json_int, read_utf8
from .evaluation import SynthConfig, generate_evolution, load_ground_truth, score
from .ingest import parse_clone_report, resolve_snapshot
from .mapping import GroupMapping, MappingConfig, Strategy
from .preprocess import default_filter_config
from .pipeline import (
    artifact_header,
    build_documents,
    run_map,
    topic_dump_entries,
    write_json_artifact,
)
from .similarity import Metric
from .topicmodel import LdaConfig


def _add_filter_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--language", choices=["c", "java", "union"],
                        default="union",
                        help="keyword list to apply (default: union of both)")
    parser.add_argument("--keywords", metavar="PATH",
                        help="override the language keyword list file")
    parser.add_argument("--progwords", metavar="PATH",
                        help="override the programming-word list file")
    parser.add_argument("--stopwords", metavar="PATH",
                        help="override the English stop-word list file")


def _filter_config(args):
    return default_filter_config(
        language=args.language,
        keywords_path=args.keywords,
        progwords_path=args.progwords,
        stopwords_path=args.stopwords,
    )


def _filter_run_config(args) -> dict:
    return {
        "language": args.language,
        "keywords": args.keywords,
        "progwords": args.progwords,
        "stopwords": args.stopwords,
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clonemap",
        description="Map code-clone groups across software versions by "
                    "comparing per-group topic distributions.",
    )
    parser.add_argument("--version", action="version",
                        version=f"clonemap {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_map = sub.add_parser("map", help="map newer clone groups to older ones")
    p_map.add_argument("--newer", required=True, metavar="REPORT",
                       help="clone report of the newer version")
    p_map.add_argument("--older", required=True, metavar="REPORT",
                       help="clone report of the older version")
    p_map.add_argument("--source-newer", metavar="DIR",
                       help="source tree the newer report's paths resolve against")
    p_map.add_argument("--source-older", metavar="DIR",
                       help="source tree the older report's paths resolve against")
    p_map.add_argument("--delta", type=float, default=0.8,
                       help="similarity threshold (default 0.8)")
    p_map.add_argument("--metric", choices=[m.value for m in Metric],
                       default=Metric.COSINE.value)
    p_map.add_argument("--strategy", choices=[s.value for s in Strategy],
                       default=Strategy.TOPIC.value,
                       help="topic distributions or the LCS text baseline")
    p_map.add_argument("--topics", type=int, default=1, metavar="K",
                       help="topic count; 1 is exact per-group frequencies")
    p_map.add_argument("--iterations", type=int, default=1000,
                       help="Gibbs sweeps when K > 1")
    p_map.add_argument("--seed", type=int, default=42)
    p_map.add_argument("--injective", action="store_true",
                       help="forbid two newer groups sharing one origin")
    p_map.add_argument("--dump-topics", metavar="PATH",
                       help="also write per-group topic words to PATH")
    p_map.add_argument("--threads", type=int, default=1,
                       help="accepted and ignored: every stage runs on one "
                            "thread (kept in the artifact's config)")
    p_map.add_argument("--out", metavar="PATH",
                       help="write the mapping JSON artifact here")
    p_map.add_argument("--format", choices=["json", "table"], default="table",
                       help="stdout rendering (default: table)")
    _add_filter_flags(p_map)
    p_map.set_defaults(func=cmd_map)

    p_eval = sub.add_parser("eval",
                            help="score a mapping artifact against ground truth")
    p_eval.add_argument("--mapping", required=True, metavar="PATH",
                        help="mapping JSON produced by the map subcommand")
    p_eval.add_argument("--truth", required=True, metavar="PATH",
                        help="ground-truth JSON")
    p_eval.add_argument("--out", metavar="PATH",
                        help="write the evaluation JSON artifact here")
    p_eval.add_argument("--format", choices=["json", "table"], default="table")
    p_eval.set_defaults(func=cmd_eval)

    p_synth = sub.add_parser("synth",
                             help="generate a synthetic two-version evolution")
    p_synth.add_argument("--out", required=True, metavar="DIR")
    p_synth.add_argument("--groups", type=int, default=20)
    p_synth.add_argument("--fragments", type=int, nargs=2, default=[2, 4],
                         metavar=("LO", "HI"))
    p_synth.add_argument("--lines", type=int, nargs=2, default=[6, 12],
                         metavar=("LO", "HI"))
    p_synth.add_argument("--mix", type=float, nargs=4,
                         default=[0.4, 0.2, 0.25, 0.15],
                         metavar=("UNCHANGED", "TYPE1", "TYPE2", "TYPE3"),
                         help="mutation probabilities, must sum to 1")
    p_synth.add_argument("--edit-fraction", type=float, nargs=2,
                         default=[0.1, 0.3], metavar=("LO", "HI"),
                         help="statement fraction edited by type-3 mutations")
    p_synth.add_argument("--deaths", type=float, default=0.0,
                         help="fraction of older groups with no descendant")
    p_synth.add_argument("--births", type=float, default=0.0,
                         help="fraction of newer groups with no ancestor")
    p_synth.add_argument("--seed", type=int, default=42)
    p_synth.set_defaults(func=cmd_synth)

    p_topics = sub.add_parser("topics",
                              help="dump per-group topic words for one report")
    p_topics.add_argument("--report", required=True, metavar="PATH")
    p_topics.add_argument("--source", metavar="DIR",
                          help="source tree the report's paths resolve against")
    p_topics.add_argument("--out", metavar="PATH",
                          help="write the topic dump JSON here")
    p_topics.add_argument("--format", choices=["json", "table"],
                          default="table")
    _add_filter_flags(p_topics)
    p_topics.set_defaults(func=cmd_topics)

    return parser


def _print_table(text: str) -> None:
    """Print a table. A character stdout cannot encode, such as a lone
    surrogate from a JSON string escape, is written as a backslash escape,
    as Python does on stderr."""
    encoding = sys.stdout.encoding or "utf-8"
    print(text.encode(encoding, "backslashreplace").decode(encoding))


def _render_map_table(result: dict) -> str:
    scorer = ("lcs" if result.get("strategy") == "lcs"
              else f"metric {result['metric']}")
    lines = [f"mapping {result['newer']} -> {result['older']} "
             f"({scorer}, delta {result['delta']})"]
    lines.append(f"{'similarity':<14}{'new':>5}      {'old'}")
    for row in result["mappings"]:
        old = "null" if row["old_group"] is None else str(row["old_group"])
        lines.append(f"{row['similarity']:<14.10g}{row['new_group']:>5}  ->  {old}")
    unmatched = result["unmatched_old"]
    if unmatched:
        lines.append("unmatched old groups: "
                     + ", ".join(str(j) for j in unmatched))
    return "\n".join(lines)


def cmd_map(args) -> int:
    mapping_config = MappingConfig(
        delta=args.delta,
        metric=Metric(args.metric),
        strategy=Strategy(args.strategy),
        enforce_injective=args.injective,
    )
    lda_config = LdaConfig(K=args.topics, iterations=args.iterations,
                           seed=args.seed)
    run_config = {
        "subcommand": "map",
        "newer": args.newer,
        "older": args.older,
        "source_newer": args.source_newer,
        "source_older": args.source_older,
        "delta": args.delta,
        "metric": args.metric,
        "strategy": args.strategy,
        "topics": args.topics,
        "iterations": args.iterations,
        "seed": args.seed,
        "injective": args.injective,
        "threads": args.threads,
        "filters": _filter_run_config(args),
    }
    result = run_map(
        args.newer, args.older,
        source_newer=args.source_newer,
        source_older=args.source_older,
        filter_config=_filter_config(args),
        mapping_config=mapping_config,
        lda_config=lda_config,
        dump_topics_path=args.dump_topics,
        run_config=run_config,
    )
    if args.out:
        write_json_artifact(args.out, result)
    if args.format == "json":
        print(json.dumps(result, indent=2, sort_keys=True))
    else:
        _print_table(_render_map_table(result))
    return 0


def _mappings_from_artifact(doc: dict) -> list[GroupMapping]:
    if not isinstance(doc, dict):
        raise ValidationError("mapping artifact must be a JSON object")
    for key in ("newer", "older", "mappings"):
        if key not in doc:
            raise ValidationError(f"mapping artifact missing key {key!r}")
    if not isinstance(doc["mappings"], list):
        raise ValidationError("mapping artifact 'mappings' must be a list")
    newer = doc["newer"]
    older = doc["older"]
    out = []
    for row in doc["mappings"]:
        new = row.get("new_group") if isinstance(row, dict) else None
        if not is_json_int(new):
            raise ValidationError(
                f"mapping row needs an integer 'new_group': {row!r}"
            )
        old = row.get("old_group")
        if old is not None and not is_json_int(old):
            raise ValidationError(
                f"mapping row 'old_group' must be an integer or null: {row!r}"
            )
        out.append(GroupMapping(
            new_group=(newer, new),
            old_group=None if old is None else (older, old),
            similarity=row.get("similarity", 0.0),
        ))
    return out


def cmd_eval(args) -> int:
    mapping_doc = json.loads(read_utf8(args.mapping))
    truth = load_ground_truth(args.truth)
    mappings = _mappings_from_artifact(mapping_doc)
    report = score(mappings, truth)
    payload = {
        "newer": truth.newer_version,
        "older": truth.older_version,
        **report.to_dict(),
        **artifact_header({
            "subcommand": "eval",
            "mapping": args.mapping,
            "truth": args.truth,
        }),
    }
    if args.out:
        write_json_artifact(args.out, payload)
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(f"correct    {report.correct}")
        print(f"discovered {report.discovered}")
        print(f"actual     {report.actual}")
        print(f"precision  {report.precision:.6g}")
        print(f"recall     {report.recall:.6g}")
    return 0


def cmd_synth(args) -> int:
    config = SynthConfig(
        group_count=args.groups,
        fragments_per_group=tuple(args.fragments),
        lines_per_fragment=tuple(args.lines),
        p_unchanged=args.mix[0],
        p_type1=args.mix[1],
        p_type2=args.mix[2],
        p_type3=args.mix[3],
        type3_edit_fraction=tuple(args.edit_fraction),
        death_fraction=args.deaths,
        birth_fraction=args.births,
        seed=args.seed,
    )
    manifest = generate_evolution(config, args.out)
    print(json.dumps(manifest, indent=2, sort_keys=True))
    return 0


def cmd_topics(args) -> int:
    snapshot = resolve_snapshot(parse_clone_report(args.report), args.source)
    documents = build_documents(snapshot, _filter_config(args))
    entries = topic_dump_entries(snapshot.version_id, documents)
    payload = {
        "topics": entries,
        **artifact_header({
            "subcommand": "topics",
            "report": args.report,
            "source": args.source,
            "filters": _filter_run_config(args),
        }),
    }
    if args.out:
        write_json_artifact(args.out, payload)
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        lines = []
        for entry in entries:
            lines.append(f"group {entry['group']} of {entry['version']} "
                         f"({entry['total_tokens']} tokens)")
            for row in entry["words"]:
                lines.append(f"  {row['word']:<28}{row['count']:>5}  "
                             f"{row['weight']:.10g}")
        _print_table("\n".join(lines))
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"clonemap: configuration error: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"clonemap: malformed JSON: {exc}", file=sys.stderr)
        return 3
    except CloneMapError as exc:
        print(f"clonemap: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"clonemap: I/O error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
