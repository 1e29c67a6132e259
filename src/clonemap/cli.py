"""Command-line front end: map, eval, synth, and topics subcommands.

Exit codes: 0 success, 2 usage or configuration error, 3 parse or
validation error, 4 I/O error. Every artifact written embeds the resolved
run configuration and the tool version, so a run can be reproduced from
its own output.
"""

from __future__ import annotations

import argparse
import gc
import sys

from . import __version__
from .errors import CloneMapError, ConfigError, json_document, read_utf8
from .ingest import parse_clone_report
from .mapping import MappingConfig, Metric, Strategy
from .preprocess import default_filter_config
from .pipeline import (
    artifact_header,
    canonical_json,
    documents,
    run_map,
    topic_dump_entries,
    write_json_artifact,
)
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


_FILTER_FLAGS = ("language", "keywords", "progwords", "stopwords")
# Parsed values that only route output, and the handler; every other one
# goes into ``config``.
_OUTPUT_FLAGS = ("out", "format", "func")


def _run_config(args) -> dict:
    """The artifact's ``config``: every parsed value of the subcommand
    except the output routing, with the word-list flags under
    ``filters``."""
    values = {k: v for k, v in vars(args).items() if k not in _OUTPUT_FLAGS}
    filters = {k: values.pop(k) for k in _FILTER_FLAGS if k in values}
    return {**values, "filters": filters} if filters else values


def _add_map_options(p_map: argparse.ArgumentParser) -> None:
    # Each default is read off its config dataclass, so it is stated once.
    mapping, lda = MappingConfig(), LdaConfig()
    p_map.add_argument("--newer", required=True, metavar="REPORT",
                       help="clone report of the newer version")
    p_map.add_argument("--older", required=True, metavar="REPORT",
                       help="clone report of the older version")
    p_map.add_argument("--source-newer", metavar="DIR",
                       help="source tree the newer report's paths resolve against")
    p_map.add_argument("--source-older", metavar="DIR",
                       help="source tree the older report's paths resolve against")
    p_map.add_argument("--delta", type=float, default=mapping.delta,
                       help="similarity threshold (default %(default)s)")
    p_map.add_argument("--metric", choices=[m.value for m in Metric],
                       default=mapping.metric.value)
    p_map.add_argument("--strategy", choices=[s.value for s in Strategy],
                       default=mapping.strategy.value,
                       help="topic distributions or the LCS text baseline")
    p_map.add_argument("--topics", type=int, default=lda.K, metavar="K",
                       help="topic count; 1 is exact per-group frequencies")
    p_map.add_argument("--iterations", type=int, default=lda.iterations,
                       help="Gibbs sweeps when K > 1")
    p_map.add_argument("--seed", type=int, default=lda.seed)
    p_map.add_argument("--injective", action="store_true",
                       help="forbid two newer groups sharing one origin")
    p_map.add_argument("--threads", type=int, default=1,
                       help="accepted and ignored (kept in the artifact's "
                            "config): every stage runs on one thread, and "
                            "whether a K=1 topic map forks one child depends "
                            "only on the versions' size and the machine")
    p_map.add_argument("--out", metavar="PATH",
                       help="write the mapping JSON artifact here")
    p_map.add_argument("--format", choices=["json", "table"], default="table",
                       help="stdout rendering (default: table)")
    _add_filter_flags(p_map)
    p_map.set_defaults(func=cmd_map)


def _add_eval_options(p_eval: argparse.ArgumentParser) -> None:
    p_eval.add_argument("--mapping", required=True, metavar="PATH",
                        help="mapping JSON produced by the map subcommand")
    p_eval.add_argument("--truth", required=True, metavar="PATH",
                        help="ground-truth JSON")
    p_eval.add_argument("--out", metavar="PATH",
                        help="write the evaluation JSON artifact here")
    p_eval.add_argument("--format", choices=["json", "table"], default="table")
    p_eval.set_defaults(func=cmd_eval)


def _add_synth_options(p_synth: argparse.ArgumentParser) -> None:
    # A synth flag not given is left out of the namespace (the subparser's
    # ``argument_default`` is SUPPRESS), and cmd_synth passes each given one
    # to its SynthConfig field: the defaults are SynthConfig's own, without
    # loading it to build the parser.
    p_synth.add_argument("--out", required=True, metavar="DIR")
    p_synth.add_argument("--groups", type=int, dest="group_count",
                         metavar="GROUPS")
    p_synth.add_argument("--fragments", type=int, nargs=2,
                         dest="fragments_per_group", metavar=("LO", "HI"))
    p_synth.add_argument("--lines", type=int, nargs=2,
                         dest="lines_per_fragment", metavar=("LO", "HI"))
    p_synth.add_argument("--mix", type=float, nargs=4,
                         metavar=("UNCHANGED", "TYPE1", "TYPE2", "TYPE3"),
                         help="mutation probabilities, must sum to 1")
    p_synth.add_argument("--edit-fraction", type=float, nargs=2,
                         dest="type3_edit_fraction", metavar=("LO", "HI"),
                         help="statement fraction edited by type-3 mutations")
    p_synth.add_argument("--deaths", type=float, dest="death_fraction",
                         metavar="DEATHS",
                         help="fraction of older groups with no descendant")
    p_synth.add_argument("--births", type=float, dest="birth_fraction",
                         metavar="BIRTHS",
                         help="fraction of newer groups with no ancestor")
    p_synth.add_argument("--seed", type=int)
    p_synth.set_defaults(func=cmd_synth)


def _add_topics_options(p_topics: argparse.ArgumentParser) -> None:
    p_topics.add_argument("--report", required=True, metavar="PATH")
    p_topics.add_argument("--source", metavar="DIR",
                          help="source tree the report's paths resolve against")
    p_topics.add_argument("--out", metavar="PATH",
                          help="write the topic dump JSON here")
    p_topics.add_argument("--format", choices=["json", "table"],
                          default="table")
    _add_filter_flags(p_topics)
    p_topics.set_defaults(func=cmd_topics)


# Each subcommand: its ``add_parser`` keywords and the function that adds
# its options.
_SUBCOMMANDS = {
    "map": ({"help": "map newer clone groups to older ones"},
            _add_map_options),
    "eval": ({"help": "score a mapping artifact against ground truth"},
             _add_eval_options),
    "synth": ({"help": "generate a synthetic two-version evolution",
               "argument_default": argparse.SUPPRESS},
              _add_synth_options),
    "topics": ({"help": "dump per-group topic words for one report"},
               _add_topics_options),
}


def _subcommand(argv: list[str]) -> str | None:
    """The first entry of ``argv`` that names a subcommand, or None.
    argparse runs the subcommand that the first positional entry names,
    and no top-level option takes a value; so where the two differ, the
    first positional names no subcommand and parsing fails at the top
    level, whichever subparser has options."""
    return next((arg for arg in argv if arg in _SUBCOMMANDS), None)


def build_parser(command: str | None) -> argparse.ArgumentParser:
    """The clonemap parser with the options of ``command`` alone, or of
    every subcommand when it is None. The other subcommands stay bare
    entries, so the top-level help and usage and every top-level error
    read the same either way."""
    parser = argparse.ArgumentParser(
        prog="clonemap",
        description="Map code-clone groups across software versions by "
                    "comparing per-group topic distributions.",
    )
    parser.add_argument("--version", action="version",
                        version=f"clonemap {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (keywords, add_options) in _SUBCOMMANDS.items():
        subparser = sub.add_parser(name, **keywords)
        if command is None or command == name:
            add_options(subparser)
    return parser


def _print_table(text: str) -> None:
    """Print a table. A character stdout cannot encode, such as a lone
    surrogate from a JSON string escape, is written as a backslash escape,
    as Python does on stderr."""
    encoding = sys.stdout.encoding or "utf-8"
    print(text.encode(encoding, "backslashreplace").decode(encoding))


def _emit(args, payload: dict, render_table) -> int:
    """Write the artifact to ``--out`` when one is given (an empty path
    fails as any unwritable one does), then print it: as canonical JSON,
    or as the table ``render_table(payload)``."""
    text = (None if args.out is None
            else write_json_artifact(args.out, payload))
    if args.format == "json":
        sys.stdout.write(canonical_json(payload) if text is None else text)
    else:
        _print_table(render_table(payload))
    return 0


def _render_map_table(result: dict) -> str:
    scorer = ("lcs" if result["strategy"] == "lcs"
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
    result = run_map(
        args.newer, args.older,
        source_newer=args.source_newer,
        source_older=args.source_older,
        filter_config=_filter_config(args),
        mapping_config=mapping_config,
        lda_config=lda_config,
        run_config=_run_config(args),
    )
    return _emit(args, result, _render_map_table)


def _render_eval_table(payload: dict) -> str:
    return "\n".join([
        f"correct    {payload['correct']}",
        f"discovered {payload['discovered']}",
        f"actual     {payload['actual']}",
        f"precision  {payload['precision']:.6g}",
        f"recall     {payload['recall']:.6g}",
    ])


def cmd_eval(args) -> int:
    from .evaluation import load_ground_truth, mappings_from_artifact, score

    mapping_doc = json_document(read_utf8(args.mapping), args.mapping)
    truth = load_ground_truth(args.truth)
    mappings = mappings_from_artifact(mapping_doc)
    report = score(mappings, truth)
    # After the rows, whose errors name the row: a mapping without rows
    # names neither version, and one of null verdicts no older version,
    # so only the header can show those mismatches.
    truth.check_versions(mapping_doc["newer"], mapping_doc["older"])
    payload = {
        "newer": truth.newer_version,
        "older": truth.older_version,
        **report.to_dict(),
        **artifact_header(_run_config(args)),
    }
    return _emit(args, payload, _render_eval_table)


def cmd_synth(args) -> int:
    from .evaluation import SynthConfig, generate_evolution

    # ``args`` holds only the flags given, each under its field's name but
    # ``--mix``, which sets the four mutation probabilities.
    given = {k: tuple(v) if isinstance(v, list) else v
             for k, v in vars(args).items()
             if k not in ("subcommand", "out", "func")}
    given.update(zip(("p_unchanged", "p_type1", "p_type2", "p_type3"),
                     given.pop("mix", ())))
    config = SynthConfig(**given)
    sys.stdout.write(canonical_json(generate_evolution(config, args.out)))
    return 0


def _render_topics_table(payload: dict) -> str:
    lines = []
    for entry in payload["topics"]:
        lines.append(f"group {entry['group']} of {entry['version']} "
                     f"({entry['total_tokens']} tokens)")
        for row in entry["words"]:
            lines.append(f"  {row['word']:<28}{row['count']:>5}  "
                         f"{row['weight']:.10g}")
    return "\n".join(lines)


def cmd_topics(args) -> int:
    snapshot = parse_clone_report(args.report)
    entries = topic_dump_entries(
        snapshot.version_id,
        documents(snapshot, args.source, _filter_config(args)))
    payload = {
        "topics": entries,
        **artifact_header(_run_config(args)),
    }
    return _emit(args, payload, _render_topics_table)


def main(argv=None) -> int:
    """Run the command line ``argv`` (default ``sys.argv[1:]``) and return
    its exit code; a usage error exits 2 from argparse.

    Only the subcommand named in ``argv`` gets its options built, since a
    fresh process runs one command. The command runs with every object
    alive after parsing, the import-time heap included, moved out of the
    cyclic collector's generations by ``gc.freeze()``, so a collection
    during the command walks only what the command allocated. It freezes
    only when nothing is frozen yet, and then the ``finally`` unfreezes on
    every way out; a caller that froze its own heap keeps that freeze. So
    an in-process caller gets its collector back as it left it.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(_subcommand(argv)).parse_args(argv)
    freeze = gc.get_freeze_count() == 0
    if freeze:
        gc.freeze()
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"clonemap: configuration error: {exc}", file=sys.stderr)
        return 2
    except CloneMapError as exc:
        print(f"clonemap: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"clonemap: I/O error: {exc}", file=sys.stderr)
        return 4
    finally:
        if freeze:
            gc.unfreeze()


if __name__ == "__main__":
    sys.exit(main())
