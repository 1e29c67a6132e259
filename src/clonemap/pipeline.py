"""End-to-end wiring: clone reports to documents, topics, mappings, JSON.

Everything the CLI does lives here as plain functions so library users and
the test suite can drive the identical pipeline without a subprocess.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from . import __version__
from .errors import ValidationError, _at, _fields, _items
from .ingest import VersionSnapshot, parse_clone_report, resolve_snapshot
from .mapping import (
    GroupMapping,
    MappingConfig,
    Strategy,
    baseline_text_map,
    map_version_pair,
    unmatched_old_groups,
)
from .preprocess import FilterConfig, TokenDocument, build_group_document, default_filter_config
from .topicmodel import LdaConfig, TopicBlock, build_corpus, fit_lda, frequency_blocks
# fit_group_topic is not called here but stays importable from this module,
# where perfbench/tracer.py looks it up.
from .topicmodel import fit_group_topic  # noqa: F401


def texts(snapshot: VersionSnapshot,
          source_root: Path | str | None) -> Iterator[str]:
    """Resolve ``snapshot`` on the first ``next()``, then yield each
    group's fragment texts, joined by newlines, in index order. This is
    the one place a version is read, for both strategies. When the
    generator is exhausted it holds nothing, so the snapshot and its text
    go with the last reference outside it."""
    snapshot = resolve_snapshot(snapshot, source_root)
    text, bounds = snapshot.text, snapshot.bounds
    for lo, hi in zip(bounds, bounds[1:]):
        yield "\n".join(text[lo:hi])


def documents(snapshot: VersionSnapshot, source_root: Path | str | None,
              filter_config: FilterConfig) -> Iterator[TokenDocument]:
    """Each group's filtered token document in index order, built from
    ``texts``: the snapshot is resolved on the first ``next()``."""
    for text in texts(snapshot, source_root):
        yield build_group_document(text, filter_config)


def pair_topics(newer_docs: Iterable[TokenDocument],
                older_docs: Iterable[TokenDocument],
                lda_config: LdaConfig | None = None,
                ) -> tuple[TopicBlock, TopicBlock]:
    """Topic blocks for both versions over one shared vocabulary, newer
    first.

    Each version's documents are read once, newer first, so either may be
    a one-shot iterable such as a generator. The default path computes
    exact one-topic frequencies per group. With K > 1 a corpus-wide Gibbs
    model is fit instead and each group is represented by its
    document-topic mixture, and the uniform mixture the model gives an
    empty document is zeroed. Either way an empty document gives an empty
    row.
    """
    if lda_config is not None and lda_config.K > 1:
        docs = list(newer_docs)
        split = len(docs)
        docs += older_docs
        empty = np.array([doc.token_count == 0 for doc in docs])
        theta = fit_lda(build_corpus(docs), lda_config).theta
        weights = np.where(empty[:, None], 0.0, theta)
        newer_block = TopicBlock.from_dense(weights[:split])
        older_block = TopicBlock.from_dense(weights[split:])
    else:
        newer_block, older_block = frequency_blocks([newer_docs, older_docs])
    return newer_block, older_block


def topic_dump_entries(version_id: str,
                       documents: Iterable[TokenDocument]) -> list[dict]:
    """Word/count/weight rows per group, heaviest words first."""
    entries = []
    for index, doc in enumerate(documents):
        total = doc.token_count
        words = [
            {"word": word, "count": count, "weight": count / total}
            for word, count in sorted(doc.counts().items(),
                                      key=lambda kv: (-kv[1], kv[0]))
        ]
        entries.append(
            {"version": version_id, "group": index, "total_tokens": total,
             "words": words}
        )
    return entries


def canonical_json(payload: dict) -> str:
    """Canonical JSON text: sorted keys, two-space indent, one final newline.

    Identical payloads give identical text. No payload holds a clock
    reading; an artifact's ``config`` records its input paths as they
    were given, so the same command from the same directory gives the
    same bytes, and a path spelled otherwise gives other bytes.
    """
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def write_json_artifact(path: Path | str, payload: dict) -> None:
    """Write ``canonical_json(payload)`` to ``path`` as UTF-8."""
    Path(path).write_text(canonical_json(payload), encoding="utf-8")


def artifact_header(config: dict | None = None) -> dict:
    """The reproducibility header of every artifact: the tool name and
    version, plus the resolved run configuration when one is given."""
    header = {"tool": {"name": "clonemap", "version": __version__}}
    if config is not None:
        header["config"] = config
    return header


def mapping_result(newer_id: str, older_id: str, mappings: list[GroupMapping],
                   older_size: int, mapping_config: MappingConfig,
                   run_config: dict | None = None) -> dict:
    """The mapping artifact: verdicts plus the reproducibility header."""
    return {
        "newer": newer_id,
        "older": older_id,
        "strategy": mapping_config.strategy.value,
        "metric": mapping_config.metric.value,
        "delta": mapping_config.delta,
        "mappings": [
            {
                "new_group": m.new_group[1],
                "old_group": None if m.old_group is None else m.old_group[1],
                "similarity": m.similarity,
            }
            for m in mappings
        ],
        "unmatched_old": unmatched_old_groups(mappings, older_size),
        **artifact_header(run_config),
    }


def mappings_from_artifact(doc: dict) -> list[GroupMapping]:
    """The verdicts of a mapping artifact, the inverse of ``mapping_result``.

    Checks only the document's shape, through the shared
    ``errors._fields`` and ``errors._items``: an object with ``newer``,
    ``older`` and a ``mappings`` list of row objects, each with
    ``new_group``, ``old_group`` and ``similarity``. ``GroupMapping``
    checks every value, and its error is prefixed with the row's position,
    ``mapping row i: ``.
    """
    newer, older, rows = _fields(doc, "mapping artifact",
                                 ("newer", "older", "mappings"), ValidationError)
    mappings = []
    for pos, row in enumerate(_items(rows, "mapping artifact 'mappings'",
                                     ValidationError)):
        where = f"mapping row {pos}"
        new, old, similarity = _fields(
            row, where, ("new_group", "old_group", "similarity"), ValidationError)
        mappings.append(_at(where, GroupMapping, (newer, new),
                            None if old is None else (older, old), similarity))
    return mappings


def run_map(newer_report: Path | str, older_report: Path | str,
            source_newer: Path | str | None = None,
            source_older: Path | str | None = None,
            filter_config: FilterConfig | None = None,
            mapping_config: MappingConfig | None = None,
            lda_config: LdaConfig | None = None,
            run_config: dict | None = None) -> dict:
    """Parse two reports, map newer groups to older ones, return the artifact.

    Reports may carry fragment text inline or reference files under the
    source roots. Both reports are parsed before either version is read.
    Then both strategies read one version at a time through ``texts``,
    newer first, and the newer version's text, inline text included, is
    released before the older one is read. The LCS strategy keeps each
    group's raw text as line ids; the topic strategy tokenizes and counts
    it and scores per-group topic distributions over a shared vocabulary.
    """
    filter_config = filter_config or default_filter_config()
    mapping_config = mapping_config or MappingConfig()

    newer = parse_clone_report(newer_report)
    older = parse_clone_report(older_report)
    ids = newer.version_id, older.version_id
    older_size = len(older.bounds) - 1
    # Each name is rebound to its report's one reader, so nothing else
    # holds a parsed report and the newer version's inline text goes once
    # its reader is exhausted.
    if mapping_config.strategy is Strategy.LCS_BASELINE:
        newer, older = texts(newer, source_newer), texts(older, source_older)
        mappings = baseline_text_map(newer, older, *ids, mapping_config)
    else:
        newer, older = (documents(newer, source_newer, filter_config),
                        documents(older, source_older, filter_config))
        mappings = map_version_pair(*pair_topics(newer, older, lda_config),
                                    *ids, mapping_config)
    return mapping_result(*ids, mappings, older_size, mapping_config,
                          run_config)
