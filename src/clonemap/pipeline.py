"""End-to-end wiring: clone reports to documents, topics, mappings, JSON.

Everything the CLI does lives here as plain functions so library users and
the test suite can drive the identical pipeline without a subprocess.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from . import __version__
from .ingest import VersionSnapshot, parse_clone_report, resolve_snapshot
from .mapping import (
    GroupMapping,
    MappingConfig,
    Strategy,
    VersionTopics,
    baseline_text_map,
    map_version_pair,
    unmatched_old_groups,
)
from .preprocess import FilterConfig, TokenDocument, build_group_document, default_filter_config
from .topicmodel import LdaConfig, TopicBlock, build_corpus, fit_lda, frequency_blocks
# fit_group_topic is not called here but stays importable from this module,
# where perfbench/tracer.py looks it up.
from .topicmodel import fit_group_topic  # noqa: F401


def build_documents(snapshot: VersionSnapshot,
                    filter_config: FilterConfig) -> list[TokenDocument]:
    """One filtered token document per clone group, in index order."""
    return [build_group_document(g, filter_config, version_id=snapshot.version_id)
            for g in snapshot.groups]


def pair_topics(newer_docs: list[TokenDocument], older_docs: list[TokenDocument],
                newer_id: str, older_id: str,
                lda_config: LdaConfig | None = None,
                ) -> tuple[VersionTopics, VersionTopics]:
    """Topic blocks for both versions over one shared vocabulary.

    The default path computes exact one-topic frequencies per group. With
    K > 1 a corpus-wide Gibbs model is fit instead and each group is
    represented by its document-topic mixture. Either way an empty
    document gives an empty row.
    """
    if lda_config is not None and lda_config.K > 1:
        documents = list(newer_docs) + list(older_docs)
        theta = fit_lda(build_corpus(documents), lda_config).theta
        empty = np.array([doc.token_count == 0 for doc in documents])
        weights = np.where(empty[:, None], 0.0, theta)
        newer_block = TopicBlock.from_dense(weights[:len(newer_docs)])
        older_block = TopicBlock.from_dense(weights[len(newer_docs):])
    else:
        newer_block, older_block = frequency_blocks([newer_docs, older_docs])
    return (
        VersionTopics(newer_id, newer_block),
        VersionTopics(older_id, older_block),
    )


def topic_dump_entries(version_id: str,
                       documents: list[TokenDocument]) -> list[dict]:
    """Word/count/weight rows per group, heaviest words first."""
    entries = []
    for index, doc in enumerate(documents):
        total = doc.token_count
        words = [
            {"word": word, "count": count,
             "weight": count / total if total else 0.0}
            for word, count in sorted(doc.counts().items(),
                                      key=lambda kv: (-kv[1], kv[0]))
        ]
        entries.append(
            {"version": version_id, "group": index, "total_tokens": total,
             "words": words}
        )
    return entries


def write_json_artifact(path: Path | str, payload: dict) -> None:
    """Canonical JSON serialization: sorted keys, two-space indent.

    Identical payloads produce byte-identical files; nothing time- or
    path-dependent belongs in the payload.
    """
    Path(path).write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


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


def run_map(newer_report: Path | str, older_report: Path | str,
            source_newer: Path | str | None = None,
            source_older: Path | str | None = None,
            filter_config: FilterConfig | None = None,
            mapping_config: MappingConfig | None = None,
            lda_config: LdaConfig | None = None,
            dump_topics_path: Path | str | None = None,
            run_config: dict | None = None) -> dict:
    """Parse two reports, map newer groups to older ones, return the artifact.

    Reports may carry fragment text inline or reference files under the
    source roots. The LCS strategy scores raw concatenated text; the topic
    strategy scores per-group topic distributions over a shared vocabulary.
    """
    filter_config = filter_config or default_filter_config()
    mapping_config = mapping_config or MappingConfig()

    newer_snap = resolve_snapshot(parse_clone_report(newer_report), source_newer)
    older_snap = resolve_snapshot(parse_clone_report(older_report), source_older)

    newer_docs = older_docs = None
    if mapping_config.strategy is Strategy.LCS_BASELINE:
        mappings = baseline_text_map(newer_snap, older_snap, mapping_config)
    else:
        newer_docs = build_documents(newer_snap, filter_config)
        older_docs = build_documents(older_snap, filter_config)
        newer_topics, older_topics = pair_topics(
            newer_docs, older_docs, newer_snap.version_id,
            older_snap.version_id, lda_config,
        )
        mappings = map_version_pair(newer_topics, older_topics, mapping_config)

    if dump_topics_path is not None:
        if newer_docs is None:
            newer_docs = build_documents(newer_snap, filter_config)
            older_docs = build_documents(older_snap, filter_config)
        dump = {
            "topics": (
                topic_dump_entries(older_snap.version_id, older_docs)
                + topic_dump_entries(newer_snap.version_id, newer_docs)
            ),
            **artifact_header(run_config),
        }
        write_json_artifact(dump_topics_path, dump)

    return mapping_result(newer_snap.version_id, older_snap.version_id,
                          mappings, len(older_snap.groups), mapping_config,
                          run_config)
