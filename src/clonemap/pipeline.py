"""End-to-end wiring: clone reports to documents, topics, mappings, JSON.

Everything the CLI does lives here as plain functions so library users and
the test suite can drive the identical pipeline without a subprocess.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from .errors import EmptyDocumentError
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
from .topicmodel import LdaConfig, TopicDistribution, build_corpus, fit_group_topic, fit_lda


def build_documents(snapshot: VersionSnapshot, filter_config: FilterConfig,
                    threads: int = 1) -> list[TokenDocument]:
    """One filtered token document per clone group, in index order."""

    def build(group):
        return build_group_document(group, filter_config,
                                    version_id=snapshot.version_id)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(build, snapshot.groups))
    return [build(g) for g in snapshot.groups]


def fit_topics(documents: list[TokenDocument],
               corpus) -> list[TopicDistribution | None]:
    """Per-group one-topic distributions over the corpus vocabulary.

    Groups whose documents came out empty yield None; the mapper turns
    those into null verdicts with a warning.
    """

    def fit(doc):
        try:
            return fit_group_topic(doc, corpus)
        except EmptyDocumentError:
            return None

    return [fit(doc) for doc in documents]


def pair_topics(newer_docs: list[TokenDocument], older_docs: list[TokenDocument],
                newer_id: str, older_id: str,
                lda_config: LdaConfig | None = None,
                ) -> tuple[VersionTopics, VersionTopics]:
    """Topic vectors for both versions over one shared vocabulary.

    The default path computes exact one-topic frequencies per group. With
    K > 1 a corpus-wide Gibbs model is fit instead and each group is
    represented by its document-topic mixture; empty documents still map
    to None.
    """
    corpus = build_corpus(list(newer_docs) + list(older_docs))
    if lda_config is not None and lda_config.K > 1:
        result = fit_lda(corpus, lda_config)
        vectors: list[TopicDistribution | None] = []
        for d, doc in enumerate(newer_docs + older_docs):
            if doc.token_count == 0:
                vectors.append(None)
            else:
                vectors.append(TopicDistribution(weights=result.theta[d],
                                                 group_ref=doc.group_ref))
        newer_vecs = vectors[:len(newer_docs)]
        older_vecs = vectors[len(newer_docs):]
    else:
        newer_vecs = fit_topics(newer_docs, corpus)
        older_vecs = fit_topics(older_docs, corpus)
    return (
        VersionTopics(version_id=newer_id, topics=tuple(newer_vecs)),
        VersionTopics(version_id=older_id, topics=tuple(older_vecs)),
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


def mapping_result(newer_id: str, older_id: str, mappings: list[GroupMapping],
                   older_size: int, mapping_config: MappingConfig,
                   run_config: dict | None = None) -> dict:
    """The mapping artifact: verdicts plus the reproducibility header."""
    from . import __version__

    result = {
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
        "tool": {"name": "clonemap", "version": __version__},
    }
    if run_config is not None:
        result["config"] = run_config
    return result


def run_map(newer_report: Path | str, older_report: Path | str,
            source_newer: Path | str | None = None,
            source_older: Path | str | None = None,
            filter_config: FilterConfig | None = None,
            mapping_config: MappingConfig | None = None,
            lda_config: LdaConfig | None = None,
            threads: int = 1,
            dump_topics_path: Path | str | None = None,
            run_config: dict | None = None) -> dict:
    """Parse two reports, map newer groups to older ones, return the artifact.

    Reports may carry fragment text inline or reference files under the
    source roots. The LCS strategy scores raw concatenated text; the topic
    strategy scores per-group topic distributions over a shared vocabulary.
    """
    filter_config = filter_config or default_filter_config()
    mapping_config = mapping_config or MappingConfig()

    newer_snap = resolve_snapshot(
        parse_clone_report(newer_report, source_root=source_newer)
    )
    older_snap = resolve_snapshot(
        parse_clone_report(older_report, source_root=source_older)
    )

    newer_docs = older_docs = None
    if mapping_config.strategy is Strategy.LCS_BASELINE:
        mappings = baseline_text_map(newer_snap, older_snap, mapping_config,
                                     threads=threads)
    else:
        newer_docs = build_documents(newer_snap, filter_config, threads)
        older_docs = build_documents(older_snap, filter_config, threads)
        newer_topics, older_topics = pair_topics(
            newer_docs, older_docs, newer_snap.version_id,
            older_snap.version_id, lda_config,
        )
        mappings = map_version_pair(newer_topics, older_topics, mapping_config)

    if dump_topics_path is not None:
        if newer_docs is None:
            newer_docs = build_documents(newer_snap, filter_config, threads)
            older_docs = build_documents(older_snap, filter_config, threads)
        from . import __version__

        dump = {
            "tool": {"name": "clonemap", "version": __version__},
            "topics": (
                topic_dump_entries(older_snap.version_id, older_docs)
                + topic_dump_entries(newer_snap.version_id, newer_docs)
            ),
        }
        if run_config is not None:
            dump["config"] = run_config
        write_json_artifact(dump_topics_path, dump)

    return mapping_result(newer_snap.version_id, older_snap.version_id,
                          mappings, len(older_snap.groups), mapping_config,
                          run_config)
