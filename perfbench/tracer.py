"""Benchmark-side tracing of one ``clonemap map`` invocation.

``install`` replaces each layer's public functions under the names through
which ``cli``, ``pipeline``, ``preprocess`` and ``mapping`` call them, so the
program's own code is untouched. Stage-level calls (one per version or one
per run) become spans with a parent; per-group and per-pair calls are
folded into a count and a total time under the span that was open when they
ran. Everything is kept in memory and returned by ``Tracer.record``.
"""

from __future__ import annotations

import time
from collections import Counter

import numpy as np

import clonemap.cli as cli
import clonemap.mapping as mapping
import clonemap.pipeline as pipeline
import clonemap.preprocess as preprocess

_clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.calls: dict[tuple[str, int | None], list] = {}
        self.counts: Counter = Counter()
        self._open: list[int] = []

    def stage(self, module, attr: str, name: str, observe=None) -> None:
        """Wrap ``module.attr`` so that every call is one span."""
        fn = getattr(module, attr)

        def traced(*args, **kwargs):
            span = {"id": len(self.spans), "name": name,
                    "parent": self._open[-1] if self._open else None,
                    "start": _clock()}
            self.spans.append(span)
            self._open.append(span["id"])
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = _clock()
                self._open.pop()
            if observe is not None:
                observe(self.counts, args, result)
            return result

        setattr(module, attr, traced)

    def each(self, module, attr: str, name: str, observe=None) -> None:
        """Wrap ``module.attr`` so that calls add to a count and a total."""
        fn = getattr(module, attr)

        def traced(*args, **kwargs):
            key = (name, self._open[-1] if self._open else None)
            start = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                total = self.calls.setdefault(key, [0, 0.0])
                total[0] += 1
                total[1] += _clock() - start
            if observe is not None:
                observe(self.counts, args, result)
            return result

        setattr(module, attr, traced)

    def record(self) -> dict:
        """Spans relative to the first one, each with its self time."""
        origin = self.spans[0]["start"] if self.spans else 0.0
        covered = Counter()
        for span in self.spans:
            if span["parent"] is not None:
                covered[span["parent"]] += span["end"] - span["start"]
        for (_, parent), (_, seconds) in self.calls.items():
            if parent is not None:
                covered[parent] += seconds
        spans = [
            {"id": s["id"], "name": s["name"], "parent": s["parent"],
             "start_s": s["start"] - origin, "end_s": s["end"] - origin,
             "self_s": s["end"] - s["start"] - covered[s["id"]]}
            for s in self.spans
        ]
        calls = [{"name": name, "parent": parent, "count": count, "s": seconds}
                 for (name, parent), (count, seconds) in self.calls.items()]
        return {"spans": spans, "calls": calls, "counts": dict(self.counts)}


def _resolved(counts, args, snapshot):
    for group in snapshot.groups:
        for fragment in group.fragments:
            counts["fragments"] += 1
            counts["chars"] += len(fragment.text)


def _stripped(counts, args, result):
    counts["strip_chars"] += len(args[0])


def _tokenized(counts, args, document):
    counts["tokens_kept"] += document.token_count
    counts["empty_groups"] += int(document.token_count == 0)


def _corpus(counts, args, corpus):
    counts["vocab"] = corpus.vocabulary_size
    counts["documents"] = len(corpus.documents)


def _topic(counts, args, topic):
    counts["nnz"] += int(np.count_nonzero(topic.weights))


def _scored(counts, args, score):
    counts["nonzero_pairs"] += int(score > 0.0)
    counts["exact_one"] += int(score == 1.0)


def install() -> Tracer:
    """Trace one run of ``cli.main``; call before invoking it."""
    tracer = Tracer()
    tracer.stage(cli, "main", "cli.main")
    tracer.stage(cli, "run_map", "pipeline.run_map")
    tracer.stage(cli, "write_json_artifact", "pipeline.write_json_artifact")
    tracer.stage(pipeline, "parse_clone_report", "ingest.parse_clone_report")
    tracer.stage(pipeline, "resolve_snapshot", "ingest.resolve_snapshot", _resolved)
    tracer.stage(pipeline, "build_corpus", "topicmodel.build_corpus", _corpus)
    tracer.stage(pipeline, "map_version_pair", "mapping.map_version_pair")
    tracer.stage(pipeline, "baseline_text_map", "mapping.baseline_text_map")
    tracer.each(preprocess, "strip_comments", "preprocess.strip_comments", _stripped)
    tracer.each(preprocess, "tokenize", "preprocess.tokenize", _tokenized)
    tracer.each(pipeline, "fit_group_topic", "topicmodel.fit_group_topic", _topic)
    tracer.each(mapping, "topic_similarity", "similarity.topic_similarity", _scored)
    tracer.each(mapping, "lcs_similarity", "similarity.lcs_similarity", _scored)
    return tracer


def layer_metrics(trace: dict) -> dict[str, float]:
    """Per-layer totals and counts from a ``Tracer.record``."""
    span_s = Counter()
    self_s = Counter()
    for span in trace["spans"]:
        span_s[span["name"]] += span["end_s"] - span["start_s"]
        self_s[span["name"]] += span["self_s"]
    call_s = Counter()
    call_n = Counter()
    for call in trace["calls"]:
        call_s[call["name"]] += call["s"]
        call_n[call["name"]] += call["count"]
    counts = Counter(trace["counts"])

    strip_s = call_s["preprocess.strip_comments"]
    tokenize_s = call_s["preprocess.tokenize"]
    similarity_s = call_s["similarity.topic_similarity"] + call_s["similarity.lcs_similarity"]
    similarity_calls = call_n["similarity.topic_similarity"] + call_n["similarity.lcs_similarity"]
    map_s = span_s["mapping.map_version_pair"] + span_s["mapping.baseline_text_map"]
    preprocess_s = strip_s + tokenize_s
    return {
        "ingest.parse_s": span_s["ingest.parse_clone_report"],
        "ingest.resolve_s": span_s["ingest.resolve_snapshot"],
        "ingest.fragments": counts["fragments"],
        "ingest.chars": counts["chars"],
        "preprocess.strip_s": strip_s,
        "preprocess.tokenize_s": tokenize_s,
        "preprocess.chars_per_s": counts["strip_chars"] / preprocess_s if preprocess_s else 0.0,
        "preprocess.tokens_kept": counts["tokens_kept"],
        "preprocess.empty_groups": counts["empty_groups"],
        "topicmodel.corpus_s": span_s["topicmodel.build_corpus"],
        "topicmodel.fit_s": call_s["topicmodel.fit_group_topic"],
        "topicmodel.vocab": counts["vocab"],
        "topicmodel.nnz": counts["nnz"],
        "topicmodel.dense_mb": counts["documents"] * counts["vocab"] * 8 / 2**20,
        "similarity.calls": similarity_calls,
        "similarity.s": similarity_s,
        "similarity.nonzero_pair_share": (counts["nonzero_pairs"] / similarity_calls
                                          if similarity_calls else 0.0),
        "similarity.exact_one": counts["exact_one"],
        "mapping.map_s": map_s,
        "mapping.self_s": map_s - similarity_s,
        "pipeline.run_map_s": span_s["pipeline.run_map"],
        "pipeline.serialize_s": span_s["pipeline.write_json_artifact"],
        "cli.self_s": self_s["cli.main"],
    }
