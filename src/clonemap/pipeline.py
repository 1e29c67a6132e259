"""End-to-end wiring: clone reports to documents, topics, mappings, JSON.

Everything the CLI does lives here as plain functions so library users and
the test suite can drive the identical pipeline without a subprocess.
"""

from __future__ import annotations

import json
import os
import threading
import warnings
from pathlib import Path
from typing import Iterable, Iterator, NoReturn

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
from .topicmodel import (
    LdaConfig,
    TopicBlock,
    VersionCounts,
    build_corpus,
    count_version,
    fit_lda,
    frequency_blocks,
    merge_counts,
)
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
    exact one-topic frequencies per group. With K > 1 a corpus-wide
    Gibbs model is fit instead and each group is represented by its
    document-topic mixture, and the uniform mixture the model gives an
    empty document is zeroed. Either way an empty document gives an empty
    row. Both versions are read in this process; ``run_map`` counts a
    large older version in a child process instead.
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


# A forked count costs the parent about 4 ms on a one-group map: the
# fork, the copy-on-write faults it takes while counting the newer
# version, and the reap. Paired against the in-process map on `synth`
# fixtures (15 pairs a size, 2-vCPU host), it lost 2.6 ms at 1,100 lines
# a version (0 of 15 won), tied at 2,000 and 3,400, and saved 7 ms at
# 4,900 (14 of 15) and 15 ms at 8,000 (13 of 15).
_FORK_MIN_LINES = 4000


# A container's CPU quota, as its cgroup root shows it: cgroup v2's one
# "quota period" file, or cgroup v1's quota and period files. A quota of
# "max" or -1 is none.
_QUOTA_FILES = (("/sys/fs/cgroup/cpu.max",),
                ("/sys/fs/cgroup/cpu/cpu.cfs_quota_us",
                 "/sys/fs/cgroup/cpu/cpu.cfs_period_us"))


def _usable_cpus() -> float:
    """The CPUs this process may run on, capped by its container's CPU
    quota where ``_QUOTA_FILES`` show one."""
    cpus = len(os.sched_getaffinity(0))
    for files in _QUOTA_FILES:
        try:
            quota, period = " ".join(
                Path(name).read_text() for name in files).split()
            if quota in ("max", "-1"):
                return cpus
            return min(cpus, int(quota) / int(period))
        except (OSError, ValueError):
            continue
    return cpus


def _fork_pays(newer: VersionSnapshot, older: VersionSnapshot) -> bool:
    """Whether a child process counting the older version alongside this
    one can pay: each version's fragments span ``_FORK_MIN_LINES`` lines
    or more, ``fork`` exists, at least two CPUs are usable, and no other
    thread runs, since a forked copy of a threaded process may hold a
    lock that no thread of the copy will release."""
    return (min(sum(s.ends) - sum(s.starts) + len(s.ends)
                for s in (newer, older)) >= _FORK_MIN_LINES
            and hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
            and _usable_cpus() >= 2
            and threading.active_count() == 1)


# The child's buffer: four int64 lengths (rows, entries, words, vocabulary
# bytes), then indptr, ids, tallies and totals as int64, then the
# vocabulary joined by "\n". A token is lowercase ASCII [a-z0-9_] and
# never empty, so the join splits back exactly and needs no decoder.
_HEAD = 4 * 8


def _encode_counts(counts: VersionCounts) -> bytes:
    words = "\n".join(counts.vocabulary).encode("ascii")
    head = np.array([len(counts.totals), len(counts.ids),
                     len(counts.vocabulary), len(words)], dtype=np.int64)
    return b"".join((head.tobytes(), counts.indptr.tobytes(),
                     counts.ids.tobytes(), counts.tallies.tobytes(),
                     counts.totals.tobytes(), words))


def _decode_counts(data: bytes) -> VersionCounts | None:
    """The counts ``_encode_counts`` wrote, or None for a buffer whose
    length or word count disagrees with its lengths, as a cut one does."""
    if len(data) < _HEAD:
        return None
    rows, entries, words, size = np.frombuffer(data, np.int64, 4).tolist()
    cells = 2 * rows + 1 + 2 * entries
    if (min(rows, entries, words, size) < 0
            or len(data) != _HEAD + 8 * cells + size):
        return None
    indptr, ids, tallies, totals = np.split(
        np.frombuffer(data, np.int64, cells, _HEAD),
        np.cumsum([rows + 1, entries, entries]))
    vocabulary = (data[_HEAD + 8 * cells:].decode("ascii").split("\n")
                  if size else [])
    if len(vocabulary) != words:
        return None
    return VersionCounts(vocabulary, indptr, ids, tallies, totals)


def _count_in_child(docs: Iterable[TokenDocument], mask: set,
                    read_end: int, write_end: int) -> NoReturn:
    """In a forked child: restore the signal ``mask``, count ``docs`` and
    write ``_encode_counts`` of them to ``write_end``, or nothing when
    counting raises or warns. Leaves only through ``os._exit``."""
    code = 1
    try:
        from signal import SIG_SETMASK, pthread_sigmask

        pthread_sigmask(SIG_SETMASK, mask)
        os.close(read_end)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            counts = count_version(docs)
        if not caught:
            with open(write_end, "wb") as pipe:
                pipe.write(_encode_counts(counts))
            code = 0
    finally:
        os._exit(code)


def _frequency_pair(newer_docs: Iterable[TokenDocument],
                    older_docs: Iterable[TokenDocument]) -> list[TopicBlock]:
    """``frequency_blocks([newer_docs, older_docs])``, with the older
    version counted in a forked child while this process counts the newer
    one. If the pipe or the fork fails, or the child raises, warns, dies
    or sends a bad buffer, the older version is counted here after the
    newer one, so every error and warning is the in-process one. Signals
    are blocked from before the fork until its pid is held, so none can
    raise in between; from then on the child is killed, if it still runs,
    and reaped before this returns or raises."""
    # Only a forked count needs ``signal``, which a small map never loads.
    from signal import (SIG_BLOCK, SIG_SETMASK, SIGKILL, pthread_sigmask,
                        valid_signals)

    pid = read_end = write_end = older = None
    mask = pthread_sigmask(SIG_BLOCK, ())
    try:
        try:
            pthread_sigmask(SIG_BLOCK, valid_signals())
            read_end, write_end = os.pipe()
            pid = os.fork()
            if pid == 0:
                _count_in_child(older_docs, mask, read_end, write_end)
        except OSError:
            pass
        finally:
            if write_end is not None:
                os.close(write_end)
            pthread_sigmask(SIG_SETMASK, mask)
        newer = count_version(newer_docs)
        if pid is not None:
            # Grown in place, so the buffer is not held twice while read.
            data = bytearray()
            while chunk := os.read(read_end, 1 << 16):
                data += chunk
            older = _decode_counts(data)
        if older is None:
            older = count_version(older_docs)
        return merge_counts([newer, older])
    finally:
        if read_end is not None:
            os.close(read_end)
        if pid is not None:
            # Done with the child or leaving on an error: end it if it
            # still runs.
            os.kill(pid, SIGKILL)
            os.waitpid(pid, 0)


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


def write_json_artifact(path: Path | str, payload: dict) -> str:
    """Write ``canonical_json(payload)`` to ``path`` as UTF-8 and return
    that text."""
    text = canonical_json(payload)
    Path(path).write_text(text, encoding="utf-8")
    return text


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
    Then each process reads one version at a time through ``texts``, newer
    first. The LCS strategy keeps each group's raw text as line ids; the
    topic strategy tokenizes and counts it and scores per-group topic
    distributions over a shared vocabulary. With K = 1, where
    ``_fork_pays`` (both versions span enough lines and a second CPU is
    free), a forked child counts the older version while this process
    counts the newer one, and only the counts come back; this process
    reads the older version itself, after the newer one, when the child
    fails. Otherwise this process reads both, and releases the newer
    version's text, inline text included, before it reads the older one.
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
        apart = ((lda_config is None or lda_config.K == 1)
                 and _fork_pays(newer, older))
        newer, older = (documents(newer, source_newer, filter_config),
                        documents(older, source_older, filter_config))
        topics = (_frequency_pair(newer, older) if apart
                  else pair_topics(newer, older, lda_config))
        mappings = map_version_pair(*topics, *ids, mapping_config)
    return mapping_result(*ids, mappings, older_size, mapping_config,
                          run_config)
