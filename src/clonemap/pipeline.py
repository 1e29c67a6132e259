"""End-to-end wiring: clone reports to documents, topics, mappings, JSON.

Everything the CLI does lives here as plain functions so library users and
the test suite can drive the identical pipeline without a subprocess. This
module runs a map and writes its artifact; ``evaluation`` reads one back.
"""

from __future__ import annotations

import json
import os
import pickle
import threading
import warnings
from pathlib import Path
from typing import Iterable, Iterator, NoReturn

import numpy as np

from . import __version__
from .ingest import (VersionSnapshot, parse_clone_report, resolve_snapshot,
                     snapshot_parts)
from .mapping import (
    MappingConfig,
    Strategy,
    baseline_text_map,
    map_version_pair,
)
from .preprocess import FilterConfig, TokenDocument, build_group_document, default_filter_config
from .topicmodel import (
    LdaConfig,
    TopicBlock,
    build_corpus,
    count_version,
    fit_lda,
    merge_counts,
)
# fit_group_topic is not called here but stays importable from this module,
# where perfbench/tracer.py looks it up.
from .topicmodel import fit_group_topic  # noqa: F401


def texts(snapshot: VersionSnapshot,
          source_root: Path | str | None) -> Iterator[str]:
    """Yield each group's fragment texts, joined by newlines, in index
    order, resolving the snapshot one ``snapshot_parts`` part at a time,
    on the ``next()`` that reaches the part. This is the one place a
    version is read, for both strategies. A part's text is released
    before the next part is resolved, and when the generator is exhausted
    it holds nothing, so the snapshot goes with the last reference
    outside it."""
    for part in snapshot_parts(snapshot, source_root):
        # The next ``for`` step rebinds ``part``, which drops this part's
        # text before the next part is resolved.
        part = resolve_snapshot(part, source_root)
        bounds = part.bounds
        for lo, hi in zip(bounds, bounds[1:]):
            yield "\n".join(part.text[lo:hi])


def documents(snapshot: VersionSnapshot, source_root: Path | str | None,
              filter_config: FilterConfig) -> Iterator[TokenDocument]:
    """Each group's filtered token document in index order, built from
    ``texts``: the snapshot is resolved one part at a time as the
    documents are drawn."""
    for text in texts(snapshot, source_root):
        yield build_group_document(text, filter_config)


def _lda_pair(newer_docs: Iterable[TokenDocument],
              older_docs: Iterable[TokenDocument],
              lda_config: LdaConfig) -> tuple[TopicBlock, TopicBlock]:
    """Topic blocks for both versions at K > 1, newer first: a
    corpus-wide Gibbs model is fit over both versions' documents and each
    group is represented by its document-topic mixture. The uniform
    mixture the model gives an empty document is zeroed, so an empty
    document gives an empty row. Each version's documents are read once,
    newer first, so either may be a one-shot iterable."""
    docs = list(newer_docs)
    split = len(docs)
    docs += older_docs
    empty = np.array([doc.token_count == 0 for doc in docs])
    theta = fit_lda(build_corpus(docs), lda_config).theta
    weights = np.where(empty[:, None], 0.0, theta)
    return (TopicBlock.from_dense(weights[:split]),
            TopicBlock.from_dense(weights[split:]))


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


def _count_in_child(docs: Iterable[TokenDocument], mask: set,
                    read_end: int, write_end: int) -> NoReturn:
    """In a forked child: restore the signal ``mask``, count ``docs`` and
    pickle the counts into ``write_end``, or write nothing when counting
    raises or warns, since every warning is made an error here. Leaves
    only through ``os._exit``."""
    code = 1
    try:
        from signal import SIG_SETMASK, pthread_sigmask

        pthread_sigmask(SIG_SETMASK, mask)
        os.close(read_end)
        warnings.simplefilter("error")
        with open(write_end, "wb") as pipe:
            pickle.dump(count_version(docs), pipe, pickle.HIGHEST_PROTOCOL)
        code = 0
    finally:
        os._exit(code)


def _frequency_pair(newer_docs: Iterable[TokenDocument],
                    older_docs: Iterable[TokenDocument],
                    fork: bool) -> list[TopicBlock]:
    """The K = 1 topic blocks of both versions, newer first:
    ``merge_counts`` of each version's ``count_version``, so each group's
    row holds its exact term frequencies over the sorted union of both
    versions' words. This is the one builder of K = 1 blocks.

    With ``fork``, the older version is counted in a forked child while
    this process counts the newer one, and the child's counts come back
    as one pickle stream. Without it, or if the pipe or the fork fails,
    or the child raises, warns, dies or sends a cut stream, the older
    version is counted here after the newer one, so every error and
    warning is the in-process one. The stream is safe to unpickle: the
    pipe is anonymous and its one writer is a forked copy of this
    process, so no byte from outside the program reaches the unpickler.
    Each version's documents are read once, newer first, so either may be
    a one-shot iterable. Signals are blocked from before the fork until
    its pid is held, so none can raise in between; from then on the child
    is killed, if it still runs, and reaped before this returns or
    raises."""
    pid = read_end = write_end = older = None
    try:
        if fork:
            # Only a forked count needs ``signal``, which a small map
            # never loads.
            from signal import (SIG_BLOCK, SIG_SETMASK, SIGKILL,
                                pthread_sigmask, valid_signals)

            mask = pthread_sigmask(SIG_BLOCK, ())
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
            try:
                with open(read_end, "rb", closefd=False) as pipe:
                    older = pickle.load(pipe)
            except (EOFError, pickle.UnpicklingError):
                pass
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
    that text. The path is opened as given, so an empty one fails as
    naming no file, not as the current directory."""
    text = canonical_json(payload)
    with open(path, "w", encoding="utf-8") as out:
        out.write(text)
    return text


def artifact_header(config: dict | None) -> dict:
    """The reproducibility header of every artifact: the tool name and
    version, plus the resolved run configuration unless it is None."""
    header = {"tool": {"name": "clonemap", "version": __version__}}
    if config is not None:
        header["config"] = config
    return header


def mapping_result(newer_id: str, older_id: str,
                   verdicts: tuple[list[int | None], list[float]],
                   older_size: int, mapping_config: MappingConfig,
                   run_config: dict | None) -> dict:
    """The mapping artifact: verdicts plus the reproducibility header.

    ``verdicts`` are the two columns a mapper returns, the older index or
    None and the score of each newer group in index order. Row ``i`` of
    ``mappings`` is newer group ``i``, and ``unmatched_old`` lists, in
    order, the older indices below ``older_size`` that no row names.
    """
    old, similarity = verdicts
    return {
        "newer": newer_id,
        "older": older_id,
        "strategy": mapping_config.strategy.value,
        "metric": mapping_config.metric.value,
        "delta": mapping_config.delta,
        "mappings": [
            {"new_group": i, "old_group": j, "similarity": s}
            for i, (j, s) in enumerate(zip(old, similarity))
        ],
        "unmatched_old": sorted(set(range(older_size)).difference(old)),
        **artifact_header(run_config),
    }


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
    first, and each version one part at a time, so a process holds one
    part's text, not a version's. The LCS strategy keeps each group's raw
    text as line ids; the topic strategy tokenizes and counts it and
    scores per-group topic distributions over a shared vocabulary. With
    K = 1 the blocks come from ``_frequency_pair``, which forks only where
    ``_fork_pays``, read from the parsed reports before either version is:
    both versions span enough lines and a second CPU is free. Then a child
    counts the older version while this process counts the newer one, and
    only the counts come back, as a pickle stream; this process reads the
    older version itself, after the newer one, when the child fails.
    Without a child, at any K, this process reads both, and releases the
    newer version's text, inline text included, before it reads the older
    one. A fault in a later part is raised after the earlier parts' groups
    were tokenized, so their warnings come first; its message and type are
    those of a version read in one part.
    """
    filter_config = filter_config or default_filter_config()
    mapping_config = mapping_config or MappingConfig()
    lda_config = lda_config or LdaConfig()

    newer = parse_clone_report(newer_report)
    older = parse_clone_report(older_report)
    newer_id, older_id = newer.version_id, older.version_id
    older_size = len(older.bounds) - 1
    # Each name is rebound to its report's one reader, so nothing else
    # holds a parsed report and the newer version's inline text goes once
    # its reader is exhausted.
    if mapping_config.strategy is Strategy.LCS_BASELINE:
        newer, older = texts(newer, source_newer), texts(older, source_older)
        verdicts = baseline_text_map(newer, older, newer_id, mapping_config)
    else:
        fork = lda_config.K == 1 and _fork_pays(newer, older)
        newer, older = (documents(newer, source_newer, filter_config),
                        documents(older, source_older, filter_config))
        topics = (_lda_pair(newer, older, lda_config) if lda_config.K > 1
                  else _frequency_pair(newer, older, fork))
        verdicts = map_version_pair(*topics, newer_id, mapping_config)
    return mapping_result(newer_id, older_id, verdicts, older_size,
                          mapping_config, run_config)
