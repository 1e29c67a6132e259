"""Map clone groups of a newer version back to their origins in an older one.

For every newer group the mapper scores all older groups, takes the argmax,
and keeps the link only when the best score clears the threshold; groups
below it are classified as new. Many-to-one links are permitted by default;
an optional injective mode re-auctions contested older groups.
"""

from __future__ import annotations

import enum
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (CloneMapWarning, ConfigError, ValidationError, is_json_int,
                     is_number)
from .similarity import Metric, _blocks, _lcs_scorer, _topic_scorer
# lcs_similarity and topic_similarity are not called here but stay importable
# from this module, where perfbench/tracer.py looks them up.
from .similarity import lcs_similarity, topic_similarity  # noqa: F401
from .topicmodel import TopicBlock


class Strategy(enum.Enum):
    TOPIC = "topic"
    LCS_BASELINE = "lcs"


@dataclass(frozen=True)
class MappingConfig:
    delta: float = 0.8
    metric: Metric = Metric.COSINE
    strategy: Strategy = Strategy.TOPIC
    enforce_injective: bool = False

    def __post_init__(self):
        for name, kind in (("metric", Metric), ("strategy", Strategy),
                           ("enforce_injective", bool)):
            if not isinstance(getattr(self, name), kind):
                raise ConfigError(f"{name} must be a {kind.__name__}, "
                                  f"got {getattr(self, name)!r}")
        # Negated, so that NaN fails too.
        if not (is_number(self.delta) and 0.0 <= self.delta <= 1.0):
            raise ConfigError(f"delta must be in [0, 1], got {self.delta!r}")


@dataclass(frozen=True)
class GroupMapping:
    """One newer group's verdict: its origin (or None) and the score.

    ``similarity`` is the score against the selected old group, or the best
    score seen when the verdict is None.
    """

    new_group: tuple[str, int]
    old_group: tuple[str, int] | None
    similarity: float

    def __post_init__(self):
        # A version is a non-empty string, as in VersionSnapshot.
        for name in ("new_group", "old_group"):
            ref = getattr(self, name)
            if not (ref is None and name == "old_group"
                    or isinstance(ref, tuple) and len(ref) == 2
                    and isinstance(ref[0], str) and ref[0] != ""
                    and is_json_int(ref[1]) and ref[1] >= 0):
                raise ValidationError(
                    f"{name} must be a (version, index) tuple of a non-empty "
                    f"string and an integer >= 0, got {ref!r}")
        # Negated, so that NaN fails too.
        if not (is_number(self.similarity) and 0.0 <= self.similarity <= 1.0):
            raise ValidationError(f"similarity must be a number in [0, 1], "
                                  f"got {self.similarity!r}")


def _assign(score_rows, n_old: int, empty_rows, newer_id: str,
            older_id: str, config: MappingConfig) -> list[GroupMapping]:
    """Thresholded argmax over the newer rows that ``score_rows`` scores.

    The first three arguments are a scorer of ``similarity``, as
    ``_topic_scorer`` or ``_lcs_scorer`` returns it. ``score_rows`` is
    its row scorer: given newer row indices it returns their scores
    against all ``n_old`` older groups, and ``similarity._blocks`` asks it
    for one cache-sized block of rows at a time. Row ``i`` is newer group
    ``(newer_id, i)`` and column ``j`` older group ``(older_id, j)``.
    ``empty_rows`` is a bool mask of the newer groups whose document came
    out empty; each maps to null at 0.0 with a warning and is never
    scored. Ties go to the lowest older index.

    One loop settles both modes in rounds. In a round each pending newer
    group claims its best untaken older group, and a claim below ``delta``
    is a null verdict at that score, or at 0.0 once every older group is
    taken. Without ``config.enforce_injective`` every claim wins, so round
    1 settles every group. With it each older group goes to at most one
    newer group: its highest-scoring claimant, ties to the lowest newer
    index, and the losers claim again in the next round. Round 1 keeps
    each block's argmax and best score only. The losers of round 1 are
    scored once more, and each block is ranked as it arrives: its columns
    best first, ties by index, and its scores in that order. A later round
    moves each pending loser's pointer in its ranking past the columns
    taken since, so it costs its pending rows and the columns they skip,
    not pending rows × M. So no row is scored more than twice, and no
    (N, M) matrix is built.
    """
    empty = np.asarray(empty_rows, dtype=bool)
    for i in np.flatnonzero(empty).tolist():
        warnings.warn(
            f"group {(newer_id, i)} has an empty token document; mapped to null",
            CloneMapWarning,
        )
    old = np.full(empty.size, -1, dtype=np.intp)
    sim = np.zeros(empty.size)
    taken = np.zeros(n_old, dtype=bool)
    pending = np.flatnonzero(~empty & (n_old > 0))  # no claims without columns
    losers = None
    # np.argmax returns the first maximum, the lowest older index. Each
    # loser's columns are ranked once, best first and ties by index, so a
    # later round moves each pending loser's pointer past the taken
    # columns to its first untaken one: the same column, the first maximum
    # among the untaken. A pointer left on a taken last column is a null
    # at 0.0. One lexsort by (column, -score, row) puts each claimed
    # column's winner first.
    while pending.size:
        if losers is None:
            cols = np.empty(pending.size, dtype=np.intp)
            best = np.empty(pending.size)
            for part, block in _blocks(score_rows, pending, n_old):
                cols[part] = block.argmax(axis=1)
                best[part] = block[np.arange(len(block)), cols[part]]
        else:
            at = np.searchsorted(losers, pending)
            while True:
                rank = next_rank[at]
                cols = ranked[at, rank]
                stale = taken[cols] & (rank < n_old - 1)
                if not stale.any():
                    break
                next_rank[at[stale]] += 1
            best = np.where(taken[cols], -np.inf, ranked_scores[at, rank])
        sim[pending] = np.where(best > -np.inf, best, 0.0)
        claims = best >= config.delta
        rows, cols, best = pending[claims], cols[claims], best[claims]
        wins = np.ones(rows.size, dtype=bool)
        if config.enforce_injective:
            order = np.lexsort((rows, -best, cols))
            rows, cols = rows[order], cols[order]
            wins[1:] = cols[1:] != cols[:-1]
        old[rows[wins]] = cols[wins]
        taken[cols[wins]] = True
        pending = rows[~wins]
        if losers is None and pending.size:
            # Rank each block of losers as it is scored; their positions
            # in ``losers`` index the ranking.
            losers = np.sort(pending)
            ranked = np.empty((losers.size, n_old), dtype=np.intp)
            ranked_scores = np.empty((losers.size, n_old))
            for part, block in _blocks(score_rows, losers, n_old):
                ranked[part] = np.argsort(-block, axis=1, kind="stable")
                ranked_scores[part] = np.take_along_axis(block, ranked[part], 1)
            next_rank = np.zeros(losers.size, dtype=np.intp)
    return [GroupMapping((newer_id, i), None if j < 0 else (older_id, j), s)
            for i, (j, s) in enumerate(zip(old.tolist(), sim.tolist()))]


def map_version_pair(newer: TopicBlock, older: TopicBlock, newer_id: str,
                     older_id: str, config: MappingConfig | None = None,
                     ) -> list[GroupMapping]:
    """Map every newer group to its best-matching older group or to null.

    Row ``i`` of ``newer`` is group ``(newer_id, i)``, and row ``j`` of
    ``older`` group ``(older_id, j)``; an empty row is a group whose
    token document came out empty. Both blocks must index one shared
    vocabulary (one corpus spanning both versions). ``_topic_scorer``
    builds ``score_matrix``'s row scorer and finds the empty newer rows
    in one call; the pairs are scored in the cache-sized row blocks that
    ``similarity._blocks`` cuts, and each block goes straight to the
    verdict loop, so no (N, M) matrix is held; under ``enforce_injective``
    the round-1 losers' blocks are ranked as they arrive. An empty older
    row scores 0.0 against everything. Output is ordered by newer group
    index and always has one entry per newer group.
    """
    config = config or MappingConfig()
    return _assign(*_topic_scorer(newer, older, config.metric), newer_id,
                   older_id, config)


def baseline_text_map(newer_texts, older_texts, newer_id: str, older_id: str,
                      config: MappingConfig | None = None) -> list[GroupMapping]:
    """Same argmax-plus-threshold mapping, scored with line LCS on raw text.

    Text ``i`` of ``newer_texts`` is group ``(newer_id, i)``, and text
    ``j`` of ``older_texts`` group ``(older_id, j)``: each group's
    concatenated fragment text as written, comments included. This is
    the text-based mapper the topic pipeline is compared against. The
    newer texts are read first and the older ones second, each once, so
    either may be a one-shot iterable. ``_lcs_scorer`` builds
    ``lcs_matrix``'s row scorer in one call: it keeps each text only as
    its trimmed lines' ids, and the dict that numbers them is gone before
    the first row is scored. The pairs go through the same chunker and
    verdict loop as ``map_version_pair`` scores topics.
    """
    config = config or MappingConfig()
    return _assign(*_lcs_scorer(newer_texts, older_texts), newer_id,
                   older_id, config)


def unmatched_old_groups(mappings: list[GroupMapping], older_size: int) -> list[int]:
    """Older-version indices never selected by any mapping."""
    selected = {m.old_group[1] for m in mappings if m.old_group is not None}
    return [j for j in range(older_size) if j not in selected]
