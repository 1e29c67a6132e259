"""Score the clone groups of a newer version against an older one, and map
each newer group back to its origin or to null.

For every newer group the mapper scores all older groups, takes the argmax,
and keeps the link only when the best score clears the threshold; groups
below it are classified as new. Many-to-one links are permitted by default;
an optional injective mode re-auctions contested older groups.

All scores live in [0, 1]. Topic metrics compare sparse (word id, weight)
vectors over a shared vocabulary ordering by one join of two topic blocks'
entries on word id; the same join tells which rows are identical. The
text baseline compares trimmed line sequences as line ids.

A scorer is a triple ``(score_rows, m, skip)``. ``score_rows`` takes k
newer row indices, in any order, and returns their (k, m) scores against
every older row; it needs m >= 1. ``m`` is the count of older rows, and
``skip`` a bool mask of the newer rows never to score, which score 0.0
against everything. Each family builds its scorer in one place, from that
family's inputs: ``_topic_scorer`` or ``_lcs_scorer``. ``_blocks`` alone
cuts rows into blocks of at most ``_BLOCK_CELLS`` cells, at least one row
each, and yields ``(part, block)``: a slice of the rows and the (k, m)
scores ``score_rows`` gives them. The verdict loop ``_assign`` streams
those blocks, and ``score_matrix`` and ``lcs_matrix`` stack them into the
dense matrix, so each cell has the same bits on both paths.
"""

from __future__ import annotations

import enum
import warnings
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .errors import (CloneMapWarning, ConfigError, ValidationError, is_json_int,
                     is_number)
from .ingest import split_lines
from .topicmodel import TopicBlock


class Metric(enum.Enum):
    COSINE = "cosine"
    HELLINGER = "hellinger"


# Score cells per block: 128 KiB per float64 temporary, so a block and
# its join scratch stay in cache.
_BLOCK_CELLS = 1 << 14


def _pair_sums(flat, weights, cells: int, m: int) -> np.ndarray:
    """Sum ``weights`` per score-matrix cell; (cells // m, m) float64."""
    # bincount returns int64 when given no entries at all, even with weights.
    sums = np.bincount(flat, weights, minlength=cells)
    return sums.astype(np.float64, copy=False).reshape(-1, m)


def _blocks(score_rows, rows, m: int):
    """The ``(part, block)`` pairs of ``rows``, in order, as the module
    docstring says. Needs m >= 1."""
    step = max(1, _BLOCK_CELLS // m)
    for start in range(0, len(rows), step):
        part = slice(start, start + step)
        yield part, score_rows(rows[part])


def _matrix(score_rows, m: int, skip) -> np.ndarray:
    """The (len(skip), m) scores of a scorer's newer rows, filled block by
    block; a row that ``skip`` marks is never scored and stays 0.0."""
    scores = np.zeros((len(skip), m))
    rows = np.flatnonzero(~skip)
    if m:
        for part, block in _blocks(score_rows, rows, m):
            scores[rows[part]] = block
    return scores


def _topic_scorer(newer: TopicBlock, older: TopicBlock, metric: Metric):
    """The scorer of ``score_matrix`` and ``map_version_pair``; ``skip``
    marks the newer rows with no entries. The older side is sorted and
    summed here, once. ValidationError when a row's norm (cosine) or
    total (Hellinger), or the product (cosine) or sum (Hellinger) of the
    largest of each side, overflows float64."""
    if not isinstance(metric, Metric):
        raise ValidationError(f"unknown metric {metric!r}")
    if not (isinstance(newer, TopicBlock) and isinstance(older, TopicBlock)):
        raise ValidationError("score_matrix compares two TopicBlocks")
    if newer.size != older.size:
        raise ValidationError(
            "topic vectors over different vocabularies: sizes "
            f"{sorted((newer.size, older.size))}"
        )
    n, m = len(newer), len(older)
    new_nnz = np.diff(newer.indptr)
    old_nnz = np.diff(older.indptr)
    new_rows = np.repeat(np.arange(n), new_nnz)
    old_rows = np.repeat(np.arange(m), old_nnz)
    order = np.argsort(older.ids, kind="stable")
    old_ids = older.ids[order]
    old_rows_by_id = old_rows[order]
    old_values = older.values[order]
    # Weights are finite and non-negative, so each side's largest norm
    # or total bounds every cell's sums: inf or NaN means one overflows.
    with np.errstate(over="ignore", invalid="ignore"):
        if metric is Metric.COSINE:
            new_norms = np.sqrt(np.bincount(new_rows, newer.values ** 2, minlength=n))
            old_norms = np.sqrt(np.bincount(old_rows, older.values ** 2, minlength=m))
            bound = new_norms.max(initial=0.0) * old_norms.max(initial=0.0)
        else:
            new_totals = np.bincount(new_rows, newer.values, minlength=n)
            old_totals = np.bincount(old_rows, older.values, minlength=m)
            bound = new_totals.max(initial=0.0) + old_totals.max(initial=0.0)
            new_roots = np.sqrt(newer.values)
            old_roots = np.sqrt(old_values)
    if not np.isfinite(bound):
        raise ValidationError(f"topic weights too large to score under "
                              f"{metric.value}: a row's sums overflow float64")

    def score_rows(rows):
        cells = len(rows) * m
        nnz = new_nnz[rows]
        # The newer entries of ``rows``, row by row in their order. Within
        # a row they keep ascending word-id order, so each cell adds its
        # pairs in the same order whichever rows share its block.
        firsts = np.cumsum(nnz) - nnz
        entries = (np.arange(int(nnz.sum()))
                   + np.repeat(newer.indptr[rows] - firsts, nnz))
        ids = newer.ids[entries]
        lo = np.searchsorted(old_ids, ids, side="left")
        hits = np.searchsorted(old_ids, ids, side="right") - lo
        # Joined entry pairs: each newer entry against its run of equal ids.
        first = np.cumsum(hits) - hits
        old_at = np.arange(int(hits.sum())) - np.repeat(first - lo, hits)
        flat = (np.repeat(np.repeat(np.arange(len(rows)), nnz), hits) * m
                + old_rows_by_id[old_at])
        new_at = np.repeat(entries, hits)
        a = newer.values[new_at]
        b = old_values[old_at]
        nnz = nnz[:, None]
        if metric is Metric.COSINE:
            norms = np.outer(new_norms[rows], old_norms)
            block = np.divide(_pair_sums(flat, a * b, cells, m), norms,
                              out=np.zeros_like(norms), where=norms > 0)
            # Rows are identical when every entry of both is joined to an
            # equal one; rounding must not keep them from exactly 1.0.
            equal = _pair_sums(flat, a == b, cells, m)
            block[(equal == nnz) & (equal == old_nnz) & (equal > 0)] = 1.0
        else:
            dist = _pair_sums(flat, (new_roots[new_at] - old_roots[old_at]) ** 2,
                              cells, m)
            # The join adds each cell's weights in ascending word-id order,
            # as the row totals were added, so a side whose every word is
            # shared has exactly 0.0 left. Each step writes into the three
            # sums' own arrays, so a block allocates no other float64 array.
            new_rest = _pair_sums(flat, a, cells, m)
            np.subtract(new_totals[rows, None], new_rest, out=new_rest)
            np.maximum(new_rest, 0.0, out=new_rest)
            old_rest = _pair_sums(flat, b, cells, m)
            np.subtract(old_totals, old_rest, out=old_rest)
            np.maximum(old_rest, 0.0, out=old_rest)
            dist += np.add(new_rest, old_rest, out=new_rest)
            np.multiply(0.5, dist, out=dist)
            np.sqrt(dist, out=dist)
            block = np.subtract(1.0, dist, out=dist)
            block[(nnz == 0) | (old_nnz == 0)] = 0.0
        return np.clip(block, 0.0, 1.0, out=block)

    return score_rows, m, new_nnz == 0


def score_matrix(newer: TopicBlock, older: TopicBlock,
                 metric: Metric = Metric.COSINE) -> np.ndarray:
    """Score every newer row against every older one: an (N, M) matrix.

    The dense oracle of the scorer that ``map_version_pair`` streams.
    Both blocks index one shared vocabulary. The pairs that share a word
    are found by one join on word ids (sort the older entries,
    ``searchsorted`` each newer entry into them) and their per-pair sums
    accumulate with ``np.bincount``, so the cost grows with the number of
    shared-word entry pairs rather than with N * M * V.

    Cosine: sum(a * b) / (|a| * |b|). Hellinger similarity:
    1 - sqrt(D / 2) with D = sum((sqrt(a) - sqrt(b))^2), summed over the
    shared words plus each side's unshared mass, which is exactly 0 when
    every word of that side is shared. Identical vectors score exactly
    1.0 (downstream consumers treat it as the unchanged-group signature):
    under cosine a cell is set to 1.0 when its count of joined entry pairs
    with equal weights matches both rows' entry counts; under Hellinger
    identical rows give D = 0 exactly. A pair with an empty row on either
    side scores 0.0; every score is clamped to [0, 1].
    """
    return _matrix(*_topic_scorer(newer, older, metric))


def topic_similarity(t1, t2, metric: Metric = Metric.COSINE) -> float:
    """Score two dense 1-d topic vectors: one cell of ``score_matrix``.

    Equal vectors score exactly 1.0, a pair with an all-zero side 0.0
    (an empty document that slipped through scores 0 rather than NaN).
    """
    try:
        a = np.asarray(t1, dtype=np.float64)
        b = np.asarray(t2, dtype=np.float64)
        if a.ndim != 1 or b.ndim != 1:
            raise ValueError
    except (TypeError, ValueError):
        raise ValidationError(
            "topic vectors must be one-dimensional arrays"
        ) from None
    return float(score_matrix(TopicBlock.from_dense(a[None]),
                              TopicBlock.from_dense(b[None]), metric)[0, 0])


def _trimmed_lines(texts, side: str, ids: dict[str, int]) -> list[list[int]]:
    """Each text's trimmed lines as line ids, read once and in order:
    ``ids`` numbers each distinct trimmed line, and both sides of a pair
    share it. ValidationError unless ``texts`` is an iterable of ``str``s
    (a bare ``str`` would iterate as one-character texts)."""
    if isinstance(texts, str) or not isinstance(texts, Iterable):
        raise ValidationError(f"{side} texts must be an iterable of str, "
                              f"not a {type(texts).__name__}")
    lines = []
    for i, text in enumerate(texts):
        if not isinstance(text, str):
            raise ValidationError(
                f"{side} text {i} is a {type(text).__name__}, not a str")
        lines.append([ids.setdefault(line.strip(), len(ids))
                      for line in split_lines(text)])
    return lines


def _lcs_scorer(newer_texts, older_texts):
    """The scorer of ``lcs_matrix`` and ``baseline_text_map``, over text
    indices; ``skip`` marks no row. Each side is read once, newer first, and
    kept only as its ``_trimmed_lines``; the dict that numbers the lines
    lives here, so no line's text outlives this call. The older bitmasks
    and line postings, keyed by line id, are built here, once."""
    ids: dict[str, int] = {}
    newer_lines = _trimmed_lines(newer_texts, "newer", ids)
    older_lines = _trimmed_lines(older_texts, "older", ids)
    m = len(older_lines)
    older = []
    holders: dict[int, list[int]] = {}
    for j, old in enumerate(older_lines):
        masks: dict[int, int] = {}
        for bit, line in enumerate(old):
            masks[line] = masks.get(line, 0) | (1 << bit)
        older.append((masks, len(old), (1 << len(old)) - 1))
        for line in masks:
            holders.setdefault(line, []).append(j)
    empty_older = [j for j, old in enumerate(older_lines) if not old]

    def score_rows(rows):
        block = np.zeros((len(rows), m))
        for row, i in zip(block, rows.tolist()):
            new = newer_lines[i]
            if not new:
                row[empty_older] = 1.0
                continue
            candidates = set()
            for line in set(new):
                candidates.update(holders.get(line, ()))
            for j in candidates:
                masks, n, full = older[j]
                v = full
                for line in new:
                    mask = masks.get(line)
                    if mask is not None:
                        u = v & mask
                        v = ((v + u) | (v - u)) & full
                row[j] = 2.0 * (n - v.bit_count()) / (len(new) + n)
        return block

    return score_rows, m, np.zeros(len(newer_lines), dtype=bool)


def lcs_matrix(newer_texts, older_texts) -> np.ndarray:
    """Line-LCS score of every newer text against every older one: (N, M).

    The dense oracle of the scorer that ``baseline_text_map`` streams.
    Each side is read once, newer first, so either may be a one-shot
    iterable. Each cell is 2*|LCS| / (len(a) + len(b)) over the trimmed
    lines of ``ingest.split_lines``, matching by ``==``; two empty texts
    score 1.0 and a pair with one empty side 0.0. A pair that shares no
    line has LCS 0 and keeps the 0.0 it starts with, so an inverted index
    from each line to the older texts that hold it gives the candidate
    pairs (Bayardo, Ma & Srikant 2007), and the cost grows with the pairs
    that share a line rather than with N * M. A candidate's LCS length
    comes from the bit-parallel row recurrence (Allison & Dix 1986; Hyyrö
    2004): each older text's lines become one bitmask per distinct line,
    built once, and each newer line updates a Python-int row vector ``v``
    in one step. The LCS length is the count of zero bits left in ``v``.
    Lines are compared as ids, numbered by one dict that both sides share
    inside ``_lcs_scorer`` and that is gone before scoring starts.
    """
    return _matrix(*_lcs_scorer(newer_texts, older_texts))


def lcs_similarity(a: str, b: str) -> float:
    """Line-LCS score of two texts: one cell of ``lcs_matrix``."""
    return float(lcs_matrix([a], [b])[0, 0])


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
    """Thresholded argmax over the rows of a scorer.

    The first three arguments are a scorer, read through ``_blocks``. Row
    ``i`` is newer group ``(newer_id, i)`` and column ``j`` older group
    ``(older_id, j)``. Each newer group that ``empty_rows`` marks came out
    with an empty document; it maps to null at 0.0 with a warning. Ties go
    to the lowest older index.

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
    vocabulary (one corpus spanning both versions). The pairs are scored
    by ``_topic_scorer``'s blocks, and each block goes straight to the
    verdict loop, so no (N, M) matrix is held. An empty older row scores
    0.0 against everything. Output is ordered by newer group index and
    always has one entry per newer group.
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
    either may be a one-shot iterable. The pairs are scored by
    ``_lcs_scorer``'s blocks and go through the same verdict loop as
    ``map_version_pair``'s.
    """
    config = config or MappingConfig()
    return _assign(*_lcs_scorer(newer_texts, older_texts), newer_id,
                   older_id, config)


def unmatched_old_groups(mappings: list[GroupMapping], older_size: int) -> list[int]:
    """Older-version indices never selected by any mapping."""
    selected = {m.old_group[1] for m in mappings if m.old_group is not None}
    return [j for j in range(older_size) if j not in selected]
