"""Similarity scores between topic distributions, plus the LCS text baseline.

All scores live in [0, 1]. Topic metrics compare sparse (word id, weight)
vectors over a shared vocabulary ordering by one join of two topic blocks'
entries on word id; the same join tells which rows are identical. The
text baseline compares trimmed line sequences as line ids. Each family
builds its scorer in one place, ``_topic_scorer`` or ``_lcs_scorer``,
from that family's inputs: a private row scorer, a function from newer
row indices to their scores against every older row, the count of older
rows, and the newer rows never to score. ``_blocks`` alone cuts rows
into blocks of at most ``_BLOCK_CELLS`` cells for it: the mapper streams
those blocks, and ``score_matrix`` and ``lcs_matrix`` stack them into
the dense matrix.
"""

from __future__ import annotations

import enum
from collections.abc import Iterable

import numpy as np

from .errors import ValidationError
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
    """Score ``rows`` with the row scorer ``score_rows`` in order, in
    blocks of at most ``_BLOCK_CELLS`` cells (at least one row each):
    yields ``(part, block)``, the slice of ``rows`` a (k, m) block scores.
    Needs m >= 1."""
    step = max(1, _BLOCK_CELLS // m)
    for start in range(0, len(rows), step):
        part = slice(start, start + step)
        yield part, score_rows(rows[part])


def _matrix(score_rows, m: int, skip) -> np.ndarray:
    """The (len(skip), m) scores of a scorer's newer rows, filled block by
    block from the row scorer ``score_rows``; a row that ``skip`` marks is
    never scored and stays 0.0."""
    scores = np.zeros((len(skip), m))
    rows = np.flatnonzero(~skip)
    if m:
        for part, block in _blocks(score_rows, rows, m):
            scores[rows[part]] = block
    return scores


def _topic_scorer(newer: TopicBlock, older: TopicBlock, metric: Metric):
    """The scorer of ``score_matrix`` and ``map_version_pair``, as
    ``(score_rows, m, skip)``: ``score_rows`` takes k newer row indices,
    in any order, and returns their (k, M) scores against every older
    row (it needs M >= 1); ``m`` is M; ``skip`` is a bool mask of the
    newer rows with no entries, which score 0.0 against everything. The
    older side is sorted and summed here, once. ValidationError when a
    row's norm (cosine) or total (Hellinger), or the product (cosine) or
    sum (Hellinger) of the largest of each side, overflows float64."""
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
            # shared has exactly 0.0 left.
            new_rest = new_totals[rows, None] - _pair_sums(flat, a, cells, m)
            old_rest = old_totals - _pair_sums(flat, b, cells, m)
            dist += np.maximum(new_rest, 0.0) + np.maximum(old_rest, 0.0)
            block = 1.0 - np.sqrt(0.5 * dist)
            block[(nnz == 0) | (old_nnz == 0)] = 0.0
        return np.clip(block, 0.0, 1.0, out=block)

    return score_rows, m, new_nnz == 0


def score_matrix(newer: TopicBlock, older: TopicBlock,
                 metric: Metric = Metric.COSINE) -> np.ndarray:
    """Score every newer row against every older one: an (N, M) matrix.

    The dense oracle of the row scorer that ``map_version_pair`` streams:
    the matrix is filled from that scorer's blocks, so each cell has the
    same bits on both paths. Both blocks index one shared vocabulary. The
    pairs that share a word are found by one join on word ids (sort the
    older entries, ``searchsorted`` each newer entry into them) and their
    per-pair sums accumulate with ``np.bincount``, so the cost grows with
    the number of shared-word entry pairs rather than with N * M * V.

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
    """The scorer of ``lcs_matrix`` and ``baseline_text_map``, as
    ``_topic_scorer``'s is: ``(score_rows, m, skip)``, where ``score_rows``
    takes k newer text indices and returns their (k, M) scores, ``m`` is
    M and ``skip`` marks no row. Each side is read once, newer first, and
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

    The dense oracle of the row scorer that ``baseline_text_map`` streams,
    filled from that scorer's blocks. Each side is read once, newer
    first, so either may be a one-shot iterable. Each cell is
    2*|LCS| / (len(a) + len(b)) over the trimmed lines of
    ``ingest.split_lines``, matching by ``==``; two empty texts score 1.0
    and a pair with one empty side 0.0. A pair that shares no line has
    LCS 0 and keeps the 0.0 it starts with, so an inverted index from each
    line to the older texts that hold it gives the candidate pairs
    (Bayardo, Ma & Srikant 2007), and the cost grows with the pairs that
    share a line rather than with N * M. A candidate's LCS length comes
    from the bit-parallel row recurrence (Allison & Dix 1986; Hyyrö 2004):
    each older text's lines become one bitmask per distinct line, built
    once, and each newer line updates a Python-int row vector ``v`` in one
    step. The LCS length is the count of zero bits left in ``v``. Lines
    are compared as ids, numbered by one dict that both sides share
    inside ``_lcs_scorer`` and that is gone before scoring starts.
    """
    return _matrix(*_lcs_scorer(newer_texts, older_texts))


def lcs_similarity(a: str, b: str) -> float:
    """Line-LCS score of two texts: one cell of ``lcs_matrix``."""
    return float(lcs_matrix([a], [b])[0, 0])
