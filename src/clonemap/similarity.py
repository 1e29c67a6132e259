"""Similarity scores between topic distributions, plus the LCS text baseline.

All scores live in [0, 1]. Topic metrics compare sparse (word id, weight)
vectors over a shared vocabulary ordering, all pairs of two lists at once;
the text baseline compares trimmed line sequences.
"""

from __future__ import annotations

import enum

import numpy as np

from .errors import ValidationError
from .topicmodel import TopicDistribution


class Metric(enum.Enum):
    COSINE = "cosine"
    HELLINGER = "hellinger"


# Score-matrix cells computed per pass; bounds the kernel's scratch memory.
_BLOCK_CELLS = 1 << 20


class _Entries:
    """The nonzero entries of a list of vectors, concatenated in list order."""

    def __init__(self, vectors, keys: dict):
        parts = []
        for v in vectors:
            if isinstance(v, TopicDistribution):
                parts.append((v.ids, v.values, v.size))
            else:
                dense = np.asarray(v, dtype=np.float64)
                if dense.ndim != 1:
                    raise ValidationError("topic vectors must be one-dimensional")
                ids = np.flatnonzero(dense)
                parts.append((ids, dense[ids], dense.size))
        self.count = len(parts)
        self.sizes = {size for _, _, size in parts}
        self.nnz = np.array([ids.size for ids, _, _ in parts], dtype=np.int64)
        self.offsets = np.concatenate(([0], np.cumsum(self.nnz)))
        self.ids = np.concatenate([ids for ids, _, _ in parts] + [np.empty(0, np.int64)])
        self.values = np.concatenate([vals for _, vals, _ in parts] + [np.empty(0)])
        self.groups = np.repeat(np.arange(self.count), self.nnz)
        self.totals = np.bincount(self.groups, self.values, minlength=self.count)
        # Equal (ids, values) get equal labels across both sides of a join;
        # an all-zero vector gets -1 and never counts as identical.
        labels = []
        for ids, vals, _ in parts:
            key = ids.astype(np.int64, copy=False).tobytes() + vals.tobytes()
            labels.append(keys.setdefault(key, len(keys)) if ids.size else -1)
        self.labels = np.array(labels, dtype=np.int64)


def _pair_sums(flat, weights, cells: int, m: int) -> np.ndarray:
    """Sum ``weights`` per score-matrix cell; (cells // m, m) float64."""
    # bincount returns int64 when given no entries at all, even with weights.
    sums = np.bincount(flat, weights, minlength=cells)
    return sums.astype(np.float64, copy=False).reshape(-1, m)


def score_matrix(newer, older, metric: Metric = Metric.COSINE) -> np.ndarray:
    """Score every newer vector against every older one: an (N, M) matrix.

    Vectors are TopicDistributions or dense arrays over one vocabulary. The
    pairs that share a word are found by one join on word ids (sort the
    older entries, ``searchsorted`` each newer entry into them) and their
    per-pair sums accumulate with ``np.bincount``, so the cost grows with
    the number of shared-word entry pairs rather than with N * M * V.

    Cosine: sum(a * b) / (|a| * |b|). Hellinger similarity:
    1 - sqrt(D / 2) with D = sum((sqrt(a) - sqrt(b))^2), summed over the
    shared words plus each side's unshared mass, which is exactly 0 when
    every word of that side is shared. Identical vectors score exactly
    1.0 (downstream consumers treat it as the unchanged-group signature); a
    pair with an all-zero side scores 0.0; every score is clamped to [0, 1].
    """
    if not isinstance(metric, Metric):
        raise ValidationError(f"unknown metric {metric!r}")
    keys: dict = {}
    new = _Entries(newer, keys)
    old = _Entries(older, keys)
    sizes = new.sizes | old.sizes
    if len(sizes) > 1:
        raise ValidationError(
            f"topic vectors over different vocabularies: sizes {sorted(sizes)}"
        )
    n, m = new.count, old.count
    scores = np.zeros((n, m))
    if n == 0 or m == 0:
        return scores

    order = np.argsort(old.ids, kind="stable")
    old_ids = old.ids[order]
    old_groups = old.groups[order]
    old_values = old.values[order]
    if metric is Metric.COSINE:
        new_norms = np.sqrt(np.bincount(new.groups, new.values ** 2, minlength=n))
        old_norms = np.sqrt(np.bincount(old.groups, old.values ** 2, minlength=m))
    else:
        new_roots = np.sqrt(new.values)
        old_roots = np.sqrt(old_values)

    rows = max(1, _BLOCK_CELLS // m)
    for start in range(0, n, rows):
        stop = min(n, start + rows)
        cells = (stop - start) * m
        begin, end = new.offsets[start], new.offsets[stop]
        ids = new.ids[begin:end]
        lo = np.searchsorted(old_ids, ids, side="left")
        hits = np.searchsorted(old_ids, ids, side="right") - lo
        # Joined entry pairs: each newer entry against its run of equal ids.
        first = np.cumsum(hits) - hits
        new_at = np.repeat(np.arange(begin, end), hits)
        old_at = np.arange(int(hits.sum())) - np.repeat(first - lo, hits)
        flat = (new.groups[new_at] - start) * m + old_groups[old_at]
        a = new.values[new_at]
        b = old_values[old_at]
        if metric is Metric.COSINE:
            dot = _pair_sums(flat, a * b, cells, m)
            norms = np.outer(new_norms[start:stop], old_norms)
            block = np.divide(dot, norms, out=np.zeros_like(dot), where=norms > 0)
        else:
            dist = _pair_sums(flat, (new_roots[new_at] - old_roots[old_at]) ** 2,
                              cells, m)
            shared = np.bincount(flat, minlength=cells).reshape(-1, m)
            new_rest = np.where(shared == new.nnz[start:stop, None], 0.0,
                                new.totals[start:stop, None]
                                - _pair_sums(flat, a, cells, m))
            old_rest = np.where(shared == old.nnz, 0.0,
                                old.totals - _pair_sums(flat, b, cells, m))
            dist += np.maximum(new_rest, 0.0) + np.maximum(old_rest, 0.0)
            block = 1.0 - np.sqrt(0.5 * dist)
            block[(new.nnz[start:stop, None] == 0) | (old.nnz == 0)] = 0.0
        labels = new.labels[start:stop, None]
        block[(labels == old.labels) & (labels >= 0)] = 1.0
        scores[start:stop] = np.clip(block, 0.0, 1.0)
    return scores


def topic_similarity(t1, t2, metric: Metric = Metric.COSINE) -> float:
    """Score two topic vectors: one cell of ``score_matrix``.

    Equal vectors score exactly 1.0, a pair with an all-zero side 0.0
    (an empty document that slipped through scores 0 rather than NaN).
    """
    return float(score_matrix([t1], [t2], metric)[0, 0])


def _trimmed_lines(text: str) -> list[str]:
    return [line.strip() for line in text.splitlines()]


def lcs_matrix(newer_texts, older_texts) -> np.ndarray:
    """Line-LCS score of every newer text against every older one: (N, M).

    Each cell is 2*|LCS| / (len(a) + len(b)) over whitespace-trimmed lines,
    lines matching by ``==``; two empty texts score 1.0 and a pair with one
    empty side 0.0. The LCS length comes from the bit-parallel row
    recurrence (Allison & Dix 1986; Hyyrö 2004): each older text's lines
    become one bitmask per distinct line, built once, and each newer line
    updates a Python-int row vector ``v`` in one step. The LCS length is
    the count of zero bits left in ``v``.
    """
    newer_lines = [_trimmed_lines(text) for text in newer_texts]
    older_lines = [_trimmed_lines(text) for text in older_texts]
    scores = np.zeros((len(newer_lines), len(older_lines)))
    for j, old in enumerate(older_lines):
        n = len(old)
        masks: dict[str, int] = {}
        for bit, line in enumerate(old):
            masks[line] = masks.get(line, 0) | (1 << bit)
        full = (1 << n) - 1
        column = []
        for new in newer_lines:
            if not new or not old:
                column.append(1.0 if not new and not old else 0.0)
                continue
            v = full
            for line in new:
                mask = masks.get(line)
                if mask is not None:
                    u = v & mask
                    v = ((v + u) | (v - u)) & full
            lcs = n - v.bit_count()
            column.append(2.0 * lcs / (len(new) + n))
        scores[:, j] = column
    return scores


def lcs_similarity(a: str, b: str) -> float:
    """Line-LCS score of two texts: one cell of ``lcs_matrix``."""
    return float(lcs_matrix([a], [b])[0, 0])
