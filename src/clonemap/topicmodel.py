"""Per-group topic distributions, exact for one topic, sampled for more.

With a single topic the collapsed Gibbs posterior is degenerate (every token
is forced into topic 0), so group topics are computed directly as empirical
term frequencies. The general collapsed Gibbs sampler exists for validating
that reading against multi-topic corpora.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import ConfigError, EmptyDocumentError, ValidationError
from .preprocess import TokenDocument


@dataclass(frozen=True)
class Corpus:
    """Documents re-encoded as word-id sequences over a shared vocabulary."""

    vocabulary: tuple[str, ...]
    documents: tuple[tuple[int, ...], ...]
    word_ids: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        if not self.word_ids:
            object.__setattr__(
                self, "word_ids", {w: i for i, w in enumerate(self.vocabulary)}
            )
        size = len(self.vocabulary)
        for doc in self.documents:
            for wid in doc:
                if not 0 <= wid < size:
                    raise ValidationError(
                        f"word id {wid} outside vocabulary of size {size}"
                    )

    @property
    def vocabulary_size(self) -> int:
        return len(self.vocabulary)


@dataclass(frozen=True)
class LdaConfig:
    """Topic-count and smoothing settings. alpha defaults to 50/K."""

    K: int = 1
    alpha: float | None = None
    beta: float = 0.01
    iterations: int = 1000
    seed: int = 42

    def __post_init__(self):
        if self.K < 1:
            raise ConfigError(f"K must be >= 1, got {self.K}")
        if self.alpha is not None and self.alpha <= 0:
            raise ConfigError(f"alpha must be > 0, got {self.alpha}")
        if self.beta <= 0:
            raise ConfigError(f"beta must be > 0, got {self.beta}")
        if self.iterations < 0:
            raise ConfigError(f"iterations must be >= 0, got {self.iterations}")

    @property
    def effective_alpha(self) -> float:
        return 50.0 / self.K if self.alpha is None else self.alpha


@dataclass(frozen=True, init=False, eq=False)
class TopicDistribution:
    """Probability distribution over vocabulary ids for one clone group.

    Stored sparsely: ``ids`` are the sorted word ids with nonzero weight,
    ``values`` their weights and ``size`` the vocabulary size. Build one
    from a dense ``weights`` vector or from ``ids``/``values``/``size``;
    ``weights`` reads the dense vector back, built on each access.
    """

    ids: np.ndarray
    values: np.ndarray
    size: int
    group_ref: tuple[str, int] | None = None

    def __init__(self, weights=None, group_ref: tuple[str, int] | None = None,
                 *, ids=None, values=None, size: int | None = None):
        if weights is not None:
            if ids is not None or values is not None or size is not None:
                raise ValidationError("pass either weights or ids/values/size")
            dense = np.asarray(weights, dtype=np.float64)
            if dense.ndim != 1:
                raise ValidationError("topic weights must be one-dimensional")
            ids = np.flatnonzero(dense)
            values = dense[ids]
            size = dense.size
        else:
            if ids is None or values is None or size is None:
                raise ValidationError("a sparse topic needs ids, values and size")
            ids = np.asarray(ids, dtype=np.int64)
            values = np.asarray(values, dtype=np.float64)
            if ids.ndim != 1 or ids.shape != values.shape:
                raise ValidationError("topic ids and values must be matching 1-d arrays")
            if ids.size and (ids[0] < 0 or ids[-1] >= size
                             or np.any(ids[1:] <= ids[:-1])):
                raise ValidationError(
                    f"topic ids must be strictly increasing within [0, {size})"
                )
            nonzero = values != 0
            ids = ids[nonzero]
            values = values[nonzero]
        if np.any(values < 0):
            raise ValidationError("topic weights must be non-negative")
        total = float(values.sum())
        if not abs(total - 1.0) <= 1e-9:
            raise ValidationError(f"topic weights must sum to 1, got {total!r}")
        ids = ids.astype(np.int64, copy=False)
        ids.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "size", int(size))
        object.__setattr__(self, "group_ref", group_ref)

    @property
    def weights(self) -> np.ndarray:
        """Read-only dense vector over the whole vocabulary."""
        dense = np.zeros(self.size, dtype=np.float64)
        dense[self.ids] = self.values
        dense.setflags(write=False)
        return dense

    def __len__(self) -> int:
        return self.size


@dataclass(frozen=True)
class LdaResult:
    """Gibbs estimates: document-topic mixtures and topic-word distributions."""

    theta: np.ndarray
    phi: np.ndarray
    config: LdaConfig


def build_corpus(documents: Sequence[TokenDocument]) -> Corpus:
    """Encode documents over the sorted union of their words.

    Empty documents are permitted and stay empty; order and multiplicity of
    tokens are preserved.
    """
    vocab = sorted({w for doc in documents for w in doc.tokens})
    word_ids = {w: i for i, w in enumerate(vocab)}
    encoded = tuple(tuple(word_ids[w] for w in doc.tokens) for doc in documents)
    return Corpus(
        vocabulary=tuple(vocab),
        documents=encoded,
        word_ids=word_ids,
    )


def fit_group_topic(document: TokenDocument,
                    corpus: Corpus | None = None,
                    config: LdaConfig | None = None) -> TopicDistribution:
    """One-topic distribution for a single group: exact term frequencies.

    No sampling is involved; weight(w) = count(w) / token_count, stored
    only for the document's own words. When a corpus is given the ids index
    its vocabulary (so topics from two versions share an ordering);
    otherwise the document's own sorted vocabulary is used.
    """
    if config is not None and config.K != 1:
        raise ConfigError(
            f"fit_group_topic is the K=1 degenerate path, got K={config.K}"
        )
    if document.token_count == 0:
        raise EmptyDocumentError(document.group_ref)
    if corpus is None:
        corpus = build_corpus([document])
    counts = document.counts()
    try:
        ids = np.fromiter((corpus.word_ids[w] for w in counts), dtype=np.int64,
                          count=len(counts))
    except KeyError as exc:
        raise ValidationError(
            f"word {exc.args[0]!r} missing from corpus vocabulary"
        ) from None
    values = np.fromiter(counts.values(), dtype=np.float64, count=len(counts))
    order = np.argsort(ids)
    return TopicDistribution(ids=ids[order],
                             values=values[order] / document.token_count,
                             size=corpus.vocabulary_size,
                             group_ref=document.group_ref)


def _check_counts(corpus: Corpus, n_dk, n_kw, n_k, n_d, word_totals) -> None:
    K = len(n_k)
    V = corpus.vocabulary_size
    for w in range(V):
        if sum(n_kw[k][w] for k in range(K)) != word_totals[w]:
            raise ValidationError(f"topic-word counts for word id {w} drifted")
    for k in range(K):
        if sum(n_kw[k]) != n_k[k]:
            raise ValidationError(f"topic total for topic {k} drifted")
    for d in range(len(corpus.documents)):
        if sum(n_dk[d]) != n_d[d]:
            raise ValidationError(f"document-topic counts for document {d} drifted")


def fit_lda(corpus: Corpus, config: LdaConfig,
            check_counts: bool = False) -> LdaResult:
    """Collapsed Gibbs sampling over the whole corpus.

    Each sweep resamples every token's topic from
    P(z=k | rest) proportional to (n_dk + alpha) * (n_kw + beta) / (n_k + V*beta)
    with the token's own assignment excluded from the counts. Deterministic
    for a given seed (PCG64, one generator per run). With ``check_counts``
    the count tables are re-validated against the corpus after every sweep.
    """
    K = config.K
    alpha = config.effective_alpha
    beta = config.beta
    V = corpus.vocabulary_size
    docs = corpus.documents
    D = len(docs)
    if not any(docs):
        raise ValidationError("corpus has no non-empty documents")

    n_dk = [[0] * K for _ in range(D)]
    n_kw = [[0] * V for _ in range(K)]
    n_k = [0] * K
    n_d = [len(doc) for doc in docs]
    word_totals = [0] * V
    for doc in docs:
        for w in doc:
            word_totals[w] += 1

    rng = np.random.Generator(np.random.PCG64(config.seed))
    total_tokens = sum(n_d)
    if K == 1:
        assignments = [[0] * len(doc) for doc in docs]
    else:
        flat = rng.integers(0, K, size=total_tokens)
        assignments = []
        pos = 0
        for doc in docs:
            assignments.append([int(k) for k in flat[pos:pos + len(doc)]])
            pos += len(doc)
    for d, doc in enumerate(docs):
        for j, w in enumerate(doc):
            k = assignments[d][j]
            n_dk[d][k] += 1
            n_kw[k][w] += 1
            n_k[k] += 1

    vbeta = V * beta
    if K > 1:
        for _ in range(config.iterations):
            draws = rng.random(total_tokens)
            pos = 0
            for d, doc in enumerate(docs):
                dk = n_dk[d]
                z = assignments[d]
                for j, w in enumerate(doc):
                    k_old = z[j]
                    dk[k_old] -= 1
                    n_kw[k_old][w] -= 1
                    n_k[k_old] -= 1
                    total = 0.0
                    weights = []
                    for k in range(K):
                        p = (dk[k] + alpha) * (n_kw[k][w] + beta) / (n_k[k] + vbeta)
                        total += p
                        weights.append(total)
                    u = draws[pos] * total
                    pos += 1
                    k_new = 0
                    while weights[k_new] < u:
                        k_new += 1
                    z[j] = k_new
                    dk[k_new] += 1
                    n_kw[k_new][w] += 1
                    n_k[k_new] += 1
            if check_counts:
                _check_counts(corpus, n_dk, n_kw, n_k, n_d, word_totals)
    elif check_counts:
        _check_counts(corpus, n_dk, n_kw, n_k, n_d, word_totals)

    phi = (np.array(n_kw, dtype=np.float64) + beta)
    phi /= (np.array(n_k, dtype=np.float64) + vbeta)[:, None]
    theta = (np.array(n_dk, dtype=np.float64) + alpha)
    theta /= (np.array(n_d, dtype=np.float64) + K * alpha)[:, None]
    phi.setflags(write=False)
    theta.setflags(write=False)
    return LdaResult(theta=theta, phi=phi, config=config)
