"""Per-group topic distributions, exact for one topic, sampled for more.

With a single topic the collapsed Gibbs posterior is degenerate (every token
is forced into topic 0), so group topics are computed directly as empirical
term frequencies. The general collapsed Gibbs sampler exists for validating
that reading against multi-topic corpora.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import ConfigError, ValidationError, is_json_int
from .preprocess import TokenDocument


@dataclass(frozen=True)
class Corpus:
    """Documents re-encoded as word-id sequences over a shared vocabulary.
    ``word_ids`` maps each word to its id and is derived from the
    vocabulary."""

    vocabulary: tuple[str, ...]
    documents: tuple[tuple[int, ...], ...]
    word_ids: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(
            self, "word_ids", {w: i for i, w in enumerate(self.vocabulary)}
        )
        size = len(self.vocabulary)
        for doc in self.documents:
            for wid in doc:
                if not (is_json_int(wid) and 0 <= wid < size):
                    raise ValidationError(
                        f"word id {wid!r} is not an integer in [0, {size})"
                    )

    @property
    def vocabulary_size(self) -> int:
        return len(self.vocabulary)


# The sampler's fixed Dirichlet priors (Griffiths & Steyvers, PNAS 2004):
# alpha = ALPHA_TOTAL / K, a prior mass of 50 per document, and beta = BETA.
ALPHA_TOTAL = 50.0
BETA = 0.01


@dataclass(frozen=True)
class LdaConfig:
    """Topic count, Gibbs sweeps and sampler seed."""

    K: int = 1
    iterations: int = 1000
    seed: int = 42

    def __post_init__(self):
        for name, low in (("K", 1), ("iterations", 0), ("seed", 0)):
            value = getattr(self, name)
            if not is_json_int(value):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
            if value < low:
                raise ConfigError(f"{name} must be >= {low}, got {value}")


@dataclass(frozen=True, eq=False)
class TopicBlock:
    """The topic vectors of one version's groups, stacked in CSR form.

    Row ``i`` holds the sorted word ids ``ids[indptr[i]:indptr[i + 1]]``
    and their weights in ``values``, over a vocabulary of ``size`` words;
    an empty row is a group whose document came out empty. Stored weights
    are positive and finite, so a row with no entries is the only zero
    vector; rows need not sum to 1.
    """

    indptr: np.ndarray
    ids: np.ndarray
    values: np.ndarray
    size: int

    def __post_init__(self):
        # An empty list comes out float64, so only entries must be integers.
        for name in ("indptr", "ids"):
            array = np.asarray(getattr(self, name))
            if array.size and array.dtype.kind not in "iu":
                raise ValidationError(f"topic block {name} must hold integers, "
                                      f"got dtype {array.dtype}")
        # Copies, so that freezing them leaves the caller's arrays writable.
        indptr = np.array(self.indptr, dtype=np.int64)
        ids = np.array(self.ids, dtype=np.int64)
        values = np.array(self.values, dtype=np.float64)
        # A bool is not an integer type to numpy.
        if not np.issubdtype(type(self.size), np.integer) or self.size < 0:
            raise ValidationError(
                f"topic block size must be a non-negative int, got {self.size!r}"
            )
        if (indptr.ndim != 1 or ids.ndim != 1 or ids.shape != values.shape
                or indptr.size == 0 or indptr[0] != 0 or indptr[-1] != ids.size
                or np.any(indptr[1:] < indptr[:-1])):
            raise ValidationError("malformed topic block: indptr must run "
                                  "from 0 to the number of entries")
        if ids.size:
            # Ids restart at each row start, so no rise is needed there.
            rising = ids[1:] > ids[:-1]
            starts = indptr[1:-1]
            rising[starts[(starts > 0) & (starts < ids.size)] - 1] = True
            if ids.min() < 0 or ids.max() >= self.size or not rising.all():
                raise ValidationError(
                    f"topic block ids must rise within each row and lie in "
                    f"[0, {self.size})"
                )
        if not np.isfinite(values).all() or (values < 0).any():
            raise ValidationError("topic weights must be non-negative and finite")
        # A stored zero would make an all-zero row look non-empty.
        if (values == 0).any():
            raise ValidationError("a topic block stores no zero weight; "
                                  "leave the entry out")
        for name, array in (("indptr", indptr), ("ids", ids), ("values", values)):
            array.setflags(write=False)
            object.__setattr__(self, name, array)
        object.__setattr__(self, "size", int(self.size))

    @classmethod
    def from_dense(cls, weights) -> "TopicBlock":
        """The block of an (N, V) array: each row keeps its nonzero entries
        in id order, and an all-zero row becomes an empty row."""
        dense = np.asarray(weights, dtype=np.float64)
        if dense.ndim != 2:
            raise ValidationError(
                f"dense topic weights must be an (N, V) array, got shape "
                f"{dense.shape}"
            )
        rows, ids = np.nonzero(dense)
        nnz = np.bincount(rows, minlength=dense.shape[0])
        return cls(indptr=np.concatenate(([0], np.cumsum(nnz))), ids=ids,
                   values=dense[rows, ids], size=dense.shape[1])

    def __len__(self) -> int:
        return self.indptr.size - 1


@dataclass(frozen=True)
class LdaResult:
    """Gibbs estimates: document-topic mixtures and topic-word distributions."""

    theta: np.ndarray
    phi: np.ndarray


def build_corpus(documents: Sequence[TokenDocument]) -> Corpus:
    """Encode documents over the sorted union of their words.

    Empty documents are permitted and stay empty; order and multiplicity of
    tokens are preserved.
    """
    vocab = sorted({w for doc in documents for w in doc.tokens})
    word_ids = {w: i for i, w in enumerate(vocab)}
    encoded = tuple(tuple(word_ids[w] for w in doc.tokens) for doc in documents)
    return Corpus(vocabulary=tuple(vocab), documents=encoded)


def fit_group_topic(document: TokenDocument,
                    corpus: Corpus | None = None) -> TopicBlock:
    """One-topic distribution for a single group, as a one-row TopicBlock
    of exact term frequencies.

    No sampling is involved; weight(w) = count(w) / token_count, stored
    only for the document's own words, so an empty document gives an
    empty row. When a corpus is given the ids index its vocabulary (so
    topics from two versions share an ordering); otherwise the document's
    own sorted vocabulary is used.
    """
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
    return TopicBlock(indptr=np.array([0, len(counts)]), ids=ids[order],
                      values=values[order] / document.token_count,
                      size=corpus.vocabulary_size)


@dataclass(frozen=True, eq=False)
class VersionCounts:
    """One version's word counts, in CSR form over its own vocabulary.

    ``vocabulary`` lists the version's words in the order they first
    occur, unsorted. Row ``i`` holds the local word ids
    ``ids[indptr[i]:indptr[i + 1]]``, in the order of the document's
    counts, with their tallies in ``tallies``, so the row's token count is
    the sum of its tallies; every array is int64. An empty document is an
    empty row.
    """

    vocabulary: list[str]
    indptr: np.ndarray
    ids: np.ndarray
    tallies: np.ndarray


def count_version(documents: Iterable[TokenDocument]) -> VersionCounts:
    """Count one version's documents, read once in order, so they may be a
    one-shot iterable; only their word counts are kept. No word is sorted
    here: ``merge_counts`` sorts the union once. The K = 1 builder,
    ``pipeline._frequency_pair``, counts each version through this, in
    this process or in a forked child."""
    counts = [doc.counts() for doc in documents]
    word_ids: dict[str, int] = {}
    nnz = np.fromiter(map(len, counts), dtype=np.int64, count=len(counts))
    entries = int(nnz.sum())
    ids = np.fromiter((word_ids.setdefault(w, len(word_ids))
                       for c in counts for w in c),
                      dtype=np.int64, count=entries)
    tallies = np.fromiter((n for c in counts for n in c.values()),
                          dtype=np.int64, count=entries)
    return VersionCounts(
        vocabulary=list(word_ids),
        indptr=np.concatenate(([0], np.cumsum(nnz))),
        ids=ids,
        tallies=tallies,
    )


def merge_counts(versions: Sequence[VersionCounts]) -> list[TopicBlock]:
    """One block per version of ``count_version``, over the sorted union
    of their vocabularies, so blocks of different versions compare
    directly. Each local id maps through one table into the union, each
    row is put in id order by one integer sort, and weights are
    tally / row total, the total summed from the row's tallies.

    Row weights are count(w) / token_count in sorted-vocabulary order,
    exactly as ``fit_group_topic`` gives them over ``build_corpus`` of the
    same documents; an empty document gives an empty row. The sums are
    exact below 2**53 tokens a row, so every weight keeps its bits."""
    vocabulary = sorted(set().union(*(v.vocabulary for v in versions)))
    word_ids = {w: i for i, w in enumerate(vocabulary)}
    blocks = []
    for version in versions:
        table = np.fromiter(map(word_ids.__getitem__, version.vocabulary),
                            dtype=np.int64, count=len(version.vocabulary))
        ids = table[version.ids]
        rows = np.repeat(np.arange(len(version.indptr) - 1),
                         np.diff(version.indptr))
        totals = np.bincount(rows, version.tallies)
        # One key per entry, rising with the row and then the word id.
        order = np.argsort(rows * len(vocabulary) + ids)
        blocks.append(TopicBlock(
            indptr=version.indptr,
            ids=ids[order],
            values=(version.tallies / totals[rows])[order],
            size=len(vocabulary),
        ))
    return blocks


def _check_counts(corpus: Corpus, n_dk, n_kw, n_k) -> None:
    """ValidationError unless the count tables agree with the corpus: each
    word's topic counts sum to its corpus count, each topic's to its
    total and each document's to its length."""
    word_totals = Counter(w for doc in corpus.documents for w in doc)
    K = len(n_k)
    for w in range(corpus.vocabulary_size):
        if sum(n_kw[k][w] for k in range(K)) != word_totals[w]:
            raise ValidationError(f"topic-word counts for word id {w} drifted")
    for k in range(K):
        if sum(n_kw[k]) != n_k[k]:
            raise ValidationError(f"topic total for topic {k} drifted")
    for d, doc in enumerate(corpus.documents):
        if sum(n_dk[d]) != len(doc):
            raise ValidationError(f"document-topic counts for document {d} drifted")


def fit_lda(corpus: Corpus, config: LdaConfig,
            check_counts: bool = False) -> LdaResult:
    """Collapsed Gibbs sampling over the whole corpus.

    Each sweep resamples every token's topic from
    P(z=k | rest) proportional to (n_dk + alpha) * (n_kw + beta) / (n_k + V*beta)
    with the token's own assignment excluded from the counts. Deterministic
    for a given seed (PCG64, one generator per run). With ``check_counts``
    the count tables are re-validated against the corpus after the initial
    assignment and after every sweep. An empty document, so every document
    of a corpus with no tokens, gets the uniform mixture 1/K; a corpus of
    no documents gives theta of shape (0, K).
    """
    K = config.K
    alpha = ALPHA_TOTAL / K
    beta = BETA
    V = corpus.vocabulary_size
    docs = corpus.documents
    D = len(docs)

    n_dk = [[0] * K for _ in range(D)]
    n_kw = [[0] * V for _ in range(K)]
    n_k = [0] * K
    n_d = [len(doc) for doc in docs]

    rng = np.random.Generator(np.random.PCG64(config.seed))
    total_tokens = sum(n_d)
    flat = rng.integers(0, K, size=total_tokens)
    assignments = []
    pos = 0
    for dk, doc in zip(n_dk, docs):
        z = [int(k) for k in flat[pos:pos + len(doc)]]
        pos += len(doc)
        for w, k in zip(doc, z):
            dk[k] += 1
            n_kw[k][w] += 1
            n_k[k] += 1
        assignments.append(z)
    if check_counts:
        _check_counts(corpus, n_dk, n_kw, n_k)

    vbeta = V * beta
    # With one topic every draw would keep every token in topic 0.
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
                _check_counts(corpus, n_dk, n_kw, n_k)

    phi = (np.array(n_kw, dtype=np.float64) + beta)
    phi /= (np.array(n_k, dtype=np.float64) + vbeta)[:, None]
    theta = np.array(n_dk, dtype=np.float64).reshape(D, K) + alpha
    theta /= (np.array(n_d, dtype=np.float64) + K * alpha)[:, None]
    phi.setflags(write=False)
    theta.setflags(write=False)
    return LdaResult(theta=theta, phi=phi)
