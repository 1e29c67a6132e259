"""Corpus encoding, exact one-topic frequencies, and the Gibbs sampler."""

import tracemalloc
from collections import Counter
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from clonemap import pipeline, topicmodel
from clonemap.errors import ConfigError, ValidationError
from clonemap.preprocess import TokenDocument
from clonemap.mapping import Metric, score_matrix
from clonemap.topicmodel import (
    Corpus,
    LdaConfig,
    TopicBlock,
    build_corpus,
    fit_group_topic,
    fit_lda,
    frequency_blocks,
)


def doc(tokens):
    return TokenDocument(tuple(tokens))


def doc_of_counts(counts):
    """The document holding each word ``counts[word]`` times, in insertion
    order."""
    return TokenDocument(tuple(Counter(counts).elements()))


def assert_blocks_equal(got, want):
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.ids, want.ids)
    assert np.array_equal(got.values, want.values)
    assert got.size == want.size


def dense_row(block, i=0):
    """Row ``i`` of a block as a dense vector over its vocabulary."""
    lo, hi = block.indptr[i], block.indptr[i + 1]
    row = np.zeros(block.size)
    row[block.ids[lo:hi]] = block.values[lo:hi]
    return row


class TestBuildCorpus:
    def test_vocabulary_is_sorted_union(self):
        corpus = build_corpus([doc(["b", "a", "b"]), doc(["c", "a"])])
        assert corpus.vocabulary == ("a", "b", "c")
        assert [len(d) for d in corpus.documents] == [3, 2]

    def test_multiplicity_and_order_preserved(self):
        corpus = build_corpus([doc(["b", "a", "b"])])
        ids = corpus.documents[0]
        assert ids == (corpus.word_ids["b"], corpus.word_ids["a"],
                       corpus.word_ids["b"])

    def test_empty_document_list(self):
        corpus = build_corpus([])
        assert corpus.vocabulary == ()
        assert corpus.documents == ()

    def test_empty_documents_permitted(self):
        corpus = build_corpus([doc([]), doc(["a"])])
        assert corpus.documents[0] == ()

    def test_document_count_preserved(self):
        docs = [doc([f"w{i}"]) for i in range(20)]
        assert len(build_corpus(docs).documents) == 20

    def test_out_of_range_ids_rejected(self):
        with pytest.raises(ValidationError):
            Corpus(vocabulary=("a",), documents=((0, 1),))

    @pytest.mark.parametrize("wid", [0.5, True, 1.0])
    def test_non_integer_ids_rejected(self, wid):
        """0.5 once died in fit_lda with a TypeError; True was taken as 1."""
        with pytest.raises(ValidationError, match="not an integer"):
            Corpus(vocabulary=("a", "b"), documents=((wid, 0),))


class TestLdaConfig:
    def test_defaults(self):
        cfg = LdaConfig()
        assert (cfg.K, cfg.iterations, cfg.seed) == (1, 1000, 42)
        assert (topicmodel.ALPHA_TOTAL, topicmodel.BETA) == (50.0, 0.01)

    def test_only_topic_count_sweeps_and_seed_are_settable(self):
        """The priors are module constants, not fields: no caller set
        them, and no artifact records them."""
        assert [f.name for f in fields(LdaConfig)] == ["K", "iterations", "seed"]

    def test_alpha_scales_with_k(self):
        """theta = (n_dk + 50/K) / (n_d + 50): at K=5 each row is
        (n_dk + 10) / (n_d + 50), whatever the sampler drew."""
        corpus = build_corpus([doc(["a", "b", "a", "c"]), doc(["b", "c"]),
                               doc([])])
        result = fit_lda(corpus, LdaConfig(K=5, iterations=3, seed=2))
        n_d = np.array([[4.0], [2.0], [0.0]])
        n_dk = np.rint(result.theta * (n_d + 50.0) - 10.0)
        assert n_dk.sum(axis=1).tolist() == [4, 2, 0]
        np.testing.assert_array_equal(result.theta, (n_dk + 10.0) / (n_d + 50.0))

    @pytest.mark.parametrize("kwargs", [
        {"K": 0}, {"K": -1}, {"iterations": -1}, {"seed": -1},
        {"K": float("nan")}, {"K": float("inf")},
        {"iterations": float("nan")}, {"iterations": float("inf")},
        {"seed": float("nan")}, {"seed": float("inf")},
    ])
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            LdaConfig(**kwargs)

    @pytest.mark.parametrize("kwargs", [
        {"K": 2.5}, {"K": True}, {"iterations": 2.5}, {"iterations": "10"},
        {"seed": 1.5}, {"seed": False},
    ])
    def test_counts_and_seed_must_be_integers(self, kwargs):
        with pytest.raises(ConfigError, match="must be an integer"):
            LdaConfig(**kwargs)


class TestFitGroupTopic:
    def test_weights_are_exact_term_frequencies(self):
        d = doc_of_counts({"a": 1, "b": 3})
        topic = fit_group_topic(d)
        assert len(topic) == 1
        assert topic.indptr.tolist() == [0, 2]
        assert topic.ids.tolist() == [0, 1]
        assert topic.values.tolist() == [0.25, 0.75]

    def test_single_word_document(self):
        topic = fit_group_topic(doc(["x"] * 5))
        assert topic.size == 1
        assert topic.values.tolist() == [1.0]

    def test_empty_document_gives_an_empty_row(self):
        """As ``frequency_blocks`` gives it: one row with no entries, over
        the corpus vocabulary when one is given and over none otherwise."""
        empty = doc([])
        for corpus, size in ((None, 0), (build_corpus([doc(["a", "b"])]), 2)):
            topic = fit_group_topic(empty, corpus)
            assert len(topic) == 1
            assert topic.indptr.tolist() == [0, 0]
            assert topic.ids.size == topic.values.size == 0
            assert topic.size == size

    def test_shared_corpus_vocabulary(self):
        d1 = doc(["a", "a"])
        d2 = doc(["b"])
        corpus = build_corpus([d1, d2])
        t1 = fit_group_topic(d1, corpus)
        t2 = fit_group_topic(d2, corpus)
        assert t1.size == t2.size == 2
        assert dense_row(t1).tolist() == [1.0, 0.0]
        assert dense_row(t2).tolist() == [0.0, 1.0]

    def test_independent_of_other_documents(self):
        d = doc(["a", "b", "b"])
        alone = fit_group_topic(d)
        corpus = build_corpus([d, doc(["a", "c"]), doc(["b"])])
        with_others = fit_group_topic(d, corpus)
        by_word_alone = {w: dense_row(alone)[i]
                         for i, w in enumerate(("a", "b"))}
        by_word = {w: dense_row(with_others)[corpus.word_ids[w]]
                   for w in ("a", "b", "c")}
        assert by_word["a"] == by_word_alone["a"]
        assert by_word["b"] == by_word_alone["b"]
        assert by_word["c"] == 0.0

    @given(st.dictionaries(st.text(alphabet="abcdefgh", min_size=1, max_size=4),
                           st.integers(min_value=1, max_value=40),
                           min_size=1, max_size=10))
    def test_equals_term_frequency_vector(self, counts):
        """Weight of every word is exactly count/total, no tolerance."""
        d = doc_of_counts(counts)
        topic = fit_group_topic(d)
        total = sum(counts.values())
        vocab = sorted(counts)
        weights = dense_row(topic)
        for word, count in counts.items():
            assert weights[vocab.index(word)] == count / total


    def test_large_vocabulary_stores_only_the_document_words(self):
        """No array as long as the vocabulary is built to fit or to score."""
        V = 10**6
        corpus = Corpus(vocabulary=tuple(f"w{i:07d}" for i in range(V)),
                        documents=())
        d1 = doc(["w0000003", "w0999999", "w0000003", "w0500000"])
        d2 = doc(["w0500000", "w0000003", "w0000007"])
        v_bytes = V * 8
        tracemalloc.start()
        try:
            t1 = fit_group_topic(d1, corpus)
            t2 = fit_group_topic(d2, corpus)
            for metric in Metric:
                score_matrix(t1, t2, metric)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < v_bytes // 10
        assert t1.ids.size == 3 and t2.ids.size == 3
        assert t1.ids.tolist() == [3, 500000, 999999]
        assert t1.size == V
        assert t1.values.tolist() == [0.5, 0.25, 0.25]


# Dense (N, V) matrices whose rows are often all zero and whose entries are
# often zero.
DENSE = st.integers(min_value=1, max_value=6).flatmap(
    lambda v: st.lists(
        st.one_of(
            st.just([0.0] * v),
            st.lists(st.one_of(st.just(0.0),
                               st.floats(min_value=0.0, max_value=1e6)),
                     min_size=v, max_size=v),
        ),
        max_size=6,
    ).map(lambda rows: np.array(rows, dtype=np.float64).reshape(len(rows), v))
)


class TestTopicBlock:
    @given(DENSE)
    def test_from_dense_equals_hand_built_csr(self, dense):
        indptr, ids, values = [0], [], []
        for row in dense.tolist():
            for j, weight in enumerate(row):
                if weight != 0.0:
                    ids.append(j)
                    values.append(weight)
            indptr.append(len(ids))
        block = TopicBlock.from_dense(dense)
        assert len(block) == dense.shape[0]
        assert block.size == dense.shape[1]
        assert block.indptr.tolist() == indptr
        assert block.ids.tolist() == ids
        assert block.values.tolist() == values

    def test_from_dense_keeps_order_and_empty_rows(self):
        block = TopicBlock.from_dense([
            [0, 0, 0, 0, 0], [0, 0.25, 0, 0, 0.75], [0, 0, 0, 0, 0],
            [1.0, 0, 0, 0, 0],
        ])
        assert len(block) == 4
        assert block.indptr.tolist() == [0, 0, 2, 2, 3]
        assert block.ids.tolist() == [1, 4, 0]
        assert block.values.tolist() == [0.25, 0.75, 1.0]
        assert block.size == 5

    def test_from_dense_of_no_rows_keeps_its_size(self):
        block = TopicBlock.from_dense(np.zeros((0, 3)))
        assert len(block) == 0
        assert block.indptr.tolist() == [0]
        assert block.size == 3

    def test_from_dense_needs_a_matrix(self):
        for weights in ([0.5, 0.5], 1.0, np.ones((1, 2, 2))):
            with pytest.raises(ValidationError, match=r"\(N, V\)"):
                TopicBlock.from_dense(weights)

    def test_rejects_negative_and_non_finite_values(self):
        for bad in (-0.2, float("nan"), float("inf")):
            with pytest.raises(ValidationError, match="non-negative and finite"):
                TopicBlock(indptr=np.array([0, 2]), ids=np.array([0, 1]),
                           values=np.array([1.0, bad]), size=2)
            with pytest.raises(ValidationError, match="non-negative and finite"):
                TopicBlock.from_dense([[1.0, bad]])

    @pytest.mark.parametrize("zero", [0.0, -0.0])
    def test_rejects_a_stored_zero_weight(self, zero):
        """A stored zero is an all-zero vector that once scored 1.0
        against itself, and 0.5 under Hellinger against ``[0, 0.5]``."""
        with pytest.raises(ValidationError, match="no zero weight"):
            TopicBlock(indptr=[0, 1], ids=[0], values=[zero], size=2)
        with pytest.raises(ValidationError, match="no zero weight"):
            TopicBlock(indptr=[0, 2], ids=[0, 1], values=[0.5, zero], size=2)
        assert len(TopicBlock.from_dense([[zero, 0.5]]).values) == 1

    @pytest.mark.parametrize("indptr,ids,size", [
        ([0, 1], [0, 1], 3),        # indptr ends short of the entries
        ([1, 2], [0, 1], 3),        # indptr does not start at 0
        ([0, 2, 1, 2], [0, 1], 3),  # indptr falls
        ([], [], 3),                # no indptr at all
        ([0, 2], [1, 1], 3),        # repeated id within a row
        ([0, 2], [2, 1], 3),        # falling ids within a row
        ([0, 2], [0, 3], 3),        # id past the vocabulary
        ([0, 2], [-1, 0], 3),       # negative id
        ([0, 1], [0], None),        # entries with no vocabulary size
        ([0], [], -1),              # negative vocabulary size
    ])
    def test_malformed_block_rejected(self, indptr, ids, size):
        with pytest.raises(ValidationError):
            TopicBlock(indptr=np.array(indptr, dtype=np.int64),
                       ids=np.array(ids, dtype=np.int64),
                       values=np.ones(len(ids)), size=size)

    @pytest.mark.parametrize("indptr, ids", [
        ([0, 1.7], [0.9]),     # once truncated to [0, 1] and [0]
        ([0.0, 1.0], [0]),
        ([0, 1], [0.0]),
        ([0, 1], [True]),
    ])
    def test_non_integer_indptr_or_ids_rejected(self, indptr, ids):
        with pytest.raises(ValidationError, match="must hold integers"):
            TopicBlock(indptr=indptr, ids=ids, values=[1.0], size=2)

    def test_empty_id_list_is_accepted(self):
        """numpy makes an empty list float64; no entry is a non-integer."""
        block = TopicBlock(indptr=[0, 0], ids=[], values=[], size=2)
        assert block.ids.dtype == np.int64 and len(block) == 1

    @pytest.mark.parametrize("size", [True, False, 2.0])
    def test_size_must_be_an_integer(self, size):
        with pytest.raises(ValidationError, match="size"):
            TopicBlock(indptr=[0], ids=[], values=[], size=size)

    def test_ids_restart_at_every_row_start(self):
        block = TopicBlock(indptr=np.array([0, 0, 2, 2, 3, 3]),
                           ids=np.array([1, 2, 0]), values=np.ones(3), size=3)
        assert block.ids[block.indptr[3]:block.indptr[4]].tolist() == [0]

    def test_arrays_are_read_only(self):
        block = TopicBlock.from_dense([[1.0]])
        for array in (block.indptr, block.ids, block.values):
            with pytest.raises(ValueError):
                array[0] = 0

    def test_caller_arrays_stay_writable(self):
        indptr = np.array([0, 2], dtype=np.int64)
        ids = np.array([0, 1], dtype=np.int64)
        values = np.array([0.5, 0.5])
        block = TopicBlock(indptr=indptr, ids=ids, values=values, size=2)
        for mine, frozen in ((indptr, block.indptr), (ids, block.ids),
                             (values, block.values)):
            assert mine.flags.writeable
            assert not frozen.flags.writeable
            assert not np.shares_memory(mine, frozen)


# Word counts per group; an empty dict is a group whose document came out
# empty.
GROUP_COUNTS = st.one_of(
    st.just({}),
    st.dictionaries(st.text(alphabet="abcdefgh", min_size=1, max_size=3),
                    st.integers(min_value=1, max_value=40), max_size=8),
)


class TestFrequencyBlocks:
    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.lists(GROUP_COUNTS, max_size=5), min_size=1, max_size=3))
    def test_rows_equal_fit_group_topic_over_one_corpus(self, versions):
        docs = [[doc_of_counts(c) for c in counts] for counts in versions]
        corpus = build_corpus([d for version in docs for d in version])
        blocks = frequency_blocks(docs)
        assert len(blocks) == len(docs)
        for block, version in zip(blocks, docs):
            assert len(block) == len(version)
            assert block.size == corpus.vocabulary_size
            for i, d in enumerate(version):
                lo, hi = block.indptr[i], block.indptr[i + 1]
                expected = fit_group_topic(d, corpus)
                assert np.array_equal(block.ids[lo:hi], expected.ids)
                assert np.array_equal(block.values[lo:hi], expected.values)
        # One-shot iterables read once give the same blocks, empty
        # documents included.
        streamed = frequency_blocks(iter([(d for d in version)
                                          for version in docs]))
        for got, want in zip(streamed, blocks, strict=True):
            assert_blocks_equal(got, want)

    def test_k1_pair_topics_builds_no_corpus_and_no_distributions(
            self, monkeypatch):
        newer = [doc(["b", "a", "b"]), doc([]), doc(["c"])]
        older = [doc(["a", "d"])]

        def refuse(*args, **kwargs):
            raise AssertionError("K=1 must not build this")

        monkeypatch.setattr(pipeline, "build_corpus", refuse)
        expected = frequency_blocks([newer, older])
        for got, want in zip(pipeline.pair_topics(newer, older), expected,
                             strict=True):
            assert_blocks_equal(got, want)
            assert got.size == 4

    @pytest.mark.parametrize("K", [1, 2])
    def test_pair_topics_over_generators_equals_over_lists(self, K):
        newer = [doc(["b", "a", "b"]), doc([]), doc(["c", "a"])]
        older = [doc(["a", "d"]), doc([]), doc(["d", "d", "b"])]
        config = LdaConfig(K=K, iterations=20, seed=3)
        listed = pipeline.pair_topics(newer, older, config)
        streamed = pipeline.pair_topics((d for d in newer), (d for d in older),
                                        config)
        for got, want in zip(streamed, listed, strict=True):
            assert_blocks_equal(got, want)

    def test_k_above_one_rows_are_theta_rows(self):
        newer = [doc(["a", "b", "a"]), doc([])]
        older = [doc(["b", "c"])]
        config = LdaConfig(K=3, iterations=20, seed=5)
        new_block, old_block = pipeline.pair_topics(newer, older, config)
        theta = fit_lda(build_corpus(newer + older), config).theta
        assert new_block.size == old_block.size == 3
        assert new_block.indptr.tolist() == [0, 3, 3]
        assert old_block.indptr.tolist() == [0, 3]
        for block, row in ((new_block, theta[0]), (old_block, theta[2])):
            assert block.ids[:3].tolist() == [0, 1, 2]
            assert np.array_equal(block.values[:3], row)


class TestFitLda:
    def make_two_topic_corpus(self, seed=7, docs_per_half=20, doc_len=50):
        rng = np.random.default_rng(seed)
        half_a = [f"alpha{i}" for i in range(15)]
        half_b = [f"beta{i}" for i in range(15)]
        documents = []
        for d in range(docs_per_half):
            documents.append(doc(rng.choice(half_a, size=doc_len)))
        for d in range(docs_per_half):
            documents.append(doc(rng.choice(half_b, size=doc_len)))
        return build_corpus(documents), set(half_a), set(half_b)

    def test_k1_theta_is_all_ones(self):
        corpus = build_corpus([doc(["a", "b"]), doc(["b"])])
        result = fit_lda(corpus, LdaConfig(K=1, iterations=10, seed=1))
        assert result.theta.shape == (2, 1)
        assert np.all(result.theta == 1.0)

    @pytest.mark.parametrize("K,iterations,checks", [(1, 10, 1), (2, 3, 4)])
    def test_check_counts_after_start_and_every_sweep(self, monkeypatch, K,
                                                      iterations, checks):
        """One check of the initial counts for every K, then one per
        sweep; K=1 runs no sweep."""
        calls = []
        check = topicmodel._check_counts
        monkeypatch.setattr(topicmodel, "_check_counts",
                            lambda *args: calls.append(check(*args)))
        corpus = build_corpus([doc(["a", "b", "a"]), doc(["b"]), doc([])])
        config = LdaConfig(K=K, iterations=iterations, seed=1)
        result = fit_lda(corpus, config, check_counts=True)
        assert len(calls) == checks
        unchecked = fit_lda(corpus, config)
        assert np.array_equal(result.theta, unchecked.theta)
        assert np.array_equal(result.phi, unchecked.phi)

    def test_k1_phi_is_smoothed_corpus_frequency(self):
        corpus = build_corpus([doc(["a", "a", "b"])])
        beta = topicmodel.BETA
        result = fit_lda(corpus, LdaConfig(K=1, iterations=5, seed=1))
        expected = np.array([(2 + beta) / (3 + 2 * beta),
                             (1 + beta) / (3 + 2 * beta)])
        np.testing.assert_allclose(result.phi[0], expected, atol=1e-15)

    def test_rows_sum_to_one(self):
        corpus, _, _ = self.make_two_topic_corpus(docs_per_half=5, doc_len=20)
        result = fit_lda(corpus, LdaConfig(K=3, iterations=30, seed=3))
        np.testing.assert_allclose(result.phi.sum(axis=1), 1.0, atol=1e-9)
        np.testing.assert_allclose(result.theta.sum(axis=1), 1.0, atol=1e-9)

    def test_seed_determinism(self):
        corpus, _, _ = self.make_two_topic_corpus(docs_per_half=5, doc_len=20)
        cfg = LdaConfig(K=2, iterations=50, seed=99)
        r1 = fit_lda(corpus, cfg)
        r2 = fit_lda(corpus, cfg)
        assert np.array_equal(r1.phi, r2.phi)
        assert np.array_equal(r1.theta, r2.theta)

    def test_recovers_disjoint_topics(self):
        corpus, half_a, half_b = self.make_two_topic_corpus()
        result = fit_lda(corpus, LdaConfig(K=2, iterations=500, seed=42),
                         check_counts=True)
        a_ids = [i for i, w in enumerate(corpus.vocabulary) if w in half_a]
        b_ids = [i for i, w in enumerate(corpus.vocabulary) if w in half_b]
        masses = []
        for k in range(2):
            masses.append((result.phi[k][a_ids].sum(),
                           result.phi[k][b_ids].sum()))
        assert all(max(m) >= 0.9 for m in masses)
        assert {int(np.argmax(m)) for m in masses} == {0, 1}

    @pytest.mark.parametrize("K", [1, 2, 3])
    def test_corpus_with_no_tokens_gives_uniform_rows(self, K):
        """Every document of an all-empty corpus gets the uniform mixture,
        and a corpus of no documents gives theta of shape (0, K)."""
        config = LdaConfig(K=K, iterations=3, seed=0)
        result = fit_lda(build_corpus([doc([]), doc([])]), config)
        assert result.theta.shape == (2, K)
        np.testing.assert_allclose(result.theta, 1.0 / K, atol=1e-15)
        assert result.phi.shape == (K, 0)
        result = fit_lda(build_corpus([]), config)
        assert result.theta.shape == (0, K)
        assert result.phi.shape == (K, 0)

    def test_empty_document_gets_uniform_mixture(self):
        corpus = build_corpus([doc(["a", "b"]), doc([])])
        result = fit_lda(corpus, LdaConfig(K=2, iterations=10, seed=0))
        np.testing.assert_allclose(result.theta[1], [0.5, 0.5], atol=1e-12)
