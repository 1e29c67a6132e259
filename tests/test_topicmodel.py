"""Corpus encoding, exact one-topic frequencies, and the Gibbs sampler."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from clonemap import pipeline, topicmodel
from clonemap.errors import ConfigError, EmptyDocumentError, ValidationError
from clonemap.preprocess import TokenDocument
from clonemap.similarity import Metric, score_matrix
from clonemap.topicmodel import (
    Corpus,
    LdaConfig,
    TopicBlock,
    build_corpus,
    fit_group_topic,
    fit_lda,
    frequency_blocks,
)


def doc(tokens, ref=None):
    return TokenDocument(group_ref=ref, tokens=tuple(tokens))


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


class TestLdaConfig:
    def test_defaults(self):
        cfg = LdaConfig()
        assert cfg.K == 1
        assert cfg.effective_alpha == 50.0
        assert cfg.beta == 0.01

    def test_alpha_scales_with_k(self):
        assert LdaConfig(K=5).effective_alpha == 10.0

    @pytest.mark.parametrize("kwargs", [
        {"K": 0}, {"alpha": 0.0}, {"alpha": -1.0}, {"beta": 0.0},
        {"iterations": -1}, {"seed": -1},
        {"alpha": float("nan")}, {"alpha": float("inf")},
        {"beta": float("nan")}, {"beta": float("inf")},
    ])
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            LdaConfig(**kwargs)


class TestFitGroupTopic:
    def test_weights_are_exact_term_frequencies(self):
        d = TokenDocument.from_counts({"a": 1, "b": 3}, group_ref=("v", 0))
        topic = fit_group_topic(d)
        assert len(topic) == 1
        assert topic.indptr.tolist() == [0, 2]
        assert topic.ids.tolist() == [0, 1]
        assert topic.values.tolist() == [0.25, 0.75]

    def test_single_word_document(self):
        topic = fit_group_topic(doc(["x"] * 5))
        assert topic.size == 1
        assert topic.values.tolist() == [1.0]

    def test_empty_document_error_carries_group_ref(self):
        with pytest.raises(EmptyDocumentError, match="v9"):
            fit_group_topic(doc([], ref=("v9", 4)))

    def test_shared_corpus_vocabulary(self):
        d1 = doc(["a", "a"], ref=("v2", 0))
        d2 = doc(["b"], ref=("v1", 0))
        corpus = build_corpus([d1, d2])
        t1 = fit_group_topic(d1, corpus)
        t2 = fit_group_topic(d2, corpus)
        assert t1.size == t2.size == 2
        assert dense_row(t1).tolist() == [1.0, 0.0]
        assert dense_row(t2).tolist() == [0.0, 1.0]

    def test_independent_of_other_documents(self):
        d = doc(["a", "b", "b"], ref=("v", 0))
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
        d = TokenDocument.from_counts(counts)
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
        d1 = doc(["w0000003", "w0999999", "w0000003", "w0500000"], ("v2", 0))
        d2 = doc(["w0500000", "w0000003", "w0000007"], ("v1", 0))
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
        docs = [[TokenDocument.from_counts(c) for c in counts]
                for counts in versions]
        corpus = build_corpus([d for version in docs for d in version])
        blocks = frequency_blocks(docs)
        assert len(blocks) == len(docs)
        for block, version in zip(blocks, docs):
            assert len(block) == len(version)
            assert block.size == corpus.vocabulary_size
            for i, d in enumerate(version):
                lo, hi = block.indptr[i], block.indptr[i + 1]
                if d.token_count == 0:
                    assert lo == hi
                    continue
                expected = fit_group_topic(d, corpus)
                assert np.array_equal(block.ids[lo:hi], expected.ids)
                assert np.array_equal(block.values[lo:hi], expected.values)

    def test_k1_pair_topics_builds_no_corpus_and_no_distributions(
            self, monkeypatch):
        newer = [doc(["b", "a", "b"]), doc([]), doc(["c"])]
        older = [doc(["a", "d"])]

        def refuse(*args, **kwargs):
            raise AssertionError("K=1 must not build this")

        monkeypatch.setattr(pipeline, "build_corpus", refuse)
        new_topics, old_topics = pipeline.pair_topics(newer, older, "v2", "v1")
        expected = frequency_blocks([newer, older])
        for got, want in zip((new_topics.block, old_topics.block), expected):
            assert np.array_equal(got.indptr, want.indptr)
            assert np.array_equal(got.ids, want.ids)
            assert np.array_equal(got.values, want.values)
            assert got.size == want.size == 4

    def test_k_above_one_rows_are_theta_rows(self):
        newer = [doc(["a", "b", "a"]), doc([])]
        older = [doc(["b", "c"])]
        config = LdaConfig(K=3, iterations=20, seed=5)
        new_topics, old_topics = pipeline.pair_topics(newer, older, "v2", "v1",
                                                      config)
        theta = fit_lda(build_corpus(newer + older), config).theta
        assert new_topics.block.size == old_topics.block.size == 3
        assert new_topics.block.indptr.tolist() == [0, 3, 3]
        assert old_topics.block.indptr.tolist() == [0, 3]
        for block, row in ((new_topics.block, theta[0]),
                           (old_topics.block, theta[2])):
            assert block.ids[:3].tolist() == [0, 1, 2]
            assert np.array_equal(block.values[:3], row)


class TestFitLda:
    def make_two_topic_corpus(self, seed=7, docs_per_half=20, doc_len=50):
        rng = np.random.default_rng(seed)
        half_a = [f"alpha{i}" for i in range(15)]
        half_b = [f"beta{i}" for i in range(15)]
        documents = []
        for d in range(docs_per_half):
            documents.append(doc(rng.choice(half_a, size=doc_len), ("a", d)))
        for d in range(docs_per_half):
            documents.append(doc(rng.choice(half_b, size=doc_len), ("b", d)))
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
        beta = 0.01
        result = fit_lda(corpus, LdaConfig(K=1, beta=beta, iterations=5, seed=1))
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

    def test_all_empty_corpus_rejected(self):
        corpus = build_corpus([doc([]), doc([])])
        with pytest.raises(ValidationError):
            fit_lda(corpus, LdaConfig(K=2, iterations=1, seed=0))

    def test_empty_document_gets_uniform_mixture(self):
        corpus = build_corpus([doc(["a", "b"]), doc([])])
        result = fit_lda(corpus, LdaConfig(K=2, iterations=10, seed=0))
        np.testing.assert_allclose(result.theta[1], [0.5, 0.5], atol=1e-12)
