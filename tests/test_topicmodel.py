"""Corpus encoding, exact one-topic frequencies, and the Gibbs sampler."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from clonemap import pipeline
from clonemap.errors import ConfigError, EmptyDocumentError, ValidationError
from clonemap.preprocess import TokenDocument
from clonemap.similarity import Metric, score_matrix
from clonemap.topicmodel import (
    Corpus,
    LdaConfig,
    TopicBlock,
    TopicDistribution,
    build_corpus,
    fit_group_topic,
    fit_lda,
    frequency_blocks,
)


def doc(tokens, ref=None):
    return TokenDocument(group_ref=ref, tokens=tuple(tokens))


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
        {"iterations": -1},
    ])
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            LdaConfig(**kwargs)


class TestFitGroupTopic:
    def test_weights_are_exact_term_frequencies(self):
        d = TokenDocument.from_counts({"a": 1, "b": 3}, group_ref=("v", 0))
        topic = fit_group_topic(d)
        assert topic.weights.tolist() == [0.25, 0.75]
        assert topic.group_ref == ("v", 0)

    def test_single_word_document(self):
        topic = fit_group_topic(doc(["x"] * 5))
        assert topic.weights.tolist() == [1.0]

    def test_empty_document_error_carries_group_ref(self):
        with pytest.raises(EmptyDocumentError, match="v9"):
            fit_group_topic(doc([], ref=("v9", 4)))

    def test_shared_corpus_vocabulary(self):
        d1 = doc(["a", "a"], ref=("v2", 0))
        d2 = doc(["b"], ref=("v1", 0))
        corpus = build_corpus([d1, d2])
        t1 = fit_group_topic(d1, corpus)
        t2 = fit_group_topic(d2, corpus)
        assert len(t1) == len(t2) == 2
        assert t1.weights.tolist() == [1.0, 0.0]
        assert t2.weights.tolist() == [0.0, 1.0]

    def test_k_above_one_rejected(self):
        with pytest.raises(ConfigError):
            fit_group_topic(doc(["a"]), config=LdaConfig(K=2))

    def test_independent_of_other_documents(self):
        d = doc(["a", "b", "b"], ref=("v", 0))
        alone = fit_group_topic(d)
        corpus = build_corpus([d, doc(["a", "c"]), doc(["b"])])
        with_others = fit_group_topic(d, corpus)
        by_word_alone = {w: alone.weights[i]
                         for i, w in enumerate(("a", "b"))}
        by_word = {w: with_others.weights[corpus.word_ids[w]]
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
        for word, count in counts.items():
            assert topic.weights[vocab.index(word)] == count / total


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
                score_matrix([t1], [t2], metric)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < v_bytes // 10
        assert t1.ids.size == 3 and t2.ids.size == 3
        assert t1.ids.tolist() == [3, 500000, 999999]
        assert len(t1) == V
        expected = np.zeros(V)
        expected[[3, 500000, 999999]] = [0.5, 0.25, 0.25]
        assert np.array_equal(t1.weights, expected)


class TestTopicDistribution:
    def test_rejects_negative_weights(self):
        with pytest.raises(ValidationError):
            TopicDistribution(weights=np.array([1.2, -0.2]))

    def test_rejects_bad_sum(self):
        with pytest.raises(ValidationError):
            TopicDistribution(weights=np.array([0.4, 0.4]))

    def test_weights_immutable(self):
        t = TopicDistribution(weights=np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            t.weights[0] = 0.9

    def test_sparse_form_of_dense_weights(self):
        t = TopicDistribution(weights=np.array([0.0, 0.25, 0.0, 0.75]))
        assert t.ids.tolist() == [1, 3]
        assert t.values.tolist() == [0.25, 0.75]
        assert t.size == 4
        with pytest.raises(ValueError):
            t.values[0] = 0.5

    def test_sparse_constructor_checks(self):
        t = TopicDistribution(ids=[0, 2], values=[0.5, 0.5], size=3)
        assert t.weights.tolist() == [0.5, 0.0, 0.5]
        for ids in ([2, 0], [0, 0], [0, 3], [-1, 0]):
            with pytest.raises(ValidationError):
                TopicDistribution(ids=ids, values=[0.5, 0.5], size=3)
        with pytest.raises(ValidationError):
            TopicDistribution(ids=[0], values=[0.5, 0.5], size=3)
        with pytest.raises(ValidationError):
            TopicDistribution(ids=[0, 1], values=[1.5, -0.5], size=3)
        with pytest.raises(ValidationError):
            TopicDistribution(ids=[0, 1], values=[0.5, float("nan")], size=3)


class TestTopicBlock:
    def test_from_rows_keeps_order_and_empty_rows(self):
        block = TopicBlock.from_rows([
            None, (np.array([1, 4]), np.array([0.25, 0.75]), 5), None,
            (np.array([0]), np.array([1.0]), 5),
        ])
        assert len(block) == 4
        assert block.indptr.tolist() == [0, 0, 2, 2, 3]
        assert block.ids.tolist() == [1, 4, 0]
        assert block.values.tolist() == [0.25, 0.75, 1.0]
        assert block.size == 5
        assert block.row(0) is None
        assert block.row(1).ids.tolist() == [1, 4]
        assert block.row(3, ("v", 3)).group_ref == ("v", 3)

    def test_no_rows_has_no_size(self):
        assert TopicBlock.from_rows([]).size is None
        assert TopicBlock.from_rows([None, None]).size is None
        assert len(TopicBlock.from_rows([None, None])) == 2

    def test_rows_over_different_vocabularies_rejected(self):
        with pytest.raises(ValidationError, match="different vocabularies"):
            TopicBlock.from_rows([(np.array([0]), np.array([1.0]), 2),
                                  (np.array([0]), np.array([1.0]), 3)])

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
    ])
    def test_malformed_block_rejected(self, indptr, ids, size):
        with pytest.raises(ValidationError):
            TopicBlock(indptr=np.array(indptr, dtype=np.int64),
                       ids=np.array(ids, dtype=np.int64),
                       values=np.ones(len(ids)), size=size)

    def test_ids_restart_at_every_row_start(self):
        block = TopicBlock(indptr=np.array([0, 0, 2, 2, 3, 3]),
                           ids=np.array([1, 2, 0]), values=np.ones(3), size=3)
        assert block.row(3).ids.tolist() == [0]

    def test_arrays_are_read_only(self):
        block = TopicBlock.from_rows([(np.array([0]), np.array([1.0]), 1)])
        with pytest.raises(ValueError):
            block.values[0] = 0.5


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
        monkeypatch.setattr(TopicDistribution, "__init__", refuse)
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
        assert new_topics.topics[1] is None
        for topic, row in ((new_topics.topics[0], theta[0]),
                           (old_topics.topics[0], theta[2])):
            assert np.array_equal(topic.weights, row)


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
