"""Similarity metrics against hand-evaluated formulas and random oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from clonemap import similarity
from clonemap.errors import ValidationError
from clonemap.preprocess import TokenDocument
from clonemap.similarity import (
    Metric,
    lcs_matrix,
    lcs_similarity,
    score_matrix,
    topic_similarity,
)
from clonemap.topicmodel import TopicDistribution, build_corpus, fit_group_topic


def random_distribution(rng, size):
    raw = rng.random(size) + 1e-9
    return raw / raw.sum()


class TestTopicSimilarity:
    def test_identity_is_exactly_one(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            p = random_distribution(rng, 12)
            assert topic_similarity(p, p.copy()) == 1.0
            assert topic_similarity(p, p.copy(), Metric.HELLINGER) == 1.0

    def test_disjoint_supports_score_zero(self):
        a = np.array([1.0, 0.0])
        b = np.array([0.0, 1.0])
        assert topic_similarity(a, b) == 0.0
        assert topic_similarity(a, b, Metric.HELLINGER) == pytest.approx(0.0)

    def test_cosine_hand_example(self):
        a = np.array([0.5, 0.5])
        b = np.array([1.0, 0.0])
        assert topic_similarity(a, b) == pytest.approx(0.5 / np.sqrt(0.5), abs=1e-12)

    def test_zero_vector_guard(self):
        z = np.zeros(3)
        p = np.array([0.2, 0.3, 0.5])
        assert topic_similarity(z, p) == 0.0
        assert topic_similarity(z, z.copy()) == 0.0

    def test_vocabulary_mismatch_is_a_bug(self):
        with pytest.raises(ValidationError):
            topic_similarity(np.ones(3) / 3, np.ones(4) / 4)

    def test_accepts_topic_distribution_objects(self):
        t1 = TopicDistribution(weights=np.array([0.5, 0.5]), group_ref=("v2", 0))
        t2 = TopicDistribution(weights=np.array([1.0, 0.0]), group_ref=("v1", 3))
        assert topic_similarity(t1, t2) == pytest.approx(1 / np.sqrt(2))

    def test_symmetry_and_bounds_random(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            size = int(rng.integers(2, 30))
            a = random_distribution(rng, size)
            b = random_distribution(rng, size)
            for metric in Metric:
                s_ab = topic_similarity(a, b, metric)
                s_ba = topic_similarity(b, a, metric)
                assert s_ab == s_ba
                assert 0.0 <= s_ab <= 1.0

    def test_cosine_matches_direct_formula(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            size = int(rng.integers(2, 20))
            a = random_distribution(rng, size)
            b = random_distribution(rng, size)
            expected = float(a @ b) / (np.linalg.norm(a) * np.linalg.norm(b))
            assert topic_similarity(a, b) == pytest.approx(expected, abs=1e-12)

    def test_hellinger_matches_direct_formula(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            size = int(rng.integers(2, 20))
            a = random_distribution(rng, size)
            b = random_distribution(rng, size)
            dist = np.sqrt(np.sum((np.sqrt(a) - np.sqrt(b)) ** 2))
            expected = 1.0 - dist / np.sqrt(2.0)
            assert topic_similarity(a, b, Metric.HELLINGER) == pytest.approx(
                expected, abs=1e-12
            )


def _cosine_oracle(u, v):
    dot = sum(a * b for a, b in zip(u, v))
    nu = math.sqrt(sum(a * a for a in u))
    nv = math.sqrt(sum(b * b for b in v))
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return dot / (nu * nv)


def _hellinger_oracle(p, q):
    distance = math.sqrt(
        0.5 * sum((math.sqrt(a) - math.sqrt(b)) ** 2 for a, b in zip(p, q))
    )
    return 1.0 - distance


ORACLES = {Metric.COSINE: _cosine_oracle, Metric.HELLINGER: _hellinger_oracle}

# A small shared vocabulary, so that random groups overlap heavily.
COUNTS = st.dictionaries(st.sampled_from("abcdef"),
                         st.integers(min_value=1, max_value=60),
                         min_size=1, max_size=6)


def topics_over_one_corpus(*count_lists):
    docs = [[TokenDocument.from_counts(c) for c in counts]
            for counts in count_lists]
    corpus = build_corpus([d for group in docs for d in group])
    topics = [[fit_group_topic(d, corpus) for d in group] for group in docs]
    return corpus, topics


def dense(counts, vocabulary):
    total = sum(counts.values())
    return [counts.get(w, 0) / total for w in vocabulary]


class TestScoreMatrix:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(COUNTS, min_size=1, max_size=6),
           st.lists(COUNTS, min_size=1, max_size=6),
           st.sampled_from(list(Metric)))
    def test_every_entry_matches_dense_oracle(self, newer_counts,
                                              older_counts, metric):
        corpus, (newer, older) = topics_over_one_corpus(newer_counts,
                                                        older_counts)
        scores = score_matrix(newer, older, metric)
        assert scores.shape == (len(newer_counts), len(older_counts))
        for i, nc in enumerate(newer_counts):
            for j, oc in enumerate(older_counts):
                expected = ORACLES[metric](dense(nc, corpus.vocabulary),
                                           dense(oc, corpus.vocabulary))
                assert abs(scores[i, j] - expected) <= 1e-12
                if nc == oc:
                    assert scores[i, j] == 1.0

    def test_same_support_one_count_off_hellinger(self):
        """1 - sum(sqrt(p * q)) cancels here; the kernel must not."""
        newer = {"a": 3, "b": 5, "c": 7, "d": 100000}
        older = {"a": 3, "b": 5, "c": 7, "d": 100001}
        corpus, ([t_new], [t_old]) = topics_over_one_corpus([newer], [older])
        p = dense(newer, corpus.vocabulary)
        q = dense(older, corpus.vocabulary)
        expected = _hellinger_oracle(p, q)
        naive = 1.0 - math.sqrt(1.0 - sum(math.sqrt(a * b) for a, b in zip(p, q)))
        assert abs(naive - expected) > 1e-12
        got = score_matrix([t_new], [t_old], Metric.HELLINGER)[0, 0]
        assert abs(got - expected) <= 1e-12

    def test_matches_topic_similarity_cell_by_cell(self):
        rng = np.random.default_rng(23)
        vectors = [random_distribution(rng, 9) * (rng.random(9) < 0.5)
                   for _ in range(7)]
        for metric in Metric:
            scores = score_matrix(vectors[:4], vectors[3:], metric)
            for i in range(4):
                for j in range(4):
                    assert scores[i, j] == topic_similarity(
                        vectors[i], vectors[3 + j], metric)
            assert scores[3, 0] == (1.0 if vectors[3].any() else 0.0)

    def test_row_blocks_do_not_change_scores(self, monkeypatch):
        rng = np.random.default_rng(29)
        vectors = [random_distribution(rng, 12) * (rng.random(12) < 0.4)
                   for _ in range(10)]
        vectors = [v / v.sum() for v in vectors if v.any()]
        for metric in Metric:
            whole = score_matrix(vectors, vectors[:4], metric)
            monkeypatch.setattr(similarity, "_BLOCK_CELLS", 9)
            blocked = score_matrix(vectors, vectors[:4], metric)
            monkeypatch.undo()
            assert np.array_equal(whole, blocked)

    def test_empty_sides(self):
        t = TopicDistribution(weights=np.array([0.5, 0.5]))
        assert score_matrix([], [t]).shape == (0, 1)
        assert score_matrix([t, t], []).shape == (2, 0)

    def test_zero_vector_scores_zero_under_both_metrics(self):
        z = np.zeros(3)
        p = np.array([0.2, 0.3, 0.5])
        for metric in Metric:
            assert score_matrix([z, p], [p, z], metric).tolist() == [
                [0.0, 0.0], [1.0, 0.0]]

    def test_unknown_metric_rejected(self):
        with pytest.raises(ValidationError):
            score_matrix([np.ones(2) / 2], [np.ones(2) / 2], "cosine")


def brute_force_lcs(xs, ys):
    """Quadratic DP table, kept independent of the implementation."""
    table = [[0] * (len(ys) + 1) for _ in range(len(xs) + 1)]
    for i, x in enumerate(xs, 1):
        for j, y in enumerate(ys, 1):
            if x == y:
                table[i][j] = table[i - 1][j - 1] + 1
            else:
                table[i][j] = max(table[i - 1][j], table[i][j - 1])
    return table[-1][-1]


class TestLcsSimilarity:
    def test_identical_texts(self):
        text = "\n".join(f"line {i};" for i in range(8))
        assert lcs_similarity(text, text) == 1.0

    def test_hand_example(self):
        assert lcs_similarity("x\ny\nz", "x\nq\nz") == pytest.approx(4 / 6)

    def test_disjoint_lines(self):
        assert lcs_similarity("a\nb", "c\nd") == 0.0

    def test_both_empty(self):
        assert lcs_similarity("", "") == 1.0

    def test_one_empty(self):
        assert lcs_similarity("", "a\nb") == 0.0

    def test_whitespace_trimmed_before_comparison(self):
        assert lcs_similarity("  a;\nb;", "a;\n    b;") == 1.0

    def test_symmetry(self):
        a = "p\nq\nr"
        b = "q\nr\ns\nt"
        assert lcs_similarity(a, b) == lcs_similarity(b, a)

    @given(
        st.lists(st.sampled_from("abcd"), max_size=12),
        st.lists(st.sampled_from("abcd"), max_size=12),
    )
    def test_matches_brute_force_dp(self, xs, ys):
        """Implementation agrees with an independent full-table DP."""
        a = "\n".join(xs)
        b = "\n".join(ys)
        la = [l.strip() for l in a.splitlines()]
        lb = [l.strip() for l in b.splitlines()]
        if not la and not lb:
            expected = 1.0
        elif not la or not lb:
            expected = 0.0
        else:
            expected = 2.0 * brute_force_lcs(la, lb) / (len(la) + len(lb))
        assert lcs_similarity(a, b) == pytest.approx(expected, abs=1e-12)

    @given(
        st.lists(st.sampled_from("abc"), min_size=1, max_size=8),
        st.lists(st.sampled_from("abc"), min_size=1, max_size=8),
        st.lists(st.sampled_from("abc"), min_size=1, max_size=4),
    )
    def test_shared_suffix_never_decreases_score(self, xs, ys, suffix):
        """Appending the same lines to both sides cannot hurt the score."""
        a = "\n".join(xs)
        b = "\n".join(ys)
        tail = "\n".join(suffix)
        base = lcs_similarity(a, b)
        extended = lcs_similarity(a + "\n" + tail, b + "\n" + tail)
        assert extended >= base - 1e-12


def _oracle_trimmed_lines(text: str) -> list[str]:
    return [line.strip() for line in text.splitlines()]


def dp_lcs_similarity(a: str, b: str) -> float:
    """The one-row DP that ``lcs_matrix`` replaced, kept as its oracle."""
    lines_a = _oracle_trimmed_lines(a)
    lines_b = _oracle_trimmed_lines(b)
    if not lines_a and not lines_b:
        return 1.0
    if not lines_a or not lines_b:
        return 0.0
    # One-row DP; rows iterate over lines_a, columns over lines_b.
    prev = [0] * (len(lines_b) + 1)
    for line_a in lines_a:
        curr = [0] * (len(lines_b) + 1)
        for j, line_b in enumerate(lines_b, start=1):
            if line_a == line_b:
                curr[j] = prev[j - 1] + 1
            else:
                curr[j] = max(prev[j], curr[j - 1])
        prev = curr
    lcs = prev[-1]
    return 2.0 * lcs / (len(lines_a) + len(lines_b))


# Lines that differ only in whitespace or line endings, so that trimming
# and splitting are exercised; up to 150 lines crosses 64-bit mask words.
LINE_POOL = ["a", " a", "a\t", "b", "", "  ", "\r", "x = 1;", "}"]
TEXTS = st.builds(
    lambda lines, sep: sep.join(lines),
    st.lists(st.sampled_from(LINE_POOL), max_size=150),
    st.sampled_from(["\n", "\r\n"]),
)


def assert_matches_oracle(newer, older):
    scores = lcs_matrix(newer, older)
    assert scores.shape == (len(newer), len(older))
    for i, a in enumerate(newer):
        for j, b in enumerate(older):
            assert scores[i, j] == dp_lcs_similarity(a, b)


class TestLcsMatrix:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(TEXTS, min_size=1, max_size=3),
           st.lists(TEXTS, min_size=1, max_size=3))
    def test_every_cell_equals_dp_oracle(self, newer, older):
        assert_matches_oracle(newer, older)

    def test_long_random_texts_equal_dp_oracle(self):
        rng = np.random.default_rng(31)
        texts = ["\n".join(rng.choice(LINE_POOL, size=int(size)))
                 for size in rng.integers(60, 200, size=6)]
        assert_matches_oracle(texts[:3], texts[3:])

    def test_empty_lists_give_empty_matrices(self):
        assert lcs_matrix([], ["a", "b\nc"]).shape == (0, 2)
        assert lcs_matrix(["a", "b", "c"], []).shape == (3, 0)
        assert lcs_matrix([], []).shape == (0, 0)

    def test_empty_texts(self):
        assert lcs_matrix(["", "a"], ["", "a\nb"]).tolist() == [
            [1.0, 0.0], [0.0, 2 / 3]]

    def test_line_repeated_on_both_sides(self):
        newer = "\n".join(["x;"] * 200)
        older = "\n".join(["  x;"] * 130)
        assert lcs_matrix([newer], [older])[0, 0] == 2 * 130 / 330
        assert_matches_oracle([newer, older], [older, newer])

    def test_lcs_similarity_is_one_cell(self):
        texts = ["p\nq\nr", "q\nr\ns\nt", "", "r"]
        scores = lcs_matrix(texts, texts)
        for i, a in enumerate(texts):
            for j, b in enumerate(texts):
                assert lcs_similarity(a, b) == scores[i, j]
