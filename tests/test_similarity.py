"""Similarity metrics against hand-evaluated formulas and random oracles."""

import math
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from clonemap import mapping
from clonemap.errors import ValidationError
from clonemap.mapping import (
    MappingConfig,
    Metric,
    baseline_text_map,
    lcs_matrix,
    lcs_similarity,
    map_version_pair,
    score_matrix,
    topic_similarity,
)
from clonemap.pipeline import _frequency_pair
from clonemap.preprocess import TokenDocument
from clonemap.topicmodel import TopicBlock


def random_distribution(rng, size):
    raw = rng.random(size) + 1e-9
    return raw / raw.sum()


def assert_scorer_matches(scorer, whole, skip, rng):
    """``scorer``, a ``(score_rows, m, skip)`` of ``mapping``, has the
    column count of the dense ``whole`` and the ``skip`` mask given, and
    ``score_rows`` gives, for random row lists, those rows of ``whole``
    bit for bit, whether asked for all of them at once or, under
    ``_BLOCK_CELLS`` = 9, block by block through ``_blocks``."""
    score_rows, m, got_skip = scorer
    n = len(whole)
    assert (m, got_skip.tolist()) == (whole.shape[1], skip)
    for size in (0, 1, n, 2 * n, *rng.integers(0, 2 * n, size=20)):
        rows = rng.integers(0, n, size=size)
        assert np.array_equal(score_rows(rows), whole[rows])
        blocks = [block for _, block in mapping._blocks(score_rows, rows, m)]
        assert np.array_equal(np.concatenate([np.empty((0, m)), *blocks]),
                              whole[rows])


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

    def test_rejects_input_that_is_not_one_dimensional(self):
        p = np.array([0.5, 0.5])
        for bad in (np.array([[0.5, 0.5]]), 0.5,
                    TopicBlock.from_dense([[0.5, 0.5]])):
            with pytest.raises(ValidationError, match="one-dimensional"):
                topic_similarity(bad, p)
            with pytest.raises(ValidationError, match="one-dimensional"):
                topic_similarity(p, bad)

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


def blocks_over_one_vocabulary(newer_counts, older_counts):
    """The sorted vocabulary and the newer and the older frequency block,
    as ``pipeline._frequency_pair`` builds them, one row per dict of
    counts; an empty dict gives an empty row."""
    count_lists = (newer_counts, older_counts)
    docs = [[TokenDocument(tuple(Counter(c).elements())) for c in counts]
            for counts in count_lists]
    vocabulary = sorted({w for counts in count_lists for c in counts for w in c})
    return vocabulary, _frequency_pair(*docs, fork=False)


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
        vocabulary, (newer, older) = blocks_over_one_vocabulary(newer_counts,
                                                                older_counts)
        scores = score_matrix(newer, older, metric)
        assert scores.shape == (len(newer_counts), len(older_counts))
        for i, nc in enumerate(newer_counts):
            for j, oc in enumerate(older_counts):
                expected = ORACLES[metric](dense(nc, vocabulary),
                                           dense(oc, vocabulary))
                assert abs(scores[i, j] - expected) <= 1e-12
                if nc == oc:
                    assert scores[i, j] == 1.0

    @settings(max_examples=120, deadline=None)
    @given(st.lists(st.one_of(st.none(), COUNTS), max_size=6),
           st.lists(st.one_of(st.none(), COUNTS), max_size=6),
           st.sampled_from(list(Metric)))
    def test_blocks_equal_lists_with_empty_rows_scattered(self, newer_counts,
                                                         older_counts, metric):
        """Scoring blocks that hold empty rows equals scoring the blocks of
        the present rows alone and placing them in a zero matrix, exactly."""
        present = [[c for c in counts if c is not None]
                   for counts in (newer_counts, older_counts)]
        _, (newer, older) = blocks_over_one_vocabulary(*present)
        _, (new_block, old_block) = blocks_over_one_vocabulary(
            *[[{} if c is None else c for c in counts]
              for counts in (newer_counts, older_counts)])
        expected = np.zeros((len(newer_counts), len(older_counts)))
        expected[np.ix_([i for i, c in enumerate(newer_counts) if c is not None],
                        [j for j, c in enumerate(older_counts) if c is not None])
                 ] = score_matrix(newer, older, metric)
        assert np.array_equal(score_matrix(new_block, old_block, metric), expected)

    def test_block_sizes_must_agree(self):
        a = TopicBlock.from_dense([[1.0, 0.0]])
        b = TopicBlock.from_dense([[1.0, 0.0, 0.0]])
        with pytest.raises(ValidationError, match="different vocabularies"):
            score_matrix(a, b)
        empty = TopicBlock.from_dense([[0.0, 0.0]])
        assert score_matrix(a, empty).tolist() == [[0.0]]

    def test_same_support_one_count_off_hellinger(self):
        """1 - sum(sqrt(p * q)) cancels here; the kernel must not."""
        newer = {"a": 3, "b": 5, "c": 7, "d": 100000}
        older = {"a": 3, "b": 5, "c": 7, "d": 100001}
        vocabulary, (t_new, t_old) = blocks_over_one_vocabulary([newer], [older])
        p = dense(newer, vocabulary)
        q = dense(older, vocabulary)
        expected = _hellinger_oracle(p, q)
        naive = 1.0 - math.sqrt(1.0 - sum(math.sqrt(a * b) for a, b in zip(p, q)))
        assert abs(naive - expected) > 1e-12
        got = score_matrix(t_new, t_old, Metric.HELLINGER)[0, 0]
        assert abs(got - expected) <= 1e-12

    @pytest.mark.parametrize("metric", list(Metric))
    @pytest.mark.parametrize("newer,older", [
        ({"x": 1, "y": 2}, {"x": 2, "y": 4}),
        # Without the identity rule, cosine gives 0.9999999999999998 here.
        ({"x": 2, "y": 3}, {"x": 4, "y": 6}),
    ])
    def test_proportional_documents_score_exactly_one(self, newer, older,
                                                      metric):
        _, (t_new, t_old) = blocks_over_one_vocabulary([newer], [older])
        assert score_matrix(t_new, t_old, metric)[0, 0] == 1.0

    @pytest.mark.parametrize("metric", list(Metric))
    @pytest.mark.parametrize("newer,older", [
        (dense({"x": 2, "y": 3, "z": 5}, "xyz"),
         dense({"x": 2, "y": 3, "z": 6}, "xyz")),
        # Two of three weights equal, then one side's entries all equal.
        ([0.2, 0.3, 0.5], [0.2, 0.3, 0.6]),
        ([0.2, 0.3, 0.0], [0.2, 0.3, 0.5]),
    ])
    def test_near_identical_rows_are_not_forced_to_one(self, newer, older,
                                                       metric):
        for u, v in ((newer, older), (older, newer)):
            got = score_matrix(TopicBlock.from_dense([u]),
                               TopicBlock.from_dense([v]), metric)[0, 0]
            assert got < 1.0
            assert abs(got - ORACLES[metric](u, v)) <= 1e-12

    def test_hellinger_identical_rows_inside_blocks_score_exactly_one(self):
        """The unshared masses are row totals minus joined sums. Both add a
        row's weights in ascending word-id order, so a fully shared side
        leaves exactly 0.0; summed in another order, these weights leave
        about 1e-16 and identical rows would miss 1.0."""
        t = [0.0, 1 / 3, 0.0, 1 / 7, 0.0, 1 / 11, 0.0, 0.4]
        assert sum(t) != sum(reversed(t))
        # A subset of t's support with t's own weights there.
        s = [0.0, 1 / 3, 0.0, 0.0, 0.0, 0.0, 0.0, 0.4]
        # Other rows whose ids interleave with t's.
        a = [0.25, 0.0, 0.25, 1 / 7, 0.5, 0.0, 0.0, 0.0]
        b = [1 / 7, 0.0, 0.0, 0.0, 0.0, 1 / 3, 1 / 11, 0.0]
        newer = [a, t, s, b]
        older = [b, s, a, t]
        scores = score_matrix(TopicBlock.from_dense(newer),
                              TopicBlock.from_dense(older), Metric.HELLINGER)
        assert scores[1, 3] == scores[2, 1] == scores[0, 2] == scores[3, 0] == 1.0
        for i, u in enumerate(newer):
            for j, v in enumerate(older):
                assert abs(scores[i, j] - _hellinger_oracle(u, v)) <= 1e-12

    def test_matches_topic_similarity_cell_by_cell(self):
        rng = np.random.default_rng(23)
        vectors = [random_distribution(rng, 9) * (rng.random(9) < 0.5)
                   for _ in range(7)]
        for metric in Metric:
            scores = score_matrix(TopicBlock.from_dense(vectors[:4]),
                                  TopicBlock.from_dense(vectors[3:]), metric)
            for i in range(4):
                for j in range(4):
                    assert scores[i, j] == topic_similarity(
                        vectors[i], vectors[3 + j], metric)
            assert scores[3, 0] == (1.0 if vectors[3].any() else 0.0)

    def test_row_blocks_do_not_change_scores(self, monkeypatch):
        """Blocks of one or two rows, and the row scorer given any rows
        in any order, repeats included, give ``score_matrix``'s bits."""
        rng = np.random.default_rng(29)
        vectors = [random_distribution(rng, 12) * (rng.random(12) < 0.4)
                   for _ in range(10)]
        vectors = [v / v.sum() for v in vectors if v.any()]
        newer = TopicBlock.from_dense([*vectors[:3], np.zeros(12), *vectors[3:]])
        older = TopicBlock.from_dense(vectors[:4])
        for metric in Metric:
            whole = score_matrix(newer, older, metric)
            monkeypatch.setattr(mapping, "_BLOCK_CELLS", 9)
            assert np.array_equal(score_matrix(newer, older, metric), whole)
            assert_scorer_matches(
                mapping._topic_scorer(newer, older, metric), whole,
                [i == 3 for i in range(len(newer))], rng)
            monkeypatch.undo()

    def test_empty_sides(self):
        none = TopicBlock.from_dense(np.zeros((0, 2)))
        t = TopicBlock.from_dense([[0.5, 0.5]])
        tt = TopicBlock.from_dense([[0.5, 0.5], [0.5, 0.5]])
        assert score_matrix(none, t).shape == (0, 1)
        assert score_matrix(tt, none).shape == (2, 0)

    def test_zero_vector_scores_zero_under_both_metrics(self):
        z = np.zeros(3)
        p = np.array([0.2, 0.3, 0.5])
        for metric in Metric:
            assert score_matrix(TopicBlock.from_dense([z, p]),
                                TopicBlock.from_dense([p, z]),
                                metric).tolist() == [[0.0, 0.0], [1.0, 0.0]]

    def test_unknown_metric_rejected(self):
        half = TopicBlock.from_dense([np.ones(2) / 2])
        with pytest.raises(ValidationError):
            score_matrix(half, half, "cosine")

    def test_sides_must_be_blocks(self):
        half = TopicBlock.from_dense([np.ones(2) / 2])
        for newer, older in (([np.ones(2) / 2], half),
                             (half, [np.ones(2) / 2]), ([], [])):
            with pytest.raises(ValidationError, match="TopicBlock"):
                score_matrix(newer, older)

    @pytest.mark.parametrize("metric,newer,older", [
        # A squared norm overflows: the parent scored 0.0, not 3/sqrt(10).
        (Metric.COSINE, [1e155, 1e155], [1, 2]),
        (Metric.COSINE, [1e200, 1e200], [1e200, 2e200]),
        # Each norm fits, their product does not.
        (Metric.COSINE, [1e154, 0], [1e155, 0]),
        (Metric.HELLINGER, [1e308, 1e308], [1, 2]),
        # Each total fits, their sum does not.
        (Metric.HELLINGER, [1.5e308, 0], [0, 1.5e308]),
    ])
    def test_weights_too_large_to_score_are_refused(self, metric, newer,
                                                    older):
        """No numpy warning escapes either: each would be an error here."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="too large to score"):
                topic_similarity(newer, older, metric)
            with pytest.raises(ValidationError, match="too large to score"):
                map_version_pair(TopicBlock.from_dense([newer]),
                                 TopicBlock.from_dense([older]), "v2",
                                 MappingConfig(metric=metric))

    def test_large_weights_that_fit_still_score(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert topic_similarity([1e150, 1e150], [1, 2]) == pytest.approx(
                3 / math.sqrt(10), rel=1e-12)
            assert topic_similarity([1e300, 0], [0, 1e300],
                                    Metric.HELLINGER) == 0.0


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
    """Lines as ingest counts them, trimmed: CRLF and lone CR become LF,
    lines break at LF only, and a trailing newline ends the last line."""
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    if lines[-1] == "":
        lines.pop()
    return [line.strip() for line in lines]


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
# The last eight are the characters other than CR and LF at which
# str.splitlines breaks; here they are whitespace inside a line.
LINE_POOL = ["a", " a", "a\t", "b", "", "  ", "\r", "x = 1;", "}",
             "a\v", "\f", "b\x1c", "\x1d", "a\x1eb", "\x85", "a\u2028b",
             "\u2029"]
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


# Two disjoint line pools and the boilerplate both share; "" is a blank
# line, so a text of blank lines only is not the empty text.
NEWER_POOL = ["int a = 1;", "a += 2;", "  f(a);", "while (a) {"]
OLDER_POOL = ["int b = 1;", "b -= 2;", "g(b);  ", "if (b) {"]
BOILERPLATE = ["}", "", "return 0;"]


def _texts_from(*pools, min_size=0):
    lines = st.sampled_from([line for pool in pools for line in pool])
    return st.lists(lines, min_size=min_size, max_size=12).map("\n".join)


def _boilerplate_text(pool):
    """Lines of ``pool`` and boilerplate, ``}`` among them, in any order."""
    lines = st.lists(st.sampled_from(pool + BOILERPLATE), max_size=11)
    return lines.flatmap(lambda drawn: st.permutations(drawn + ["}"])).map(
        "\n".join)


class TestLcsMatrix:
    @settings(max_examples=60, deadline=None)
    @given(own_newer=_texts_from(NEWER_POOL, min_size=1),
           own_older=_texts_from(OLDER_POOL, min_size=1),
           boiler_newer=_boilerplate_text(NEWER_POOL),
           boiler_older=_boilerplate_text(OLDER_POOL),
           mixed_newer=st.lists(_texts_from(NEWER_POOL, OLDER_POOL, BOILERPLATE),
                                max_size=3),
           mixed_older=st.lists(_texts_from(NEWER_POOL, OLDER_POOL, BOILERPLATE),
                                max_size=3))
    def test_candidate_join_equals_dp_oracle(self, own_newer, own_older,
                                             boiler_newer, boiler_older,
                                             mixed_newer, mixed_older):
        """Every draw holds an empty text on each side, a pair that shares
        no line, a pair that shares only boilerplate, ``}`` at least, and
        mixed texts that may share anything; every cell, candidate or not,
        equals the DP."""
        newer = ["", own_newer, boiler_newer, *mixed_newer]
        older = ["", own_older, boiler_older, *mixed_older]
        assert_matches_oracle(newer, older)

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

    def test_row_scorer_matches_lcs_matrix(self, monkeypatch):
        rng = np.random.default_rng(43)
        lines = ["a", "b", " c", "d ", "e", "}"]
        texts = ["\n".join(rng.choice(lines, size=k).tolist())
                 for k in rng.integers(0, 7, size=12)]
        texts[5] = ""
        newer, older = texts, texts[3:8]
        whole = lcs_matrix(newer, older)
        monkeypatch.setattr(mapping, "_BLOCK_CELLS", 9)
        assert np.array_equal(lcs_matrix(newer, older), whole)
        assert_scorer_matches(mapping._lcs_scorer(iter(newer), iter(older)),
                              whole, [False] * len(newer), rng)

    def test_sides_that_meet_lines_in_other_orders_share_line_ids(self):
        """The older texts meet ``c`` and ``b`` before ``a``, so ids
        numbered per side would tell ``a b c`` and ``c b`` an LCS of 2
        where the DP finds 1."""
        newer = ["a\nb\nc", "c", "  b"]
        older = ["c\nb", "b\na\nc", "a "]
        ids = {}
        newer_lines = mapping._trimmed_lines(newer, "newer", ids)
        older_lines = mapping._trimmed_lines(older, "older", ids)
        assert (newer_lines, older_lines) == (
            [[0, 1, 2], [2], [1]], [[2, 1], [1, 0, 2], [0]])
        assert ids == {"a": 0, "b": 1, "c": 2}
        assert_matches_oracle(newer, older)
        assert lcs_matrix(newer, older)[0, 0] == 0.4
        verdicts = baseline_text_map(iter(newer), iter(older), "v2",
                                     MappingConfig(delta=0.0))
        assert list(zip(*verdicts)) == [(1, 2 * 2 / 6), (0, 2 / 3), (0, 2 / 3)]

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

    def test_form_feed_is_trimmed_not_a_line_break(self):
        """GNU-style sources end a page with ^L; splitting there would add
        an empty line that only one side has."""
        assert lcs_similarity("a\nb\nc", "a\nb\x0c\nc") == 1.0
        assert lcs_similarity("a\nb", "a\u2028b") == 0.0

    def test_lcs_similarity_is_one_cell(self):
        texts = ["p\nq\nr", "q\nr\ns\nt", "", "r"]
        scores = lcs_matrix(texts, texts)
        for i, a in enumerate(texts):
            for j, b in enumerate(texts):
                assert lcs_similarity(a, b) == scores[i, j]

    @pytest.mark.parametrize("newer,older,message", [
        ("ab", ["a"], "newer texts must be an iterable of str, not a str"),
        (["a"], "ab", "older texts must be an iterable of str, not a str"),
        (None, ["a"], "newer texts must be an iterable of str, not a NoneType"),
        ([None], ["a"], "newer text 0 is a NoneType, not a str"),
        (["a"], ["b", b"a"], "older text 1 is a bytes, not a str"),
    ])
    def test_texts_must_be_a_sequence_of_str(self, newer, older, message):
        """A bare str once iterated as one-character texts and scored."""
        with pytest.raises(ValidationError, match=message):
            lcs_matrix(newer, older)

    @pytest.mark.parametrize("a,b", [(None, "a"), ("a", 3), (["a"], "a")])
    def test_lcs_similarity_takes_two_str(self, a, b):
        with pytest.raises(ValidationError, match="not a str"):
            lcs_similarity(a, b)

    @pytest.mark.parametrize("score", [
        lcs_matrix, lambda newer, older: baseline_text_map(newer, older, "v2")],
        ids=["lcs_matrix", "baseline_text_map"])
    @pytest.mark.parametrize("side", ["newer", "older"])
    def test_a_bare_str_is_not_texts(self, score, side):
        """Both callers of ``_trimmed_lines`` refuse a bare ``str`` with a
        message that names the side and no function."""
        texts = {"newer": ["a"], "older": ["a"], side: "ab"}
        with pytest.raises(ValidationError) as caught:
            score(texts["newer"], texts["older"])
        assert str(caught.value) == (
            f"{side} texts must be an iterable of str, not a str")
