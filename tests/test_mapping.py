"""Thresholded argmax mapping and the injective mode."""

import collections
import gc
import json
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from clonemap import mapping
from clonemap.errors import CloneMapWarning, ConfigError, ValidationError
from clonemap.evaluation import GroupMapping, mappings_from_artifact
from clonemap.mapping import (
    MappingConfig,
    Metric,
    _assign,
    baseline_text_map,
    lcs_matrix,
    map_version_pair,
    score_matrix,
)
from clonemap.pipeline import (
    _frequency_pair,
    canonical_json,
    mapping_result,
)
from clonemap.preprocess import TokenDocument


def pair_from_counts(newer_counts, older_counts):
    """The newer and the older TopicBlock over one vocabulary, one row per
    word->count dict, built by ``pipeline._frequency_pair`` as ``clonemap
    map`` builds them at K = 1 (in this process); an empty dict is a group
    whose document came out empty. The tests map them with the newer
    version named ``v2``."""
    return _frequency_pair(
        *([TokenDocument(tuple(collections.Counter(c).elements()))
           for c in counts] for counts in (newer_counts, older_counts)),
        fork=False)


class TestMapVersionPair:
    def test_identity_snapshots_map_one_to_one(self):
        counts = [{"a": 3, "b": 1}, {"c": 2}, {"d": 1, "e": 1}]
        newer, older = pair_from_counts(counts, counts)
        old, sim = map_version_pair(newer, older, "v2")
        assert len(old) == len(sim) == len(counts)
        for i, (j, s) in enumerate(zip(old, sim)):
            assert j == i
            assert s == 1.0

    def test_below_threshold_maps_to_null(self):
        # cos((3,1)/4, (1,3)/4) = 6/10 = 0.6 < 0.8
        newer, older = pair_from_counts([{"a": 3, "b": 1}], [{"a": 1, "b": 3}])
        old, sim = map_version_pair(newer, older, "v2")
        assert old[0] is None
        assert sim[0] == pytest.approx(0.6)

    def test_argmax_and_threshold_contracts(self):
        rng = np.random.default_rng(21)
        words = [f"w{i}" for i in range(12)]
        def random_counts():
            return {w: int(rng.integers(1, 9))
                    for w in rng.choice(words, size=5, replace=False)}
        newer_counts = [random_counts() for _ in range(15)]
        older_counts = [random_counts() for _ in range(12)]
        newer, older = pair_from_counts(newer_counts, older_counts)
        config = MappingConfig(delta=0.8)
        old, sim = map_version_pair(newer, older, "v2", config)
        scores = score_matrix(newer, older, config.metric)
        assert len(old) == len(sim) == 15
        for j, s, row in zip(old, sim, scores):
            if j is None:
                assert row.max() < config.delta
            else:
                assert s >= config.delta
                assert s == row.max()
                assert j == int(row.argmax())

    def test_tie_breaks_to_lowest_old_index(self):
        newer, older = pair_from_counts([{"a": 2}], [{"a": 5}, {"a": 7}])
        old, sim = map_version_pair(newer, older, "v2")
        assert old[0] == 0
        assert sim[0] == 1.0

    def test_empty_older_version_maps_all_null(self):
        newer, older = pair_from_counts([{"a": 1}, {"b": 1}], [])
        old, sim = map_version_pair(newer, older, "v2")
        assert all(j is None for j in old)
        assert len(old) == len(sim) == 2

    def test_empty_document_group_warns_and_maps_null(self):
        newer, older = pair_from_counts([{}, {"a": 1}], [{"a": 1}])
        with pytest.warns(CloneMapWarning, match="empty"):
            old, sim = map_version_pair(newer, older, "v2")
        assert old[0] is None
        assert sim[0] == 0.0
        assert old[1] == 0

    def test_many_to_one_allowed_by_default(self):
        newer, older = pair_from_counts([{"a": 2}, {"a": 3}], [{"a": 1}])
        old, _ = map_version_pair(newer, older, "v2")
        assert old[0] == 0
        assert old[1] == 0

    def test_injective_mode_reassigns_loser(self):
        # Both newer groups claim old 0 at similarity 1.0; the tie goes to
        # the lower new index and the loser re-auctions onto old 1.
        newer, older = pair_from_counts(
            [{"a": 9, "b": 1}, {"a": 9, "b": 1}],
            [{"a": 9, "b": 1}, {"a": 9, "b": 3}],
        )
        config = MappingConfig(enforce_injective=True)
        olds, sim = map_version_pair(newer, older, "v2", config)
        assert olds[0] == 0
        assert olds[1] == 1
        assert sim[0] == 1.0
        assert sim[1] < 1.0
        without, _ = map_version_pair(newer, older, "v2", MappingConfig())
        assert without == [0, 0]

    def test_injective_never_duplicates_old_groups(self):
        rng = np.random.default_rng(5)
        words = [f"w{i}" for i in range(6)]
        def random_counts():
            return {w: int(rng.integers(1, 5))
                    for w in rng.choice(words, size=3, replace=False)}
        newer, older = pair_from_counts(
            [random_counts() for _ in range(10)],
            [random_counts() for _ in range(4)],
        )
        config = MappingConfig(delta=0.5, enforce_injective=True)
        old, _ = map_version_pair(newer, older, "v2", config)
        non_null = [j for j in old if j is not None]
        assert len(non_null) == len(set(non_null))

    def test_delta_monotonicity(self):
        rng = np.random.default_rng(17)
        words = [f"w{i}" for i in range(10)]
        def random_counts():
            return {w: int(rng.integers(1, 6))
                    for w in rng.choice(words, size=4, replace=False)}
        newer, older = pair_from_counts(
            [random_counts() for _ in range(20)],
            [random_counts() for _ in range(20)],
        )
        previous = None
        for delta in (0.2, 0.5, 0.8, 0.95, 1.0):
            old, _ = map_version_pair(newer, older, "v2",
                                      MappingConfig(delta=delta))
            mapped = {(i, j) for i, j in enumerate(old) if j is not None}
            if previous is not None:
                assert mapped <= previous
            previous = mapped

    def test_output_totality_and_order(self):
        newer, older = pair_from_counts(
            [{"a": 1}, {"b": 1}, {"c": 1}], [{"c": 2}]
        )
        old, sim = map_version_pair(newer, older, "v2")
        assert len(old) == len(sim) == 3

    def test_invalid_delta_rejected(self):
        with pytest.raises(ConfigError):
            MappingConfig(delta=1.5)

    @pytest.mark.parametrize("kwargs", [
        {"metric": "cosine"}, {"strategy": "lcs"},
        {"enforce_injective": "no"}, {"enforce_injective": 1},
        {"delta": "0.5"}, {"delta": True}, {"delta": None},
    ])
    def test_wrongly_typed_fields_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            MappingConfig(**kwargs)


def columns(verdicts):
    """A list of ``(old, similarity)`` verdicts as ``_assign``'s two columns."""
    return [j for j, _ in verdicts], [s for _, s in verdicts]


def oracle_injective_assign(scores, empty_rows, delta):
    """The per-column Python auction that ``_assign``'s injective branch
    replaced, kept as its oracle."""
    return oracle_injective_rounds(scores, empty_rows, delta)[0]


def oracle_injective_rounds(scores, empty_rows, delta):
    """``oracle_injective_assign``'s verdicts and its count of rounds."""
    rounds = 0
    n_new, n_old = scores.shape
    mappings = {}
    contenders = []
    for i, empty in enumerate(empty_rows):
        if empty or n_old == 0:
            mappings[i] = (None, 0.0)
        else:
            contenders.append(i)
    score_rows = scores.tolist()
    available = set(range(n_old))
    pending = list(contenders)
    while pending:
        rounds += 1
        claims = {}
        for i in pending:
            row = score_rows[i]
            best, neg_j = max(((row[j], -j) for j in available),
                              default=(0.0, 0))
            if available and best >= delta:
                claims.setdefault(-neg_j, []).append(i)
            else:
                mappings[i] = (None, best)
        next_pending = []
        for j, claimants in claims.items():
            winner = max(claimants, key=lambda i: (score_rows[i][j], -i))
            mappings[winner] = (j, score_rows[winner][j])
            available.discard(j)
            next_pending.extend(i for i in claimants if i != winner)
        pending = next_pending
    return columns([mappings[i] for i in range(n_new)]), rounds


def assign_matrix(scores, empty_rows, config):
    """``_assign`` over a fixed (N, M) matrix, through a row scorer that
    reads the rows it is asked for off the matrix."""
    return _assign(lambda rows: scores[rows], scores.shape[1],
                   empty_rows, "v2", config)


def injective(scores, empty_rows, delta):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CloneMapWarning)
        return assign_matrix(scores, empty_rows,
                             MappingConfig(delta=delta, enforce_injective=True))


def tie_heavy_cases():
    """3,000 seeded (scores, empty_rows, delta) cases: N and M from 0 to
    11, quarter-step scores, flat rows, 15 % empty rows, and ``delta`` at
    0, 1/4, 1/2, 3/4, 1 or random."""
    rng = np.random.default_rng(13)
    deltas = (0.0, 0.25, 0.5, 0.75, 1.0)
    for _ in range(3000):
        n_new, n_old = rng.integers(0, 12, size=2)
        # Quarter steps make ties within and across rows common.
        scores = rng.integers(0, 5, size=(n_new, n_old)) / 4.0
        flat = rng.random(n_new) < 0.1
        scores[flat] = rng.integers(0, 5) / 4.0
        empty_rows = (rng.random(n_new) < 0.15).tolist()
        scores[empty_rows] = 0.0
        delta = (float(rng.random()) if rng.random() < 0.2
                 else deltas[rng.integers(len(deltas))])
        yield scores, empty_rows, delta


def oracle_plain_assign(scores, empty_rows, delta):
    """Scalar thresholded argmax: each row's first maximum, the lowest
    older index, kept when it clears ``delta``. An empty row, or any row
    when there is no older group, maps to null at 0.0."""
    out = []
    for i, row in enumerate(scores.tolist()):
        if empty_rows[i] or not row:
            out.append((None, 0.0))
            continue
        best = max(row)
        out.append((row.index(best) if best >= delta else None, best))
    return columns(out)


class TestPlainAssignOracle:
    def test_matches_scalar_reference_on_tie_heavy_matrices(self):
        for scores, empty_rows, delta in tie_heavy_cases():
            before = scores.copy()
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", CloneMapWarning)
                got = assign_matrix(scores, empty_rows,
                                    MappingConfig(delta=delta))
            assert got == oracle_plain_assign(before, empty_rows, delta)
            assert np.array_equal(scores, before)


class TestInjectiveAuctionOracle:
    def test_matches_oracle_on_tie_heavy_matrices(self):
        no_column_left = 0
        for scores, empty_rows, delta in tie_heavy_cases():
            n_old = scores.shape[1]
            before = scores.copy()
            got = injective(scores, empty_rows, delta)
            assert got == oracle_injective_assign(before, empty_rows, delta)
            assert np.array_equal(scores, before)
            if delta == 0.0 and n_old > 0:
                no_column_left += sum(j is None and not empty
                                      for j, empty in zip(got[0], empty_rows))
        assert no_column_left > 0

    def test_loser_settles_in_the_third_round(self):
        # Round 1: all four claim old 0, row 0 wins. Round 2: rows 1-3
        # claim old 1, row 1 wins. Round 3: rows 2 and 3 claim old 2, row
        # 2 wins. Round 4: no column is left, so row 3 maps to null at 0.0.
        scores = np.array([[1.0, 0.5, 0.5],
                           [0.9, 0.8, 0.1],
                           [0.8, 0.7, 0.6],
                           [0.7, 0.6, 0.5]])
        got = injective(scores, [False] * 4, 0.5)
        assert list(zip(*got)) == [(0, 1.0), (1, 0.8), (2, 0.6), (None, 0.0)]
        assert got == oracle_injective_assign(scores, [False] * 4, 0.5)


class TestGroupMapping:
    @pytest.mark.parametrize("ref", [
        ("v2", -1), ("", 0), (None, 0), (2, 0), ("v2", True), ("v2", 1.0),
        ("v2", "0"), ["v2", 0], ("v2", 0, 1), ("v2",), None,
    ])
    def test_bad_group_refs_rejected(self, ref):
        with pytest.raises(ValidationError, match="new_group"):
            GroupMapping(ref, ("v1", 0), 1.0)
        if ref is not None:
            with pytest.raises(ValidationError, match="old_group"):
                GroupMapping(("v2", 0), ref, 1.0)

    @pytest.mark.parametrize("similarity", [
        float("nan"), float("inf"), -0.1, 1.5, "high", "1.0", True, None,
    ])
    def test_similarity_outside_the_unit_interval_rejected(self, similarity):
        with pytest.raises(ValidationError, match="similarity"):
            GroupMapping(("v2", 0), None, similarity)

    @pytest.mark.parametrize("similarity", [0, 0.0, 0.5, 1, 1.0,
                                            np.float64(0.25)])
    def test_numbers_in_the_unit_interval_accepted(self, similarity):
        assert GroupMapping(("v2", 3), ("v1", 0), similarity).similarity == similarity

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(newer=st.text(min_size=1), older=st.text(min_size=1),
           rows=st.lists(st.tuples(st.none() | st.integers(0, 20),
                                   st.floats(0.0, 1.0)), max_size=8),
           spare=st.integers(0, 4))
    def test_artifact_round_trips(self, newer, older, rows, spare):
        """``mappings_from_artifact`` reads back, as checked rows, what
        ``mapping_result`` writes from two verdict columns, through the
        canonical JSON text. ``unmatched_old`` is the older indices that
        no row names, those past the last named one included."""
        old, sim = columns(rows)
        older_size = 1 + max((j for j in old if j is not None), default=-1)
        older_size += spare
        doc = json.loads(canonical_json(mapping_result(
            newer, older, (old, sim), older_size, MappingConfig(), None)))
        assert mappings_from_artifact(doc) == [
            GroupMapping((newer, i), None if j is None else (older, j), s)
            for i, (j, s) in enumerate(rows)]
        assert doc["unmatched_old"] == [k for k in range(older_size)
                                        if k not in old]


class TestRenamedGroupFixture:
    """A 19-newer / 20-older pair: 17 exact survivors, one group that split
    into two identical copies (a two-claimant ancestor), one consistently
    renamed group, and two older groups with no descendant."""

    def build(self):
        older_counts = [
            {f"g{k}w{j}": 2 + (j % 3) for j in range(8)} for k in range(20)
        ]
        newer_counts = [dict(older_counts[k]) for k in range(17)]
        newer_counts.append(dict(older_counts[16]))  # second copy of old 16
        renamed = dict(older_counts[17])
        value = renamed.pop("g17w0")
        renamed["fresh_name"] = value
        newer_counts.append(renamed)
        return pair_from_counts(newer_counts, older_counts)

    def test_oracle_counts(self):
        newer, older = self.build()
        config = MappingConfig(delta=0.8)
        old, sim = map_version_pair(newer, older, "v2", config)
        exact = [j for j, s in zip(old, sim) if s == 1.0]
        near = [(j, s) for j, s in zip(old, sim) if j is not None and s < 1.0]
        assert len(old) == len(sim) == 19
        assert len(exact) == 18
        assert len(near) == 1
        assert 0.8 <= near[0][1] < 1.0
        assert near[0][0] == 17
        assert all(j is not None for j in old)
        artifact = mapping_result("v2", "v1", (old, sim), 20, config, None)
        assert artifact["unmatched_old"] == [18, 19]


class TestBaselineTextMap:
    def test_identity_maps_at_one(self):
        texts = ["aa;\nbb;\ncc;", "dd;\nee;"]
        old, sim = baseline_text_map(texts, texts, "v2")
        assert old == [0, 1]
        assert all(s == 1.0 for s in sim)

    def test_disjoint_lines_map_null(self):
        old, sim = baseline_text_map(["qq;\nrr;"], ["ss;\ntt;"], "v2")
        assert old[0] is None
        assert sim[0] == 0.0

    def test_delta_thresholds_lcs_verdicts(self):
        newer, older = ["aa;\nbb;\ncc;\ndd;"], ["aa;\nbb;\nxx;\nyy;"]
        strict, _ = baseline_text_map(newer, older, "v2",
                                      MappingConfig(delta=0.9))
        loose, _ = baseline_text_map(newer, older, "v2",
                                     MappingConfig(delta=0.3))
        assert strict[0] is None
        assert loose[0] == 0

    def test_comments_count_in_baseline_text(self):
        """The baseline sees raw text, so comment edits lower its score."""
        _, sim = baseline_text_map(["aa; // new note\nbb;"], ["aa;\nbb;"],
                                   "v2", MappingConfig(delta=0.1))
        assert sim[0] < 1.0


def counted(make_scorer, calls):
    """``make_scorer``, a scorer factory of ``mapping``, with the newer
    rows of each call to its row scorers appended to ``calls``."""
    def make_counted(*args):
        score_rows, m, skip = make_scorer(*args)

        def count_rows(rows):
            calls.append(rows.tolist())
            return score_rows(rows)
        return count_rows, m, skip
    return make_counted


def assert_scored_in_blocks(calls, m):
    """Each call in ``calls`` got one row or at most ``_BLOCK_CELLS``
    cells of ``m`` columns; returns the count of calls per newer row."""
    assert all(len(rows) == 1 or len(rows) * m <= mapping._BLOCK_CELLS
               for rows in calls)
    return collections.Counter(i for rows in calls for i in rows)


class TestStreamedScoring:
    """``map_version_pair`` and ``baseline_text_map`` give ``_assign`` a row
    scorer, never an (N, M) matrix; their verdicts are those of the dense
    oracles, every call to the scorer, in round 1 and in the losers' pass,
    gets one row or at most ``_BLOCK_CELLS`` cells, and no newer row is
    scored more than twice."""

    @pytest.fixture
    def tiny_blocks(self, monkeypatch):
        # Two rows per block at M = 6, so that both passes stream many
        # blocks of more than one row.
        monkeypatch.setattr(mapping, "_BLOCK_CELLS", 12)

    def test_injective_topic_map_equals_dense_oracle(self, monkeypatch,
                                                     tiny_blocks):
        rng = np.random.default_rng(31)
        words = [f"w{i}" for i in range(8)]

        def random_counts():
            return {w: int(rng.integers(1, 6))
                    for w in rng.choice(words, size=4, replace=False)}
        older_counts = [random_counts() for _ in range(6)]
        # Near copies of two older groups, so that their columns are contested.
        newer_counts = [{**older_counts[i % 2], words[j]: j + 1}
                        for i, j in enumerate(rng.integers(0, 8, size=9))]
        newer_counts.insert(3, {})
        newer, older = pair_from_counts(newer_counts, older_counts)
        # The dense oracle calls the scorer too, so it runs unpatched.
        scorer = mapping._topic_scorer
        for metric in Metric:
            config = MappingConfig(delta=0.3, metric=metric,
                                   enforce_injective=True)
            scores = score_matrix(newer, older, metric)
            calls = []
            with monkeypatch.context() as patch, warnings.catch_warnings():
                patch.setattr(mapping, "_topic_scorer", counted(scorer, calls))
                warnings.simplefilter("ignore", CloneMapWarning)
                got = map_version_pair(newer, older, "v2", config)
            empty = [not c for c in newer_counts]
            want, rounds = oracle_injective_rounds(scores, empty, config.delta)
            assert got == want
            assert rounds >= 3
            counts = assert_scored_in_blocks(calls, len(older_counts))
            assert max(counts.values()) == 2
            assert sorted(counts) == [i for i, e in enumerate(empty) if not e]

    def test_injective_text_map_equals_dense_oracle(self, monkeypatch,
                                                    tiny_blocks):
        rng = np.random.default_rng(37)
        lines = [f"x{i} = f(y{i});" for i in range(10)]

        def random_text():
            return "\n".join(rng.choice(lines, size=5).tolist())
        older_texts = [random_text() for _ in range(6)]
        newer_texts = [older_texts[i % 2] + "\n" + lines[j]
                       for i, j in enumerate(rng.integers(0, 10, size=9))]
        newer_texts.insert(4, "")
        config = MappingConfig(delta=0.3, enforce_injective=True)
        # The dense oracle calls the scorer too, so it runs unpatched.
        scores = lcs_matrix(newer_texts, older_texts)
        calls = []
        monkeypatch.setattr(mapping, "_lcs_scorer",
                            counted(mapping._lcs_scorer, calls))
        got = baseline_text_map(newer_texts, older_texts, "v2", config)
        want, rounds = oracle_injective_rounds(
            scores, [False] * len(newer_texts), config.delta)
        assert got == want
        assert rounds >= 3
        counts = assert_scored_in_blocks(calls, len(older_texts))
        assert max(counts.values()) == 2
        assert sorted(counts) == list(range(len(newer_texts)))

    @pytest.mark.parametrize("metric", list(Metric))
    def test_injective_pass_holds_two_loser_arrays(self, metric):
        """Under ``delta`` 0 the 400 newer rows that share no word with
        any older row score about 0.0 against every column and crowd onto
        a few, so hundreds of rows lose round 1. Their pass keeps a
        ranking and the scores in rank order, (losers, M) each, and no
        held copy of the scores beside them: the traced peak stays below
        2.5 (losers, M) float64 arrays."""
        rng = np.random.default_rng(47)
        n = 1500
        shared = [f"w{i}" for i in range(3000)]
        unshared = [f"u{i}" for i in range(3000)]

        def random_counts(words):
            return {w: int(rng.integers(1, 4))
                    for w in rng.choice(words, size=8, replace=False)}
        newer, older = pair_from_counts(
            [random_counts(shared) for _ in range(n - 400)]
            + [random_counts(unshared) for _ in range(400)],
            [random_counts(shared) for _ in range(n)])
        # At delta 0 every row claims its argmax and each claimed column
        # has one winner.
        claimed = score_matrix(newer, older, metric).argmax(axis=1)
        losers = n - np.unique(claimed).size
        assert losers >= 300
        config = MappingConfig(delta=0.0, metric=metric, enforce_injective=True)
        tracemalloc.start()
        try:
            old, _ = map_version_pair(newer, older, "v2", config)
            assert len(old) == n
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * losers * n * 8

    def test_traced_peak_stays_far_below_the_dense_matrix(self):
        """At N = M = 1500 the float64 matrix alone is 17.2 MiB; streamed
        blocks keep the traced peak under a fixed 3 MiB. Texts of 60 lines,
        each drawn from one of 20 pools of 10 distinct lines, are read
        from one-shot generators and kept as line ids: the peak stays under
        half of what their trimmed lines would hold as ``str``s, and the
        verdicts are those of list inputs."""
        rng = np.random.default_rng(41)
        n = 1500
        words = [f"w{i}" for i in range(3000)]

        def random_counts():
            return {w: int(rng.integers(1, 4))
                    for w in rng.choice(words, size=8, replace=False)}
        newer, older = pair_from_counts([random_counts() for _ in range(n)],
                                        [random_counts() for _ in range(n)])
        lines = [f"v{i} = g(v{i + 1});" for i in range(5000)]
        texts = ["\n".join(rng.choice(lines, size=3).tolist())
                 for _ in range(2 * n)]
        # Pools keep the pairs that share a line, and so the scoring, small.
        repeated = [f"    total_{i} = accumulate(total_{i}, sample[{i}]);"
                    for i in range(200)]
        repeats = ["\n".join(rng.choice(repeated[k % 20::20], size=60).tolist())
                   for k in range(600)]
        line_bytes = sum(sys.getsizeof(line.strip())
                         for text in repeats for line in text.split("\n"))
        assert line_bytes > 3 * 2 ** 20
        runs = [
            (lambda: map_version_pair(newer, older, "v2"), 3 * 2 ** 20),
            (lambda: baseline_text_map(texts[:n], texts[n:], "v2"),
             3 * 2 ** 20),
            (lambda: baseline_text_map((t for t in repeats[:300]),
                                       (t for t in repeats[300:]), "v2"),
             line_bytes / 2)]
        got = []
        for run, bound in runs:
            tracemalloc.start()
            try:
                got.append(run())
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < bound
        assert [len(old) for old, _ in got] == [n, n, 300]
        assert got[2] == baseline_text_map(repeats[:300], repeats[300:], "v2")

    def test_line_table_is_gone_before_the_verdict_loop(self, monkeypatch):
        """The dict that numbers the trimmed lines dies with the scorer's
        builder: at ``_assign``'s entry the live traced memory is below
        what the distinct lines alone hold as ``str``s. Texts made one at
        a time by generators of 40 groups of ten 2,000-character lines,
        each newer text its older one with its first line replaced, hold
        about 0.9 MB of distinct lines; their ids, masks and postings take
        a small share of that."""
        def lines(version, k):
            return [f"{version}_{k}_{i} = '{'x' * 2000}';" for i in range(10)]

        def texts(version):
            for k in range(40):
                yield "\n".join(lines(version, k)[:1] + lines("v1", k)[1:])
        distinct = {line for version in ("v2", "v1")
                    for text in texts(version) for line in text.split("\n")}
        line_bytes = sum(sys.getsizeof(line) for line in distinct)
        assign, live = mapping._assign, []

        def traced_assign(*args):
            gc.collect()
            live.append(tracemalloc.get_traced_memory()[0])
            return assign(*args)
        monkeypatch.setattr(mapping, "_assign", traced_assign)
        tracemalloc.start()
        try:
            got = baseline_text_map(texts("v2"), texts("v1"), "v2")
        finally:
            tracemalloc.stop()
        assert list(zip(*got)) == [(k, 0.9) for k in range(40)]
        assert len(live) == 1 and live[0] < line_bytes / 4
