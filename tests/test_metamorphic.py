"""Metamorphic relations of the map: how the score matrix or the mapping
artifact of one report pair must relate to that of a transformed pair or
of another setting. Reports carry inline fragment text, so no source tree
is written."""

import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from clonemap.errors import CloneMapWarning
from clonemap.ingest import snapshot_from_dict
from clonemap.mapping import MappingConfig, Metric, Strategy, lcs_matrix, score_matrix
from clonemap.pipeline import documents, pair_topics, run_map, texts
from clonemap.preprocess import FilterConfig, default_filter_config

FILTER = default_filter_config()
# Identifiers that overlap across groups, plus words the filter drops
# (keywords, one-letter names, numbers), so some documents come out empty.
WORDS = ["widget", "gadget", "sprocket", "pinion", "frob", "int", "return",
         "x", "42"]
TEXT = st.lists(st.lists(st.sampled_from(WORDS), max_size=4).map(" ".join),
                min_size=1, max_size=3).map("\n".join)
GROUPS = st.lists(st.lists(TEXT, min_size=2, max_size=3), min_size=1, max_size=5)
SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)
DELTAS = st.sampled_from([0.0, 0.5, 0.8, 1.0]) | st.floats(0.0, 1.0)
# Every scorer: LCS ignores the metric.
MODES = [(Strategy.TOPIC, Metric.COSINE), (Strategy.TOPIC, Metric.HELLINGER),
         (Strategy.LCS_BASELINE, Metric.COSINE)]


def report(version: str, groups) -> dict:
    """A native report whose group ``k`` is ``groups[k]``, one fragment
    per text."""
    return {"version": version, "groups": [
        {"index": k, "fragments": [
            {"file": f"g{k}_{m}.c", "start_line": 1,
             "end_line": text.count("\n") + 1, "text": text}
            for m, text in enumerate(texts)]}
        for k, texts in enumerate(groups)]}


def scores(newer: dict, older: dict, metric: Metric) -> np.ndarray:
    newer_block, older_block = pair_topics(
        *(documents(snapshot_from_dict(doc), None, FILTER)
          for doc in (newer, older)))
    return score_matrix(newer_block, older_block, metric)


def matrix(newer: dict, older: dict, strategy: Strategy, metric: Metric) -> np.ndarray:
    """The score matrix that ``run_map`` takes its verdicts from."""
    if strategy is Strategy.TOPIC:
        return scores(newer, older, metric)
    return lcs_matrix(*(texts(snapshot_from_dict(doc), None)
                        for doc in (newer, older)))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("reports")


def mapped(workdir, newer: dict, older: dict, config: MappingConfig,
           filter_config=FILTER) -> dict:
    """The ``run_map`` artifact of two reports, with no recorded config."""
    paths = []
    for name, doc in (("newer", newer), ("older", older)):
        paths.append(workdir / f"{name}.json")
        paths[-1].write_text(json.dumps(doc), encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CloneMapWarning)  # empty documents
        return run_map(*paths, filter_config=filter_config, mapping_config=config)


def links(artifact: dict) -> set[tuple[int, int]]:
    return {(row["new_group"], row["old_group"]) for row in artifact["mappings"]
            if row["old_group"] is not None}


def dense(block) -> np.ndarray:
    weights = np.zeros((len(block), block.size))
    weights[np.repeat(np.arange(len(block)), np.diff(block.indptr)), block.ids] = block.values
    return weights


class TestScoreMatrixRelations:
    @SETTINGS
    @given(newer=GROUPS, older=GROUPS, data=st.data())
    def test_renumbering_older_groups_permutes_columns(self, newer, older, data):
        order = data.draw(st.permutations(range(len(older))))
        renumbered = [older[k] for k in order]
        for metric in Metric:
            base = scores(report("v2", newer), report("v1", older), metric)
            moved = scores(report("v2", newer), report("v1", renumbered), metric)
            assert np.array_equal(moved, base[:, order])

    @SETTINGS
    @given(groups=GROUPS)
    def test_self_map_scores_one_on_the_diagonal(self, groups):
        version = report("v", groups)
        nonempty = [document.token_count > 0 for document
                    in documents(snapshot_from_dict(version), None, FILTER)]
        for metric in Metric:
            diagonal = np.diag(scores(version, version, metric))
            assert (diagonal[nonempty] == 1.0).all()

    @SETTINGS
    @given(newer=GROUPS, older=GROUPS)
    def test_swapping_the_versions_transposes(self, newer, older):
        for metric in Metric:
            forward = scores(report("v2", newer), report("v1", older), metric)
            backward = scores(report("v1", older), report("v2", newer), metric)
            np.testing.assert_allclose(forward, backward.T, rtol=0, atol=1e-12)


class TestMapRelations:
    @SETTINGS
    @given(newer=GROUPS, older=GROUPS, delta=DELTAS)
    def test_injective_links_are_a_matching_above_delta(self, workdir, newer,
                                                         older, delta):
        newer, older = report("v2", newer), report("v1", older)
        for strategy, metric in MODES:
            cells = matrix(newer, older, strategy, metric)
            rows = mapped(workdir, newer, older, MappingConfig(
                delta, metric, strategy, enforce_injective=True))["mappings"]
            chosen = [row["old_group"] for row in rows if row["old_group"] is not None]
            assert len(chosen) == len(set(chosen))
            for row in rows:
                if row["old_group"] is not None:
                    assert row["similarity"] >= delta
                    assert row["similarity"] == cells[row["new_group"], row["old_group"]]

    @SETTINGS
    @given(newer=GROUPS, older=GROUPS, deltas=st.tuples(DELTAS, DELTAS))
    def test_plain_links_nest_across_deltas(self, workdir, newer, older, deltas):
        newer, older = report("v2", newer), report("v1", older)
        low, high = sorted(deltas)
        for strategy, metric in MODES:
            at_low, at_high = (
                links(mapped(workdir, newer, older,
                             MappingConfig(delta, metric, strategy)))
                for delta in (low, high))
            assert at_high <= at_low

    @SETTINGS
    @given(groups=GROUPS)
    def test_self_map_links_unique_rows_to_themselves(self, workdir, groups):
        """Proportional counts give equal weight rows, which tie to the
        lowest index, so only a row equal to no other must map to itself."""
        version = report("v", groups)
        docs = list(documents(snapshot_from_dict(version), None, FILTER))
        weights = dense(pair_topics(docs, docs)[0])
        unique = [document.token_count > 0
                  and sum(np.array_equal(row, other) for other in weights) == 1
                  for row, document in zip(weights, docs)]
        for metric in Metric:
            rows = mapped(workdir, version, version,
                          MappingConfig(metric=metric))["mappings"]
            for i, row in enumerate(rows):
                if unique[i]:
                    assert (row["old_group"], row["similarity"]) == (i, 1.0)

    @SETTINGS
    @given(newer=GROUPS, older=GROUPS)
    def test_a_filter_word_that_occurs_nowhere_changes_nothing(self, workdir,
                                                               newer, older):
        newer, older = report("v2", newer), report("v1", older)
        inert = FilterConfig(FILTER.words | {"zyzzyva"})
        for metric in Metric:
            config = MappingConfig(metric=metric)
            assert (mapped(workdir, newer, older, config, inert)
                    == mapped(workdir, newer, older, config))
