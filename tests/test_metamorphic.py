"""Metamorphic relations of the topic map: how the score matrix of one
report pair must relate to that of a transformed pair. Reports carry
inline fragment text, so no source tree is written."""

import numpy as np
from hypothesis import given, settings, strategies as st

from clonemap.ingest import snapshot_from_dict
from clonemap.pipeline import build_documents, pair_topics
from clonemap.preprocess import default_filter_config
from clonemap.similarity import Metric, score_matrix

FILTER = default_filter_config()
# Identifiers that overlap across groups, plus words the filter drops
# (keywords, one-letter names, numbers), so some documents come out empty.
WORDS = ["widget", "gadget", "sprocket", "pinion", "frob", "int", "return",
         "x", "42"]
TEXT = st.lists(st.lists(st.sampled_from(WORDS), max_size=4).map(" ".join),
                min_size=1, max_size=3).map("\n".join)
GROUPS = st.lists(st.lists(TEXT, min_size=2, max_size=3), min_size=1, max_size=5)
SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)


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
    newer_snap, older_snap = snapshot_from_dict(newer), snapshot_from_dict(older)
    newer_topics, older_topics = pair_topics(
        build_documents(newer_snap, FILTER), build_documents(older_snap, FILTER),
        newer_snap.version_id, older_snap.version_id)
    return score_matrix(newer_topics.block, older_topics.block, metric)


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
                    in build_documents(snapshot_from_dict(version), FILTER)]
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
