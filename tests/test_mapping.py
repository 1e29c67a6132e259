"""Thresholded argmax mapping, the injective mode, and lineage chaining."""

import numpy as np
import pytest

from clonemap.errors import CloneMapWarning, ConfigError
from clonemap.evaluation import SynthConfig, generate_evolution
from clonemap.ingest import CloneFragment, CloneGroup, VersionSnapshot
from clonemap.mapping import (
    MappingConfig,
    Strategy,
    VersionTopics,
    baseline_text_map,
    map_lineage,
    map_version_pair,
    unmatched_old_groups,
)
from clonemap.pipeline import run_map, write_json_artifact
from clonemap.preprocess import TokenDocument
from clonemap.topicmodel import build_corpus, fit_group_topic


def topics_from_counts(version_id, groups_counts, corpus=None):
    """Index-aligned topic vectors for a list of word->count dicts."""
    docs = [
        TokenDocument.from_counts(counts, group_ref=(version_id, i))
        for i, counts in enumerate(groups_counts)
    ]
    if corpus is None:
        corpus = build_corpus(docs)
    fitted = tuple(
        None if d.token_count == 0 else fit_group_topic(d, corpus)
        for d in docs
    )
    return VersionTopics(version_id=version_id, topics=fitted), corpus


def pair_from_counts(newer_counts, older_counts):
    all_docs = [TokenDocument.from_counts(c) for c in newer_counts + older_counts]
    corpus = build_corpus(all_docs)
    newer, _ = topics_from_counts("v2", newer_counts, corpus)
    older, _ = topics_from_counts("v1", older_counts, corpus)
    return newer, older


class TestMapVersionPair:
    def test_identity_snapshots_map_one_to_one(self):
        counts = [{"a": 3, "b": 1}, {"c": 2}, {"d": 1, "e": 1}]
        newer, older = pair_from_counts(counts, counts)
        mappings = map_version_pair(newer, older)
        for i, m in enumerate(mappings):
            assert m.new_group == ("v2", i)
            assert m.old_group == ("v1", i)
            assert m.similarity == 1.0

    def test_below_threshold_maps_to_null(self):
        # cos((3,1)/4, (1,3)/4) = 6/10 = 0.6 < 0.8
        newer, older = pair_from_counts([{"a": 3, "b": 1}], [{"a": 1, "b": 3}])
        mappings = map_version_pair(newer, older)
        assert mappings[0].old_group is None
        assert mappings[0].similarity == pytest.approx(0.6)

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
        mappings = map_version_pair(newer, older, config)
        assert len(mappings) == 15
        for m in mappings:
            assert m.all_scores is not None
            if m.old_group is None:
                assert max(m.all_scores) < config.delta
            else:
                assert m.similarity >= config.delta
                assert m.similarity == max(m.all_scores)

    def test_tie_breaks_to_lowest_old_index(self):
        newer, older = pair_from_counts([{"a": 2}], [{"a": 5}, {"a": 7}])
        mappings = map_version_pair(newer, older)
        assert mappings[0].old_group == ("v1", 0)
        assert mappings[0].similarity == 1.0

    def test_empty_older_version_maps_all_null(self):
        newer, _ = topics_from_counts("v2", [{"a": 1}, {"b": 1}])
        older = VersionTopics(version_id="v1", topics=())
        mappings = map_version_pair(newer, older)
        assert all(m.old_group is None for m in mappings)
        assert len(mappings) == 2

    def test_empty_document_group_warns_and_maps_null(self):
        newer, older = pair_from_counts([{}, {"a": 1}], [{"a": 1}])
        with pytest.warns(CloneMapWarning, match="empty"):
            mappings = map_version_pair(newer, older)
        assert mappings[0].old_group is None
        assert mappings[0].similarity == 0.0
        assert mappings[1].old_group == ("v1", 0)

    def test_many_to_one_allowed_by_default(self):
        newer, older = pair_from_counts([{"a": 2}, {"a": 3}], [{"a": 1}])
        mappings = map_version_pair(newer, older)
        assert mappings[0].old_group == ("v1", 0)
        assert mappings[1].old_group == ("v1", 0)

    def test_injective_mode_reassigns_loser(self):
        # Both newer groups claim old 0 at similarity 1.0; the tie goes to
        # the lower new index and the loser re-auctions onto old 1.
        newer, older = pair_from_counts(
            [{"a": 9, "b": 1}, {"a": 9, "b": 1}],
            [{"a": 9, "b": 1}, {"a": 9, "b": 3}],
        )
        config = MappingConfig(enforce_injective=True)
        mappings = map_version_pair(newer, older, config)
        olds = [m.old_group for m in mappings]
        assert olds[0] == ("v1", 0)
        assert olds[1] == ("v1", 1)
        assert mappings[0].similarity == 1.0
        assert mappings[1].similarity < 1.0
        without = map_version_pair(newer, older, MappingConfig())
        assert [m.old_group for m in without] == [("v1", 0), ("v1", 0)]

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
        mappings = map_version_pair(newer, older, config)
        non_null = [m.old_group for m in mappings if m.old_group is not None]
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
            mappings = map_version_pair(newer, older, MappingConfig(delta=delta))
            mapped = {(m.new_group, m.old_group) for m in mappings
                      if m.old_group is not None}
            if previous is not None:
                assert mapped <= previous
            previous = mapped

    def test_output_totality_and_order(self):
        newer, older = pair_from_counts(
            [{"a": 1}, {"b": 1}, {"c": 1}], [{"c": 2}]
        )
        mappings = map_version_pair(newer, older)
        assert [m.new_group[1] for m in mappings] == [0, 1, 2]

    def test_invalid_delta_rejected(self):
        with pytest.raises(ConfigError):
            MappingConfig(delta=1.5)


class TestRunMap:
    def test_threads_do_not_change_output(self, tmp_path):
        """--threads fans out document building and LCS rows only."""
        generate_evolution(SynthConfig(group_count=12, death_fraction=0.1,
                                       birth_fraction=0.1, seed=3), tmp_path)
        for strategy in Strategy:
            artifacts = []
            for threads in (1, 4):
                payload = run_map(
                    tmp_path / "newer_report.json", tmp_path / "older_report.json",
                    source_newer=tmp_path / "newer_src",
                    source_older=tmp_path / "older_src",
                    mapping_config=MappingConfig(strategy=strategy),
                    threads=threads,
                )
                out = tmp_path / f"mapping-{threads}.json"
                write_json_artifact(out, payload)
                artifacts.append(out.read_bytes())
            assert artifacts[0] == artifacts[1], strategy


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
        mappings = map_version_pair(newer, older, MappingConfig(delta=0.8))
        exact = [m for m in mappings if m.similarity == 1.0]
        near = [m for m in mappings
                if m.old_group is not None and m.similarity < 1.0]
        assert len(mappings) == 19
        assert len(exact) == 18
        assert len(near) == 1
        assert 0.8 <= near[0].similarity < 1.0
        assert near[0].old_group == ("v1", 17)
        assert all(m.old_group is not None for m in mappings)
        assert unmatched_old_groups(mappings, 20) == [18, 19]


class TestMapLineage:
    def chain_of_identical(self, n_versions=3, n_groups=5):
        base = [{f"w{k}{j}": j + 1 for j in range(4)} for k in range(n_groups)]
        all_docs = []
        per_version = []
        for v in range(n_versions):
            docs = [TokenDocument.from_counts(c, group_ref=(f"v{v+1}", i))
                    for i, c in enumerate(base)]
            per_version.append(docs)
            all_docs.extend(docs)
        corpus = build_corpus(all_docs)
        return [
            VersionTopics(
                version_id=f"v{v+1}",
                topics=tuple(fit_group_topic(d, corpus) for d in docs),
            )
            for v, docs in enumerate(per_version)
        ]

    def test_identity_chain(self):
        versions = self.chain_of_identical()
        genealogy = map_lineage(versions)
        assert len(genealogy.lineages) == 5
        assert all(len(l.members) == 3 for l in genealogy.lineages)
        assert genealogy.births == ()
        assert genealogy.deaths == ()
        assert all(s == 1.0 for l in genealogy.lineages
                   for s in l.link_similarities)

    def test_no_gap_jumping(self):
        """A group absent from the middle version yields two lineages."""
        a = {"aa": 3, "bb": 1}
        other = {"zz": 2}
        v1_docs = [TokenDocument.from_counts(c, group_ref=("v1", i))
                   for i, c in enumerate([a, other])]
        v2_docs = [TokenDocument.from_counts(other, group_ref=("v2", 0))]
        v3_docs = [TokenDocument.from_counts(c, group_ref=("v3", i))
                   for i, c in enumerate([a, other])]
        corpus = build_corpus(v1_docs + v2_docs + v3_docs)
        def vt(vid, docs):
            return VersionTopics(
                version_id=vid,
                topics=tuple(fit_group_topic(d, corpus) for d in docs),
            )
        genealogy = map_lineage(
            [vt("v1", v1_docs), vt("v2", v2_docs), vt("v3", v3_docs)]
        )
        a_lineages = [l for l in genealogy.lineages
                      if any(ref in (("v1", 0), ("v3", 0)) for ref in l.members)]
        assert len(a_lineages) == 2
        assert ("v1", 0) in genealogy.deaths
        assert ("v3", 0) in genealogy.births

    def test_each_group_in_at_most_one_lineage(self):
        versions = self.chain_of_identical(n_versions=4, n_groups=6)
        genealogy = map_lineage(versions)
        seen = [ref for l in genealogy.lineages for ref in l.members]
        assert len(seen) == len(set(seen))

    def test_losing_claimant_starts_new_lineage_not_birth(self):
        shared = {"xx": 4, "yy": 1}
        v1_docs = [TokenDocument.from_counts(shared, group_ref=("v1", 0)),
                   TokenDocument.from_counts(shared, group_ref=("v1", 1))]
        # Both v2 groups claim the same v1 ancestor at equal similarity.
        v2_docs = [TokenDocument.from_counts(shared, group_ref=("v2", 0)),
                   TokenDocument.from_counts(shared, group_ref=("v2", 1))]
        corpus = build_corpus(v1_docs + v2_docs)
        def vt(vid, docs):
            return VersionTopics(
                version_id=vid,
                topics=tuple(fit_group_topic(d, corpus) for d in docs),
            )
        genealogy = map_lineage([vt("v1", v1_docs), vt("v2", v2_docs)])
        assert genealogy.births == ()
        # Winner extends v1 group 0 (lowest new index); loser stands alone.
        lengths = sorted(len(l.members) for l in genealogy.lineages)
        assert lengths == [1, 1, 2]

    def test_requires_two_versions(self):
        versions = self.chain_of_identical()
        with pytest.raises(ConfigError):
            map_lineage(versions[:1])


def snapshot_with_text(version_id, texts):
    groups = []
    for i, text in enumerate(texts):
        frag_a = CloneFragment(f"g{i}a.c", 1, max(1, text.count("\n") + 1),
                               text=text)
        frag_b = CloneFragment(f"g{i}b.c", 1, max(1, text.count("\n") + 1),
                               text=text)
        groups.append(CloneGroup(index=i, fragments=(frag_a, frag_b)))
    return VersionSnapshot(version_id=version_id, groups=tuple(groups))


class TestBaselineTextMap:
    def test_identity_maps_at_one(self):
        texts = ["aa;\nbb;\ncc;", "dd;\nee;"]
        newer = snapshot_with_text("v2", texts)
        older = snapshot_with_text("v1", texts)
        mappings = baseline_text_map(newer, older)
        assert [m.old_group for m in mappings] == [("v1", 0), ("v1", 1)]
        assert all(m.similarity == 1.0 for m in mappings)

    def test_disjoint_lines_map_null(self):
        newer = snapshot_with_text("v2", ["qq;\nrr;"])
        older = snapshot_with_text("v1", ["ss;\ntt;"])
        mappings = baseline_text_map(newer, older)
        assert mappings[0].old_group is None
        assert mappings[0].similarity == 0.0

    def test_theta_overrides_delta(self):
        newer = snapshot_with_text("v2", ["aa;\nbb;\ncc;\ndd;"])
        older = snapshot_with_text("v1", ["aa;\nbb;\nxx;\nyy;"])
        strict = baseline_text_map(newer, older, theta=0.9)
        loose = baseline_text_map(newer, older, theta=0.3)
        assert strict[0].old_group is None
        assert loose[0].old_group == ("v1", 0)

    def test_comments_count_in_baseline_text(self):
        """The baseline sees raw text, so comment edits lower its score."""
        newer = snapshot_with_text("v2", ["aa; // new note\nbb;"])
        older = snapshot_with_text("v1", ["aa;\nbb;"])
        mappings = baseline_text_map(newer, older, theta=0.1)
        assert mappings[0].similarity < 1.0
