"""Precision/recall scoring and the synthetic evolution generator."""

import filecmp
import json

import pytest
from hypothesis import assume, given, settings, strategies as st

from clonemap.cli import main
from clonemap.errors import (ConfigError, CoverageError, ReportParseError,
                             ValidationError)
from clonemap.evaluation import (
    EvalReport,
    GroundTruth,
    SynthConfig,
    generate_evolution,
    load_ground_truth,
    score,
)
from clonemap.ingest import parse_clone_report, resolve_snapshot
from clonemap.mapping import GroupMapping
from clonemap.pipeline import canonical_json, documents, texts
from clonemap.preprocess import default_filter_config


def mk_mapping(new, old, sim=1.0):
    return GroupMapping(
        new_group=("v2", new),
        old_group=None if old is None else ("v1", old),
        similarity=sim,
    )


def mk_truth(pairs):
    return GroundTruth(newer_version="v2", older_version="v1",
                       pairs=dict(pairs))


class TestScore:
    def test_perfect_agreement(self):
        mappings = [mk_mapping(i, i) for i in range(5)]
        truth = mk_truth({i: i for i in range(5)})
        report = score(mappings, truth)
        assert report.precision == 1.0
        assert report.recall == 1.0
        assert report.correct == report.discovered == report.actual == 5

    def test_nineteen_of_twenty_coverage(self):
        """19 correct mappings out of 20 actual: precision 1, recall 0.95."""
        truth = mk_truth({i: i for i in range(20)})
        mappings = [mk_mapping(i, i) for i in range(19)]
        mappings.append(mk_mapping(19, None))  # the one the mapper missed
        report = score(mappings, truth)
        assert report.precision == 1.0
        assert report.recall == 0.95

    def test_hand_counted_table(self):
        """10 emitted, 8 correct, 9 actual: precision 0.8, recall 8/9."""
        truth_pairs = {i: i for i in range(9)}
        truth_pairs[9] = None
        mappings = [mk_mapping(i, i) for i in range(8)]
        mappings.append(mk_mapping(8, 7))   # wrong old group
        mappings.append(mk_mapping(9, 5))   # truth says this one is new
        report = score(mappings, mk_truth(truth_pairs))
        assert report.discovered == 10
        assert report.correct == 8
        assert report.actual == 9
        assert report.precision == pytest.approx(0.8)
        assert report.recall == pytest.approx(8 / 9)

    def test_null_null_agreement_counts_nowhere(self):
        mappings = [mk_mapping(0, 0), mk_mapping(1, None)]
        truth = mk_truth({0: 0, 1: None})
        report = score(mappings, truth)
        assert report.discovered == 1
        assert report.actual == 1
        assert report.correct == 1

    def test_zero_denominators_score_one(self):
        report = score([mk_mapping(0, None)], mk_truth({0: None}))
        assert report.precision == 1.0
        assert report.recall == 1.0

    def test_order_invariance(self):
        mappings = [mk_mapping(i, i if i % 2 else None) for i in range(6)]
        truth = mk_truth({i: i if i % 3 else None for i in range(6)})
        forward = score(mappings, truth)
        assert score(list(reversed(mappings)), truth) == forward

    def test_missing_truth_entry_is_coverage_error(self):
        with pytest.raises(CoverageError, match="3"):
            score([mk_mapping(3, 1)], mk_truth({0: 0}))

    @pytest.mark.parametrize("mappings,message", [
        ([], "no row for newer group 0, 1, 2, 3, 4 and 3 more of"),
        ([mk_mapping(2, 2)], "no row for newer group 0, 1, 3, 4, 5 and 2 more"),
        ([mk_mapping(i, i) for i in range(1, 7)], "no row for newer group 0, 7 of"),
    ])
    def test_missing_mapping_row_is_coverage_error(self, mappings, message):
        """Each of these once scored, with the missing rows as silent
        misses."""
        with pytest.raises(CoverageError, match=message):
            score(mappings, mk_truth({i: i for i in range(8)}))

    def test_version_mismatch_rejected(self):
        truth = GroundTruth(newer_version="v9", older_version="v1",
                            pairs={0: 0})
        with pytest.raises(ValidationError):
            score([mk_mapping(0, 0)], truth)

    def test_repeated_newer_group_rejected(self):
        """Counting a repeated row twice would score this recall 1.0."""
        truth = mk_truth({0: 0, 1: 1})
        with pytest.raises(ValidationError, match="duplicate"):
            score([mk_mapping(0, 0), mk_mapping(0, 0)], truth)


class TestGroundTruthJson:
    def test_round_trip(self, tmp_path):
        truth = mk_truth({0: 2, 1: None, 2: 0})
        path = tmp_path / "truth.json"
        path.write_text(json.dumps(truth.to_dict()), encoding="utf-8")
        assert load_ground_truth(path) == truth

    def test_byte_order_mark_is_dropped(self, tmp_path):
        truth = mk_truth({0: 2, 1: None})
        path = tmp_path / "truth.json"
        path.write_text("\ufeff" + json.dumps(truth.to_dict()), encoding="utf-8")
        assert load_ground_truth(path) == truth

    @pytest.mark.parametrize("text, reason", [
        ('{"newer": "v2",', " at line 1 column 16: Expecting property name "
                            "enclosed in double quotes"),
        ("[" * 10_000, ": nested too deep"),
        ('{"newer": ' + "9" * 5000 + "}", ": an integer is too long"),
    ], ids=["syntax", "deep", "long-integer"])
    def test_malformed_json_is_parse_error(self, tmp_path, text, reason):
        path = tmp_path / "truth.json"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ReportParseError) as caught:
            load_ground_truth(path)
        assert str(caught.value) == f"{path}: malformed JSON{reason}"

    def test_duplicate_newer_index_rejected(self):
        doc = {"newer": "v2", "older": "v1",
               "pairs": [{"new": 0, "old": 1}, {"new": 0, "old": 2}]}
        with pytest.raises(ValidationError, match="duplicate"):
            GroundTruth.from_dict(doc)

    def test_missing_keys_rejected(self):
        with pytest.raises(ValidationError):
            GroundTruth.from_dict({"newer": "v2", "pairs": []})

    @pytest.mark.parametrize("entry", [[0, 1], {"new": 0}, {"old": 1}, 5])
    def test_entry_without_new_and_old_rejected(self, entry):
        doc = {"newer": "v2", "older": "v1", "pairs": [{"new": 1, "old": 1}, entry]}
        with pytest.raises(ValidationError, match=r"^ground truth: pairs\[1\] must "
                           r"be a JSON object with 'new' and 'old' keys$"):
            GroundTruth.from_dict(doc)

    @pytest.mark.parametrize("new", [[0], {"a": 0}])
    def test_container_new_rejected(self, new):
        doc = {"newer": "v2", "older": "v1", "pairs": [{"new": new, "old": 0}]}
        with pytest.raises(ValidationError, match=r"pairs\[0\]: 'new'"):
            GroundTruth.from_dict(doc)

    @pytest.mark.parametrize("version", [None, 2, "", ["v2"]])
    def test_version_must_be_a_non_empty_string(self, version):
        with pytest.raises(ValidationError, match="newer version"):
            GroundTruth(version, "v1", {})
        with pytest.raises(ValidationError, match="older version"):
            GroundTruth.from_dict({"newer": "v2", "older": version, "pairs": []})

    @pytest.mark.parametrize("new,old,message", [
        (-1, 0, "'new'"), (True, 0, "'new'"), ("0", 0, "'new'"),
        (1.0, 0, "'new'"), (0, -5, "'old'"), (0, False, "'old'"),
        (0, 1.5, "'old'"), (0, "1", "'old'"),
    ])
    def test_indices_must_be_non_negative_integers(self, new, old, message):
        with pytest.raises(ValidationError, match=rf"pairs\[1\]: {message}"):
            mk_truth({5: None, new: old})
        doc = {"newer": "v2", "older": "v1",
               "pairs": [{"new": 5, "old": None}, {"new": new, "old": old}]}
        with pytest.raises(ValidationError,
                           match=rf"^ground truth: pairs\[1\]: {message}"):
            GroundTruth.from_dict(doc)

    @pytest.mark.parametrize("new", [True, 1.0], ids=["true", "1.0"])
    def test_bad_index_equal_to_an_earlier_one_is_blamed(self, tmp_path,
                                                         capsys, new):
        """``true`` and ``1.0`` equal ``1`` as dict keys; after an entry
        ``"new": 1`` they were once reported as a duplicate of group 1."""
        message = (f"ground truth: pairs[1]: 'new' must be an integer >= 0, "
                   f"got {new!r}")
        truth = {"newer": "v2", "older": "v1",
                 "pairs": [{"new": 1, "old": None}, {"new": new, "old": 0}]}
        with pytest.raises(ValidationError) as info:
            GroundTruth.from_dict(truth)
        assert str(info.value) == message
        paths = {}
        for name, doc in (("mapping", {"newer": "v2", "older": "v1",
                                       "mappings": []}), ("truth", truth)):
            paths[name] = tmp_path / f"{name}.json"
            paths[name].write_text(json.dumps(doc), encoding="utf-8")
        rc = main(["eval", "--mapping", str(paths["mapping"]),
                   "--truth", str(paths["truth"])])
        assert rc == 3
        assert capsys.readouterr().err == f"clonemap: {message}\n"

    def test_entry_rule_comes_before_the_duplicate_check(self):
        """A repeated newer group with a bad ``old`` is blamed for the bad
        index: each entry meets the pair rule before it is looked up."""
        doc = {"newer": "v2", "older": "v1",
               "pairs": [{"new": 1, "old": None}, {"new": 1, "old": -1}]}
        with pytest.raises(ValidationError) as info:
            GroundTruth.from_dict(doc)
        assert str(info.value) == ("ground truth: pairs[1]: 'old' must be an "
                                   "integer >= 0 or null, got -1")
        doc["pairs"][1]["old"] = 0
        with pytest.raises(ValidationError,
                           match=r"pairs\[1\]: duplicate entry for newer group 1"):
            GroundTruth.from_dict(doc)

    def test_pairs_must_be_a_dict(self):
        with pytest.raises(ValidationError, match="pairs must be a dict"):
            GroundTruth("v2", "v1", [(0, 0)])

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(newer=st.text(max_size=3), older=st.text(max_size=3),
           pairs=st.dictionaries(st.integers(-1, 50),
                                 st.none() | st.integers(-1, 50), max_size=6))
    def test_accepted_truth_round_trips(self, newer, older, pairs):
        """Whatever the constructor accepts, ``from_dict`` reads back from
        the canonical JSON text of ``to_dict``."""
        try:
            truth = GroundTruth(newer, older, pairs)
        except ValidationError:
            assume(False)
        assert GroundTruth.from_dict(json.loads(canonical_json(truth.to_dict()))) == truth


class TestCheckVersions:
    def test_matching_versions_pass(self):
        mk_truth({}).check_versions("v2", "v1")

    @pytest.mark.parametrize("newer,older", [
        (None, 5), ("v2", "vX"), ("v1", "v2"), ("v2", None), (["v2"], "v1"),
    ])
    def test_other_versions_rejected(self, newer, older):
        with pytest.raises(ValidationError, match="ground truth maps 'v2'"):
            mk_truth({0: None}).check_versions(newer, older)


class TestSynthConfig:
    def test_probabilities_must_sum_to_one(self):
        with pytest.raises(ConfigError):
            SynthConfig(p_unchanged=0.5, p_type1=0.0, p_type2=0.0,
                        p_type3=0.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -0.5])
    def test_probabilities_must_be_non_negative_numbers(self, bad):
        with pytest.raises(ConfigError):
            SynthConfig(p_unchanged=bad, p_type1=0.0, p_type2=0.0,
                        p_type3=1.0)

    def test_group_count_positive(self):
        with pytest.raises(ConfigError):
            SynthConfig(group_count=0)

    def test_all_dead_none_born_is_infeasible(self):
        with pytest.raises(ConfigError):
            SynthConfig(group_count=4, death_fraction=1.0, birth_fraction=0.0)

    def test_fragment_range_needs_two(self):
        with pytest.raises(ConfigError):
            SynthConfig(fragments_per_group=(1, 3))

    @pytest.mark.parametrize("kwargs", [
        {"group_count": 2.0},
        {"group_count": True},
        {"fragments_per_group": (2.5, 3)},
        {"fragments_per_group": (2, 3.0)},
        {"lines_per_fragment": (True, 4)},
        {"lines_per_fragment": (2, 4.5)},
    ])
    def test_counts_must_be_integers(self, kwargs):
        with pytest.raises(ConfigError, match="must be integers"):
            SynthConfig(**kwargs)

    @pytest.mark.parametrize("kwargs", [
        {"type3_edit_fraction": (0.1,)},
        {"fragments_per_group": (2,)},
        {"lines_per_fragment": (1, 2, 3)},
        {"lines_per_fragment": 4},
    ])
    def test_ranges_must_be_pairs(self, kwargs):
        with pytest.raises(ConfigError, match="must be a .low, high. pair"):
            SynthConfig(**kwargs)

    @pytest.mark.parametrize("seed", [1.5, True, "1"])
    def test_seed_must_be_an_integer(self, seed):
        with pytest.raises(ConfigError, match="seed must be an integer"):
            SynthConfig(group_count=3, seed=seed)

    def test_count_arithmetic(self):
        cfg = SynthConfig(group_count=50, death_fraction=0.1,
                          birth_fraction=0.1)
        assert cfg.death_count == 5
        assert cfg.birth_count == 5
        assert cfg.survivor_count == 45


class TestGenerateEvolution:
    def run(self, tmp_path, name="f", **kwargs):
        config = SynthConfig(**kwargs)
        out = tmp_path / name
        manifest = generate_evolution(config, out)
        return config, out, manifest

    def test_identity_evolution_has_identical_documents(self, tmp_path):
        _, out, _ = self.run(tmp_path, group_count=6, p_unchanged=1.0,
                             p_type1=0.0, p_type2=0.0, p_type3=0.0, seed=3)
        fc = default_filter_config()
        older = resolve_snapshot(parse_clone_report(out / "older_report.json"),
                                 out / "older_src")
        newer = resolve_snapshot(parse_clone_report(out / "newer_report.json"),
                                 out / "newer_src")
        truth = load_ground_truth(out / "truth.json")
        older_docs = list(documents(older, None, fc))
        newer_docs = list(documents(newer, None, fc))
        for new_idx, old_idx in truth.pairs.items():
            assert newer_docs[new_idx].counts() == older_docs[old_idx].counts()

    def test_type1_changes_bytes_but_not_documents(self, tmp_path):
        _, out, _ = self.run(tmp_path, group_count=6, p_unchanged=0.0,
                             p_type1=1.0, p_type2=0.0, p_type3=0.0, seed=3)
        fc = default_filter_config()
        older = resolve_snapshot(parse_clone_report(out / "older_report.json"),
                                 out / "older_src")
        newer = resolve_snapshot(parse_clone_report(out / "newer_report.json"),
                                 out / "newer_src")
        truth = load_ground_truth(out / "truth.json")
        older_docs = list(documents(older, None, fc))
        newer_docs = list(documents(newer, None, fc))
        older_texts = list(texts(older, None))
        newer_texts = list(texts(newer, None))
        byte_changes = 0
        for new_idx, old_idx in truth.pairs.items():
            assert newer_docs[new_idx].counts() == older_docs[old_idx].counts()
            if newer_texts[new_idx] != older_texts[old_idx]:
                byte_changes += 1
        assert byte_changes == len(truth.pairs)

    def test_type2_renames_exactly_one_identifier(self, tmp_path):
        _, out, _ = self.run(tmp_path, group_count=6, p_unchanged=0.0,
                             p_type1=0.0, p_type2=1.0, p_type3=0.0, seed=3)
        fc = default_filter_config()
        older = resolve_snapshot(parse_clone_report(out / "older_report.json"),
                                 out / "older_src")
        newer = resolve_snapshot(parse_clone_report(out / "newer_report.json"),
                                 out / "newer_src")
        truth = load_ground_truth(out / "truth.json")
        older_docs = list(documents(older, None, fc))
        newer_docs = list(documents(newer, None, fc))
        for new_idx, old_idx in truth.pairs.items():
            old_counts = older_docs[old_idx].counts()
            new_counts = newer_docs[new_idx].counts()
            gone = set(old_counts) - set(new_counts)
            fresh = set(new_counts) - set(old_counts)
            assert len(gone) == 1 and len(fresh) == 1
            assert old_counts[gone.pop()] == new_counts[fresh.pop()]

    def test_death_and_birth_counts(self, tmp_path):
        _, out, _ = self.run(tmp_path, group_count=50, death_fraction=0.1,
                             birth_fraction=0.1, seed=42)
        truth = load_ground_truth(out / "truth.json")
        non_null = [v for v in truth.pairs.values() if v is not None]
        assert len(truth.pairs) == 50
        assert len(non_null) == 45
        assert len(truth.pairs) - len(non_null) == 5
        assert len(set(non_null)) == len(non_null)

    def test_determinism_byte_identical(self, tmp_path):
        kwargs = dict(group_count=10, death_fraction=0.2, birth_fraction=0.1,
                      seed=11)
        _, out_a, _ = self.run(tmp_path, "a", **kwargs)
        _, out_b, _ = self.run(tmp_path, "b", **kwargs)
        files_a = sorted(p.relative_to(out_a) for p in out_a.rglob("*")
                         if p.is_file())
        files_b = sorted(p.relative_to(out_b) for p in out_b.rglob("*")
                         if p.is_file())
        assert files_a == files_b
        for rel in files_a:
            assert filecmp.cmp(out_a / rel, out_b / rel, shallow=False), rel

    def test_manifest_lists_outputs(self, tmp_path):
        config, out, manifest = self.run(tmp_path, group_count=4, seed=1)
        outputs = manifest["outputs"]
        assert set(outputs) == {"older_report", "newer_report",
                                "older_source_root", "newer_source_root",
                                "truth"}
        for key in ("older_report", "newer_report", "truth"):
            assert (out / outputs[key]).is_file()
        for key in ("older_source_root", "newer_source_root"):
            assert (out / outputs[key]).is_dir()
        assert manifest["config"]["seed"] == 1
        assert (json.loads((out / "manifest.json").read_text())
                == json.loads(json.dumps(manifest)))

    def test_reports_parse_and_have_two_fragments_minimum(self, tmp_path):
        _, out, _ = self.run(tmp_path, group_count=5, seed=2)
        snap = parse_clone_report(out / "older_report.json")
        assert all(len(g.fragments) >= 2 for g in snap.groups)
