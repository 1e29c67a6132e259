"""Acceptance suite for the clone-group mapping toolchain.

Each test covers one numbered acceptance criterion and prints exactly one
verdict line (PASS or FAIL with the key measurement), so a full run doubles
as a short report:

    criterion 1: PASS  ...
    ...
    criterion 8: PASS  ...

The criteria, in order: exact one-topic weights on a fixed count profile,
an identity evolution mapped perfectly, precision/recall on a mixed
synthetic evolution, monotonicity of the mapping threshold, two-topic
Gibbs recovery on disjoint vocabularies, byte-identical reruns, comment
noise being invisible to topics but not to the LCS baseline, and
brute-force oracle checks of both similarity functions.
"""

import json
import math
import time
from collections import Counter
from pathlib import Path

import numpy as np

from clonemap.evaluation import (
    GroundTruth,
    SynthConfig,
    generate_evolution,
    load_ground_truth,
    score,
)
from clonemap.mapping import (MappingConfig, Metric, Strategy, lcs_similarity,
                              topic_similarity)
from clonemap.pipeline import mappings_from_artifact, run_map, write_json_artifact
from clonemap.preprocess import TokenDocument
from clonemap.topicmodel import LdaConfig, build_corpus, fit_group_topic, fit_lda

# Token counts of one real-world clone-group document (62 tokens, 18 words).
# The K=1 model must reproduce these frequencies exactly.
REFERENCE_COUNTS = {
    "tmplist": 12,
    "false": 8,
    "tmpdoc": 8,
    "list": 4,
    "tdocument": 4,
    "bfwin": 4,
    "save": 4,
    "backend": 2,
    "doc": 2,
    "modified": 2,
    "data": 2,
    "documentlist": 2,
    "glist": 2,
    "tbfin": 2,
    "widget": 1,
    "gtkwidget": 1,
    "cb": 1,
    "file": 1,
}

IDENTITY_CONFIG = SynthConfig(
    group_count=50,
    p_unchanged=1.0,
    p_type1=0.0,
    p_type2=0.0,
    p_type3=0.0,
    death_fraction=0.0,
    birth_fraction=0.0,
    seed=7,
)

# 40% unchanged, 20% type-1, 25% type-2, 15% type-3 with at most 30% of
# statements edited; 10% deaths and births. These are the SynthConfig
# defaults, restated so the fixture cannot drift with them.
MIXED_CONFIG = SynthConfig(
    group_count=50,
    p_unchanged=0.4,
    p_type1=0.2,
    p_type2=0.25,
    p_type3=0.15,
    type3_edit_fraction=(0.1, 0.3),
    death_fraction=0.1,
    birth_fraction=0.1,
    seed=42,
)

SWEEP_DELTAS = (0.5, 0.8, 0.9, 0.99)


def _verdict(capsys, number: int, ok: bool, detail: str) -> None:
    """One line per criterion, shown even under captured stdout."""
    status = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"criterion {number}: {status}  {detail}")


def _map_fixture(root: Path, delta: float = 0.8,
                 strategy: Strategy = Strategy.TOPIC) -> dict:
    """Map a generated evolution's newer version onto its older one."""
    return run_map(
        root / "newer_report.json",
        root / "older_report.json",
        source_newer=root / "newer_src",
        source_older=root / "older_src",
        mapping_config=MappingConfig(delta=delta, strategy=strategy),
    )


def _score_fixture(root: Path, payload: dict):
    truth = load_ground_truth(root / "truth.json")
    return score(mappings_from_artifact(payload), truth)


def _canonical(payload: dict) -> bytes:
    return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()


def test_criterion_1_one_topic_weights_are_exact_frequencies(capsys):
    """weight(w) = count(w) / 62 to full float precision, no sampling noise."""
    assert sum(REFERENCE_COUNTS.values()) == 62
    assert len(REFERENCE_COUNTS) == 18

    started = time.perf_counter()
    document = TokenDocument(tuple(Counter(REFERENCE_COUNTS).elements()))
    corpus = build_corpus([document])
    topic = fit_group_topic(document, corpus)
    elapsed = time.perf_counter() - started

    weights = dict(zip(topic.ids.tolist(), topic.values.tolist()))
    errors = [
        abs(weights[corpus.word_ids[word]] - count / 62)
        for word, count in REFERENCE_COUNTS.items()
    ]
    worst = max(errors)
    top_weight = weights[corpus.word_ids["tmplist"]]

    ok = (worst < 1e-12
          and abs(top_weight - 0.1935483870967742) < 1e-12
          and elapsed < 1.0)
    _verdict(capsys, 1, ok,
             f"18 weights match count/62, max |err| = {worst:.3e}, "
             f"weight(tmplist) = {top_weight:.16g}, {elapsed * 1000:.1f} ms")
    assert ok


def test_criterion_2_identity_evolution_maps_perfectly(capsys, tmp_path):
    """An unchanged 50-group pair maps 1:1 at similarity exactly 1.0."""
    started = time.perf_counter()
    generate_evolution(IDENTITY_CONFIG, tmp_path)
    payload = _map_fixture(tmp_path)
    report = _score_fixture(tmp_path, payload)
    elapsed = time.perf_counter() - started

    sims = [row["similarity"] for row in payload["mappings"]]
    ok = (len(sims) == 50
          and all(s == 1.0 for s in sims)
          and report.precision == 1.0
          and report.recall == 1.0
          and elapsed < 5.0)
    _verdict(capsys, 2, ok,
             f"50/50 groups at similarity 1.0, precision = {report.precision}, "
             f"recall = {report.recall}, {elapsed:.2f} s")
    assert ok


def test_criterion_3_mixed_evolution_meets_quality_floor(capsys, tmp_path):
    """Mixed mutations with 10% deaths/births score >= 0.95 both ways."""
    started = time.perf_counter()
    generate_evolution(MIXED_CONFIG, tmp_path)
    payload = _map_fixture(tmp_path, delta=0.8)
    report = _score_fixture(tmp_path, payload)
    elapsed = time.perf_counter() - started

    ok = (report.precision >= 0.95
          and report.recall >= 0.95
          and elapsed < 30.0)
    _verdict(capsys, 3, ok,
             f"precision = {report.precision:.4f}, recall = {report.recall:.4f} "
             f"({report.correct}/{report.discovered} and "
             f"{report.correct}/{report.actual}), {elapsed:.2f} s")
    assert ok


def test_criterion_4_threshold_sweep_shrinks_monotonically(capsys, tmp_path):
    """Raising delta can only drop verdicts, never add or change them."""
    generate_evolution(MIXED_CONFIG, tmp_path)
    mapped_sets = []
    for delta in SWEEP_DELTAS:
        payload = _map_fixture(tmp_path, delta=delta)
        mapped_sets.append({
            (row["new_group"], row["old_group"])
            for row in payload["mappings"]
            if row["old_group"] is not None
        })

    nested = all(later <= earlier
                 for earlier, later in zip(mapped_sets, mapped_sets[1:]))
    sizes = [len(s) for s in mapped_sets]
    ok = nested and sizes == sorted(sizes, reverse=True)
    _verdict(capsys, 4, ok,
             "non-NULL sets nested across delta "
             f"{SWEEP_DELTAS}: sizes {sizes}")
    assert ok


def _two_topic_corpus():
    """20 + 20 documents, 50 tokens each, over two disjoint 25-word halves."""
    halves = (
        [f"alpha{i:02d}" for i in range(25)],
        [f"beta{i:02d}" for i in range(25)],
    )
    rng = np.random.default_rng(2024)
    documents = []
    for vocabulary in halves:
        for _ in range(20):
            tokens = rng.choice(vocabulary, size=50)
            documents.append(TokenDocument(tuple(tokens.tolist())))
    return halves, build_corpus(documents)


def _fit_two_topics():
    halves, corpus = _two_topic_corpus()
    config = LdaConfig(K=2, iterations=500, seed=11)
    result = fit_lda(corpus, config, check_counts=True)
    ids = [
        np.array([corpus.word_ids[w] for w in half]) for half in halves
    ]
    masses = np.array([
        [result.phi[k, ids[0]].sum(), result.phi[k, ids[1]].sum()]
        for k in range(2)
    ])
    return result, masses


def test_criterion_5_gibbs_recovers_two_disjoint_topics(capsys):
    """500 sweeps separate the halves; count tables stay exact throughout."""
    started = time.perf_counter()
    _, masses = _fit_two_topics()
    elapsed = time.perf_counter() - started

    best_half = masses.argmax(axis=1)
    peak_mass = masses.max(axis=1)
    # check_counts=True validated the count tables after every sweep; a
    # drift would have raised before reaching this point.
    ok = (peak_mass.min() >= 0.9
          and best_half[0] != best_half[1]
          and elapsed < 10.0)
    _verdict(capsys, 5, ok,
             f"topic masses on own halves = [{peak_mass[0]:.4f}, "
             f"{peak_mass[1]:.4f}], distinct halves {best_half[0] != best_half[1]}, "
             f"counts conserved over 500 sweeps, {elapsed:.2f} s")
    assert ok


def _evolution_artifacts(root: Path, config: SynthConfig,
                         deltas=(0.8,)) -> dict[str, bytes]:
    """Every JSON byte stream one pipeline run produces, keyed by name."""
    root.mkdir(parents=True, exist_ok=True)
    generate_evolution(config, root)
    artifacts = {
        name: (root / name).read_bytes()
        for name in ("older_report.json", "newer_report.json",
                     "truth.json", "manifest.json")
    }
    for delta in deltas:
        payload = _map_fixture(root, delta=delta)
        artifacts[f"mapping_{delta}.json"] = _canonical(payload)
        if delta == deltas[0]:
            report = _score_fixture(root, payload)
            artifacts["eval.json"] = _canonical(report.to_dict())
    return artifacts


def _lda_artifacts() -> dict[str, bytes]:
    result, masses = _fit_two_topics()
    return {
        "lda.json": _canonical({
            "theta": result.theta.tolist(),
            "phi": result.phi.tolist(),
            "masses": masses.tolist(),
        })
    }


def test_criterion_6_reruns_are_byte_identical(capsys, tmp_path):
    """Same seeds, fresh directories: every JSON artifact repeats exactly."""
    producers = [
        ("identity", lambda d: _evolution_artifacts(d, IDENTITY_CONFIG)),
        ("mixed", lambda d: _evolution_artifacts(d, MIXED_CONFIG,
                                                 deltas=SWEEP_DELTAS)),
        ("lda", lambda d: _lda_artifacts()),
    ]
    mismatched = []
    total = 0
    for name, produce in producers:
        first = produce(tmp_path / f"{name}_a")
        second = produce(tmp_path / f"{name}_b")
        total += len(first)
        if set(first) != set(second):
            mismatched.append(f"{name}: artifact sets differ")
            continue
        mismatched.extend(
            f"{name}/{key}" for key in first if first[key] != second[key]
        )

    ok = not mismatched
    _verdict(capsys, 6, ok,
             f"{total} JSON artifacts byte-identical across reruns"
             if ok else f"mismatches: {mismatched}")
    assert ok


def test_criterion_7_comment_noise_is_invisible_to_topics(capsys, tmp_path):
    """Type-1 edits: topics all score exactly 1.0, raw-text LCS does not."""
    type1_config = SynthConfig(
        group_count=20,
        p_unchanged=0.0,
        p_type1=1.0,
        p_type2=0.0,
        p_type3=0.0,
        death_fraction=0.0,
        birth_fraction=0.0,
        seed=19,
    )
    type1_dir = tmp_path / "type1"
    type1_dir.mkdir()
    generate_evolution(type1_config, type1_dir)

    topic_sims = [
        row["similarity"]
        for row in _map_fixture(type1_dir)["mappings"]
    ]
    lcs_sims = [
        row["similarity"]
        for row in _map_fixture(type1_dir,
                                strategy=Strategy.LCS_BASELINE)["mappings"]
    ]

    ok = (len(topic_sims) == 20
          and all(s == 1.0 for s in topic_sims)
          and min(lcs_sims) < 1.0)
    _verdict(capsys, 7, ok,
             f"20/20 topic similarities exactly 1.0; LCS on raw text ranges "
             f"[{min(lcs_sims):.4f}, {max(lcs_sims):.4f}]")
    assert ok

    # Informational only: how the two scorers compare when statements
    # actually change. No quantitative floor is asserted.
    type3_config = SynthConfig(
        group_count=20,
        p_unchanged=0.0,
        p_type1=0.0,
        p_type2=0.0,
        p_type3=1.0,
        type3_edit_fraction=(0.2, 0.4),
        death_fraction=0.0,
        birth_fraction=0.0,
        seed=23,
    )
    type3_dir = tmp_path / "type3"
    type3_dir.mkdir()
    generate_evolution(type3_config, type3_dir)
    truth = load_ground_truth(type3_dir / "truth.json")

    lines = []
    for label, strategy in (("topic", Strategy.TOPIC),
                            ("lcs", Strategy.LCS_BASELINE)):
        payload = _map_fixture(type3_dir, strategy=strategy)
        mapped = sum(
            1 for row in payload["mappings"] if row["old_group"] is not None
        )
        report = score(mappings_from_artifact(payload), truth)
        lines.append(
            f"  type-3-heavy report ({label}): mapped {mapped}/20, "
            f"precision = {report.precision:.4f}, recall = {report.recall:.4f}"
        )
    with capsys.disabled():
        for line in lines:
            print(line)


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


def _lcs_oracle(left_text, right_text):
    left = [line.strip() for line in left_text.splitlines()]
    right = [line.strip() for line in right_text.splitlines()]
    if not left and not right:
        return 1.0
    table = [[0] * (len(right) + 1) for _ in range(len(left) + 1)]
    for i, a in enumerate(left):
        for j, b in enumerate(right):
            if a == b:
                table[i + 1][j + 1] = table[i][j] + 1
            else:
                table[i + 1][j + 1] = max(table[i][j + 1], table[i + 1][j])
    return 2.0 * table[-1][-1] / (len(left) + len(right))


def test_criterion_8_similarity_functions_match_oracles(capsys):
    """1000 random inputs against direct-formula and full-table oracles."""
    rng = np.random.default_rng(314)
    worst = 0.0
    inputs = 0

    for trial in range(300):
        dim = int(rng.integers(2, 12))
        u = rng.random(dim) * rng.integers(1, 10)
        v = u.copy() if trial % 10 == 0 else rng.random(dim)
        got = topic_similarity(u, v, Metric.COSINE)
        worst = max(worst, abs(got - _cosine_oracle(u, v)))
        inputs += 1

    for trial in range(300):
        dim = int(rng.integers(2, 12))
        p = rng.random(dim)
        p /= p.sum()
        if trial % 10 == 0:
            q = p.copy()
        else:
            q = rng.random(dim)
            q /= q.sum()
        got = topic_similarity(p, q, Metric.HELLINGER)
        worst = max(worst, abs(got - _hellinger_oracle(p, q)))
        inputs += 1

    pool = ["x = y + z;", "return x;", "  if (x > y) { z = x; }", "",
            "while (z > 0) { z = z - y; }"]
    for _ in range(400):
        left = "\n".join(rng.choice(pool, size=int(rng.integers(0, 9))))
        right = "\n".join(rng.choice(pool, size=int(rng.integers(0, 9))))
        got = lcs_similarity(left, right)
        worst = max(worst, abs(got - _lcs_oracle(left, right)))
        inputs += 1

    ok = inputs >= 1000 and worst < 1e-12
    _verdict(capsys, 8, ok,
             f"{inputs} random inputs across cosine, Hellinger similarity, "
             f"and line LCS; max |err| = {worst:.3e}")
    assert ok
