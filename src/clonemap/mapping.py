"""Map clone groups of a newer version back to their origins in an older one.

For every newer group the mapper scores all older groups, takes the argmax,
and keeps the link only when the best score clears the threshold; groups
below it are classified as new. Many-to-one links are permitted by default;
an optional injective mode re-auctions contested older groups. Lineage
chaining stitches pairwise mappings across longer version sequences.
"""

from __future__ import annotations

import enum
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import CloneMapWarning, ConfigError, ValidationError
from .ingest import VersionSnapshot
from .similarity import Metric, lcs_matrix, score_matrix
# lcs_similarity and topic_similarity are not called here but stay importable
# from this module, where perfbench/tracer.py looks them up.
from .similarity import lcs_similarity, topic_similarity  # noqa: F401
from .topicmodel import TopicDistribution


class Strategy(enum.Enum):
    TOPIC = "topic"
    LCS_BASELINE = "lcs"


@dataclass(frozen=True)
class MappingConfig:
    delta: float = 0.8
    metric: Metric = Metric.COSINE
    strategy: Strategy = Strategy.TOPIC
    enforce_injective: bool = False

    def __post_init__(self):
        if not 0.0 <= self.delta <= 1.0:
            raise ConfigError(f"delta must be in [0, 1], got {self.delta}")


@dataclass(frozen=True)
class GroupMapping:
    """One newer group's verdict: its origin (or None) and the score.

    ``similarity`` is the score against the selected old group, or the best
    score seen when the verdict is None.
    """

    new_group: tuple[str, int]
    old_group: tuple[str, int] | None
    similarity: float


@dataclass(frozen=True)
class VersionTopics:
    """A snapshot's per-group topic vectors, index-aligned with its groups.

    A None entry marks a group whose token document came out empty.
    """

    version_id: str
    topics: tuple[TopicDistribution | None, ...]


@dataclass(frozen=True)
class Lineage:
    """Chain of the same logical group across consecutive versions."""

    members: tuple[tuple[str, int], ...]
    link_similarities: tuple[float, ...]

    def __post_init__(self):
        if len(self.link_similarities) != len(self.members) - 1:
            raise ValidationError("lineage needs one similarity per link")


@dataclass(frozen=True)
class Genealogy:
    lineages: tuple[Lineage, ...]
    births: tuple[tuple[str, int], ...]
    deaths: tuple[tuple[str, int], ...]


def _assign(scores: np.ndarray, empty_rows, new_refs, old_refs, delta: float,
            enforce_injective: bool) -> list[GroupMapping]:
    """Thresholded argmax over the rows of an (N, M) score matrix.

    ``empty_rows[i]`` marks a newer group whose document came out empty; it
    maps to null with a warning. Ties go to the lowest older index.
    """
    n_old = len(old_refs)
    mappings: dict[int, GroupMapping] = {}
    contenders = []
    for i, empty in enumerate(empty_rows):
        if empty:
            warnings.warn(
                f"group {new_refs[i]} has an empty token document; mapped to null",
                CloneMapWarning,
            )
        if empty or n_old == 0:
            mappings[i] = GroupMapping(new_refs[i], None, 0.0)
        else:
            contenders.append(i)

    if not enforce_injective:
        # np.argmax returns the first maximum: the lowest older index.
        best_cols = scores.argmax(axis=1) if n_old else ()
        for i in contenders:
            k = int(best_cols[i])
            best = float(scores[i, k])
            old = old_refs[k] if best >= delta else None
            mappings[i] = GroupMapping(new_refs[i], old, best)
        return [mappings[i] for i in range(len(new_refs))]

    # Injective auction: contested old groups go to the highest-scoring
    # claimant (ties to the lowest new index); losers retry against the
    # still-unclaimed old groups until every contender settles.
    score_rows = scores.tolist()
    available = set(range(n_old))
    pending = list(contenders)
    while pending:
        claims: dict[int, list[int]] = {}
        for i in pending:
            row = score_rows[i]
            candidates = [(row[j], -j) for j in available]
            if candidates:
                best, neg_j = max(candidates)
                if best >= delta:
                    claims.setdefault(-neg_j, []).append(i)
                    continue
            best_left = max((row[j] for j in available), default=0.0)
            mappings[i] = GroupMapping(new_refs[i], None, best_left)
        next_pending = []
        for j, claimants in claims.items():
            winner = max(claimants, key=lambda i: (score_rows[i][j], -i))
            mappings[winner] = GroupMapping(
                new_refs[winner], old_refs[j], score_rows[winner][j]
            )
            available.discard(j)
            next_pending.extend(i for i in claimants if i != winner)
        pending = next_pending
    return [mappings[i] for i in range(len(new_refs))]


def map_version_pair(newer: VersionTopics, older: VersionTopics,
                     config: MappingConfig | None = None) -> list[GroupMapping]:
    """Map every newer group to its best-matching older group or to null.

    Topics must come from a shared vocabulary (one corpus spanning both
    versions). All pairs are scored by one ``score_matrix`` call; a None
    older topic scores 0.0 against everything. Output is ordered by newer
    group index and always has one entry per newer group.
    """
    config = config or MappingConfig()
    new_refs = [(newer.version_id, i) for i in range(len(newer.topics))]
    old_refs = [(older.version_id, j) for j in range(len(older.topics))]
    new_present = [i for i, t in enumerate(newer.topics) if t is not None]
    old_present = [j for j, t in enumerate(older.topics) if t is not None]

    scores = np.zeros((len(new_refs), len(old_refs)))
    scores[np.ix_(new_present, old_present)] = score_matrix(
        [newer.topics[i] for i in new_present],
        [older.topics[j] for j in old_present],
        config.metric,
    )
    empty_rows = [t is None for t in newer.topics]
    return _assign(scores, empty_rows, new_refs, old_refs, config.delta,
                   config.enforce_injective)


def baseline_text_map(newer: VersionSnapshot, older: VersionSnapshot,
                      config: MappingConfig | None = None,
                      theta: float | None = None) -> list[GroupMapping]:
    """Same argmax-plus-threshold mapping, scored with line LCS on raw text.

    Operates on concatenated fragment text as written, comments included;
    this is the text-based mapper the topic pipeline is compared against.
    ``theta`` overrides the threshold, defaulting to config.delta.
    """
    config = config or MappingConfig(strategy=Strategy.LCS_BASELINE)
    delta = config.delta if theta is None else theta
    if not 0.0 <= delta <= 1.0:
        raise ConfigError(f"theta must be in [0, 1], got {delta}")

    def group_text(snapshot, group):
        if not group.resolved:
            raise ValidationError(
                f"group {group.index} of {snapshot.version_id} has unresolved "
                "fragment text; pass a source root"
            )
        return group.concatenated_text()

    new_refs = [(newer.version_id, g.index) for g in newer.groups]
    old_refs = [(older.version_id, g.index) for g in older.groups]
    old_texts = [group_text(older, g) for g in older.groups]
    new_texts = [group_text(newer, g) for g in newer.groups]
    scores = lcs_matrix(new_texts, old_texts)
    return _assign(scores, [False] * len(new_refs), new_refs, old_refs, delta,
                   config.enforce_injective)


def unmatched_old_groups(mappings: list[GroupMapping], older_size: int) -> list[int]:
    """Older-version indices never selected by any mapping."""
    selected = {m.old_group[1] for m in mappings if m.old_group is not None}
    return [j for j in range(older_size) if j not in selected]


def map_lineage(versions: list[VersionTopics],
                config: MappingConfig | None = None) -> Genealogy:
    """Chain pairwise mappings across chronologically ordered versions.

    Links exist only between consecutive versions. A null-mapped group is a
    birth; an older group never selected is a death. When several newer
    groups map to the same older group, the highest-similarity claimant
    (ties to the lowest index) extends the lineage and the rest start new
    lineages of their own without counting as births.
    """
    config = config or MappingConfig()
    if len(versions) < 2:
        raise ConfigError("lineage chaining needs at least 2 versions")

    chains: list[dict] = []
    tails: dict[tuple[str, int], int] = {}
    first = versions[0]
    for i in range(len(first.topics)):
        ref = (first.version_id, i)
        tails[ref] = len(chains)
        chains.append({"members": [ref], "sims": []})
    births: list[tuple[str, int]] = []
    deaths: list[tuple[str, int]] = []

    for older, newer in zip(versions, versions[1:]):
        mappings = map_version_pair(newer, older, config)
        claims: dict[int, list[GroupMapping]] = {}
        for m in mappings:
            if m.old_group is None:
                births.append(m.new_group)
                tails[m.new_group] = len(chains)
                chains.append({"members": [m.new_group], "sims": []})
            else:
                claims.setdefault(m.old_group[1], []).append(m)
        selected = set()
        for old_idx, claimants in claims.items():
            winner = max(claimants,
                         key=lambda m: (m.similarity, -m.new_group[1]))
            old_ref = (older.version_id, old_idx)
            chain_idx = tails.pop(old_ref)
            chains[chain_idx]["members"].append(winner.new_group)
            chains[chain_idx]["sims"].append(winner.similarity)
            tails[winner.new_group] = chain_idx
            selected.add(old_idx)
            for m in claimants:
                if m is not winner:
                    tails[m.new_group] = len(chains)
                    chains.append({"members": [m.new_group], "sims": []})
        for j in range(len(older.topics)):
            if j not in selected:
                deaths.append((older.version_id, j))

    lineages = tuple(
        Lineage(members=tuple(c["members"]), link_similarities=tuple(c["sims"]))
        for c in chains
    )
    return Genealogy(lineages=lineages, births=tuple(births),
                     deaths=tuple(deaths))
