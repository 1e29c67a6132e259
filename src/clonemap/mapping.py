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
from .topicmodel import TopicBlock


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
    """A snapshot's per-group topic vectors as one TopicBlock: row ``i``
    is group ``i``, and an empty row a group whose token document came out
    empty."""

    version_id: str
    block: TopicBlock


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


def _assign(scores: np.ndarray, empty_rows, newer_id: str, older_id: str,
            config: MappingConfig) -> list[GroupMapping]:
    """Thresholded argmax over the rows of an (N, M) score matrix.

    Row ``i`` is newer group ``(newer_id, i)`` and column ``j`` older group
    ``(older_id, j)``. ``empty_rows[i]`` marks a newer group whose document
    came out empty; it maps to null with a warning. Ties go to the lowest
    older index.
    """
    n_new, n_old = scores.shape
    mappings: dict[int, GroupMapping] = {}
    contenders = []
    for i, empty in enumerate(empty_rows):
        if empty:
            warnings.warn(
                f"group {(newer_id, i)} has an empty token document; mapped to null",
                CloneMapWarning,
            )
        if empty or n_old == 0:
            mappings[i] = GroupMapping((newer_id, i), None, 0.0)
        else:
            contenders.append(i)

    if not config.enforce_injective:
        # np.argmax returns the first maximum: the lowest older index.
        best_cols = scores.argmax(axis=1) if n_old else ()
        for i in contenders:
            k = int(best_cols[i])
            best = float(scores[i, k])
            old = (older_id, k) if best >= config.delta else None
            mappings[i] = GroupMapping((newer_id, i), old, best)
        return [mappings[i] for i in range(n_new)]

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
            best, neg_j = max(((row[j], -j) for j in available),
                              default=(0.0, 0))
            if available and best >= config.delta:
                claims.setdefault(-neg_j, []).append(i)
            else:
                mappings[i] = GroupMapping((newer_id, i), None, best)
        next_pending = []
        for j, claimants in claims.items():
            winner = max(claimants, key=lambda i: (score_rows[i][j], -i))
            mappings[winner] = GroupMapping(
                (newer_id, winner), (older_id, j), score_rows[winner][j]
            )
            available.discard(j)
            next_pending.extend(i for i in claimants if i != winner)
        pending = next_pending
    return [mappings[i] for i in range(n_new)]


def map_version_pair(newer: VersionTopics, older: VersionTopics,
                     config: MappingConfig | None = None) -> list[GroupMapping]:
    """Map every newer group to its best-matching older group or to null.

    Topics must come from a shared vocabulary (one corpus spanning both
    versions). All pairs are scored by one ``score_matrix`` call on the
    two blocks; an empty older row scores 0.0 against everything. Output
    is ordered by newer group index and always has one entry per newer
    group.
    """
    config = config or MappingConfig()
    scores = score_matrix(newer.block, older.block, config.metric)
    empty_rows = (np.diff(newer.block.indptr) == 0).tolist()
    return _assign(scores, empty_rows, newer.version_id, older.version_id,
                   config)


def baseline_text_map(newer: VersionSnapshot, older: VersionSnapshot,
                      config: MappingConfig | None = None) -> list[GroupMapping]:
    """Same argmax-plus-threshold mapping, scored with line LCS on raw text.

    Operates on concatenated fragment text as written, comments included;
    this is the text-based mapper the topic pipeline is compared against.
    Every group's text must be resolved.
    """
    config = config or MappingConfig()
    old_texts = [g.concatenated_text() for g in older.groups]
    new_texts = [g.concatenated_text() for g in newer.groups]
    scores = lcs_matrix(new_texts, old_texts)
    return _assign(scores, [False] * len(new_texts), newer.version_id,
                   older.version_id, config)


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
    for i in range(len(first.block)):
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
        for old_idx, claimants in claims.items():
            winner = max(claimants,
                         key=lambda m: (m.similarity, -m.new_group[1]))
            old_ref = (older.version_id, old_idx)
            chain_idx = tails.pop(old_ref)
            chains[chain_idx]["members"].append(winner.new_group)
            chains[chain_idx]["sims"].append(winner.similarity)
            tails[winner.new_group] = chain_idx
            for m in claimants:
                if m is not winner:
                    tails[m.new_group] = len(chains)
                    chains.append({"members": [m.new_group], "sims": []})
        deaths.extend((older.version_id, j)
                      for j in unmatched_old_groups(mappings, len(older.block)))

    lineages = tuple(
        Lineage(members=tuple(c["members"]), link_similarities=tuple(c["sims"]))
        for c in chains
    )
    return Genealogy(lineages=lineages, births=tuple(births),
                     deaths=tuple(deaths))
