"""Score mappings against ground truth; generate synthetic clone evolutions.

The scorer implements precision and recall over group mappings, counting a
null verdict that agrees with the truth as neither discovered nor actual (a
correctly identified new group is not a mapping). The generator fabricates
an older/newer version pair with clone-type mutations and emits source
trees, clone reports, and the matching ground truth, all deterministic for
a given seed.
"""

from __future__ import annotations

import itertools
import random
import re
from collections.abc import Iterator
from dataclasses import asdict, dataclass, fields
from pathlib import Path

from .errors import (ConfigError, CoverageError, ValidationError, _at, _fields,
                     _items, is_json_int, is_number, json_document, read_utf8)
from .ingest import VersionSnapshot, snapshot_to_dict
from .mapping import GroupMapping
from .pipeline import artifact_header, write_json_artifact

VOCAB_PER_GROUP = 10

_ADJECTIVES = [
    "amber", "brisk", "coral", "dusky", "eager", "fuzzy", "glossy", "hazel",
    "ivory", "jade", "keen", "lunar", "mellow", "noble", "ochre", "pale",
    "quiet", "rustic", "sable", "tidal", "umber", "vivid", "woven", "xenial",
    "yellow", "zesty", "crisp", "dapper", "feral", "gilded",
]

_NOUNS = [
    "anchor", "beacon", "cursor", "dial", "ember", "fulcrum", "garnet",
    "harbor", "ingot", "jetty", "kettle", "lantern", "marble", "nectar",
    "oriole", "prism", "quartz", "ribbon", "sprocket", "tendril", "urchin",
    "vessel", "wharf", "yarrow", "zephyr", "basalt", "cobble", "drift",
    "emberfall", "gully",
]

_TEMPLATES = [
    "{a} = {b} + {c};",
    "{a} = {b} - {c};",
    "{a} = {b} * 2 + {c};",
    "{a} += {b};",
    "{a} = {b};",
    "if ({a} > {b}) {{ {c} = {a}; }}",
    "while ({a} < {b}) {{ {a} += {c}; }}",
    "return {a} + {b};",
]


def _check_pair(pos: int, new, old) -> None:
    """ValidationError unless ``new: old`` can be entry ``pos`` of
    ``GroundTruth.pairs``."""
    if not (is_json_int(new) and new >= 0):
        raise ValidationError(f"pairs[{pos}]: 'new' must be an integer >= 0, "
                              f"got {new!r}")
    if not (old is None or is_json_int(old) and old >= 0):
        raise ValidationError(f"pairs[{pos}]: 'old' must be an integer >= 0 "
                              f"or null, got {old!r}")


@dataclass(frozen=True)
class GroundTruth:
    """The reference mapping: one verdict per newer group index.

    ``pairs`` maps each newer group index to its older group index, or to
    None for a group with no origin.
    """

    newer_version: str
    older_version: str
    pairs: dict

    def __post_init__(self):
        for name in ("newer_version", "older_version"):
            value = getattr(self, name)
            if not (isinstance(value, str) and value):
                raise ValidationError(f"{name.replace('_', ' ')} must be a "
                                      f"non-empty string, got {value!r}")
        if not isinstance(self.pairs, dict):
            raise ValidationError(f"pairs must be a dict, got {self.pairs!r}")
        for pos, (new, old) in enumerate(self.pairs.items()):
            _check_pair(pos, new, old)

    @classmethod
    def from_dict(cls, doc: dict) -> "GroundTruth":
        """The inverse of ``to_dict``. Checks the document's shape through
        the shared ``errors._fields`` and ``errors._items``, and that no
        newer group appears twice; the constructor's rules check every
        value, and their error is prefixed ``ground truth: ``. Each entry
        meets the pair rule before the duplicate check, since ``true`` and
        ``1.0`` equal ``1`` as keys."""
        newer, older, entries = _fields(doc, "ground truth",
                                        ("newer", "older", "pairs"), ValidationError)
        pairs = {}
        for pos, entry in enumerate(_items(entries, "ground truth 'pairs'",
                                           ValidationError)):
            where = f"ground truth: pairs[{pos}]"
            new, old = _fields(entry, where, ("new", "old"), ValidationError)
            _at("ground truth", _check_pair, pos, new, old)
            if new in pairs:
                raise ValidationError(f"{where}: duplicate entry for newer "
                                      f"group {new!r}")
            pairs[new] = old
        return _at("ground truth", cls, newer, older, pairs)

    def check_versions(self, newer, older) -> None:
        """ValidationError unless ``newer`` and ``older`` are this truth's
        versions. A mapping artifact names its versions once, in its
        header; rows repeat them only where they hold a group."""
        if (newer, older) != (self.newer_version, self.older_version):
            raise ValidationError(
                f"mapping artifact maps version {newer!r} onto {older!r} but "
                f"ground truth maps {self.newer_version!r} onto "
                f"{self.older_version!r}"
            )

    def to_dict(self) -> dict:
        return {
            "newer": self.newer_version,
            "older": self.older_version,
            "pairs": [
                {"new": new, "old": self.pairs[new]} for new in sorted(self.pairs)
            ],
        }


def load_ground_truth(path: Path | str) -> GroundTruth:
    return GroundTruth.from_dict(json_document(read_utf8(path), path))


@dataclass(frozen=True)
class EvalReport:
    correct: int
    discovered: int
    actual: int
    precision: float
    recall: float

    def to_dict(self) -> dict:
        return asdict(self)


def score(mappings: list[GroupMapping], truth: GroundTruth) -> EvalReport:
    """Precision and recall of emitted mappings against the truth.

    A mapping is correct when its (new, old-or-null) pair equals the truth
    entry. Null verdicts that agree with the truth count toward neither
    discovered nor actual. Zero denominators score 1.0. Every newer group
    the truth covers must have exactly one verdict: a missing row raises
    CoverageError, since it would otherwise count as a silent miss.
    """
    correct = 0
    discovered = 0
    seen: set[int] = set()
    for m in mappings:
        version, new_idx = m.new_group
        if version != truth.newer_version:
            raise ValidationError(
                f"mapping covers version {version!r} but ground truth covers "
                f"{truth.newer_version!r}"
            )
        if new_idx not in truth.pairs:
            raise CoverageError(
                f"ground truth has no entry for newer group {new_idx}"
            )
        if new_idx in seen:
            raise ValidationError(
                f"duplicate mapping row for newer group {new_idx}"
            )
        seen.add(new_idx)
        expected = truth.pairs[new_idx]
        if m.old_group is not None:
            if m.old_group[0] != truth.older_version:
                raise ValidationError(
                    f"mapping selects version {m.old_group[0]!r} but ground "
                    f"truth covers {truth.older_version!r}"
                )
            discovered += 1
            if m.old_group[1] == expected:
                correct += 1
    missing = sorted(truth.pairs.keys() - seen)
    if missing:
        shown = ", ".join(map(str, missing[:5]))
        more = f" and {len(missing) - 5} more" if len(missing) > 5 else ""
        raise CoverageError(
            f"mapping has no row for newer group {shown}{more} of the "
            "ground truth"
        )
    actual = sum(1 for old in truth.pairs.values() if old is not None)
    precision = correct / discovered if discovered else 1.0
    recall = correct / actual if actual else 1.0
    return EvalReport(correct=correct, discovered=discovered, actual=actual,
                      precision=precision, recall=recall)


@dataclass(frozen=True)
class SynthConfig:
    """Shape and mutation mix of a generated two-version clone evolution."""

    group_count: int = 20
    fragments_per_group: tuple[int, int] = (2, 4)
    lines_per_fragment: tuple[int, int] = (6, 12)
    p_unchanged: float = 0.4
    p_type1: float = 0.2
    p_type2: float = 0.25
    p_type3: float = 0.15
    type3_edit_fraction: tuple[float, float] = (0.1, 0.3)
    death_fraction: float = 0.0
    birth_fraction: float = 0.0
    seed: int = 42

    def __post_init__(self):
        if not is_json_int(self.seed):
            raise ConfigError(f"seed must be an integer, got {self.seed!r}")
        # random.Random seeds with |seed|, so -3 would repeat the fixture of 3.
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        # Every other field holds counts, which must be integers, or
        # probabilities and fractions, which must be numbers.
        counts = ("group_count", "fragments_per_group", "lines_per_fragment")
        pairs = ("fragments_per_group", "lines_per_fragment", "type3_edit_fraction")
        for name in (f.name for f in fields(self) if f.name != "seed"):
            value = getattr(self, name)
            if name in pairs and (not isinstance(value, (tuple, list))
                                  or len(value) != 2):
                raise ConfigError(f"{name} must be a (low, high) pair, got {value!r}")
            check, kind = ((is_json_int, "integers") if name in counts
                           else (is_number, "numbers"))
            if not all(map(check, value if name in pairs else (value,))):
                raise ConfigError(f"{name} must be {kind}, got {value!r}")
        if self.group_count < 1:
            raise ConfigError(f"group_count must be >= 1, got {self.group_count}")
        for name, least in (("fragments_per_group", 2), ("lines_per_fragment", 1)):
            lo, hi = getattr(self, name)
            if lo < least or hi < lo:
                raise ConfigError(f"{name} must be a range with low >= "
                                  f"{least}, got {lo, hi}")
        probs = ("p_unchanged", "p_type1", "p_type2", "p_type3")
        for name in probs + ("death_fraction", "birth_fraction"):
            value = getattr(self, name)
            # Negated, so that NaN fails too.
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1], got {value}")
        total = sum(getattr(self, name) for name in probs)
        if abs(total - 1.0) > 1e-9:
            raise ConfigError(f"mutation probabilities must sum to 1, got {total!r}")
        lo, hi = self.type3_edit_fraction
        if not 0.0 <= lo <= hi <= 1.0:
            raise ConfigError(
                f"type3_edit_fraction must be a range inside [0, 1], got {lo, hi}"
            )
        if self.survivor_count + self.birth_count < 1:
            raise ConfigError(
                "config kills every group and births none; newer version "
                "would be empty"
            )

    @property
    def death_count(self) -> int:
        return round(self.death_fraction * self.group_count)

    @property
    def birth_count(self) -> int:
        return round(self.birth_fraction * self.group_count)

    @property
    def survivor_count(self) -> int:
        return self.group_count - self.death_count


def _identifiers(rng: random.Random) -> Iterator[str]:
    """Deterministic stream of unique snake_case identifiers.

    Adjective-noun compounds first, in one shuffled order, then numbered
    variants of them in the same order. The words avoid the shipped filter
    lists, and the compounds are single tokens under the default no-split
    tokenizer. The shuffle runs at the first draw.
    """
    base = [f"{a}_{n}" for a in _ADJECTIVES for n in _NOUNS]
    rng.shuffle(base)
    yield from base
    for suffix in itertools.count(1):
        yield from (f"{word}{suffix}" for word in base)


def _cycled(ids: list[str], rng: random.Random) -> Iterator[str]:
    """A group's identifiers in shuffled round-robin order.

    Keeps per-identifier usage counts within one of each other, so the
    group's topic stays roughly uniform over its vocabulary.
    """
    ids = list(ids)
    while True:
        rng.shuffle(ids)
        yield from ids


def _make_line(rng: random.Random, cycler: Iterator[str]) -> str:
    template = rng.choice(_TEMPLATES)
    slots = {}
    for name in ("a", "b", "c"):
        if "{" + name + "}" in template:
            slots[name] = next(cycler)
    return template.format(**slots)


def _mutate_type1(lines: list[str], rng: random.Random) -> list[str]:
    out = list(lines)
    out.insert(rng.randrange(len(out) + 1),
               f"/* revision note {rng.randint(1, 999)} */")
    i = rng.randrange(len(out))
    out[i] = out[i] + "  // touched"
    j = rng.randrange(len(out))
    out[j] = "    " + out[j].lstrip()
    return out


def _mutate_type2(lines: list[str], rng: random.Random, vocab: list[str],
                  identifiers: Iterator[str]) -> list[str]:
    old = rng.choice(vocab)
    new = next(identifiers)
    pattern = re.compile(rf"\b{re.escape(old)}\b")
    return [pattern.sub(new, line) for line in lines]


def _mutate_type3(lines: list[str], rng: random.Random, cycler: Iterator[str],
                  fraction_range: tuple[float, float]) -> list[str]:
    out = list(lines)
    fraction = rng.uniform(*fraction_range)
    edits = max(1, round(fraction * len(out)))
    for _ in range(edits):
        op = rng.choice(("add", "delete", "modify"))
        if op == "delete" and len(out) <= 1:
            op = "modify"
        if op == "add":
            out.insert(rng.randrange(len(out) + 1), _make_line(rng, cycler))
        elif op == "delete":
            out.pop(rng.randrange(len(out)))
        else:
            out[rng.randrange(len(out))] = _make_line(rng, cycler)
    return out


def _fresh_group(config: SynthConfig, rng: random.Random,
                 identifiers: Iterator[str],
                 ) -> tuple[list[str], Iterator[str], list[str], int]:
    """A new group: its vocabulary, the cycler over it, its lines and its
    fragment count."""
    vocab = list(itertools.islice(identifiers, VOCAB_PER_GROUP))
    cycler = _cycled(vocab, rng)
    lines = [_make_line(rng, cycler)
             for _ in range(rng.randint(*config.lines_per_fragment))]
    return vocab, cycler, lines, rng.randint(*config.fragments_per_group)


def _write_version(root: Path, version: str,
                   groups: list[tuple[list[str], int]]) -> VersionSnapshot:
    """Write each group's lines to its fragment files under ``root``; the
    snapshot that reports them."""
    root.mkdir(parents=True, exist_ok=True)
    files, ends, bounds = [], [], [0]
    for index, (lines, frag_count) in enumerate(groups):
        text = "\n".join(lines) + "\n"
        for m in range(frag_count):
            files.append(f"group{index:03d}_frag{m}.c")
            (root / files[-1]).write_text(text, encoding="utf-8")
        ends += [len(lines)] * frag_count
        bounds.append(len(files))
    return VersionSnapshot(version, tuple(files), (1,) * len(files),
                           tuple(ends), (None,) * len(files), tuple(bounds))


def generate_evolution(config: SynthConfig, out_dir: Path | str) -> dict:
    """Emit an older/newer source tree pair with reports and ground truth.

    Every group gets its own disjoint identifier vocabulary, each fragment
    its own file. Survivor groups mutate per the configured mix; dead groups
    vanish from the newer version and births appear with fresh vocabulary.
    Returns the manifest (also written to manifest.json), with all paths
    relative to ``out_dir``, which must be missing or empty.
    """
    out = Path(out_dir)
    # Files left by an earlier run would sit beside ones the manifest lists.
    if out.is_dir() and any(out.iterdir()):
        raise ConfigError(f"output directory {out} is not empty")
    rng = random.Random(config.seed)
    identifiers = _identifiers(rng)
    older_groups = [_fresh_group(config, rng, identifiers)
                    for _ in range(config.group_count)]

    death_set = set(rng.sample(range(config.group_count), config.death_count))
    kinds = ("unchanged", "type1", "type2", "type3")
    weights = (config.p_unchanged, config.p_type1, config.p_type2,
               config.p_type3)

    # (older index or None, lines, fragment count) per newer group.
    newer_entries = []
    for k, (vocab, cycler, lines, frag_count) in enumerate(older_groups):
        if k in death_set:
            continue
        kind = rng.choices(kinds, weights=weights)[0]
        if kind == "type1":
            lines = _mutate_type1(lines, rng)
        elif kind == "type2":
            lines = _mutate_type2(lines, rng, vocab, identifiers)
        elif kind == "type3":
            lines = _mutate_type3(lines, rng, cycler,
                                  config.type3_edit_fraction)
        newer_entries.append((k, lines, frag_count))
    for _ in range(config.birth_count):
        _, _, lines, frag_count = _fresh_group(config, rng, identifiers)
        newer_entries.append((None, lines, frag_count))
    rng.shuffle(newer_entries)

    older = _write_version(out / "older_src", "v1",
                           [(lines, frags) for _, _, lines, frags in older_groups])
    newer = _write_version(out / "newer_src", "v2",
                           [(lines, frags) for _, lines, frags in newer_entries])
    truth = GroundTruth(newer_version="v2", older_version="v1",
                        pairs={i: old for i, (old, _, _) in enumerate(newer_entries)})
    write_json_artifact(out / "older_report.json", snapshot_to_dict(older))
    write_json_artifact(out / "newer_report.json", snapshot_to_dict(newer))
    write_json_artifact(out / "truth.json", truth.to_dict())

    manifest = {
        "outputs": {
            "older_report": "older_report.json",
            "newer_report": "newer_report.json",
            "older_source_root": "older_src",
            "newer_source_root": "newer_src",
            "truth": "truth.json",
        },
        "files": sorted(
            [f"{dirname}/{file}"
             for dirname, snapshot in (("older_src", older), ("newer_src", newer))
             for file in snapshot.files]
            + ["older_report.json", "newer_report.json", "truth.json"]
        ),
        **artifact_header(asdict(config)),
    }
    write_json_artifact(out / "manifest.json", manifest)
    return manifest
