"""Score mappings against ground truth; generate synthetic clone evolutions.

The scorer implements precision and recall over group mappings, counting a
null verdict that agrees with the truth as neither discovered nor actual (a
correctly identified new group is not a mapping). The generator fabricates
an older/newer version pair with clone-type mutations and emits source
trees, clone reports, and the matching ground truth, all deterministic for
a given seed.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import asdict, dataclass
from pathlib import Path

from .errors import ConfigError, CoverageError, ValidationError, is_json_int, read_utf8
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


@dataclass(frozen=True)
class GroundTruth:
    """The reference mapping: one verdict per newer group index."""

    newer_version: str
    older_version: str
    pairs: dict

    @classmethod
    def from_dict(cls, doc: dict) -> "GroundTruth":
        if not isinstance(doc, dict):
            raise ValidationError("ground truth must be a JSON object")
        for key in ("newer", "older", "pairs"):
            if key not in doc:
                raise ValidationError(f"ground truth missing key {key!r}")
        if not isinstance(doc["pairs"], list):
            raise ValidationError("ground truth 'pairs' must be a list")
        pairs: dict[int, int | None] = {}
        for entry in doc["pairs"]:
            if not isinstance(entry, dict) or "new" not in entry or "old" not in entry:
                raise ValidationError(
                    "ground truth pairs need 'new' and 'old' keys"
                )
            new = entry["new"]
            old = entry["old"]
            if not is_json_int(new):
                raise ValidationError(f"ground truth 'new' must be an int, got {new!r}")
            if old is not None and not is_json_int(old):
                raise ValidationError(
                    f"ground truth 'old' must be an int or null, got {old!r}"
                )
            if new in pairs:
                raise ValidationError(f"duplicate ground truth entry for newer group {new}")
            pairs[new] = old
        return cls(newer_version=str(doc["newer"]),
                   older_version=str(doc["older"]), pairs=pairs)

    def to_dict(self) -> dict:
        return {
            "newer": self.newer_version,
            "older": self.older_version,
            "pairs": [
                {"new": new, "old": self.pairs[new]} for new in sorted(self.pairs)
            ],
        }


def load_ground_truth(path: Path | str) -> GroundTruth:
    return GroundTruth.from_dict(json.loads(read_utf8(path)))


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
    discovered nor actual. Zero denominators score 1.0. A newer group may
    have at most one verdict.
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
        if self.group_count < 1:
            raise ConfigError(f"group_count must be >= 1, got {self.group_count}")
        lo, hi = self.fragments_per_group
        if lo < 2 or hi < lo:
            raise ConfigError(
                f"fragments_per_group must be a range with low >= 2, got {lo, hi}"
            )
        lo, hi = self.lines_per_fragment
        if lo < 1 or hi < lo:
            raise ConfigError(
                f"lines_per_fragment must be a range with low >= 1, got {lo, hi}"
            )
        probs = (self.p_unchanged, self.p_type1, self.p_type2, self.p_type3)
        # Negated, so that NaN fails too; an infinity fails the sum below.
        if not all(p >= 0 for p in probs):
            raise ConfigError(
                f"mutation probabilities must be non-negative numbers, got {probs}"
            )
        if abs(sum(probs) - 1.0) > 1e-9:
            raise ConfigError(
                f"mutation probabilities must sum to 1, got {sum(probs)!r}"
            )
        lo, hi = self.type3_edit_fraction
        if not 0.0 <= lo <= hi <= 1.0:
            raise ConfigError(
                f"type3_edit_fraction must be a range inside [0, 1], got {lo, hi}"
            )
        for name in ("death_fraction", "birth_fraction"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1], got {value}")
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


class _IdentifierPool:
    """Deterministic stream of unique snake_case identifiers.

    Adjective-noun compounds first, numbered variants once those run out.
    The words avoid the shipped filter lists, and the compounds are single
    tokens under the default no-split tokenizer.
    """

    def __init__(self, rng: random.Random):
        base = [f"{a}_{n}" for a in _ADJECTIVES for n in _NOUNS]
        rng.shuffle(base)
        self._base = base
        self._pos = 0
        self._suffix = 1

    def take(self, count: int) -> list[str]:
        out = []
        while len(out) < count:
            if self._pos < len(self._base):
                out.append(self._base[self._pos])
                self._pos += 1
            else:
                idx = (self._pos - len(self._base)) % len(self._base)
                out.append(f"{self._base[idx]}{self._suffix}")
                self._pos += 1
                if idx == len(self._base) - 1:
                    self._suffix += 1
        return out


class _IdCycler:
    """Hand out a group's identifiers in shuffled round-robin order.

    Keeps per-identifier usage counts within one of each other, so the
    group's topic stays roughly uniform over its vocabulary.
    """

    def __init__(self, ids: list[str], rng: random.Random):
        self._ids = list(ids)
        self._rng = rng
        self._pos = len(self._ids)

    def take(self) -> str:
        if self._pos >= len(self._ids):
            self._rng.shuffle(self._ids)
            self._pos = 0
        word = self._ids[self._pos]
        self._pos += 1
        return word


def _make_line(rng: random.Random, cycler: _IdCycler) -> str:
    template = rng.choice(_TEMPLATES)
    slots = {}
    for name in ("a", "b", "c"):
        if "{" + name + "}" in template:
            slots[name] = cycler.take()
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
                  pool: _IdentifierPool) -> list[str]:
    old = rng.choice(vocab)
    new = pool.take(1)[0]
    pattern = re.compile(rf"\b{re.escape(old)}\b")
    return [pattern.sub(new, line) for line in lines]


def _mutate_type3(lines: list[str], rng: random.Random, cycler: _IdCycler,
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


def generate_evolution(config: SynthConfig, out_dir: Path | str) -> dict:
    """Emit an older/newer source tree pair with reports and ground truth.

    Every group gets its own disjoint identifier vocabulary, each fragment
    its own file. Survivor groups mutate per the configured mix; dead groups
    vanish from the newer version and births appear with fresh vocabulary.
    Returns the manifest (also written to manifest.json), with all paths
    relative to ``out_dir``.
    """
    out = Path(out_dir)
    rng = random.Random(config.seed)
    pool = _IdentifierPool(rng)

    older_groups = []
    for _ in range(config.group_count):
        vocab = pool.take(VOCAB_PER_GROUP)
        cycler = _IdCycler(vocab, rng)
        line_count = rng.randint(*config.lines_per_fragment)
        base = [_make_line(rng, cycler) for _ in range(line_count)]
        frag_count = rng.randint(*config.fragments_per_group)
        older_groups.append(
            {"vocab": vocab, "cycler": cycler, "lines": base, "frags": frag_count}
        )

    death_set = set(rng.sample(range(config.group_count), config.death_count))
    kinds = ("unchanged", "type1", "type2", "type3")
    weights = (config.p_unchanged, config.p_type1, config.p_type2,
               config.p_type3)

    newer_entries = []
    for k in range(config.group_count):
        if k in death_set:
            continue
        group = older_groups[k]
        kind = rng.choices(kinds, weights=weights)[0]
        if kind == "unchanged":
            lines = list(group["lines"])
        elif kind == "type1":
            lines = _mutate_type1(group["lines"], rng)
        elif kind == "type2":
            lines = _mutate_type2(group["lines"], rng, group["vocab"], pool)
        else:
            lines = _mutate_type3(group["lines"], rng, group["cycler"],
                                  config.type3_edit_fraction)
        newer_entries.append(
            {"old": k, "kind": kind, "lines": lines, "frags": group["frags"]}
        )
    for _ in range(config.birth_count):
        vocab = pool.take(VOCAB_PER_GROUP)
        cycler = _IdCycler(vocab, rng)
        line_count = rng.randint(*config.lines_per_fragment)
        lines = [_make_line(rng, cycler) for _ in range(line_count)]
        frag_count = rng.randint(*config.fragments_per_group)
        newer_entries.append(
            {"old": None, "kind": "birth", "lines": lines, "frags": frag_count}
        )
    rng.shuffle(newer_entries)

    written: list[str] = []

    def write_tree(dirname: str, version: str, entries) -> dict:
        root = out / dirname
        root.mkdir(parents=True, exist_ok=True)
        groups = []
        for index, entry in enumerate(entries):
            fragments = []
            text = "\n".join(entry["lines"]) + "\n"
            for m in range(entry["frags"]):
                name = f"group{index:03d}_frag{m}.c"
                (root / name).write_text(text, encoding="utf-8")
                written.append(f"{dirname}/{name}")
                fragments.append(
                    {"file": name, "start_line": 1,
                     "end_line": len(entry["lines"])}
                )
            groups.append({"index": index, "fragments": fragments})
        return {"version": version, "groups": groups}

    older_report = write_tree(
        "older_src", "v1",
        [{"lines": g["lines"], "frags": g["frags"]} for g in older_groups],
    )
    newer_report = write_tree("newer_src", "v2", newer_entries)

    truth = {
        "newer": "v2",
        "older": "v1",
        "pairs": [
            {"new": i, "old": entry["old"]}
            for i, entry in enumerate(newer_entries)
        ],
    }

    write_json_artifact(out / "older_report.json", older_report)
    write_json_artifact(out / "newer_report.json", newer_report)
    write_json_artifact(out / "truth.json", truth)
    written.extend(["older_report.json", "newer_report.json", "truth.json"])

    manifest = {
        "outputs": {
            "older_report": "older_report.json",
            "newer_report": "newer_report.json",
            "older_source_root": "older_src",
            "newer_source_root": "newer_src",
            "truth": "truth.json",
        },
        "files": sorted(written),
        **artifact_header(asdict(config)),
    }
    write_json_artifact(out / "manifest.json", manifest)
    return manifest
