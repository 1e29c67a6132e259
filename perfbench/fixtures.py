"""Workload definitions and seeded fixture builders for the benchmark.

Every fixture starts from ``clonemap.generate_evolution`` at the run's seed.
Two workloads then rewrite the generated source trees in place:

* ``long-commented`` adds ``//`` and ``/* */`` comments and string literals
  to a share of lines. Comments and literals are stripped before
  tokenizing, so the token documents, and with them the ground truth, are
  unchanged.
* ``shared-hellinger`` maps a fixed share of identifiers onto a small pool
  of common words, with one mapping for both versions, so groups share
  vocabulary while each newer group keeps its true ancestor.

Neither rewrite adds or removes a line, so the reports' line ranges stay
valid; ``build_fixture`` checks that.
"""

from __future__ import annotations

import json
import random
import re
import time
from dataclasses import dataclass, replace
from pathlib import Path

from clonemap import SynthConfig, default_filter_config, generate_evolution


def _config(**shape) -> SynthConfig:
    return SynthConfig(death_fraction=0.1, birth_fraction=0.1, **shape)


@dataclass(frozen=True)
class Workload:
    """One benchmark input: a synthetic evolution plus extra ``map`` flags.

    BENCHMARK.json says why each workload is in the set.
    """

    name: str
    config: SynthConfig
    map_flags: tuple[str, ...] = ()
    rewrite: str | None = None


# Where the work grows with the amount of text, the fixture shape is fixed
# at the middle of its usual range, so that every seed asks for the same
# work and only content varies: with the default ranges the line-LCS work
# of 150 groups alone spreads 0.07 over ten seeds. The sizes keep one map
# to a few seconds, so that a 25-second run holds several of them.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("topic-wide", _config(group_count=400)),
        Workload("long-commented",
                 _config(group_count=60, fragments_per_group=(6, 6),
                         lines_per_fragment=(225, 225)),
                 rewrite="comments"),
        Workload("shared-hellinger", _config(group_count=400),
                 map_flags=("--metric", "hellinger", "--injective"),
                 rewrite="shared-words"),
        Workload("lcs-baseline",
                 _config(group_count=100, fragments_per_group=(3, 3),
                         lines_per_fragment=(9, 9)),
                 map_flags=("--strategy", "lcs")),
    )
}

# Rewrite parameters. COMMENT_SHARE of lines gain a comment or literal;
# SHARED_SHARE of distinct identifiers collapse onto SHARED_WORDS.
COMMENT_SHARE = 0.5
SHARED_SHARE = 0.35
SHARED_WORDS = (
    "account", "balance", "border", "bucket", "channel", "cluster", "column",
    "counter", "credit", "position", "device", "domain", "entry", "event",
    "factor", "filter", "folder", "frame", "handle", "header", "height",
    "image", "label", "layer", "ledger", "margin", "matrix", "module",
    "offset", "packet", "parent", "period", "pixel", "profile", "recipe",
    "region", "sample", "score", "socket", "vector",
)
_COMMENT_WORDS = (
    "todo", "fixme", "see", "ticket", "revisit", "legacy", "path", "guard",
    "fast", "slow", "note", "keep", "order", "ensure", "caller", "owns",
    "buffer", "retry", "bound", "check", "overflow", "lock", "state",
)
_IDENT_RE = re.compile(r"\b[a-z]+_[a-z]+\d*\b")


def _phrase(rng: random.Random, lo: int, hi: int) -> str:
    return " ".join(rng.choice(_COMMENT_WORDS) for _ in range(rng.randint(lo, hi)))


def _comment_line(line: str, rng: random.Random) -> str:
    if rng.random() >= COMMENT_SHARE:
        return line
    kind = rng.randrange(3)
    if kind == 0:
        return f"{line}  // {_phrase(rng, 4, 10)}"
    if kind == 1:
        return f"/* {_phrase(rng, 3, 8)} */ {line}"
    # A bare string statement whose contents hold comment markers and an
    # escaped quote; the stripper must treat all of it as one literal.
    return f'{line} "{_phrase(rng, 2, 5)} // not /* a */ comment \\" {_phrase(rng, 1, 3)}";'


def _shared_word(ident: str, seed: int) -> str | None:
    # Seeded per identifier, so every occurrence in both versions agrees.
    rng = random.Random(f"{seed}:{ident}")
    if rng.random() >= SHARED_SHARE:
        return None
    return rng.choice(SHARED_WORDS)


def _rewrite_tree(root: Path, rewrite: str, seed: int) -> None:
    cache: dict[str, str] = {}

    def shared(match: re.Match) -> str:
        ident = match.group(0)
        if ident not in cache:
            cache[ident] = _shared_word(ident, seed) or ident
        return cache[ident]

    for path in sorted(root.rglob("*.c")):
        text = path.read_text(encoding="utf-8")
        lines = text.split("\n")
        if rewrite == "comments":
            rng = random.Random(f"{seed}:{path.relative_to(root.parent)}")
            new = [_comment_line(line, rng) if line else line for line in lines]
        elif rewrite == "shared-words":
            new = [_IDENT_RE.sub(shared, line) for line in lines]
        else:
            raise ValueError(f"unknown rewrite {rewrite!r}")
        path.write_text("\n".join(new), encoding="utf-8")


def _line_counts(out: Path, files: list[str]) -> dict[str, int]:
    return {f: (out / f).read_text(encoding="utf-8").count("\n") for f in files}


def check_manifest(out: Path, manifest: dict) -> None:
    """The fixture directory holds exactly the files its manifest lists."""
    listed = set(manifest["files"]) | {"manifest.json"}
    present = {p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file()}
    if listed != present:
        missing = sorted(listed - present)[:5]
        extra = sorted(present - listed)[:5]
        raise RuntimeError(f"fixture does not match manifest: missing {missing}, extra {extra}")
    for key in ("older_report", "newer_report", "truth"):
        if manifest["outputs"][key] not in listed:
            raise RuntimeError(f"manifest output {key} is not among its files")


def build_fixture(workload: Workload, seed: int, out: Path) -> float:
    """Generate and rewrite the workload's fixture; return the build seconds."""
    config = replace(workload.config, seed=seed)
    start = time.perf_counter()
    manifest = generate_evolution(config, out)
    if workload.rewrite == "shared-words":
        check_shared_words()
    if workload.rewrite is not None:
        sources = [f for f in manifest["files"] if f.endswith(".c")]
        before = _line_counts(out, sources)
        _rewrite_tree(out / "older_src", workload.rewrite, seed)
        _rewrite_tree(out / "newer_src", workload.rewrite, seed)
        if _line_counts(out, sources) != before:
            raise RuntimeError("rewrite changed a source file's line count")
    elapsed = time.perf_counter() - start
    check_manifest(out, manifest)
    on_disk = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    if on_disk != json.loads(json.dumps(manifest)):
        raise RuntimeError("manifest.json differs from the generator's manifest")
    return elapsed


def check_shared_words() -> None:
    """Every replacement word must survive the default filters."""
    filters = default_filter_config()
    removed = [w for w in SHARED_WORDS if filters.removes(w)]
    if removed:
        raise RuntimeError(f"shared words removed by the default filters: {removed}")
