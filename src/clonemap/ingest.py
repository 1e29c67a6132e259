"""Parse clone-detector reports and source trees into version snapshots.

Two report formats are accepted: the native JSON schema and an XML adapter
shaped like common detector output (``<clones><class><source .../></class>``).
Fragment text is resolved from the version's source tree in a separate step,
so reports can be parsed without any source tree present.
"""

from __future__ import annotations

import json
import os
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from pathlib import Path

from .errors import FragmentRangeError, ReportParseError, ValidationError, is_json_int


@dataclass(frozen=True)
class CloneFragment:
    """One contiguous source region: file path plus a 1-based inclusive
    line range. ``text`` is None until resolved against a source tree."""

    file: str
    start_line: int
    end_line: int
    text: str | None = None

    def __post_init__(self):
        if not (1 <= self.start_line <= self.end_line):
            raise ValidationError(
                f"bad line range {self.start_line}..{self.end_line} in {self.file!r}"
            )


@dataclass(frozen=True)
class CloneGroup:
    """Two or more similar fragments within one version."""

    index: int
    fragments: tuple[CloneFragment, ...]

    def __post_init__(self):
        if len(self.fragments) < 2:
            raise ValidationError(
                f"clone group {self.index} has {len(self.fragments)} fragment(s); need >= 2"
            )

    def concatenated_text(self) -> str:
        """All fragment texts joined in fragment order (newline-separated)."""
        missing = [f.file for f in self.fragments if f.text is None]
        if missing:
            raise ValidationError(
                f"group {self.index}: unresolved fragment text in {missing}"
            )
        return "\n".join(f.text for f in self.fragments)  # type: ignore[misc]


@dataclass(frozen=True)
class VersionSnapshot:
    """All clone groups reported for one version of the system.

    Group indices are dense 0..s-1 and unique; ``groups`` holds them in
    index order whatever the report's order, so a group's position is its
    index.
    """

    version_id: str
    groups: tuple[CloneGroup, ...]

    def __post_init__(self):
        indices = [g.index for g in self.groups]
        seen = set()
        for idx in indices:
            if idx in seen:
                raise ValidationError(f"duplicate group index {idx}")
            seen.add(idx)
        if seen and seen != set(range(len(indices))):
            raise ValidationError(
                f"group indices must be dense 0..{len(indices) - 1}, got {sorted(seen)}"
            )
        object.__setattr__(self, "groups",
                           tuple(sorted(self.groups, key=lambda g: g.index)))


def resolve_fragment_text(fragment: CloneFragment, source_root: Path | str) -> str:
    """Read the fragment's inclusive line range from its file.

    Input is decoded as UTF-8 with invalid bytes replaced; CRLF and lone
    CR are normalized to LF. Raises ValidationError when the fragment's
    path leads outside ``source_root`` or cannot name a file at all (an
    embedded NUL, a lone surrogate), FileNotFoundError for a missing file
    and FragmentRangeError when the range exceeds the file length.
    """
    return _read_fragment(fragment, os.path.realpath(source_root), {})


def _within(root: str, path: str) -> bool:
    return os.path.commonpath((root, path)) == root


def _contained_path(root: str, file: str,
                    dirs: dict[str, tuple[str, bool]]) -> str:
    """The real path of ``file`` under ``root``; ValidationError if it lies
    outside. Fragments share directories, so ``dirs`` caches each
    directory's real path and whether it lies inside ``root``; only a
    name that is a symlink, ``.`` or ``..`` is resolved and checked again."""
    head, name = os.path.split(file)
    entry = dirs.get(head)
    if entry is None:
        real_dir = os.path.realpath(os.path.join(root, head))
        entry = dirs[head] = (real_dir, _within(root, real_dir))
    real_dir, inside = entry
    path = os.path.join(real_dir, name)
    if name in ("", ".", "..") or os.path.islink(path):
        path = os.path.realpath(path)
        inside = _within(root, path)
    if not inside:
        raise ValidationError(
            f"fragment file {file!r} lies outside the source root {root!r}"
        )
    return path


def _read_fragment(fragment: CloneFragment, root: str,
                   dirs: dict[str, tuple[str, bool]]) -> str:
    """``resolve_fragment_text`` under a source root that is already a
    real path (absolute, symlinks resolved)."""
    try:
        path = _contained_path(root, fragment.file, dirs)
        handle = open(path, "rb", buffering=0)
    except ValueError as exc:
        # An embedded NUL, or a name the file system encoding cannot encode.
        raise ValidationError(
            f"fragment file {fragment.file!r} is not a valid path: {exc}"
        ) from None
    with handle:
        text = handle.readall().decode("utf-8", "replace")
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    lines = text.split("\n")
    # A trailing newline yields one empty trailing element, not a real line.
    if lines[-1] == "":
        lines.pop()
    if fragment.end_line > len(lines):
        raise FragmentRangeError(
            f"{fragment.file}: lines {fragment.start_line}..{fragment.end_line} "
            f"exceed file length {len(lines)}"
        )
    return "\n".join(lines[fragment.start_line - 1 : fragment.end_line])


def resolve_snapshot(snapshot: VersionSnapshot, source_root: Path | str | None = None) -> VersionSnapshot:
    """Return a copy of the snapshot with every fragment's text filled in.

    Fragments that already carry text (e.g. from a report's optional "text"
    field) are kept as-is; every other fragment is read from under
    ``source_root``, and a fragment file outside it raises ValidationError.
    """
    real_root = os.path.realpath(source_root) if source_root is not None else None
    dirs: dict[str, tuple[str, bool]] = {}
    groups = []
    for group in snapshot.groups:
        fragments = []
        for frag in group.fragments:
            if frag.text is None:
                if real_root is None:
                    raise ValidationError(
                        f"group {group.index}: no source root to resolve {frag.file!r}"
                    )
                frag = CloneFragment(frag.file, frag.start_line, frag.end_line,
                                     _read_fragment(frag, real_root, dirs))
            fragments.append(frag)
        groups.append(CloneGroup(index=group.index, fragments=tuple(fragments)))
    return VersionSnapshot(version_id=snapshot.version_id, groups=tuple(groups))


def snapshot_from_dict(doc: dict, version_id: str | None = None) -> VersionSnapshot:
    """Build a snapshot from a native-schema report object."""
    if not isinstance(doc, dict):
        raise ReportParseError(f"report root must be an object, got {type(doc).__name__}")
    version = version_id if version_id is not None else doc.get("version")
    if not isinstance(version, str) or not version:
        raise ReportParseError("report is missing a non-empty 'version' string")
    raw_groups = doc.get("groups")
    if not isinstance(raw_groups, list):
        raise ReportParseError("report is missing the 'groups' array")

    groups = []
    for pos, entry in enumerate(raw_groups):
        if not isinstance(entry, dict):
            raise ReportParseError(f"groups[{pos}] is not an object")
        index = entry.get("index")
        if not is_json_int(index):
            raise ReportParseError(f"groups[{pos}] is missing an integer 'index'")
        raw_frags = entry.get("fragments")
        if not isinstance(raw_frags, list):
            raise ReportParseError(f"groups[{pos}] is missing the 'fragments' array")
        if len(raw_frags) < 2:
            raise ValidationError(
                f"clone group {index} has {len(raw_frags)} fragment(s); need >= 2"
            )
        fragments = []
        for fpos, fentry in enumerate(raw_frags):
            if not isinstance(fentry, dict):
                raise ReportParseError(f"groups[{pos}].fragments[{fpos}] is not an object")
            try:
                file = fentry["file"]
                start = fentry["start_line"]
                end = fentry["end_line"]
            except KeyError as exc:
                raise ReportParseError(
                    f"groups[{pos}].fragments[{fpos}] is missing {exc}"
                ) from None
            if not isinstance(file, str) or not is_json_int(start) or not is_json_int(end):
                raise ReportParseError(
                    f"groups[{pos}].fragments[{fpos}] has wrongly typed fields"
                )
            text = fentry.get("text")
            if text is not None and not isinstance(text, str):
                raise ReportParseError(
                    f"groups[{pos}].fragments[{fpos}] 'text' must be a string"
                )
            fragments.append(CloneFragment(file=file, start_line=start, end_line=end, text=text))
        groups.append(CloneGroup(index=index, fragments=tuple(fragments)))

    return VersionSnapshot(version_id=version, groups=tuple(groups))


def snapshot_to_dict(snapshot: VersionSnapshot) -> dict:
    """Serialize a snapshot back to the native JSON schema (round-trips)."""
    groups = []
    for group in snapshot.groups:
        fragments = []
        for frag in group.fragments:
            entry: dict = {
                "file": frag.file,
                "start_line": frag.start_line,
                "end_line": frag.end_line,
            }
            if frag.text is not None:
                entry["text"] = frag.text
            fragments.append(entry)
        groups.append({"index": group.index, "fragments": fragments})
    return {"version": snapshot.version_id, "groups": groups}


def _snapshot_from_xml(text: str, version_id: str | None) -> VersionSnapshot:
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise ReportParseError(f"malformed XML report: {exc}") from exc
    if root.tag != "clones":
        raise ReportParseError(f"unexpected XML root <{root.tag}>, expected <clones>")
    if version_id is None:
        version_id = root.get("version")
    if not version_id:
        raise ReportParseError("XML report carries no version; pass version_id explicitly")

    groups = []
    for pos, class_el in enumerate(root.findall("class")):
        declared = class_el.get("id")
        try:
            index = pos if declared is None else int(declared)
        except ValueError:
            raise ReportParseError(
                f"<class id={declared!r}>: id is not an integer"
            ) from None
        sources = class_el.findall("source")
        if len(sources) < 2:
            raise ValidationError(
                f"clone group {index} has {len(sources)} fragment(s); need >= 2"
            )
        fragments = []
        for src in sources:
            file = src.get("file")
            start = src.get("startline")
            end = src.get("endline")
            if file is None or start is None or end is None:
                raise ReportParseError(
                    f"<class id={index}>: <source> needs file/startline/endline attributes"
                )
            try:
                fragments.append(
                    CloneFragment(file=file, start_line=int(start), end_line=int(end))
                )
            except ValueError as exc:
                raise ReportParseError(
                    f"<class id={index}>: non-integer line attribute ({exc})"
                ) from None
        groups.append(CloneGroup(index=index, fragments=tuple(fragments)))

    return VersionSnapshot(version_id=version_id, groups=tuple(groups))


def parse_clone_report(report_path: Path | str,
                       version_id: str | None = None) -> VersionSnapshot:
    """Parse a clone report file (native JSON or the XML adapter).

    Format is chosen by suffix, falling back to content sniffing. The
    returned snapshot has unresolved fragment text except where the report
    itself carried a "text" field.
    """
    path = Path(report_path)
    raw = path.read_text(encoding="utf-8", errors="replace")
    suffix = path.suffix.lower()
    looks_xml = suffix == ".xml" or (suffix != ".json" and raw.lstrip().startswith("<"))
    if looks_xml:
        return _snapshot_from_xml(raw, version_id)
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ReportParseError(
            f"{path}: malformed JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    return snapshot_from_dict(doc, version_id=version_id)
