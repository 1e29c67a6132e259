"""Parse clone-detector reports and source trees into version snapshots.

Two report formats are accepted: the native JSON schema and an XML adapter
shaped like common detector output (``<clones><class><source .../></class>``).
Fragment text is resolved from the version's source tree in a separate step,
so reports can be parsed without any source tree present.

The parsers check only a report's shape (objects, arrays, required keys,
XML integer literals) and raise ReportParseError when it is wrong: JSON
is decoded by ``errors.json_document`` and its objects and arrays go
through the shared ``errors._fields`` and ``errors._items``. The data
types own every value rule, and their ValidationError is prefixed with
its position: ``groups[i]: ``, ``groups[i].fragments[j]: `` or
``<class id=N>: ``.
"""

from __future__ import annotations

import errno
import os
import re
import stat
from dataclasses import dataclass
from pathlib import Path

from .errors import (FragmentRangeError, ReportParseError, ValidationError,
                     _at, _fields, _items, is_json_int, json_document, read_utf8)


@dataclass(frozen=True)
class CloneFragment:
    """One contiguous source region: file path plus a 1-based inclusive
    line range. ``text`` is None until resolved against a source tree."""

    file: str
    start_line: int
    end_line: int
    text: str | None = None

    def __post_init__(self):
        if not (isinstance(self.file, str) and is_json_int(self.start_line)
                and is_json_int(self.end_line)
                and 1 <= self.start_line <= self.end_line):
            raise ValidationError(
                f"bad fragment: file {self.file!r}, lines "
                f"{self.start_line!r}..{self.end_line!r}"
            )
        if not (self.text is None or isinstance(self.text, str)):
            raise ValidationError(f"fragment text must be a string, got {self.text!r}")


@dataclass(frozen=True)
class CloneGroup:
    """Two or more similar fragments within one version."""

    index: int
    fragments: tuple[CloneFragment, ...]

    def __post_init__(self):
        if not is_json_int(self.index):
            raise ValidationError(f"group index must be an integer, got {self.index!r}")
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
        if not (isinstance(self.version_id, str) and self.version_id):
            raise ValidationError(f"version must be a non-empty string, "
                                  f"got {self.version_id!r}")
        groups = tuple(sorted(self.groups, key=lambda g: g.index))
        indices = [g.index for g in groups]
        if indices != list(range(len(groups))):
            raise ValidationError(f"group indices must be unique and dense "
                                  f"0..{len(groups) - 1}, got {indices}")
        object.__setattr__(self, "groups", groups)


def _lf(text: str) -> str:
    """``text`` with CRLF and lone CR turned into LF."""
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


def split_lines(text: str) -> list[str]:
    """The lines of ``text``, broken at LF only (after CRLF and lone CR
    become LF); a trailing newline ends the last line, not a new one."""
    lines = _lf(text).split("\n")
    if lines[-1] == "":
        lines.pop()
    return lines


# The final component must not be a symlink: ``_SourceTree`` resolves and
# checks a symlink only when this open refuses one. A FIFO would block the
# open until a writer came, so it must not block; a regular file is read
# the same either way.
_OPEN_FLAGS = os.O_RDONLY | os.O_CLOEXEC | os.O_NOFOLLOW | os.O_NONBLOCK
_CHUNK = 1 << 16
_SPECIAL_NAMES = ("", ".", "..")


def _read_file(path: str) -> bytes:
    """The bytes of the regular file at ``path``, read in 64 KiB chunks.
    Raises OSError (ELOOP when the last component of ``path`` is a
    symlink) naming ``path``, also for anything but a regular file, such
    as a directory, a FIFO or a device, and for an error of the read
    itself."""
    fd = os.open(path, _OPEN_FLAGS)
    try:
        mode = os.fstat(fd).st_mode
        if stat.S_ISDIR(mode):
            raise OSError(errno.EISDIR, os.strerror(errno.EISDIR))
        if not stat.S_ISREG(mode):
            raise OSError(errno.EINVAL, "Not a regular file")
        chunks = []
        while chunk := os.read(fd, _CHUNK):
            chunks.append(chunk)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None
    finally:
        os.close(fd)
    return b"".join(chunks)


class _SourceFile:
    """One source file, read once per version: decoded as UTF-8 with
    invalid bytes replaced, without a leading byte-order mark, with LF
    line ends and without its final newline, so ``body`` is the file's
    whole line range as fragment text. The line list is split from it on
    first need and shared."""

    __slots__ = ("body", "line_count", "_lines")

    def __init__(self, path: str):
        text = _lf(_read_file(path).decode("utf-8", "replace").removeprefix("\ufeff"))
        self.body = text[:-1] if text.endswith("\n") else text
        # As ``split_lines`` counts: a final newline ends the last line.
        self.line_count = self.body.count("\n") + 1 if text else 0
        self._lines: list[str] | None = None

    def text(self, start_line: int, end_line: int) -> str:
        """Lines ``start_line..end_line`` (1-based, inclusive, within
        ``line_count``) joined by LF."""
        if start_line == 1 and end_line == self.line_count:
            return self.body
        if self._lines is None:
            self._lines = self.body.split("\n")
        return "\n".join(self._lines[start_line - 1 : end_line])


def _within(root: str, path: str) -> bool:
    return os.path.commonpath((root, path)) == root


class _SourceTree:
    """One version's source root, which must already be a real path
    (absolute, symlinks resolved), and what has been read under it.

    Each cache holds what one kind of key resolved to: ``names`` a
    fragment ``file`` string's source file, ``dirs`` a directory part's
    real path (with a trailing ``/``) and whether it lies inside the root,
    and ``files`` a source file by its real path. So a repeated name is
    one lookup, each directory is resolved once, and each file is opened
    and read once, whatever names lead to it."""

    __slots__ = ("root", "names", "dirs", "files")

    def __init__(self, root: str):
        self.root = root
        self.names: dict[str, _SourceFile] = {}
        self.dirs: dict[str, tuple[str, bool]] = {}
        self.files: dict[str, _SourceFile] = {}

    def text(self, fragment: CloneFragment) -> str:
        """The fragment's text, as ``resolve_fragment_text`` reads it."""
        source = self.names.get(fragment.file)
        if source is None:
            try:
                source = self.names[fragment.file] = self._contained_file(fragment.file)
            except ValueError as exc:
                # An embedded NUL, or a name the file system encoding cannot encode.
                raise ValidationError(
                    f"fragment file {fragment.file!r} is not a valid path: {exc}"
                ) from None
        if fragment.end_line > source.line_count:
            raise FragmentRangeError(
                f"{fragment.file}: lines {fragment.start_line}..{fragment.end_line} "
                f"exceed file length {source.line_count}"
            )
        return source.text(fragment.start_line, fragment.end_line)

    def _contained_file(self, file: str) -> _SourceFile:
        """The source file that ``file`` names under the root;
        ValidationError if it lies outside. The directory part is resolved
        through ``dirs``; the last component is opened without following a
        symlink, and only a symlink, ``""``, ``.`` or ``..`` there, or a
        name in a directory outside the root, is resolved and checked
        again."""
        head, slash, name = file.rpartition("/")
        head += slash
        entry = self.dirs.get(head)
        if entry is None:
            real_dir = os.path.realpath(os.path.join(self.root, head))
            entry = self.dirs[head] = (real_dir.rstrip("/") + "/",
                                       _within(self.root, real_dir))
        real_dir, inside = entry
        path = real_dir + name
        if inside and name not in _SPECIAL_NAMES:
            try:
                return self._file(path)
            except OSError as exc:
                if exc.errno != errno.ELOOP:  # not a symlink refused
                    raise
        # In a directory outside the root, only a symlink can lead back in.
        if inside or name in _SPECIAL_NAMES or os.path.islink(path):
            path = os.path.realpath(path)
            inside = _within(self.root, path)
        if not inside:
            raise ValidationError(
                f"fragment file {file!r} lies outside the source root {self.root!r}"
            )
        return self._file(path)

    def _file(self, path: str) -> _SourceFile:
        """The source file at ``path``, a contained real directory plus a
        name, read on first need."""
        source = self.files.get(path)
        if source is None:
            source = self.files[path] = _SourceFile(path)
        return source


def resolve_fragment_text(fragment: CloneFragment, source_root: Path | str) -> str:
    """Read the fragment's inclusive line range from its file.

    Input is decoded as UTF-8 with invalid bytes replaced and a leading
    byte-order mark dropped; CRLF and lone CR are normalized to LF. Raises
    ValidationError when the fragment's path leads outside ``source_root``
    or cannot name a file at all (an embedded NUL, a lone surrogate),
    FileNotFoundError for a missing file and FragmentRangeError when the
    range exceeds the file length.
    """
    return _SourceTree(os.path.realpath(source_root)).text(fragment)


def resolve_snapshot(snapshot: VersionSnapshot, source_root: Path | str | None = None) -> VersionSnapshot:
    """Return a copy of the snapshot with every fragment's text filled in.

    Fragments that already carry text (e.g. from a report's optional "text"
    field) keep it, with CRLF and lone CR turned into LF as for a file;
    every other fragment is read from under ``source_root``, and a
    fragment file outside it raises ValidationError. Each file is opened
    and read once, however many fragments and names lead to it.
    """
    tree = _SourceTree(os.path.realpath(source_root)) if source_root is not None else None
    groups = []
    for group in snapshot.groups:
        fragments = []
        for frag in group.fragments:
            if frag.text is None:
                if tree is None:
                    raise ValidationError(
                        f"group {group.index}: no source root to resolve {frag.file!r}"
                    )
                frag = CloneFragment(frag.file, frag.start_line, frag.end_line,
                                     tree.text(frag))
            elif "\r" in frag.text:
                frag = CloneFragment(frag.file, frag.start_line, frag.end_line,
                                     _lf(frag.text))
            fragments.append(frag)
        groups.append(CloneGroup(index=group.index, fragments=tuple(fragments)))
    return VersionSnapshot(version_id=snapshot.version_id, groups=tuple(groups))


def snapshot_from_dict(doc: dict) -> VersionSnapshot:
    """Build a snapshot from a native-schema report object."""
    version, raw_groups = _fields(doc, "report", ("version", "groups"),
                                  ReportParseError)
    groups = []
    for pos, entry in enumerate(_items(raw_groups, "report 'groups'",
                                       ReportParseError)):
        where = f"groups[{pos}]"
        index, raw_fragments = _fields(entry, where, ("index", "fragments"),
                                       ReportParseError)
        fragments = []
        for fpos, fentry in enumerate(_items(raw_fragments, f"{where}.fragments",
                                             ReportParseError)):
            fwhere = f"{where}.fragments[{fpos}]"
            fields = _fields(fentry, fwhere, ("file", "start_line", "end_line"),
                             ReportParseError)
            fragments.append(_at(fwhere, CloneFragment, *fields, fentry.get("text")))
        groups.append(_at(where, CloneGroup, index, tuple(fragments)))

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


def _xml_int(value: str, where: str) -> int:
    """A plain decimal XML attribute; ReportParseError for the other forms
    ``int`` takes, such as ``1_0``, ``+4``, `` 3 `` or non-ASCII digits,
    and for more digits than ``int`` converts. The error shows at most 20
    characters of the value."""
    if re.fullmatch(r"-?[0-9]+", value) is not None:
        try:
            return int(value)
        except ValueError:  # the interpreter's integer digit limit
            pass
    if len(value) > 20:
        value = value[:20] + "..."
    raise ReportParseError(f"{where}: {value!r} is not an integer")


def _snapshot_from_xml(text: str) -> VersionSnapshot:
    # Imported here, so that a run on JSON reports never loads the parser.
    import xml.etree.ElementTree as ET

    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise ReportParseError(f"malformed XML report: {exc}") from exc
    if root.tag != "clones":
        raise ReportParseError(f"unexpected XML root <{root.tag}>, expected <clones>")
    version_id = root.get("version")
    if version_id is None:
        raise ReportParseError("XML report carries no version: the <clones> "
                               "root needs a 'version' attribute")

    groups = []
    for pos, class_el in enumerate(root.findall("class")):
        declared = class_el.get("id")
        index = (pos if declared is None
                 else _xml_int(declared, f"<class id> at position {pos}"))
        where = f"<class id={index}>"
        fragments = []
        for src in class_el.findall("source"):
            file, start, end = map(src.get, ("file", "startline", "endline"))
            if file is None or start is None or end is None:
                raise ReportParseError(
                    f"{where}: <source> needs file/startline/endline attributes")
            fragments.append(_at(where, CloneFragment, file,
                                 _xml_int(start, where), _xml_int(end, where)))
        groups.append(_at(where, CloneGroup, index, tuple(fragments)))

    return VersionSnapshot(version_id=version_id, groups=tuple(groups))


def parse_clone_report(report_path: Path | str) -> VersionSnapshot:
    """Parse a clone report file (native JSON or the XML adapter).

    Format is chosen by suffix, falling back to content sniffing. The
    returned snapshot has unresolved fragment text except where the report
    itself carried a "text" field. A report that is not valid UTF-8 raises
    ValidationError.
    """
    path = Path(report_path)
    raw = read_utf8(path)
    suffix = path.suffix.lower()
    looks_xml = suffix == ".xml" or (suffix != ".json" and raw.lstrip().startswith("<"))
    if looks_xml:
        return _snapshot_from_xml(raw)
    return snapshot_from_dict(json_document(raw, path))
