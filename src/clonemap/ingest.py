"""Parse clone-detector reports and source trees into version snapshots.

Two report formats are accepted: the native JSON schema and an XML adapter
shaped like common detector output (``<clones><class><source .../></class>``).
A snapshot holds its fragments as columns, not as one object each.
Fragment text is resolved from the version's source tree in a separate
step, so reports can be parsed without any source tree present:
``resolve_snapshot`` is the one reader of fragment text, and it opens,
reads and decodes each file once per version.

The parsers check only a report's shape (objects, arrays, required keys,
XML integer literals) and raise ReportParseError when it is wrong: JSON
is decoded by ``errors.json_document`` and its objects and arrays go
through the shared ``errors._fields`` and ``errors._items``. Every value
rule is ``VersionSnapshot``'s, applied to the columns in report order, and
its ValidationError is prefixed with its position: ``groups[i]: ``,
``groups[i].fragments[j]: `` or ``<class id=N>: ``. A value error comes
before a shape error later in the report.
"""

from __future__ import annotations

import errno
import os
import re
import stat
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from operator import le, sub
from pathlib import Path

from .errors import (FragmentRangeError, ReportParseError, ValidationError,
                     _fields, _items, is_json_int, json_document, read_utf8)


@dataclass(frozen=True)
class CloneFragment:
    """One fragment as a snapshot's ``groups`` view shows it: file path,
    1-based inclusive line range and text, None until resolved. A plain
    record that checks nothing; the snapshot checks its columns."""

    file: str
    start_line: int
    end_line: int
    text: str | None


@dataclass(frozen=True)
class CloneGroup:
    """One group as a snapshot's ``groups`` view shows it: its index and
    its fragments. A plain record that checks nothing."""

    index: int
    fragments: tuple[CloneFragment, ...]


_STR, _INT, _TEXT = {str}, {int}, {str, type(None)}


def _raise_first_problem(rows, text, bounds, indices, where) -> None:
    """Raise the first broken fragment or group rule in document order, a
    group's fragments before the group, named by ``where(g, j)`` (``j`` is
    None for the group itself). ``rows`` holds each fragment's file, start
    and end line. A fragment has a string file, JSON-integer lines with
    1 <= start <= end, and text that is None or a string; a group has a
    JSON-integer index and two or more fragments. Fragments past the last
    bound are a group still being read: no group rule."""
    for g, (lo, hi) in enumerate(zip(bounds, [*bounds[1:], len(rows)])):
        for k in range(lo, hi):
            file, start, end = rows[k]
            if not (isinstance(file, str) and is_json_int(start)
                    and is_json_int(end) and 1 <= start <= end):
                raise ValidationError(f"{where(g, k - lo)}: bad fragment: file "
                                      f"{file!r}, lines {start!r}..{end!r}")
            if not (text[k] is None or isinstance(text[k], str)):
                raise ValidationError(f"{where(g, k - lo)}: fragment text must "
                                      f"be a string, got {text[k]!r}")
        if g + 1 == len(bounds):
            return
        if not is_json_int(indices[g]):
            raise ValidationError(f"{where(g, None)}: group index must be an "
                                  f"integer, got {indices[g]!r}")
        if hi - lo < 2:
            raise ValidationError(f"{where(g, None)}: clone group {indices[g]} "
                                  f"has {hi - lo} fragment(s); need >= 2")


def _check(version_id, files, starts, ends, text, bounds, indices, where) -> None:
    """Raise ValidationError for the first rule broken, in document order:
    each group's fragments, the group, then the version id, then the
    density of ``indices``, the groups' indices in the order given. One
    pass per column over exact types and ranges clears a valid snapshot;
    anything else goes to ``_raise_first_problem``, which also accepts
    subclasses."""
    if not (set(map(type, files)) <= _STR
            and set(map(type, starts)) | set(map(type, ends)) <= _INT
            and set(map(type, text)) <= _TEXT and set(map(type, indices)) <= _INT
            and min(starts, default=1) >= 1 and all(map(le, starts, ends))
            and min(map(sub, bounds[1:], bounds), default=2) >= 2):
        _raise_first_problem(list(zip(files, starts, ends)), text, bounds,
                             indices, where)
    if not (isinstance(version_id, str) and version_id):
        raise ValidationError(f"version must be a non-empty string, "
                              f"got {version_id!r}")
    # n indices are dense exactly when none of 0..n-1 is missing.
    missing = set(range(len(indices))).difference(indices)
    if missing:
        raise ValidationError(f"group indices must be unique and dense "
                              f"0..{len(indices) - 1}, but {min(missing)} is missing")


def _position(g: int, j: int | None) -> str:
    """Group ``g`` or its fragment ``j`` as the JSON schema names it."""
    return f"groups[{g}]" if j is None else f"groups[{g}].fragments[{j}]"


@dataclass(frozen=True)
class VersionSnapshot:
    """All clone groups reported for one version of the system, as
    fragment columns.

    Fragment k is lines ``starts[k]..ends[k]`` (1-based, inclusive) of
    ``files[k]``, with ``text[k]`` its text, or None until resolved. Group
    g holds fragments ``bounds[g]`` up to ``bounds[g + 1]``, so
    ``bounds`` runs from 0 to the fragment count. Groups are in index
    order whatever the report's order, so a group's position is its
    index. Construction checks every column once.
    """

    version_id: str
    files: tuple[str, ...]
    starts: tuple[int, ...]
    ends: tuple[int, ...]
    text: tuple[str | None, ...]
    bounds: tuple[int, ...]

    def __post_init__(self):
        columns = self.files, self.starts, self.ends, self.text, self.bounds
        if not (set(map(type, columns)) == {tuple}
                and len(set(map(len, columns[:4]))) == 1
                and set(map(type, self.bounds)) == {int}
                and self.bounds[0] == 0 and self.bounds[-1] == len(self.files)):
            raise ValidationError("snapshot columns must be tuples of one "
                                  "length, with bounds from 0 to that length")
        _check(self.version_id, *columns, range(len(self.bounds) - 1), _position)

    @cached_property
    def groups(self) -> tuple[CloneGroup, ...]:
        """The groups as plain records in index order, built on first
        access and then kept. No stage of ``map`` reads them."""
        fragments = list(map(CloneFragment, self.files, self.starts,
                             self.ends, self.text))
        return tuple(CloneGroup(g, tuple(fragments[lo:hi])) for g, (lo, hi)
                     in enumerate(zip(self.bounds, self.bounds[1:])))


def _checked(*columns) -> VersionSnapshot:
    """A snapshot of columns that were checked already, built without a
    second check: a parse checks its columns in report order, and a
    resolve adds only strings."""
    snapshot = object.__new__(VersionSnapshot)
    snapshot.__dict__.update(zip(VersionSnapshot.__dataclass_fields__, columns))
    return snapshot


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
# checks the name again when this open refuses one. A FIFO would block the
# open until a writer came, so it must not block; a regular file is read
# the same either way.
_OPEN_FLAGS = os.O_RDONLY | os.O_CLOEXEC | os.O_NOFOLLOW | os.O_NONBLOCK
_CHUNK = 1 << 16
_SPECIAL_NAMES = ("", ".", "..")


def _read_file(path: str) -> bytes:
    """The bytes of the regular file at ``path``: one read of the size
    that ``fstat`` gives plus one byte, then, only when that read did not
    return exactly that size (the file grew or shrank, or the read came
    back short), 64 KiB reads to end of file. Raises OSError (ELOOP when
    the last component of ``path`` is a symlink) naming ``path``, also for
    anything but a regular file, such as a directory, a FIFO or a device,
    and for an error of the read itself."""
    fd = os.open(path, _OPEN_FLAGS)
    try:
        info = os.fstat(fd)
        if stat.S_ISDIR(info.st_mode):
            raise OSError(errno.EISDIR, os.strerror(errno.EISDIR))
        if not stat.S_ISREG(info.st_mode):
            raise OSError(errno.EINVAL, "Not a regular file")
        chunks = [os.read(fd, info.st_size + 1)]
        if len(chunks[0]) != info.st_size:
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

    def text(self, file: str, start_line: int, end_line: int) -> str:
        """The text of lines ``start_line..end_line`` of ``file``: decoded
        as UTF-8 with invalid bytes replaced and a leading byte-order mark
        dropped, with CRLF and lone CR turned into LF. Raises
        ValidationError when ``file`` leads outside the root or cannot name
        a file at all (an embedded NUL, a lone surrogate), OSError when it
        cannot be read, such as FileNotFoundError for a missing file, and
        FragmentRangeError when the range exceeds the file length."""
        source = self.names.get(file)
        if source is None:
            try:
                source = self.names[file] = self._contained_file(file)
            except ValueError as exc:
                # An embedded NUL, or a name the file system encoding cannot encode.
                raise ValidationError(
                    f"fragment file {file!r} is not a valid path: {exc}"
                ) from None
        if end_line > source.line_count:
            raise FragmentRangeError(
                f"{file}: lines {start_line}..{end_line} "
                f"exceed file length {source.line_count}"
            )
        return source.text(start_line, end_line)

    def _contained_file(self, file: str) -> _SourceFile:
        """The source file that ``file`` names under the root;
        ValidationError if it lies outside. The directory part is resolved
        through ``dirs``, and a name in a contained directory is opened
        without following a symlink. Every other name, and a symlink,
        ``""``, ``.`` or ``..`` in a contained directory, gets one
        ``realpath`` and one containment check, so a name that leads back
        in, even to the root itself, lies inside."""
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
        path = os.path.realpath(path)
        if not _within(self.root, path):
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


def resolve_snapshot(snapshot: VersionSnapshot,
                     source_root: Path | str | None) -> VersionSnapshot:
    """Return the snapshot with its text column filled in.

    Text a fragment already carries (a report's optional "text" field) is
    kept, with CRLF and lone CR turned into LF as for a file; every other
    fragment is read from under ``source_root``, and a fragment file
    outside it raises ValidationError. Each file is opened and read once,
    however many fragments and names lead to it.
    """
    files, starts, ends, text = snapshot.files, snapshot.starts, snapshot.ends, snapshot.text
    if source_root is None:
        if None in text:
            k = text.index(None)
            raise ValidationError(
                f"version {snapshot.version_id!r}, group "
                f"{bisect_right(snapshot.bounds, k) - 1}: no source root to "
                f"resolve {files[k]!r}")
        read = None
    else:
        read = _SourceTree(os.path.realpath(source_root)).text
    filled = tuple([read(file, start, end) if inline is None else _lf(inline)
                    for file, start, end, inline in zip(files, starts, ends, text)])
    return _checked(snapshot.version_id, files, starts, ends, filled,
                    snapshot.bounds)


_FRAGMENT_KEYS = ("file", "start_line", "end_line")


def _report_snapshot(version_id, rows: list[tuple], text: tuple,
                     bounds: list[int], indices: list, where) -> VersionSnapshot:
    """The snapshot of a report's fragment rows and texts, its group
    bounds and declared indices, all in report order: checked in that
    order, each problem named by ``where``, then put into index order."""
    files, starts, ends = tuple(zip(*rows)) or ((), (), ())
    _check(version_id, files, starts, ends, text, bounds, indices, where)
    if indices != list(range(len(indices))):
        spans = [range(bounds[p], bounds[p + 1])
                 for p in sorted(range(len(indices)), key=indices.__getitem__)]
        picks = [k for span in spans for k in span]
        files, starts, ends, text = (tuple(map(column.__getitem__, picks))
                                     for column in (files, starts, ends, text))
        bounds = accumulate(map(len, spans), initial=0)
    return _checked(version_id, files, starts, ends, text, tuple(bounds))


def snapshot_from_dict(doc: dict) -> VersionSnapshot:
    """Build a snapshot from a native-schema report object."""
    version, raw_groups = _fields(doc, "report", ("version", "groups"),
                                  ReportParseError)
    rows, text, bounds, indices = [], [], [0], []
    try:
        for pos, entry in enumerate(_items(raw_groups, "report 'groups'",
                                           ReportParseError)):
            where = f"groups[{pos}]"
            index, fragments = _fields(entry, where, ("index", "fragments"),
                                       ReportParseError)
            indices.append(index)
            for fpos, fragment in enumerate(_items(
                    fragments, f"{where}.fragments", ReportParseError)):
                rows.append(_fields(fragment, f"{where}.fragments[{fpos}]",
                                    _FRAGMENT_KEYS, ReportParseError))
                text.append(fragment.get("text"))
            bounds.append(len(rows))
    except ReportParseError:
        # A value error earlier in the report comes first.
        _raise_first_problem(rows, text, bounds, indices, _position)
        raise
    return _report_snapshot(version, rows, tuple(text), bounds, indices, _position)


def snapshot_to_dict(snapshot: VersionSnapshot) -> dict:
    """Serialize a snapshot back to the native JSON schema (round-trips)."""
    keys = ("file", "start_line", "end_line", "text")
    fragments = [{key: value for key, value in zip(keys, row) if value is not None}
                 for row in zip(snapshot.files, snapshot.starts, snapshot.ends,
                                snapshot.text)]
    bounds = snapshot.bounds
    return {"version": snapshot.version_id, "groups": [
        {"index": index, "fragments": fragments[lo:hi]}
        for index, (lo, hi) in enumerate(zip(bounds, bounds[1:]))]}


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

    rows, bounds, indices = [], [0], []

    def where(g, j):
        return f"<class id={indices[g]}>"

    try:
        for pos, class_el in enumerate(root.findall("class")):
            declared = class_el.get("id")
            indices.append(pos if declared is None
                           else _xml_int(declared, f"<class id> at position {pos}"))
            at = where(pos, None)
            for src in class_el.findall("source"):
                file, start, end = map(src.get, ("file", "startline", "endline"))
                if file is None or start is None or end is None:
                    raise ReportParseError(
                        f"{at}: <source> needs file/startline/endline attributes")
                rows.append((file, _xml_int(start, at), _xml_int(end, at)))
            bounds.append(len(rows))
    except ReportParseError:
        # A value error earlier in the report comes first.
        _raise_first_problem(rows, (None,) * len(rows), bounds, indices, where)
        raise
    return _report_snapshot(version_id, rows, (None,) * len(rows), bounds,
                            indices, where)


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
