"""Clone report parsing: native JSON, the XML adapter, and text resolution."""

import copy
import json
import os
import re
from collections import Counter
from dataclasses import asdict, dataclass
from itertools import accumulate
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from clonemap import ingest
from clonemap.errors import (
    FragmentRangeError,
    ReportParseError,
    ValidationError,
    _at,
    _fields,
    _items,
    is_json_int,
)
from clonemap.ingest import (
    CloneFragment,
    CloneGroup,
    VersionSnapshot,
    parse_clone_report,
    resolve_snapshot,
    snapshot_from_dict,
    snapshot_to_dict,
)
from clonemap.mapping import lcs_similarity
from clonemap.pipeline import texts


def _normalize_newlines(raw: str) -> str:
    return raw.replace("\r\n", "\n").replace("\r", "\n")


def read_fragment_oracle(fragment, source_root):
    """The fragment reader as it was before directories were cached: a
    realpath and a commonpath check per fragment, pathlib's ``read_text``
    and an explicit newline normalization."""
    root = os.path.realpath(source_root)
    path = os.path.realpath(os.path.join(root, fragment.file))
    if os.path.commonpath((root, path)) != root:
        raise ValidationError(
            f"fragment file {fragment.file!r} lies outside the source root {root!r}"
        )
    raw = Path(path).read_text(encoding="utf-8", errors="replace")
    lines = _normalize_newlines(raw.removeprefix("\ufeff")).split("\n")
    # A trailing newline yields one empty trailing element, not a real line.
    if lines and lines[-1] == "":
        lines = lines[:-1]
    if fragment.end_line > len(lines):
        raise FragmentRangeError(
            f"{fragment.file}: lines {fragment.start_line}..{fragment.end_line} "
            f"exceed file length {len(lines)}"
        )
    return "\n".join(lines[fragment.start_line - 1 : fragment.end_line])


def resolve_one(fragment, source_root):
    """The text ``resolve_snapshot`` gives ``fragment``, read as a group
    of that fragment twice; both copies must read alike."""
    snapshot = columns("v1", [[(fragment.file, fragment.start_line,
                                fragment.end_line)] * 2])
    first, second = resolve_snapshot(snapshot, source_root).text
    assert first == second
    return first


def assert_every_range_matches_oracle(root, content: bytes):
    (root / "a.c").write_bytes(content)
    n_lines = len(_normalize_newlines(
        content.decode("utf-8", errors="replace")).split("\n"))
    for start in range(1, n_lines + 1):
        for end in range(start, n_lines + 1):
            frag = CloneFragment("a.c", start, end, None)
            try:
                expected = read_fragment_oracle(frag, root)
            except FragmentRangeError:
                with pytest.raises(FragmentRangeError):
                    resolve_one(frag, root)
            else:
                assert resolve_one(frag, root) == expected


def make_report(version="v1", n_groups=2, with_text=True):
    groups = []
    for k in range(n_groups):
        frags = []
        for m in range(2):
            entry = {"file": f"g{k}_{m}.c", "start_line": 1, "end_line": 2}
            if with_text:
                entry["text"] = f"int x{k} = {k};\nint y{k} = x{k};"
            frags.append(entry)
        groups.append({"index": k, "fragments": frags})
    return {"version": version, "groups": groups}


def columns(version, groups):
    """The snapshot whose groups hold the given fragments, each a
    ``(file, start_line, end_line)`` or ``(file, start_line, end_line,
    text)`` tuple, built straight from its columns."""
    frags = [(*f, None)[:4] for group in groups for f in group]
    files, starts, ends, text = tuple(zip(*frags)) if frags else ((),) * 4
    return VersionSnapshot(version, files, starts, ends, text,
                           tuple(accumulate(map(len, groups), initial=0)))


class TestFragmentAndGroupInvariants:
    """The snapshot checks its columns; each error names the fragment or
    group by its position."""

    def test_line_range_must_be_ordered(self):
        with pytest.raises(ValidationError,
                           match=r"^groups\[0\]\.fragments\[0\]: bad fragment"):
            columns("v1", [[("a.c", 5, 3), ("a.c", 1, 2)]])

    def test_line_numbers_start_at_one(self):
        with pytest.raises(ValidationError,
                           match=r"^groups\[0\]\.fragments\[1\]: bad fragment"):
            columns("v1", [[("a.c", 1, 3), ("a.c", 0, 3)]])

    def test_group_needs_two_fragments(self):
        with pytest.raises(ValidationError,
                           match=r"^groups\[1\]: clone group 1 has 1 fragment"):
            columns("v1", [[("a.c", 1, 2)] * 2, [("a.c", 1, 2)]])

    def test_group_indices_must_be_dense(self):
        doc = make_report(n_groups=1)
        doc["groups"][0]["index"] = 3
        with pytest.raises(ValidationError, match="unique and dense"):
            snapshot_from_dict(doc)

    def test_duplicate_group_indices_rejected(self):
        doc = make_report(n_groups=2)
        doc["groups"][1]["index"] = 0
        with pytest.raises(ValidationError, match="unique and dense"):
            snapshot_from_dict(doc)

    @pytest.mark.parametrize("file, start, end", [
        ("a.c", 1.5, 2), ("a.c", 1, 2.0), ("a.c", True, 2), ("a.c", "1", 2),
        (Path("a.c"), 1, 2), (None, 1, 2),
    ])
    def test_fragment_fields_must_be_typed(self, file, start, end):
        """A float line once reached resolve_snapshot and died slicing."""
        with pytest.raises(ValidationError, match="bad fragment"):
            columns("v1", [[("a.c", 1, 2), (file, start, end)]])

    @pytest.mark.parametrize("index", [0.0, True, "0", None])
    def test_group_index_must_be_an_integer(self, index):
        """0.0 and True once passed the dense check and were written by
        snapshot_to_dict as a report that snapshot_from_dict rejects."""
        doc = make_report(n_groups=1)
        doc["groups"][0]["index"] = index
        with pytest.raises(ValidationError,
                           match=r"^groups\[0\]: group index must be an integer"):
            snapshot_from_dict(doc)

    @pytest.mark.parametrize("text", [5, b"x", ["x"]])
    def test_fragment_text_must_be_a_string(self, text):
        """An int text once passed and died in concatenated_text."""
        with pytest.raises(ValidationError, match="text must be a string"):
            columns("v1", [[("a.c", 1, 2, text), ("a.c", 1, 2, "x")]])

    @pytest.mark.parametrize("version", [5, "", None, True])
    def test_version_must_be_a_non_empty_string(self, version):
        """5 was once accepted and written as a report that
        snapshot_from_dict rejects."""
        with pytest.raises(ValidationError, match="non-empty string"):
            columns(version, [])

    @pytest.mark.parametrize("fields", [
        ((), (), (), (), ()), (("a.c",), (), (), (), (0, 1)),
        (("a.c", "a.c"), (1, 1), (1, 1), (None, None), (0, 3)),
        (("a.c", "a.c"), (1, 1), (1, 1), (None, None), (1, 2)),
        (["a.c", "a.c"], [1, 1], [1, 1], [None, None], [0, 2]),
        (("a.c", "a.c"), (1, 1), (1, 1), (None, None), (0, 2.0)),
    ], ids=["no-bounds", "short-column", "past-the-end", "not-from-0",
            "lists", "float-bound"])
    def test_columns_must_line_up(self, fields):
        with pytest.raises(ValidationError, match="columns must be tuples"):
            VersionSnapshot("v1", *fields)

    def test_records_check_nothing(self):
        """The view's records are plain: the columns were checked."""
        assert CloneFragment(5, 3, 1, text=7).start_line == 3
        assert CloneGroup("x", ()).fragments == ()

    def test_groups_view_shows_the_columns(self):
        snap = columns("v1", [[("a.c", 1, 2), ("b.c", 3, 4, "t")],
                              [("c.c", 1, 1)] * 3])
        assert snap.groups == (
            CloneGroup(0, (CloneFragment("a.c", 1, 2, None),
                            CloneFragment("b.c", 3, 4, "t"))),
            CloneGroup(1, (CloneFragment("c.c", 1, 1, None),) * 3))
        assert snap.groups is snap.groups


# Values that are wrongly typed for some field (and valid for another).
WRONG = [True, False, 1.0, 0.5, "", None, 5, "1", float("nan")]
FRAGMENT = st.fixed_dictionaries({
    "file": st.text(max_size=3), "start_line": st.integers(1, 2),
    "end_line": st.integers(2, 3), "text": st.none() | st.text(max_size=3)})


class TestTypesAndParserAgree:
    """The snapshot and the parser apply one rule: whatever the snapshot
    accepts round-trips through the report schema."""

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(version=st.text(min_size=1, max_size=3),
           groups=st.lists(st.lists(FRAGMENT, min_size=2, max_size=3),
                           min_size=1, max_size=3),
           value=st.sampled_from(WRONG))
    def test_accepted_snapshot_round_trips(self, version, groups, value):
        """A valid snapshot with one field at a time set to ``value``."""
        for slot in ("version", "index", "file", "start_line", "end_line", "text"):
            fields = [[dict(f) for f in fragments] for fragments in groups]
            if slot not in ("version", "index"):
                fields[0][0][slot] = value
            frags = [tuple(f.values()) for fragments in fields for f in fragments]
            bounds = list(accumulate(map(len, fields), initial=0))
            if slot == "index":  # the columns hold no index: its bound
                bounds[1] = value
            try:
                snapshot = VersionSnapshot(value if slot == "version" else version,
                                           *zip(*frags), tuple(bounds))
            except ValidationError:
                continue
            assert snapshot_from_dict(snapshot_to_dict(snapshot)) == snapshot

    @pytest.mark.parametrize("field, value, where", [
        ("version", 5, ""), ("version", "", ""),
        ("index", None, r"groups\[0\]: "),
        ("file", 7, r"groups\[0\]\.fragments\[1\]: "),
        ("text", 5, r"groups\[0\]\.fragments\[1\]: "),
        ("end_line", 0.5, r"groups\[0\]\.fragments\[1\]: "),
    ])
    def test_wrong_value_is_validation_error_at_its_position(self, field,
                                                             value, where):
        doc = make_report(n_groups=1)
        if field == "version":
            doc["version"] = value
        elif field == "index":
            doc["groups"][0]["index"] = value
        else:
            doc["groups"][0]["fragments"][1][field] = value
        with pytest.raises(ValidationError, match="^" + where):
            snapshot_from_dict(doc)

    @pytest.mark.parametrize("doc", [
        [], {"groups": []}, {"version": "v1"}, {"version": "v1", "groups": {}},
        {"version": "v1", "groups": [[]]},
        {"version": "v1", "groups": [{"fragments": []}]},
        {"version": "v1", "groups": [{"index": 0}]},
        {"version": "v1", "groups": [{"index": 0, "fragments": [1]}]},
        {"version": "v1", "groups": [{"index": 0, "fragments": [
            {"file": "a.c", "start_line": 1}]}]},
    ])
    def test_wrong_shape_is_parse_error(self, doc):
        with pytest.raises(ReportParseError):
            snapshot_from_dict(doc)


# The report reader as it was when every fragment and group was an object
# that checked itself, kept as the reference for the column parser's
# errors. Only the dense-index message has changed since.
@dataclass(frozen=True)
class ReferenceFragment:
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
class ReferenceGroup:
    index: int
    fragments: tuple[ReferenceFragment, ...]

    def __post_init__(self):
        if not is_json_int(self.index):
            raise ValidationError(f"group index must be an integer, got {self.index!r}")
        if len(self.fragments) < 2:
            raise ValidationError(
                f"clone group {self.index} has {len(self.fragments)} fragment(s); need >= 2"
            )


@dataclass(frozen=True)
class ReferenceSnapshot:
    version_id: str
    groups: tuple[ReferenceGroup, ...]

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


def reference_snapshot_from_dict(doc: dict) -> dict:
    """The report as the object-building reader read it, written back in
    the native schema."""
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
            fragments.append(_at(fwhere, ReferenceFragment, *fields, fentry.get("text")))
        groups.append(_at(where, ReferenceGroup, index, tuple(fragments)))
    snapshot = ReferenceSnapshot(version_id=version, groups=tuple(groups))
    return {"version": snapshot.version_id, "groups": [
        {"index": group.index, "fragments": [
            {k: v for k, v in asdict(frag).items() if k != "text" or v is not None}
            for frag in group.fragments]}
        for group in snapshot.groups]}


# Values wrong for some place in a report: of shape (an object, an array)
# or of value.
CORRUPT = [[], {}, [{}], "x", 0, -1, 2, 7, True, 1.5, None, ""]


def corrupt(data, doc):
    """Delete or replace one drawn key of the report, a group or a
    fragment, or replace a whole group or fragment in its list."""
    node, holder, slot = doc, None, None
    for key in ("groups", "fragments")[:data.draw(st.integers(0, 2))]:
        if not node[key]:
            break
        holder = node[key]
        slot = data.draw(st.integers(0, len(holder) - 1))
        node = holder[slot]
    key = data.draw(st.sampled_from(sorted(node) + (["WHOLE"] if holder else [])))
    value = copy.deepcopy(data.draw(st.sampled_from(CORRUPT)))
    if key == "WHOLE":
        holder[slot] = value
    elif data.draw(st.booleans()):
        del node[key]
    else:
        node[key] = value


class TestParserMatchesTheObjectReader:
    """The column parser reads a report as the object-building reader did:
    the same snapshot, or the same error type and message for the first
    problem in document order."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(data=st.data(),
           sizes=st.lists(st.integers(2, 3), min_size=1, max_size=3),
           corruptions=st.integers(1, 2))
    def test_corrupted_report(self, data, sizes, corruptions):
        order = data.draw(st.permutations(range(len(sizes))))
        doc = {"version": "v1", "groups": [
            {"index": index, "fragments": [
                {"file": f"g{index}_{m}.c", "start_line": 1, "end_line": 2,
                 **({"text": f"t{index}"} if m else {})}
                for m in range(sizes[index])]}
            for index in order]}
        for _ in range(corruptions):
            if isinstance(doc.get("groups"), list) and all(
                    isinstance(g, dict) and isinstance(g.get("fragments"), list)
                    and all(isinstance(f, dict) for f in g["fragments"])
                    for g in doc["groups"]):
                corrupt(data, doc)
        try:
            expected = reference_snapshot_from_dict(copy.deepcopy(doc))
        except (ReportParseError, ValidationError) as exc:
            with pytest.raises(type(exc)) as caught:
                snapshot_from_dict(doc)
            got, want = str(caught.value), str(exc)
            dense = "group indices must be unique and dense"
            if want.startswith(dense):
                got, want = got.split(", but")[0], want.split(", got")[0]
            assert got == want
        else:
            assert snapshot_to_dict(snapshot_from_dict(doc)) == expected


class TestDenseIndexError:
    """The dense-index error names one index, the smallest missing one,
    however large the report: n indices that are not 0..n-1 once each
    always miss one of 0..n-1."""

    def test_one_repeat_in_a_large_report(self):
        fragments = [{"file": "a.c", "start_line": 1, "end_line": 1}] * 2
        doc = {"version": "v1", "groups": [
            {"index": k, "fragments": fragments} for k in range(3000)]}
        doc["groups"][1234]["index"] = 2999
        with pytest.raises(ValidationError) as caught:
            snapshot_from_dict(doc)
        assert str(caught.value) == ("group indices must be unique and dense "
                                     "0..2999, but 1234 is missing")
        assert len(str(caught.value)) < 100

    @pytest.mark.parametrize("indices, missing", [
        ([1, 0, 1], 2), ([0, 5], 1), ([7, 7], 0), ([-1, 0], 1),
        ([10 ** 4000, 0], 1),
    ])
    def test_names_the_smallest_missing_index(self, indices, missing):
        doc = make_report(n_groups=len(indices))
        for group, index in zip(doc["groups"], indices):
            group["index"] = index
        with pytest.raises(ValidationError) as caught:
            snapshot_from_dict(doc)
        assert str(caught.value) == ("group indices must be unique and dense "
                                     f"0..{len(indices) - 1}, but {missing} "
                                     "is missing")


def write_xml(doc: dict) -> str:
    classes = "".join(
        f'<class id="{g["index"]}">' + "".join(
            f'<source file="{f["file"]}" startline="{f["start_line"]}" '
            f'endline="{f["end_line"]}"/>' for f in g["fragments"]) + "</class>"
        for g in doc["groups"])
    return f'<clones version="{doc["version"]}">{classes}</clones>'


class TestOutOfOrderGroups:
    """A report that lists its groups out of index order parses to the
    snapshot of the same report in index order."""

    @staticmethod
    def report():
        return {"version": "v1", "groups": [
            {"index": k, "fragments": [
                {"file": f"g{k}_{m}.c", "start_line": m + 1, "end_line": m + k + 1,
                 "text": f"text {k} {m}"}
                for m in range(2 + k % 3)]}
            for k in range(5)]}

    @pytest.mark.parametrize("fmt", ["json", "xml"])
    def test_parses_as_the_sorted_report(self, tmp_path, fmt):
        doc = self.report()
        permuted = dict(doc, groups=[doc["groups"][k] for k in (3, 0, 4, 2, 1)])
        if fmt == "xml":
            for group in doc["groups"]:
                for fragment in group["fragments"]:
                    del fragment["text"]
        write = write_xml if fmt == "xml" else json.dumps
        paths = []
        for name, report in (("sorted", doc), ("permuted", permuted)):
            paths.append(tmp_path / f"{name}.{fmt}")
            paths[-1].write_text(write(report), encoding="utf-8")
        sorted_snap, permuted_snap = map(parse_clone_report, paths)
        assert permuted_snap == sorted_snap
        assert snapshot_to_dict(permuted_snap) == doc
        assert permuted_snap.bounds == (0, 2, 5, 9, 11, 14)


class TestNativeJson:
    def test_round_trip(self):
        doc = make_report()
        snap = snapshot_from_dict(doc)
        assert snapshot_to_dict(snap) == doc

    def test_zero_groups_is_legal(self):
        snap = snapshot_from_dict({"version": "v1", "groups": []})
        assert snap.groups == ()

    def test_missing_version_rejected(self):
        with pytest.raises(ReportParseError):
            snapshot_from_dict({"groups": []})

    @pytest.mark.parametrize("fmt", ["json", "xml"])
    def test_single_fragment_group_rejected_with_index(self, tmp_path, fmt):
        if fmt == "json":
            doc = make_report()
            doc["groups"][1]["fragments"] = doc["groups"][1]["fragments"][:1]
            text = json.dumps(doc)
        else:
            text = TestXmlAdapter.XML.replace(
                '<source file="d.c" startline="2" endline="4"/>', "")
        path = tmp_path / f"r.{fmt}"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValidationError,
                           match=r"clone group 1 has 1 fragment\(s\); need >= 2"):
            parse_clone_report(path)

    @pytest.mark.parametrize("field,value", [
        ("index", False), ("index", True),
        ("start_line", True), ("end_line", True),
    ])
    def test_json_boolean_is_not_an_integer(self, field, value):
        """The constructor rejects the value; the parser names its place."""
        doc = make_report(n_groups=1)
        if field == "index":
            doc["groups"][0]["index"] = value
            where = r"groups\[0\]: "
        else:
            doc["groups"][0]["fragments"][0][field] = value
            where = r"groups\[0\]\.fragments\[0\]: "
        with pytest.raises(ValidationError, match="^" + where):
            snapshot_from_dict(doc)

    def test_malformed_json_reports_position(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"version": "v1", "groups": [}', encoding="utf-8")
        with pytest.raises(ReportParseError, match="line"):
            parse_clone_report(path)

    def test_parse_from_file(self, tmp_path):
        path = tmp_path / "r.json"
        path.write_text(json.dumps(make_report()), encoding="utf-8")
        snap = parse_clone_report(path)
        assert snap.version_id == "v1"
        assert len(snap.groups) == 2

    def test_byte_order_mark_is_dropped(self, tmp_path):
        """RFC 8259 lets a parser ignore a leading BOM; ``json.loads``
        refuses it, so the reader drops it."""
        path = tmp_path / "r.json"
        path.write_text("\ufeff" + json.dumps(make_report()), encoding="utf-8")
        assert snapshot_to_dict(parse_clone_report(path)) == make_report()

    def test_readme_example_parses(self):
        readme = Path(__file__).resolve().parents[1] / "README.md"
        blocks = re.findall(r"```json\n(.*?)```",
                            readme.read_text(encoding="utf-8"), re.S)
        assert len(blocks) == 1
        doc = json.loads(blocks[0])
        snap = snapshot_from_dict(doc)
        assert snapshot_to_dict(snap) == doc
        texts = [f.text for f in snap.groups[0].fragments]
        assert texts == [None, "x = y + 1;\nreturn x;"]


class TestXmlAdapter:
    XML = """<clones version="1.2">
      <class id="0">
        <source file="a.c" startline="1" endline="3"/>
        <source file="b.c" startline="10" endline="12"/>
      </class>
      <class id="1">
        <source file="c.c" startline="2" endline="4"/>
        <source file="d.c" startline="2" endline="4"/>
      </class>
    </clones>"""

    def test_parses_classes_as_groups(self, tmp_path):
        path = tmp_path / "r.xml"
        path.write_text(self.XML, encoding="utf-8")
        snap = parse_clone_report(path)
        assert snap.version_id == "1.2"
        assert [g.index for g in snap.groups] == [0, 1]
        assert snap.groups[0].fragments[1].file == "b.c"
        assert snap.groups[0].fragments[1].start_line == 10

    def test_byte_order_mark_does_not_hide_xml(self, tmp_path):
        """A report with no suffix is sniffed by its first character,
        which must be ``<`` once the BOM is dropped."""
        plain, marked = tmp_path / "plain.xml", tmp_path / "report"
        plain.write_text(self.XML, encoding="utf-8")
        marked.write_text("\ufeff" + self.XML, encoding="utf-8")
        assert parse_clone_report(marked) == parse_clone_report(plain)

    def test_wrong_root_rejected(self, tmp_path):
        path = tmp_path / "r.xml"
        path.write_text("<stuff/>", encoding="utf-8")
        with pytest.raises(ReportParseError):
            parse_clone_report(path)

    def test_non_integer_class_id_is_parse_error(self, tmp_path):
        path = tmp_path / "r.xml"
        path.write_text(self.XML.replace('id="1"', 'id="x"'), encoding="utf-8")
        with pytest.raises(ReportParseError, match="not an integer"):
            parse_clone_report(path)

    @pytest.mark.parametrize("plain, written", [
        ('endline="12"', 'endline="1_2"'),
        ('startline="10"', 'startline=" 10 "'),
        ('endline="12"', 'endline="+12"'),
        ('startline="10"', 'startline="\u0661\u0660"'),
        ('id="0"', 'id="0_0"'),
    ], ids=["underscore", "spaces", "plus", "arabic-indic", "class-id"])
    def test_integer_attribute_must_be_plain_decimal(self, tmp_path, plain,
                                                     written):
        """``int`` takes each of these forms; a report must not."""
        path = tmp_path / "r.xml"
        path.write_text(self.XML.replace(plain, written), encoding="utf-8")
        with pytest.raises(ReportParseError, match="is not an integer"):
            parse_clone_report(path)

    @pytest.mark.parametrize("plain", ['id="1"', 'startline="10"'])
    def test_integer_past_the_digit_limit_is_parse_error(self, tmp_path, plain):
        """``int`` refuses more than 4,300 digits with a ValueError, which
        once ended the run in a traceback. The error keeps to the first
        20 digits."""
        name = plain.split("=")[0]
        path = tmp_path / "r.xml"
        path.write_text(self.XML.replace(plain, f'{name}="{"7" * 5000}"'),
                        encoding="utf-8")
        with pytest.raises(ReportParseError,
                           match=r"'7{20}\.\.\.' is not an integer$") as caught:
            parse_clone_report(path)
        assert len(str(caught.value)) < 80

    def test_negative_line_reaches_the_range_rule(self, tmp_path):
        path = tmp_path / "r.xml"
        path.write_text(self.XML.replace('startline="10"', 'startline="-1"'),
                        encoding="utf-8")
        with pytest.raises(ValidationError, match=r"^<class id=0>: bad fragment"):
            parse_clone_report(path)


class TestTextResolution:
    def test_inclusive_line_range(self, tmp_path):
        (tmp_path / "a.c").write_text("l1\nl2\nl3\nl4\n", encoding="utf-8")
        frag = CloneFragment("a.c", 2, 3, None)
        assert resolve_one(frag, tmp_path) == "l2\nl3"

    def test_crlf_normalized(self, tmp_path):
        (tmp_path / "a.c").write_bytes(b"l1\r\nl2\r\nl3\r\n")
        frag = CloneFragment("a.c", 1, 3, None)
        assert resolve_one(frag, tmp_path) == "l1\nl2\nl3"

    @pytest.mark.parametrize("content", [
        b"l1\rl2\rl3",
        b"l1\r\nl2\rl3\nl4\r\r\nl5\n\rl6",
        b"l1\nl2\r",
        b"l1\nl2",
        b"l1\xff\xfe\nl2\xe2\x82\r\nl3\xc3\n",
    ], ids=["lone-cr", "mixed", "trailing-cr", "no-final-newline",
            "invalid-utf8"])
    def test_newlines_match_oracle(self, tmp_path, content):
        assert_every_range_matches_oracle(tmp_path, content)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.sampled_from([b"a", b"bc", b"\r", b"\n", b"\r\n",
                                     b"\xff", b"\xe2\x82", b"\xc3\xa9",
                                     b"\xef\xbb\xbf"]),
                    max_size=12))
    def test_random_bytes_match_oracle(self, tmp_path_factory, pieces):
        assert_every_range_matches_oracle(tmp_path_factory.mktemp("bytes"),
                                          b"".join(pieces))

    def test_file_over_64_kib_matches_oracle(self, tmp_path):
        """Bytes that a chunked reader would split: a CRLF across byte
        8192, a 3-byte character across byte 65536; plus an invalid byte
        and a lone CR as the very last byte."""
        content = bytearray(b"x" * 70000)
        content[1999::2000] = b"\n" * 35
        content[8191:8193] = b"\r\n"
        content[65535:65538] = "€".encode("utf-8")
        content[30000] = 0xFF
        content[-1:] = b"\r"
        assert_every_range_matches_oracle(tmp_path, bytes(content))
        whole = resolve_one(CloneFragment("a.c", 1, 36, None), tmp_path)
        assert len(whole.splitlines()) == 36
        assert "€" in whole and "�" in whole and "\r" not in whole

    @pytest.mark.parametrize("size", [0, 1, 65535, 65536, 65537, 200003])
    @pytest.mark.parametrize("piece", ["\u20ac".encode("utf-8"), b"\r\n",
                                       b"\xff\xfe"],
                             ids=["3-byte-char", "crlf", "invalid"])
    def test_64_kib_chunk_boundaries_match_oracle(self, tmp_path, size, piece):
        """The reader joins 64 KiB chunks before it decodes, so a character
        or a CRLF across a chunk boundary reads as it does in one piece.
        ``piece`` straddles byte 65536 (and 131072) where the file is long
        enough, and otherwise ends the file."""
        content = bytearray(b"x" * size)
        content[9999::10000] = b"\n" * (size // 10000)
        for boundary in (65536, 131072):
            at = min(boundary - 1, size - len(piece))
            if at >= 0:
                content[at : at + len(piece)] = piece
        assert len(content) == size
        assert_every_range_matches_oracle(tmp_path, bytes(content))
        if size >= 65536 + len(piece):
            # Line 7 holds bytes 60000..69998.
            line = resolve_one(CloneFragment("a.c", 7, 7, None), tmp_path)
            if piece == b"\r\n":
                assert line == "x" * 5535
            else:
                assert line == ("x" * 5535 + piece.decode("utf-8", "replace")
                                + "x" * (9999 - 5535 - len(piece)))

    @pytest.mark.parametrize("size", [65537, 200003])
    @pytest.mark.parametrize("shift", [-1000, "to-zero", 1, 70000],
                             ids=["smaller", "zero", "larger", "much-larger"])
    def test_size_that_changed_after_fstat_reads_whole(self, tmp_path,
                                                        monkeypatch, size,
                                                        shift):
        """``fstat`` may give a size the file no longer has, when it grew or
        shrank before the read; the reader still reads to end of file."""
        content = bytearray(b"x" * size)
        content[9999::10000] = b"\n" * (size // 10000)
        (tmp_path / "a.c").write_bytes(content)
        whole = CloneFragment("a.c", 1, size // 10000 + 1, None)
        expected = read_fragment_oracle(whole, tmp_path)
        fstat = os.fstat

        def stale(fd):
            info = fstat(fd)
            given = 0 if shift == "to-zero" else info.st_size + shift
            return os.stat_result((*info[:6], given, *info[7:]))

        monkeypatch.setattr(os, "fstat", stale)
        assert resolve_one(whole, tmp_path) == expected
        assert len(expected) == size

    def test_leading_byte_order_mark_is_not_text(self, tmp_path):
        """A BOM'd fragment file and a plain one give the same group text,
        which the line-LCS baseline scores 1.0; a mark later in the file
        stays, and a file holding only the mark has no lines."""
        body = "balance = vector;\nx;\n"
        (tmp_path / "bom.c").write_bytes(b"\xef\xbb\xbf" + body.encode())
        (tmp_path / "plain.c").write_text(body, encoding="utf-8")
        (tmp_path / "only.c").write_bytes(b"\xef\xbb\xbf")
        (tmp_path / "inner.c").write_text("x;\n\ufeffy;\n", encoding="utf-8")

        def group_text(file):
            fragment = {"file": file, "start_line": 1, "end_line": 2}
            doc = {"version": "v1", "groups": [
                {"index": 0, "fragments": [fragment, fragment]}]}
            [text] = texts(snapshot_from_dict(doc), tmp_path)
            return text

        marked, plain = group_text("bom.c"), group_text("plain.c")
        assert marked == plain == "balance = vector;\nx;\nbalance = vector;\nx;"
        assert lcs_similarity(marked, plain) == 1.0
        assert group_text("inner.c") == "x;\n\ufeffy;\nx;\n\ufeffy;"
        with pytest.raises(FragmentRangeError, match="exceed file length 0"):
            resolve_one(CloneFragment("only.c", 1, 1, None), tmp_path)

    @pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "lone-cr"])
    def test_inline_text_reads_as_the_same_file(self, tmp_path, newline):
        """Text a report carries inline follows the file rule for line
        ends, so a lone CR ends a line comment either way."""
        body = f"total = count; // note{newline}balance = vector;"
        (tmp_path / "a.c").write_bytes(body.encode("utf-8"))
        on_disk = {"file": "a.c", "start_line": 1, "end_line": 2}
        inline = dict(on_disk, text=body)

        def version(fragment):
            return snapshot_from_dict({"version": "v1", "groups": [
                {"index": 0, "fragments": [fragment, fragment]}]})

        expected = list(texts(version(on_disk), tmp_path))
        assert list(texts(version(inline), None)) == expected
        assert expected == ["total = count; // note\nbalance = vector;\n"
                            "total = count; // note\nbalance = vector;"]

    def test_range_past_end_of_file(self, tmp_path):
        (tmp_path / "a.c").write_text("l1\nl2\n", encoding="utf-8")
        frag = CloneFragment("a.c", 1, 9, None)
        with pytest.raises(FragmentRangeError):
            resolve_one(frag, tmp_path)

    def test_resolve_snapshot_fills_missing_text(self, tmp_path):
        for k in range(2):
            for m in range(2):
                (tmp_path / f"g{k}_{m}.c").write_text("aa\nbb\n", encoding="utf-8")
        snap = snapshot_from_dict(make_report(with_text=False))
        resolved = resolve_snapshot(snap, tmp_path)
        assert all(f.text is not None
                   for g in resolved.groups for f in g.fragments)
        assert resolved.groups[0].fragments[0].text == "aa\nbb"

    @pytest.mark.parametrize("escape", ["../outside.c", "sub/../../outside.c",
                                        "ABSOLUTE", "/inside.c"])
    def test_fragment_outside_source_root_rejected(self, tmp_path, escape):
        """``/inside.c`` names a file at the file system root, not the
        source root's ``inside.c``."""
        root = tmp_path / "src"
        (root / "sub").mkdir(parents=True)
        outside = tmp_path / "outside.c"
        outside.write_text("secret\nsecret\n", encoding="utf-8")
        (root / "inside.c").write_text("aa\nbb\n", encoding="utf-8")
        file = str(outside) if escape == "ABSOLUTE" else escape
        report = {"version": "v1", "groups": [{"index": 0, "fragments": [
            {"file": "inside.c", "start_line": 1, "end_line": 2},
            {"file": file, "start_line": 1, "end_line": 2},
        ]}]}
        snap = snapshot_from_dict(report)
        with pytest.raises(ValidationError, match="outside the source root"):
            resolve_snapshot(snap, root)
        with pytest.raises(ValidationError, match="outside the source root"):
            resolve_one(snap.groups[0].fragments[1], root)

    @pytest.mark.parametrize("file", ["link.c", "linkdir/outside.c",
                                      "linkdir/../outside.c"])
    def test_symlink_out_of_source_root_rejected(self, tmp_path, file):
        root = tmp_path / "src"
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        root.mkdir()
        for target in (tmp_path / "outside.c", elsewhere / "outside.c"):
            target.write_text("secret\nsecret\n", encoding="utf-8")
        (root / "link.c").symlink_to(tmp_path / "outside.c")
        (root / "linkdir").symlink_to(elsewhere, target_is_directory=True)
        frag = CloneFragment(file, 1, 2, None)
        with pytest.raises(ValidationError, match="outside the source root"):
            resolve_one(frag, root)

    @pytest.mark.parametrize("file", ["sub/../a.c", "./a.c", "link.c"])
    def test_path_within_source_root_allowed(self, tmp_path, file):
        (tmp_path / "sub").mkdir()
        (tmp_path / "a.c").write_text("aa\nbb\n", encoding="utf-8")
        (tmp_path / "link.c").symlink_to(tmp_path / "a.c")
        frag = CloneFragment(file, 1, 2, None)
        assert resolve_one(frag, tmp_path) == "aa\nbb"

    @pytest.mark.parametrize("folder", ["", "sub/"])
    def test_symlink_beside_cached_file_rejected(self, tmp_path, folder):
        """A symlink out of the root is caught even after its directory was
        resolved, and found inside the root, for an earlier fragment."""
        root = tmp_path / "src"
        (root / "sub").mkdir(parents=True)
        (tmp_path / "outside.c").write_text("secret\nsecret\n", encoding="utf-8")
        (root / folder / "inside.c").write_text("aa\nbb\n", encoding="utf-8")
        (root / folder / "link.c").symlink_to(tmp_path / "outside.c")
        inside = {"file": folder + "inside.c", "start_line": 1, "end_line": 2}
        link = {"file": folder + "link.c", "start_line": 1, "end_line": 2}
        report = {"version": "v1", "groups": [
            {"index": 0, "fragments": [inside, inside]},
            {"index": 1, "fragments": [inside, link]},
        ]}
        cached = snapshot_from_dict({"version": "v1", "groups": report["groups"][:1]})
        assert resolve_snapshot(cached, root).groups[0].fragments[1].text == "aa\nbb"
        with pytest.raises(ValidationError, match="outside the source root"):
            resolve_snapshot(snapshot_from_dict(report), root)

    @pytest.mark.parametrize("file", ["a\x00b.c", "a\ud800.c", "sub\x00/a.c",
                                      "sub\ud800/a.c"])
    def test_unencodable_file_name_is_validation_error(self, tmp_path, file):
        (tmp_path / "a.c").write_text("aa\nbb\n", encoding="utf-8")
        report = {"version": "v1", "groups": [{"index": 0, "fragments": [
            {"file": "a.c", "start_line": 1, "end_line": 2},
            {"file": file, "start_line": 1, "end_line": 2},
        ]}]}
        snap = snapshot_from_dict(report)
        with pytest.raises(ValidationError, match="not a valid path"):
            resolve_snapshot(snap, tmp_path)

    def test_report_carried_text_kept(self):
        snap = snapshot_from_dict(make_report(with_text=True))
        resolved = resolve_snapshot(snap, None)
        assert resolved.groups[0].fragments[0].text.startswith("int x0")

    def test_unresolved_without_root_is_an_error(self):
        doc = make_report(with_text=True)
        del doc["groups"][1]["fragments"][1]["text"]
        snap = snapshot_from_dict(doc)
        with pytest.raises(ValidationError, match=r"^version 'v1', group 1: "
                           r"no source root to resolve 'g1_1\.c'$"):
            resolve_snapshot(snap, None)

    def test_concatenated_text_joins_fragments(self):
        snap = snapshot_from_dict(make_report(with_text=True))
        text = next(texts(snap, None))
        assert text.count("int x0") == 2
        assert "\n" in text


class TestReadCalls:
    """Reading a regular file whose size does not change takes one
    ``os.open``, ``os.fstat``, ``os.read`` and ``os.close`` call, once per
    version, however many fragments and names lead to it. (A symlinked
    name adds one ``os.open`` that refuses it.)"""

    SIZES = {"a.c": 150, "sub/b.c": 65535, "sub/c.c": 65536, "d.c": 65537,
             "e.c": 200003}
    ALIASES = {"a.c": "./a.c", "sub/b.c": "sub/../sub/b.c",
               "sub/c.c": "sub/./c.c", "d.c": "sub/../d.c", "e.c": "./e.c"}

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = Counter()

        def counting(name):
            real = getattr(os, name)

            def counted(*args, **kwargs):
                counts[name] += 1
                return real(*args, **kwargs)
            return counted

        for name in ("open", "fstat", "read", "close"):
            monkeypatch.setattr(os, name, counting(name))
        return counts

    def test_one_call_of_each_per_file(self, tmp_path, calls):
        (tmp_path / "sub").mkdir()
        groups = []
        for name, size in self.SIZES.items():
            content = bytearray(b"x" * size)
            content[99::100] = b"\n" * (size // 100)
            (tmp_path / name).write_bytes(content)
            n_lines = size // 100 + 1
            groups += [[(name, 1, n_lines), (self.ALIASES[name], 1, 1)],
                       [(name, 1, 1), (self.ALIASES[name], 2, n_lines)]]
        snapshot = columns("v1", groups)
        n_files = len(self.SIZES)
        for _ in range(2):
            calls.clear()
            text = resolve_snapshot(snapshot, tmp_path).text
            assert calls == Counter(open=n_files, fstat=n_files,
                                    read=n_files, close=n_files)
        assert list(text) == [read_fragment_oracle(CloneFragment(*f, None),
                                                   tmp_path)
                              for group in groups for f in group]

    def test_empty_file_takes_one_read(self, tmp_path, calls):
        (tmp_path / "empty.c").write_bytes(b"")
        with pytest.raises(FragmentRangeError, match="exceed file length 0"):
            resolve_snapshot(columns("v1", [[("empty.c", 1, 1)] * 2]), tmp_path)
        assert calls == Counter(open=1, fstat=1, read=1, close=1)


class TestResolveByFile:
    """``resolve_snapshot`` reads each file once per version, however many
    fragments and names lead to it, and gives every fragment the text that
    ``read_fragment_oracle`` reads for it alone."""

    FILES = {
        "a.c": b"a1\na2\na3\na4\n\n",
        "sub/crlf.c": b"c1\r\nc2\rc3\r\nc4\r\n",
        "sub/bad.c": b"b1\xff\nb2\xe2\x82\nb3\xc3\n",
        "tail.c": b"t1\nt2\nt3",
        "blank.c": b"\n",
    }
    # Each file is named twice: plainly, and through "./", "sub/../" or a
    # symlink inside the root.
    ALIASES = {"a.c": "./a.c", "sub/crlf.c": "sub/./crlf.c",
               "sub/bad.c": "sub/../sub/bad.c", "tail.c": "link.c",
               "blank.c": "./blank.c"}

    @pytest.fixture
    def root(self, tmp_path):
        (tmp_path / "sub").mkdir()
        for name, content in self.FILES.items():
            (tmp_path / name).write_bytes(content)
        (tmp_path / "link.c").symlink_to(tmp_path / "tail.c")
        return tmp_path

    @pytest.fixture
    def opened(self, monkeypatch):
        """The paths that ``os.open`` opened, in order. An open that fails,
        such as a no-follow open refusing a symlink, is not counted."""
        paths = []
        os_open = os.open

        def counting_open(path, *args, **kwargs):
            fd = os_open(path, *args, **kwargs)
            paths.append(path)
            return fd

        monkeypatch.setattr(os, "open", counting_open)
        return paths

    def fragments(self):
        """Every line range of every file: whole-file, partial, overlapping
        and nested ranges, under both names of the file."""
        frags = []
        for name, content in self.FILES.items():
            lines = _normalize_newlines(
                content.decode("utf-8", "replace")).split("\n")
            n_lines = len(lines) - (lines[-1] == "")
            for start in range(1, n_lines + 1):
                for end in range(start, n_lines + 1):
                    for file in (name, self.ALIASES[name]):
                        frags.append(CloneFragment(file, start, end, None))
        return frags

    def snapshot(self, frags, version="v1"):
        # Pairs of fragments as groups, so each file is named from
        # several groups.
        return columns(version, [
            [(f.file, f.start_line, f.end_line) for f in frags[2 * k : 2 * k + 2]]
            for k in range(len(frags) // 2)])

    def test_every_fragment_matches_the_oracle(self, root, opened):
        frags = self.fragments()
        expected = [read_fragment_oracle(f, root) for f in frags]
        for version, order in (("v1", frags), ("v2", frags[::-1])):
            opened.clear()
            resolved = resolve_snapshot(self.snapshot(order, version), root)
            got = [f.text for g in resolved.groups for f in g.fragments]
            want = expected if order is frags else expected[::-1]
            assert got == want
            real = {os.path.realpath(root / name) for name in self.FILES}
            assert sorted(opened) == sorted(real)

    def test_texts_join_what_the_oracle_reads(self, root):
        """``pipeline.texts`` gives each group the newline-join of what
        ``read_fragment_oracle`` reads for its fragments, in group order."""
        frags = self.fragments()
        want = ["\n".join(read_fragment_oracle(f, root)
                          for f in frags[2 * k : 2 * k + 2])
                for k in range(len(frags) // 2)]
        assert list(texts(self.snapshot(frags), root)) == want

    def test_each_file_name_is_resolved_once_per_version(self, root,
                                                          monkeypatch):
        """A repeated ``file`` string reuses its file: no second split,
        containment check or symlink check. Each version starts afresh."""
        resolved = []
        contained_file = ingest._SourceTree._contained_file

        def counting(tree, file):
            resolved.append(file)
            return contained_file(tree, file)

        monkeypatch.setattr(ingest._SourceTree, "_contained_file", counting)
        frags = self.fragments()
        names = {f.file for f in frags}
        assert len(frags) > 2 * len(names)
        for version in ("v1", "v2"):
            resolved.clear()
            resolve_snapshot(self.snapshot(frags, version), root)
            assert sorted(resolved) == sorted(names)

    def test_whole_file_fragment_shares_the_file_text(self, root):
        frags = [CloneFragment("tail.c", 1, 3, None),
                 CloneFragment("link.c", 1, 3, None)]
        resolved = resolve_snapshot(self.snapshot(frags), root)
        first, second = resolved.groups[0].fragments
        assert first.text == "t1\nt2\nt3"
        assert first.text is second.text

    def test_range_past_a_read_file_is_a_range_error(self, root, opened):
        frags = [CloneFragment("a.c", 1, 5, None),
                 CloneFragment("./a.c", 2, 6, None)]
        with pytest.raises(FragmentRangeError) as alone:
            resolve_one(frags[1], root)
        opened.clear()
        with pytest.raises(FragmentRangeError) as shared:
            resolve_snapshot(self.snapshot(frags), root)
        assert str(shared.value) == str(alone.value)
        assert opened == [os.path.realpath(root / "a.c")]

    def test_empty_file_has_no_lines(self, tmp_path):
        (tmp_path / "empty.c").write_bytes(b"")
        frags = [CloneFragment("empty.c", 1, 1, None)] * 2
        with pytest.raises(FragmentRangeError, match="exceed file length 0"):
            resolve_snapshot(self.snapshot(frags), tmp_path)


    def far_apart(self):
        """Every range of every file under both names, in pairs, in four
        runs that share no name, the last of them ending in a pair that
        names ``tail.c`` again, far from its first groups. Then three
        groups that share no name: inline texts that no file backs,
        ``a.c`` and ``tail.c`` by names no other group uses, and 40 lines
        of inline text."""
        frags = self.fragments()
        groups = [[(f.file, f.start_line, f.end_line) for f in frags[k : k + 2]]
                  for k in range(0, len(frags), 2)]
        groups += [[("tail.c", 2, 3), ("blank.c", 1, 1)],
                   [("inline.c", 1, 2, "x\r\ny"), ("inline.c", 3, 3, "z")],
                   [("sub/../a.c", 2, 3), ("./link.c", 1, 3)],
                   [("big.c", 1, 20, "w\n" * 19 + "w"),
                    ("big.c", 1, 20, "v\n" * 19 + "v")]]
        return columns("v1", groups)

    def test_texts_read_alike_at_every_budget(self, root, opened, monkeypatch):
        """``pipeline.texts`` reads the same texts at every part budget
        from one line to the whole version, and resolves, so opens, each
        ``file`` string once per version."""
        snapshot = self.far_apart()
        whole = resolve_snapshot(snapshot, root)
        want = ["\n".join(whole.text[lo:hi])
                for lo, hi in zip(whole.bounds, whole.bounds[1:])]
        names = {file for file, inline in zip(snapshot.files, snapshot.text)
                 if inline is None}
        contained = []
        contained_file = ingest._SourceTree._contained_file

        def counting(tree, file):
            contained.append(file)
            return contained_file(tree, file)

        monkeypatch.setattr(ingest._SourceTree, "_contained_file", counting)
        total = sum(snapshot.ends) - sum(snapshot.starts) + len(snapshot.ends)
        counts = set()
        for budget in range(1, total + 1):
            monkeypatch.setattr(ingest, "_PART_LINES", budget)
            contained.clear()
            opened.clear()
            assert list(texts(snapshot, root)) == want
            # Each file string is resolved, and so opened, once.
            assert sorted(contained) == sorted(names)
            assert len(opened) <= len(names)
            counts.add(len(list(ingest.snapshot_parts(snapshot, root))))
        assert min(counts) == 1 and max(counts) == 7


def parts_oracle(groups, budget):
    """The groups of each part ``snapshot_parts`` cuts, by the rule as
    stated: after each group, see whether any file named so far is named
    again later; where none is, a run of groups ends, and runs join a
    part while the part spans at most ``budget`` lines."""
    runs, run = [], []
    for g in range(len(groups)):
        run.append(g)
        before = {f[0] for group in groups[: g + 1] for f in group}
        if not before & {f[0] for group in groups[g + 1 :] for f in group}:
            runs.append(run)
            run = []
    parts = []
    for run in runs:
        joined = (parts[-1] if parts else []) + run
        if parts and sum(e - s + 1 for g in joined
                         for _, s, e in groups[g]) <= budget:
            parts[-1] = joined
        else:
            parts.append(run)
    return parts or [[]]


class TestParts:
    """``snapshot_parts`` cuts a version into runs of whole groups of at
    most ``_PART_LINES`` lines, never between two fragments that name one
    ``file`` string, and ``texts`` reads through the parts exactly the
    text it reads in one."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(groups=st.lists(st.lists(st.tuples(
               st.sampled_from(["a.c", "b.c", "./a.c", "d/c.c", "e.c"]),
               st.integers(1, 4), st.integers(0, 6)).map(
                   lambda f: (f[0], f[1], f[1] + f[2])),
               min_size=2, max_size=3), max_size=8),
           budget=st.integers(1, 60))
    def test_parts_follow_the_rule(self, groups, budget):
        snapshot = columns("v1", groups)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ingest, "_PART_LINES", budget)
            parts = list(ingest.snapshot_parts(snapshot, "/"))
        sizes = [len(part.bounds) - 1 for part in parts]
        picks = list(accumulate(sizes, initial=0))
        assert [list(range(lo, hi)) for lo, hi in zip(picks, picks[1:])] == (
            parts_oracle(groups, budget))
        for part, first, last in zip(parts, picks, picks[1:]):
            lo, hi = snapshot.bounds[first], snapshot.bounds[last]
            assert part.version_id == "v1"
            assert part.bounds == tuple(b - lo for b in
                                        snapshot.bounds[first : last + 1])
            for name in ("files", "starts", "ends", "text"):
                assert getattr(part, name) == getattr(snapshot, name)[lo:hi]

    def test_without_a_root_the_version_is_one_part(self, monkeypatch):
        """Every text is then inline, and a missing one is named by its
        group within the version."""
        monkeypatch.setattr(ingest, "_PART_LINES", 1)
        doc = make_report(n_groups=4)
        snapshot = snapshot_from_dict(doc)
        assert list(ingest.snapshot_parts(snapshot, None)) == [snapshot]
        assert len(list(ingest.snapshot_parts(snapshot, "/"))) == 4
        del doc["groups"][3]["fragments"][1]["text"]
        with pytest.raises(ValidationError, match=r"^version 'v1', group 3: "
                           r"no source root to resolve 'g3_1\.c'$"):
            list(texts(snapshot_from_dict(doc), None))

    def test_zero_groups_are_one_empty_part(self, tmp_path, monkeypatch):
        monkeypatch.setattr(ingest, "_PART_LINES", 1)
        snapshot = columns("v1", [])
        parts = list(ingest.snapshot_parts(snapshot, tmp_path))
        assert [(p.files, p.bounds) for p in parts] == [((), (0,))]
        assert list(texts(snapshot, tmp_path)) == []
