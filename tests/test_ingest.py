"""Clone report parsing: native JSON, the XML adapter, and text resolution."""

import json
import os
import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from clonemap.errors import (
    FragmentRangeError,
    ReportParseError,
    ValidationError,
)
from clonemap.ingest import (
    CloneFragment,
    CloneGroup,
    VersionSnapshot,
    parse_clone_report,
    resolve_fragment_text,
    resolve_snapshot,
    snapshot_from_dict,
    snapshot_to_dict,
)


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
    lines = _normalize_newlines(raw).split("\n")
    # A trailing newline yields one empty trailing element, not a real line.
    if lines and lines[-1] == "":
        lines = lines[:-1]
    if fragment.end_line > len(lines):
        raise FragmentRangeError(
            f"{fragment.file}: lines {fragment.start_line}..{fragment.end_line} "
            f"exceed file length {len(lines)}"
        )
    return "\n".join(lines[fragment.start_line - 1 : fragment.end_line])


def assert_every_range_matches_oracle(root, content: bytes):
    (root / "a.c").write_bytes(content)
    n_lines = len(_normalize_newlines(
        content.decode("utf-8", errors="replace")).split("\n"))
    for start in range(1, n_lines + 1):
        for end in range(start, n_lines + 1):
            frag = CloneFragment(file="a.c", start_line=start, end_line=end)
            try:
                expected = read_fragment_oracle(frag, root)
            except FragmentRangeError:
                with pytest.raises(FragmentRangeError):
                    resolve_fragment_text(frag, root)
            else:
                assert resolve_fragment_text(frag, root) == expected


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


class TestFragmentAndGroupInvariants:
    def test_line_range_must_be_ordered(self):
        with pytest.raises(ValidationError):
            CloneFragment(file="a.c", start_line=5, end_line=3)

    def test_line_numbers_start_at_one(self):
        with pytest.raises(ValidationError):
            CloneFragment(file="a.c", start_line=0, end_line=3)

    def test_group_needs_two_fragments(self):
        frag = CloneFragment(file="a.c", start_line=1, end_line=2)
        with pytest.raises(ValidationError):
            CloneGroup(index=0, fragments=(frag,))

    def test_group_indices_must_be_dense(self):
        frag = CloneFragment(file="a.c", start_line=1, end_line=2)
        group = CloneGroup(index=3, fragments=(frag, frag))
        with pytest.raises(ValidationError):
            VersionSnapshot(version_id="v1", groups=(group,))

    def test_duplicate_group_indices_rejected(self):
        frag = CloneFragment(file="a.c", start_line=1, end_line=2)
        g = CloneGroup(index=0, fragments=(frag, frag))
        with pytest.raises(ValidationError):
            VersionSnapshot(version_id="v1", groups=(g, g))


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

    def test_single_fragment_group_rejected_with_index(self):
        doc = make_report()
        doc["groups"][1]["fragments"] = doc["groups"][1]["fragments"][:1]
        with pytest.raises(ValidationError, match="1"):
            snapshot_from_dict(doc)

    @pytest.mark.parametrize("field,value", [
        ("index", False), ("index", True),
        ("start_line", True), ("end_line", True),
    ])
    def test_json_boolean_is_not_an_integer(self, field, value):
        doc = make_report(n_groups=1)
        if field == "index":
            doc["groups"][0]["index"] = value
        else:
            doc["groups"][0]["fragments"][0][field] = value
        with pytest.raises(ReportParseError):
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

    def test_version_override(self, tmp_path):
        path = tmp_path / "r.xml"
        path.write_text(self.XML, encoding="utf-8")
        snap = parse_clone_report(path, version_id="2.0")
        assert snap.version_id == "2.0"

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


class TestTextResolution:
    def test_inclusive_line_range(self, tmp_path):
        (tmp_path / "a.c").write_text("l1\nl2\nl3\nl4\n", encoding="utf-8")
        frag = CloneFragment(file="a.c", start_line=2, end_line=3)
        assert resolve_fragment_text(frag, tmp_path) == "l2\nl3"

    def test_crlf_normalized(self, tmp_path):
        (tmp_path / "a.c").write_bytes(b"l1\r\nl2\r\nl3\r\n")
        frag = CloneFragment(file="a.c", start_line=1, end_line=3)
        assert resolve_fragment_text(frag, tmp_path) == "l1\nl2\nl3"

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
                                     b"\xff", b"\xe2\x82", b"\xc3\xa9"]),
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
        whole = resolve_fragment_text(
            CloneFragment(file="a.c", start_line=1, end_line=36), tmp_path)
        assert len(whole.splitlines()) == 36
        assert "€" in whole and "�" in whole and "\r" not in whole

    def test_range_past_end_of_file(self, tmp_path):
        (tmp_path / "a.c").write_text("l1\nl2\n", encoding="utf-8")
        frag = CloneFragment(file="a.c", start_line=1, end_line=9)
        with pytest.raises(FragmentRangeError):
            resolve_fragment_text(frag, tmp_path)

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
                                        "ABSOLUTE"])
    def test_fragment_outside_source_root_rejected(self, tmp_path, escape):
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
            resolve_fragment_text(snap.groups[0].fragments[1], root)

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
        frag = CloneFragment(file=file, start_line=1, end_line=2)
        with pytest.raises(ValidationError, match="outside the source root"):
            resolve_fragment_text(frag, root)

    @pytest.mark.parametrize("file", ["sub/../a.c", "./a.c", "link.c"])
    def test_path_within_source_root_allowed(self, tmp_path, file):
        (tmp_path / "sub").mkdir()
        (tmp_path / "a.c").write_text("aa\nbb\n", encoding="utf-8")
        (tmp_path / "link.c").symlink_to(tmp_path / "a.c")
        frag = CloneFragment(file=file, start_line=1, end_line=2)
        assert resolve_fragment_text(frag, tmp_path) == "aa\nbb"

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
        resolved = resolve_snapshot(snap)
        assert resolved.groups[0].fragments[0].text.startswith("int x0")

    def test_unresolved_without_root_is_an_error(self):
        snap = snapshot_from_dict(make_report(with_text=False))
        with pytest.raises(ValidationError):
            resolve_snapshot(snap)

    def test_concatenated_text_joins_fragments(self):
        snap = snapshot_from_dict(make_report(with_text=True))
        text = snap.groups[0].concatenated_text()
        assert text.count("int x0") == 2
        assert "\n" in text
