"""Clone report parsing: native JSON, the XML adapter, and text resolution."""

import json

import pytest

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


class TestTextResolution:
    def test_inclusive_line_range(self, tmp_path):
        (tmp_path / "a.c").write_text("l1\nl2\nl3\nl4\n", encoding="utf-8")
        frag = CloneFragment(file="a.c", start_line=2, end_line=3)
        assert resolve_fragment_text(frag, tmp_path) == "l2\nl3"

    def test_crlf_normalized(self, tmp_path):
        (tmp_path / "a.c").write_bytes(b"l1\r\nl2\r\nl3\r\n")
        frag = CloneFragment(file="a.c", start_line=1, end_line=3)
        assert resolve_fragment_text(frag, tmp_path) == "l1\nl2\nl3"

    def test_range_past_end_of_file(self, tmp_path):
        (tmp_path / "a.c").write_text("l1\nl2\n", encoding="utf-8")
        frag = CloneFragment(file="a.c", start_line=1, end_line=9)
        with pytest.raises(FragmentRangeError):
            resolve_fragment_text(frag, tmp_path)

    def test_resolve_snapshot_fills_missing_text(self, tmp_path):
        for k in range(2):
            for m in range(2):
                (tmp_path / f"g{k}_{m}.c").write_text("aa\nbb\n", encoding="utf-8")
        snap = snapshot_from_dict(make_report(with_text=False),
                                  source_root=tmp_path)
        resolved = resolve_snapshot(snap)
        assert all(g.resolved for g in resolved.groups)
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
        snap = snapshot_from_dict(report, source_root=root)
        with pytest.raises(ValidationError, match="outside the source root"):
            resolve_snapshot(snap)
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
