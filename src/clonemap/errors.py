"""Exception and warning types shared across the toolchain, plus the JSON
integer check every reader of outside JSON uses and the strict UTF-8 read
of every outside input file that must decode exactly."""

from pathlib import Path


def is_json_int(value) -> bool:
    """A JSON integer; ``true``/``false`` parse as bools, which are not."""
    return isinstance(value, int) and not isinstance(value, bool)


def read_utf8(path) -> str:
    """The text of a UTF-8 file; ValidationError if its bytes are not
    UTF-8, so a malformed input exits like any other."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValidationError(
            f"{path}: not valid UTF-8 ({exc.reason} at byte {exc.start})"
        ) from None


class CloneMapError(Exception):
    """Base class for all errors raised by this package."""


class ReportParseError(CloneMapError):
    """A clone report document is malformed (bad JSON/XML, wrong element shape)."""


class ValidationError(CloneMapError):
    """A well-formed input violates a schema or domain invariant."""


class FragmentRangeError(CloneMapError):
    """A fragment's line range does not fit inside its source file."""


class ConfigError(CloneMapError):
    """A configuration value is out of its legal range or infeasible."""


class EmptyDocumentError(CloneMapError):
    """A clone group's token document is empty, so no topic can be fit.

    Carries the offending ``group_ref`` (version id, group index).
    """

    def __init__(self, group_ref):
        self.group_ref = group_ref
        super().__init__(f"empty topic document for group {group_ref}")


class CoverageError(CloneMapError):
    """A mapping refers to a newer group the ground truth does not cover."""


class CloneMapWarning(UserWarning):
    """Data-quality warning (never fatal): unterminated comments, filtered
    groups, overlapping word lists, and similar conditions."""
