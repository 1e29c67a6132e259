"""Exception and warning types shared across the toolchain, the type
checks that config fields and data types use, the position prefix that
readers of outside input put before a data type's ValidationError, the
strict UTF-8 read of every outside input file that must decode exactly,
and the one JSON decoder and shape rule of every input document: a
report, a ground truth and a mapping artifact."""

import errno
import json
import os
import stat
from numbers import Real
from operator import itemgetter


def is_json_int(value) -> bool:
    """A JSON integer; ``true``/``false`` parse as bools, which are not."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_number(value) -> bool:
    """A real number, NaN and infinities included, that is not a bool."""
    return isinstance(value, Real) and not isinstance(value, bool)


def read_utf8(path) -> str:
    """The text of a UTF-8 file or pipe, with universal newlines and
    without a leading byte-order mark (RFC 8259 lets a JSON parser ignore
    one); ValidationError if its bytes are not UTF-8, so a malformed input
    exits like any other. A character or block device, which may never end
    (``/dev/zero``), is not read: OSError naming ``path``."""
    try:
        with open(path, encoding="utf-8") as handle:
            mode = os.fstat(handle.fileno()).st_mode
            if stat.S_ISCHR(mode) or stat.S_ISBLK(mode):
                raise OSError(errno.EINVAL, "Is a device, not a file",
                              os.fspath(path))
            # Dropped after decoding, so an error's byte offset counts
            # the mark (the utf-8-sig codec counts from after it).
            return handle.read().removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise ValidationError(
            f"{path}: not valid UTF-8 ({exc.reason} at byte {exc.start})"
        ) from None


def json_document(text: str, path):
    """The JSON value ``text``, read from ``path``, holds. ReportParseError
    naming ``path`` when it is not JSON, or is JSON that Python cannot
    hold: nested deeper than the decoder's recursion limit, or holding an
    integer with more digits than ``int`` converts."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        reason = f" at line {exc.lineno} column {exc.colno}: {exc.msg}"
    except RecursionError:
        reason = ": nested too deep"
    except ValueError:  # the interpreter's integer digit limit
        reason = ": an integer is too long"
    raise ReportParseError(f"{path}: malformed JSON{reason}") from None


def _fields(doc, where: str, keys: tuple, error):
    """``doc[k]`` for each of ``keys``, two or more, as a tuple; ``error``
    naming ``where`` unless ``doc`` is an object holding every key."""
    if isinstance(doc, dict):
        try:
            return itemgetter(*keys)(doc)
        except KeyError:
            pass
    *head, last = map(repr, keys)
    raise error(f"{where} must be a JSON object with {', '.join(head)} "
                f"and {last} keys")


def _items(value, where: str, error) -> list:
    """``value`` if it is a JSON array; ``error`` naming ``where`` if not."""
    if isinstance(value, list):
        return value
    raise error(f"{where} must be a list")


def _at(where: str, make, *args):
    """``make(*args)``; a ValidationError it raises is raised again with
    ``where``, the value's position in the input, before its message."""
    try:
        return make(*args)
    except ValidationError as exc:
        raise ValidationError(f"{where}: {exc}") from None


class CloneMapError(Exception):
    """Base class for all errors raised by this package."""


class ReportParseError(CloneMapError):
    """An input document is malformed: a clone report that is not JSON or
    XML or has the wrong shape, or a ground truth or mapping artifact that
    is not JSON."""


class ValidationError(CloneMapError):
    """A well-formed input violates a schema or domain invariant."""


class FragmentRangeError(CloneMapError):
    """A fragment's line range does not fit inside its source file."""


class ConfigError(CloneMapError):
    """A configuration value is out of its legal range or infeasible."""


class CoverageError(CloneMapError):
    """A mapping refers to a newer group the ground truth does not cover,
    or has no row for one that it does."""


class CloneMapWarning(UserWarning):
    """Data-quality warning (never fatal): unterminated comments, filtered
    groups, and similar conditions."""
