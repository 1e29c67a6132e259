"""Turn clone-group source text into filtered bag-of-words documents.

Filtering removes four categories of noise: comments, language keywords,
programming boilerplate words, and English stop words. Word lists ship as
plain-text package data and can be overridden per run; the three lists act
as one removal set.
"""

from __future__ import annotations

import re
import warnings
from collections import Counter
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .errors import CloneMapWarning, read_utf8

# Words are runs of [A-Za-z0-9_]. This table turns every other byte into a
# space; the UTF-8 bytes of any non-ASCII character (a lone surrogate too,
# under "surrogatepass") are all >= 0x80, so they split words exactly as a
# non-word ASCII character does.
_NON_WORD_TO_SPACE = bytes(
    b if b in b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_"
    else 0x20
    for b in range(256)
)
# Kept words are lowercased and at least this long.
_MIN_TOKEN_LENGTH = 2
# Stripping runs over the UTF-8 bytes of the text with the byte 0xFF put
# before every "/", '"' and "'". UTF-8 never emits 0xFF, so each one is a
# sentinel, and every branch below begins with it: the regex engine then
# finds each match start by searching for one literal byte, instead of
# testing every character against a set of three openers. One pass, leftmost
# match first: a line comment, a block comment (``open`` captures an
# unterminated one), then a string or character literal whose backslash
# escapes any next character, where a sentinel and the quote or slash after
# it count as one. A literal's body takes the sentinels inside it and ends
# at the closing quote byte. The block comment is an unrolled loop:
# non-stars, a run of stars, and again while the run is not followed by
# "\xff/". It ends at the first "*\xff/" without backtracking (Friedl,
# "Mastering Regular Expressions", ch. 6). Every branch must keep the
# sentinel first; a test checks it.
_STRIP_BRANCHES = (
    rb"\xff/\xff/[^\n]*",
    rb"\xff/\*[^*]*\*+(?:(?:[^\xff*]|\xff[^/])[^*]*\*+)*\xff/",
    rb"\xff/\*(?P<open>[\s\S]*)",
    rb'\xff"[^"\\\n]*(?:\\(?:\xff?[\s\S])?[^"\\\n]*)*"?',
    rb"\xff'[^'\\\n]*(?:\\(?:\xff?[\s\S])?[^'\\\n]*)*'?",
)
_STRIP_RE = re.compile(b"|".join(_STRIP_BRANCHES))


@dataclass(frozen=True)
class FilterConfig:
    """Token filtering rules: one set of words to remove, stored lowercased;
    removal is case-insensitive."""

    words: frozenset[str]

    def __post_init__(self):
        words = frozenset(w.lower() for w in self.words)
        object.__setattr__(self, "words", words)
        # Derived from ``words``, so not a field: equality, hashing and
        # ``replace`` see only the words, and a new config gets a new memo.
        object.__setattr__(self, "_kept", _KeptWords(words))

    def removes(self, word: str) -> bool:
        return word.lower() in self.words


@dataclass(frozen=True)
class TokenDocument:
    """Ordered multiset of filtered words for one clone group; it may be
    empty, and every topic stage gives an empty document an empty row."""

    tokens: tuple[str, ...]

    @property
    def token_count(self) -> int:
        return len(self.tokens)

    def counts(self) -> Counter:
        return Counter(self.tokens)


def _parse_word_list(text: str) -> frozenset[str]:
    """One word per line, lowercased; blank lines and '#' comments are ignored."""
    words = set()
    for line in text.splitlines():
        entry = line.split("#", 1)[0].strip()
        if entry:
            words.add(entry.lower())
    return frozenset(words)


def load_word_list(path: Path | str) -> frozenset[str]:
    """One word per line; blank lines and '#' comments are ignored."""
    return _parse_word_list(read_utf8(path))


def _packaged_list(name: str) -> frozenset[str]:
    return _parse_word_list(
        resources.files("clonemap").joinpath("data", name).read_text(encoding="utf-8")
    )


def _resolve_list(name: str, override: Path | str | None) -> frozenset[str]:
    if override is not None:
        return load_word_list(override)
    return _packaged_list(name)


def default_filter_config(language: str = "union",
                          keywords_path: Path | str | None = None,
                          progwords_path: Path | str | None = None,
                          stopwords_path: Path | str | None = None,
                          ) -> FilterConfig:
    """The union of three word lists: the keywords for ``language`` ("c",
    "java", or anything else for both), the programming words and the
    stop words. A path given for a list replaces the packaged one."""
    if keywords_path is not None:
        keywords = load_word_list(keywords_path)
    elif language in ("c", "java"):
        keywords = _packaged_list(f"keywords_{language}.txt")
    else:
        keywords = _packaged_list("keywords_c.txt") | _packaged_list("keywords_java.txt")
    return FilterConfig(keywords
                        | _resolve_list("progwords.txt", progwords_path)
                        | _resolve_list("stopwords.txt", stopwords_path))


def _blank(match: re.Match) -> bytes:
    if match.group("open") is not None:
        warnings.warn(
            "unterminated block comment; stripped to end of input",
            CloneMapWarning,
        )
    return b" "


def strip_comments(text: str) -> str:
    """Remove C-style comments and string/char literal contents.

    ``//`` and ``/* */`` regions each become a single space. Comment markers
    inside string or character literals never start a comment; the literals
    themselves (quotes and contents) also collapse to a single space, since
    literal prose is not code structure. A backslash inside a literal escapes
    the next character, a newline included; an unterminated literal stops
    before the end of its line so the rest of the input is not swallowed.
    An unterminated block comment is stripped to end of input with a
    warning. Line structure outside comments is preserved.

    The pass runs over the text's UTF-8 bytes (lone surrogates passed
    through) with a 0xFF sentinel before every "/", '"' and "'"; the
    sentinels left outside the stripped regions are deleted before
    decoding, so the rest of the text comes back exactly.
    """
    data = (text.encode("utf-8", "surrogatepass")
            .replace(b"/", b"\xff/").replace(b'"', b'\xff"').replace(b"'", b"\xff'"))
    # A block comment runs unterminated only when no "*/" follows its
    # opener, and then none follows the last "/*" either. Where one does,
    # no match can warn, so none needs the callback.
    opened = data.rfind(b"\xff/*")
    if opened < 0 or data.find(b"*\xff/", opened + 3) >= 0:
        blank = b" "
    else:
        blank = _blank
    return (_STRIP_RE.sub(blank, data).replace(b"\xff", b"")
            .decode("utf-8", "surrogatepass"))


def _kept_word(raw: str, words: frozenset[str]) -> str:
    """``raw`` lowercased, or "" when the filter drops it."""
    word = raw.lower()
    if (len(word) < _MIN_TOKEN_LENGTH or word[0].isdigit()
            or word in words):
        return ""
    return word


class _KeptWords(dict):
    """A filter's decisions: raw word (ASCII bytes) -> ``_kept_word`` of
    it, made on the first lookup and kept for the life of the filter."""

    __slots__ = ("words",)

    def __init__(self, words: frozenset[str]):
        super().__init__()
        self.words = words

    def __missing__(self, raw: bytes) -> str:
        kept = self[raw] = _kept_word(raw.decode("ascii"), self.words)
        return kept


def tokenize(text: str, config: FilterConfig) -> TokenDocument:
    """Split on non-identifier characters, lowercase, and apply the
    removal rules.

    Tokens shorter than two characters, tokens starting with a digit
    (numeric literals), and tokens in the removal set are dropped.
    Assumes comments are already stripped. Each distinct raw token is
    filtered once per ``FilterConfig``, across calls; repeats reuse it.
    """
    raws = text.encode("utf-8", "surrogatepass").translate(_NON_WORD_TO_SPACE).split()
    tokens = tuple(filter(None, map(config._kept.__getitem__, raws)))
    return TokenDocument(tokens)


def build_group_document(text: str, config: FilterConfig) -> TokenDocument:
    """Strip comments from a group's concatenated fragment text, then
    tokenize it. The document's position in its version's list names the
    group."""
    return tokenize(strip_comments(text), config)
