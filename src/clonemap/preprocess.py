"""Turn clone-group source text into filtered bag-of-words documents.

Filtering removes four categories of noise: comments, language keywords,
programming boilerplate words, and English stop words. Word lists ship as
plain-text package data and can be overridden per run.
"""

from __future__ import annotations

import os
import re
import string
import warnings
from collections import Counter
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path

from .errors import CloneMapWarning, read_utf8
from .ingest import CloneGroup

WORDLIST_DIR_ENV = "CLONEMAP_WORDLIST_DIR"

# Words are runs of [A-Za-z0-9_]. This table turns every other byte into a
# space; the UTF-8 bytes of any non-ASCII character (a lone surrogate too,
# under "surrogatepass") are all >= 0x80, so they split words exactly as a
# non-word ASCII character does.
_NON_WORD_TO_SPACE = bytes(
    b if chr(b) in string.ascii_letters + string.digits + "_" else 0x20
    for b in range(256)
)
# Kept words are lowercased and at least this long.
_MIN_TOKEN_LENGTH = 2
# One pass over comments and literals, leftmost match first: a line comment,
# a block comment (``open`` captures an unterminated one), then a string or
# character literal whose backslash escapes any next character.
_STRIP_RE = re.compile(
    r"//[^\n]*"
    r"|/\*(?:[\s\S]*?\*/|(?P<open>[\s\S]*))"
    r'|"[^"\\\n]*(?:\\[\s\S]?[^"\\\n]*)*"?'
    r"|'[^'\\\n]*(?:\\[\s\S]?[^'\\\n]*)*'?"
)


@dataclass(frozen=True)
class FilterConfig:
    """Token filtering rules: three removal word sets.

    The word sets are stored lowercased and mutually disjoint; removal is
    case-insensitive.
    """

    language_keywords: frozenset[str]
    programming_words: frozenset[str]
    english_stopwords: frozenset[str]

    @classmethod
    def build(cls, language_keywords, programming_words,
              english_stopwords) -> "FilterConfig":
        """Lowercase the three word sets and make them disjoint.

        Overlaps are kept in the earlier set (keywords win over programming
        words, which win over stop words) and dropped from the later one,
        with a warning naming the duplicates.
        """
        keywords = frozenset(w.lower() for w in language_keywords)
        progwords = set(w.lower() for w in programming_words)
        stopwords = set(w.lower() for w in english_stopwords)

        dropped = sorted(progwords & keywords) + sorted(stopwords & (keywords | progwords))
        if dropped:
            warnings.warn(
                "overlapping filter words kept in one set only: " + ", ".join(dropped),
                CloneMapWarning,
            )
        progwords -= keywords
        stopwords -= keywords | progwords
        return cls(
            language_keywords=keywords,
            programming_words=frozenset(progwords),
            english_stopwords=frozenset(stopwords),
        )

    def removes(self, word: str) -> bool:
        lowered = word.lower()
        return (
            lowered in self.language_keywords
            or lowered in self.programming_words
            or lowered in self.english_stopwords
        )


@dataclass(frozen=True)
class TokenDocument:
    """Ordered multiset of filtered words for one clone group."""

    group_ref: tuple[str, int] | None
    tokens: tuple[str, ...]

    @property
    def token_count(self) -> int:
        return len(self.tokens)

    def counts(self) -> Counter:
        return Counter(self.tokens)

    @classmethod
    def from_counts(cls, counts, group_ref=None) -> "TokenDocument":
        """Expand a word -> count mapping into a document (insertion order)."""
        tokens = []
        for word, count in counts.items():
            tokens.extend([word] * count)
        return cls(group_ref=group_ref, tokens=tuple(tokens))


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
    env_dir = os.environ.get(WORDLIST_DIR_ENV)
    if env_dir:
        candidate = Path(env_dir) / name
        if candidate.exists():
            return load_word_list(candidate)
    return _packaged_list(name)


def default_filter_config(language: str = "union",
                          keywords_path: Path | str | None = None,
                          progwords_path: Path | str | None = None,
                          stopwords_path: Path | str | None = None,
                          ) -> FilterConfig:
    """Load the shipped word lists for ``language`` ("c", "java", or anything
    else for the union of both), honoring explicit path overrides first and
    the CLONEMAP_WORDLIST_DIR directory second."""
    if keywords_path is not None:
        keywords = load_word_list(keywords_path)
    elif language == "c":
        keywords = _resolve_list("keywords_c.txt", None)
    elif language == "java":
        keywords = _resolve_list("keywords_java.txt", None)
    else:
        keywords = _resolve_list("keywords_c.txt", None) | _resolve_list("keywords_java.txt", None)
    progwords = _resolve_list("progwords.txt", progwords_path)
    stopwords = _resolve_list("stopwords.txt", stopwords_path)
    return FilterConfig.build(keywords, progwords, stopwords)


def _blank(match: re.Match) -> str:
    if match.group("open") is not None:
        warnings.warn(
            "unterminated block comment; stripped to end of input",
            CloneMapWarning,
        )
    return " "


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
    """
    # A block comment runs unterminated only when no "*/" follows its
    # opener, and then none follows the last "/*" either. Where one does,
    # no match can warn, so none needs the callback.
    opened = text.rfind("/*")
    if opened < 0 or text.find("*/", opened + 2) >= 0:
        return _STRIP_RE.sub(" ", text)
    return _STRIP_RE.sub(_blank, text)


def _kept_word(raw: str, config: FilterConfig) -> str:
    """``raw`` lowercased, or "" when the filter drops it."""
    word = raw.lower()
    if (len(word) < _MIN_TOKEN_LENGTH or word[0].isdigit()
            or config.removes(word)):
        return ""
    return word


def tokenize(text: str, config: FilterConfig) -> TokenDocument:
    """Split on non-identifier characters, lowercase, and apply the
    removal rules.

    Tokens shorter than two characters, tokens starting with a digit
    (numeric literals), and tokens in any removal set are dropped.
    Assumes comments are already stripped. Each distinct raw token is
    filtered once per call; repeats reuse it.
    """
    raws = text.encode("utf-8", "surrogatepass").translate(_NON_WORD_TO_SPACE).split()
    kept = {raw: _kept_word(raw.decode("ascii"), config) for raw in set(raws)}
    return TokenDocument(group_ref=None,
                         tokens=tuple(filter(None, map(kept.__getitem__, raws))))


def build_group_document(group: CloneGroup, config: FilterConfig,
                         version_id: str | None = None) -> TokenDocument:
    """Concatenate the group's fragment texts, strip comments, tokenize."""
    text = group.concatenated_text()
    doc = tokenize(strip_comments(text), config)
    return replace(doc, group_ref=(version_id, group.index))
