"""Comment stripping, tokenization, and the four-way word filtering."""

import re
import warnings
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import example, given, settings, strategies as st

from clonemap import preprocess
from clonemap.errors import CloneMapWarning
from clonemap.ingest import VersionSnapshot
from clonemap.pipeline import texts
from clonemap.preprocess import (
    FilterConfig,
    TokenDocument,
    build_group_document,
    default_filter_config,
    strip_comments,
    tokenize,
)


@pytest.fixture(scope="module")
def config():
    return default_filter_config(language="c")


def strip_comments_oracle(text: str) -> str:
    """Reference character-loop comment and literal stripper."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            out.append(" ")
            i += 2
            while i < n and text[i] != "\n":
                i += 1
        elif c == "/" and nxt == "*":
            out.append(" ")
            end = text.find("*/", i + 2)
            if end == -1:
                warnings.warn(
                    "unterminated block comment; stripped to end of input",
                    CloneMapWarning,
                )
                i = n
            else:
                i = end + 2
        elif c in ('"', "'"):
            # Literal runs to the matching quote, honoring backslash escapes;
            # an unterminated literal stops at end of line so the rest of the
            # input is not swallowed.
            out.append(" ")
            i += 1
            while i < n:
                ch = text[i]
                if ch == "\\" and i + 1 < n:
                    i += 2
                    continue
                if ch == c:
                    i += 1
                    break
                if ch == "\n":
                    break
                i += 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


ORACLE_WORD_RE = re.compile(r"[A-Za-z0-9_]+")


def tokenize_oracle(text: str, config: FilterConfig) -> TokenDocument:
    """Reference tokenizer: a regex scan for ASCII words, each filtered
    afresh."""
    tokens = []
    for raw in ORACLE_WORD_RE.findall(text):
        word = raw.lower()
        if len(word) < 2:
            continue
        if word[0].isdigit():
            continue
        if config.removes(word):
            continue
        tokens.append(word)
    return TokenDocument(tuple(tokens))


def beside_markers(c: str) -> str:
    """``c`` next to each comment opener and escaped quote, outside and
    inside comments and literals, ending in an unterminated comment."""
    return (f'{c}/*{c}*/{c}"\\"{c}"{c}\'\\\'{c}\'{c}//{c}\n'
            f'{c}"{c}/*{c}\\"{c}//"{c}/*{c}')


def stripped_with_warnings(strip, text):
    """``strip(text)`` and the number of CloneMapWarnings it emitted."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = strip(text)
    return out, sum(issubclass(w.category, CloneMapWarning) for w in caught)


class TestStripComments:
    def test_line_comment_to_end_of_line(self):
        assert strip_comments("float sum=0.0;//C1") == "float sum=0.0; "

    def test_line_comment_keeps_newline(self):
        assert strip_comments("a; // x\nb;") == "a;  \nb;"

    def test_block_comment_single_space(self):
        assert strip_comments("a /* x // y */ b") == "a   b"

    def test_block_comment_spanning_lines(self):
        assert strip_comments("a /* x\ny */ b") == "a   b"

    def test_string_literal_hides_markers_and_contents(self):
        assert strip_comments('printf("no // comment");') == "printf( );"

    def test_char_literal_hides_markers(self):
        assert strip_comments("c = '/'; d = '*';") == "c =  ; d =  ;"

    def test_escaped_quote_inside_string(self):
        assert strip_comments('s = "a\\"b"; t;') == "s =  ; t;"

    def test_unterminated_string_recovers_at_newline(self):
        assert strip_comments('s = "oops\nnext;') == "s =  \nnext;"

    def test_unterminated_block_comment_warns(self):
        with pytest.warns(CloneMapWarning):
            out = strip_comments("a; /* no end")
        assert out == "a;  "

    def test_line_structure_preserved_outside_comments(self):
        code = "a;\nb;\nc;"
        assert strip_comments(code) == code

    def test_slash_star_slash_opens_an_unterminated_comment(self):
        with pytest.warns(CloneMapWarning):
            out = strip_comments("a /*/ b")
        assert out == "a  "

    def test_trailing_backslash_in_unterminated_literal_is_consumed(self):
        assert strip_comments('s = "a\\') == "s =  "
        assert strip_comments("c = 'a\\") == "c =  "

    def test_backslash_newline_continues_a_literal(self):
        text = 's = "a\\\nb"; t;\nu;'
        assert strip_comments(text) == "s =  ; t;\nu;"

    def test_quote_inside_line_comment_opens_no_literal(self):
        assert strip_comments("a; // it's\nb; 'c';") == "a;  \nb;  ;"

    # The warning callback runs only when the last "/*" has no "*/" after
    # it; even then, a "/*" that opens no comment gives no warning.
    @pytest.mark.parametrize("text,warns,callback", [
        ('a /* x */ b = "/*";', 0, True),
        ("a /* x */ b; // /* c\nd;", 0, True),
        ("a /* b */ c /* d", 1, True),
        ("a /*/ b", 1, True),
        ("a /* b */ c = '/*'; /* d */ e;", 0, False),
        ("a = '*/'; // b\nc;", 0, False),
    ], ids=["in-literal", "in-line-comment", "second-unterminated",
            "slash-star-slash", "all-terminated", "no-opener"])
    def test_callback_only_where_a_block_comment_may_not_end(
            self, monkeypatch, text, warns, callback):
        blanked = []

        def blank(match):
            blanked.append(match)
            return original(match)

        original = preprocess._blank
        monkeypatch.setattr(preprocess, "_blank", blank)
        got = stripped_with_warnings(strip_comments, text)
        assert got == stripped_with_warnings(strip_comments_oracle, text)
        assert got[1] == warns
        assert bool(blanked) == callback

    # Runs of "*" drive the unrolled block-comment branch through each of
    # its loops: stars that close at once, stars before a non-slash, a
    # slash right after the opener, and an opener with no closer. The
    # non-ASCII pieces, NUL and the lone surrogates test the UTF-8 round
    # trip that stripping makes, and CR is no line end.
    @given(st.lists(st.sampled_from(
        ["/", "*", '"', "'", "\\", "\n", "a", "//", "/*", "*/", "\r", "\x00",
         "\u00ff", "\u00e9", "\u20ac", "\U0001f600", "\ud800", "\udfff"]),
        max_size=40).map("".join))
    @example("/**/").via("empty comment")
    @example("/***/").via("odd star run closes")
    @example("/* ** */x").via("star run inside")
    @example("/*/ */").via("slash after opener")
    @example("/* a **/ b").via("star run before closer")
    @example("/* * a **/ b").via("star run after a lone star")
    @example("/* a *' b */ c").via("star run before a quote")
    @example("/* *").via("unterminated star")
    @example("a /* b */ c /* d").via("terminated then unterminated")
    @example(beside_markers("\x00")).via("NUL")
    @example(beside_markers("\u00ff")).via("y-diaeresis, UTF-8 C3 BF")
    @example(beside_markers("\u00e9")).via("two-byte character")
    @example(beside_markers("\u20ac")).via("three-byte character")
    @example(beside_markers("\U0001f600")).via("astral character")
    @example(beside_markers("\ud800")).via("lone high surrogate")
    @example(beside_markers("\udfff")).via("lone low surrogate")
    @example(beside_markers("\r")).via("CR")
    def test_matches_character_loop_oracle(self, text):
        assert (stripped_with_warnings(strip_comments, text)
                == stripped_with_warnings(strip_comments_oracle, text))

    # Stripping puts the byte 0xFF before every opener as a sentinel; that
    # is exact only because no text's bytes hold 0xFF already.
    @given(st.text(st.one_of(st.characters(),
                             st.integers(0xD800, 0xDFFF).map(chr))))
    @example("".join(map(chr, range(0x110000)))).via("every code point")
    def test_utf8_never_holds_the_sentinel_byte(self, text):
        assert b"\xff" not in text.encode("utf-8", "surrogatepass")

    def test_every_strip_branch_begins_with_the_sentinel(self):
        """With one literal byte first in every branch, the regex engine
        finds match starts by searching for that byte; one branch that
        began otherwise would bring back a set test at every byte."""
        assert preprocess._STRIP_RE.pattern == b"|".join(preprocess._STRIP_BRANCHES)
        for branch in preprocess._STRIP_BRANCHES:
            assert branch.startswith(rb"\xff"), branch
            assert branch[4:5] not in b"*+?{|", branch


class TestTokenize:
    def test_loop_body_keeps_identifiers_only(self, config):
        text = "for(int i=1;i<=n;i++){ sum=sum+i; prod=prod*i; foo(sum,prod); }"
        doc = tokenize(text, config)
        assert doc.counts() == {"sum": 3, "prod": 3, "foo": 1}

    def test_numbers_dropped(self, config):
        doc = tokenize("x27 = 42 + 0x1f + 1e5;", config)
        assert doc.counts() == {"x27": 1}

    def test_short_tokens_dropped(self, config):
        doc = tokenize("a = bc + d;", config)
        assert doc.counts() == {"bc": 1}

    def test_lowercasing(self, config):
        doc = tokenize("TmpList tmplist TMPLIST;", config)
        assert doc.counts() == {"tmplist": 3}

    def test_keyword_removal_case_insensitive(self, config):
        doc = tokenize("RETURN Return return widget;", config)
        assert doc.counts() == {"widget": 1}

    def test_stopwords_and_progwords_removed(self, config):
        doc = tokenize("the main util on it widget;", config)
        assert doc.counts() == {"widget": 1}

    def test_token_count_matches_tokens(self, config):
        doc = tokenize("alpha beta alpha;", config)
        assert doc.token_count == len(doc.tokens) == 3

    # The axes shape the input, not the filter, which is fixed: raw tokens
    # at least ``min_len`` long (below, across or above the two-character
    # cut), all lowercase or each also swapcased (one word under several
    # spellings), and with or without camelCase/snake_case compounds of
    # drawn tokens (which stay whole tokens).
    @pytest.mark.parametrize("split", [False, True])
    @pytest.mark.parametrize("lowercase", [True, False])
    @pytest.mark.parametrize("min_len", [0, 2, 5])
    @settings(max_examples=30)
    @given(data=st.data())
    def test_memoised_filtering_matches_per_token_oracle(
            self, config, split, lowercase, min_len, data):
        raws = data.draw(st.lists(
            st.sampled_from([r for r in (
                "For", "for", "RETURN", "tmpDocList", "TmpDocList",
                "tmp_doc_list", "x27", "42", "a", "A", "bc", "HTTPServer",
                "the", "Widget", "widget", "_", "__init__", "camelCase9")
                if len(r) >= min_len])
            | st.text(alphabet="azZqQ_09", min_size=max(1, min_len),
                      max_size=8),
            min_size=1, max_size=12))
        if split:
            pairs = zip(raws, raws[1:] + raws[:1])
            raws += [w for a, b in pairs
                     for w in (a + b[:1].upper() + b[1:], a + "_" + b)]
        raws = ([r.lower() for r in raws] if lowercase
                else raws + [r.swapcase() for r in raws])
        # Every raw token appears at least twice, in a drawn order.
        order = data.draw(st.permutations(raws + raws))
        text = data.draw(st.sampled_from([" ", ";", "(", "+"])).join(order)
        assert tokenize(text, config) == tokenize_oracle(text, config)

    # Non-ASCII letters (a Kelvin sign and a dotted capital I among them,
    # which lowercase to ASCII or grow), NUL, C1 controls, astral
    # characters and lone surrogates all split words, as in the regex.
    @settings(max_examples=200)
    @given(st.lists(st.sampled_from([
        "for", "Widget", "tmpDocList", "x27", "a", "_", " ", ";", "\n",
        "\u00e9", "\u00df", "\u212a", "\u0130", "\u01c5", "\x00", "\x80",
        "\U0001f600", "\U00010400", "\ud800", "\udfff", "\ud83d",
    ]) | st.text(alphabet="akZ_09 ", max_size=6), max_size=30).map("".join))
    @example("caf\u00e9_x stra\u00dfe \u212aelvin \u0130ndex \u01c5ab "
             "nul\x00byte c1\x80ctl \U0001f600emoji lo\ud800ne")
    def test_non_ascii_text_matches_oracle(self, config, text):
        assert tokenize(text, config) == tokenize_oracle(text, config)

    @given(st.text(alphabet=st.characters(codec="ascii"), max_size=200))
    def test_filtering_is_a_fixed_point(self, text):
        """Re-tokenizing the surviving tokens changes nothing."""
        config = default_filter_config(language="c")
        doc = tokenize(strip_comments(text), config)
        again = tokenize(" ".join(doc.tokens), config)
        assert again.tokens == doc.tokens


class TestFilterConfig:
    def test_shipped_lists_cover_the_named_words(self, config):
        assert {"for", "return", "class"} <= config.words
        assert {"main", "arg", "util"} <= config.words
        assert {"the", "it", "on"} <= config.words

    def test_java_list_has_class(self):
        cfg = default_filter_config(language="java")
        assert "class" in cfg.words

    def test_union_covers_both(self):
        c = default_filter_config(language="c")
        j = default_filter_config(language="java")
        u = default_filter_config(language="union")
        assert c.words | j.words == u.words

    def test_mixed_case_words_removed_case_insensitively(self):
        cfg = FilterConfig(frozenset({"Widget", "GADGET", "for"}))
        assert cfg.words == {"widget", "gadget", "for"}
        assert all(cfg.removes(w) for w in ("widget", "WIDGET", "Gadget", "FOR"))
        assert not cfg.removes("gizmo")
        doc = tokenize("WIDGET gadget For gizmo Gizmo", cfg)
        assert doc.tokens == ("gizmo", "gizmo")

    def test_custom_list_files(self, tmp_path):
        """A --keywords file replaces the keyword list only; the packaged
        programming-word and stop-word lists still apply."""
        kw = tmp_path / "kw.txt"
        kw.write_text("# a comment\nfoo\nBar\n", encoding="utf-8")
        empty = tmp_path / "empty.txt"
        empty.write_text("", encoding="utf-8")
        cfg = default_filter_config(keywords_path=kw)
        rest = default_filter_config(keywords_path=empty)
        assert cfg.words == rest.words | {"foo", "bar"}
        assert {"main", "the"} <= rest.words
        assert not {"for", "return", "class"} & cfg.words

    def test_byte_order_mark_does_not_keep_the_first_word(self, tmp_path):
        stop = tmp_path / "stop.txt"
        stop.write_text("\ufeffbalance\nvector\n", encoding="utf-8")
        cfg = default_filter_config(stopwords_path=stop)
        assert cfg.removes("balance") and cfg.removes("vector")
        assert not any(word.startswith("\ufeff") for word in cfg.words)

    def test_wordlist_dir_env(self, tmp_path, monkeypatch):
        """CLONEMAP_WORDLIST_DIR is not read: no artifact records it, so
        word lists come from the flags alone."""
        (tmp_path / "stopwords.txt").write_text("zzz\n", encoding="utf-8")
        before = default_filter_config(language="c")
        monkeypatch.setenv("CLONEMAP_WORDLIST_DIR", str(tmp_path))
        after = default_filter_config(language="c")
        assert after == before
        assert "zzz" not in after.words and "the" in after.words


class TestFilterMemo:
    """Each ``FilterConfig`` decides each distinct raw word once, and only
    for itself."""

    TEXTS = ("int Widget = the_count + 42; widget++;",
             "RETURN render(Widget, gadget); x9 a _",
             "gadget GADGET the return tmpDocList widget")

    def test_cold_and_warm_memo_agree(self, config):
        words = config.words
        cold = [tokenize(t, FilterConfig(words)) for t in self.TEXTS]
        shared = FilterConfig(words)
        first = [tokenize(t, shared) for t in self.TEXTS]
        again = [tokenize(t, shared) for t in reversed(self.TEXTS)][::-1]
        assert cold == first == again == [tokenize_oracle(t, config)
                                          for t in self.TEXTS]

    @pytest.mark.parametrize("order", [("widget", "gadget"),
                                       ("gadget", "widget")])
    def test_configs_with_other_words_share_no_decision(self, order):
        text = "Widget gadget widget GADGET"
        configs = [FilterConfig(frozenset({removed})) for removed in order]
        configs.append(replace(configs[0], words=frozenset({order[1]})))
        kept = [order[1], order[0], order[0]]
        for cfg, word in zip(configs, kept):
            assert tokenize(text, cfg).tokens == (word, word)

    def test_each_raw_word_is_filtered_once_per_config(self, monkeypatch):
        calls = Counter()

        def counted(raw, words):
            calls[raw, words] += 1
            return original(raw, words)

        original = preprocess._kept_word
        monkeypatch.setattr(preprocess, "_kept_word", counted)
        # Each group is two one-line fragments: a text and its upper case.
        snapshots = [VersionSnapshot(
            version, ("a.c", "b.c") * len(group_texts),
            (1,) * 2 * len(group_texts), (1,) * 2 * len(group_texts),
            tuple(t for text in group_texts for t in (text, text.upper())),
            tuple(range(0, 2 * len(group_texts) + 1, 2)))
            for version, group_texts in (("v1", self.TEXTS),
                                         ("v2", self.TEXTS[::-1] + ("gizmo",)))]
        group_texts = [text for s in snapshots for text in texts(s, None)]
        # Fresh configs: the module's ``config`` has decided words already.
        configs = (default_filter_config(language="c"),
                   FilterConfig(frozenset({"widget"})))
        docs = {cfg.words: [build_group_document(text, cfg)
                            for text in group_texts]
                for cfg in configs}
        raws = {raw for text in group_texts
                for raw in ORACLE_WORD_RE.findall(text)}
        assert calls == Counter({(raw, cfg.words): 1
                                 for raw in raws for cfg in configs})
        for cfg in configs:
            assert [d.tokens for d in docs[cfg.words]] == [
                tokenize_oracle(strip_comments(text), cfg).tokens
                for text in group_texts]


class TestBuildGroupDocument:
    def test_concatenates_fragments_and_strips_comments(self, config):
        snapshot = VersionSnapshot(
            "v1", ("a.c", "b.c"), (1, 1), (2, 1),
            ("int widget = 1; // init\nwidget++;", "render(widget); /* draw */"),
            (0, 2))
        [text] = texts(snapshot, None)
        doc = build_group_document(text, config)
        assert doc.counts() == {"widget": 3, "render": 1}
        assert "init" not in doc.tokens
        assert "draw" not in doc.tokens
