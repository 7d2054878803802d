from __future__ import annotations

import gc
import random
import time
import tracemalloc

import pytest
from helpers import fixture_corpus_texts, gen_bracket_source, repeated_fixture_seed

from clozefuzz.lexer import Token, TokenKind, lex


def kinds_of(source: str) -> list[TokenKind]:
    return [t.kind for t in lex(source).tokens]


def test_concat_round_trip_on_fixture_corpus():
    for text in fixture_corpus_texts():
        tokens = lex(text).tokens
        assert "".join(t.text for t in tokens) == text


def test_concat_round_trip_on_random_sources():
    rng = random.Random(99)
    for _ in range(200):
        text = gen_bracket_source(rng)
        tokens = lex(text).tokens
        assert "".join(t.text for t in tokens) == text


def test_tokens_read_alike_by_iteration_and_by_index():
    for text in fixture_corpus_texts() + [""]:
        tokens = lex(text).tokens
        listed = list(tokens)
        assert len(listed) == len(tokens)
        assert "".join(t.text for t in listed) == text
        assert [tokens[i] for i in range(len(tokens))] == listed
        assert all(type(t) is Token for t in listed)
        if listed:
            assert tokens[-1] == listed[-1]
            assert tokens[-len(tokens)] == listed[0]
        for outside in (len(tokens), -len(tokens) - 1):
            with pytest.raises(IndexError):
                tokens[outside]


def test_tokens_retain_at_most_16_bytes_each():
    # ends and kinds are stored, not a tuple and a text per token
    text = repeated_fixture_seed(200_000)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tokens = lex(text).tokens
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(tokens) > 100_000
    assert retained / len(tokens) <= 16


def test_spans_ascending_and_contiguous():
    text = 'fn main() { let s = "x"; } // done'
    tokens = lex(text).tokens
    pos = 0
    for tok in tokens:
        assert tok.start == pos
        assert tok.end > tok.start
        assert text[tok.start : tok.end] == tok.text
        pos = tok.end
    assert pos == len(text)


def test_fn_main_bracket_token_counts():
    tokens = lex("fn main() {}").tokens
    opens = [t for t in tokens if t.kind is TokenKind.OPEN_BRACKET]
    closes = [t for t in tokens if t.kind is TokenKind.CLOSE_BRACKET]
    assert len(opens) == 2
    assert len(closes) == 2


def test_string_with_brackets_is_one_token():
    tokens = lex('let s = "fn f() { [}] }";').tokens
    strings = [t for t in tokens if t.kind is TokenKind.STRING]
    assert len(strings) == 1
    assert strings[0].text == '"fn f() { [}] }"'
    assert not any(t.kind is TokenKind.OPEN_BRACKET for t in tokens)


def test_escaped_quote_inside_string():
    tokens = lex(r'"a\"b(c"').tokens
    assert [t.kind for t in tokens] == [TokenKind.STRING]


def test_raw_string_and_raw_identifier():
    tokens = lex('r#"has "quotes" and }"# + r#type').tokens
    assert tokens[0].kind is TokenKind.STRING
    assert tokens[0].text == 'r#"has "quotes" and }"#'
    idents = [t for t in tokens if t.kind is TokenKind.IDENTIFIER]
    assert idents[-1].text == "r#type"


def test_byte_string_and_byte_char():
    tokens = [t for t in lex('b"bytes" b\'x\'').tokens if t.kind is not TokenKind.WHITESPACE]
    assert tokens[0].kind is TokenKind.STRING
    assert tokens[1].kind is TokenKind.CHAR


def test_char_versus_lifetime():
    assert kinds_of("'a'") == [TokenKind.CHAR]
    assert kinds_of("'\\n'") == [TokenKind.CHAR]
    toks = lex("&'static str").tokens
    lifetimes = [t for t in toks if t.kind is TokenKind.LIFETIME]
    assert [t.text for t in lifetimes] == ["'static"]
    toks = lex("fn f<'a>(x: &'a u8) {}").tokens
    lifetimes = [t.text for t in toks if t.kind is TokenKind.LIFETIME]
    assert lifetimes == ["'a", "'a"]


def test_line_and_block_comments():
    toks = lex("a // trailing ( [\nc").tokens
    comments = [t for t in toks if t.kind is TokenKind.COMMENT]
    assert len(comments) == 1
    assert comments[0].text == "// trailing ( ["

    toks = lex("a /* outer /* nested } */ still */ c").tokens
    comments = [t for t in toks if t.kind is TokenKind.COMMENT]
    assert len(comments) == 1
    assert comments[0].text == "/* outer /* nested } */ still */"


def test_unterminated_literals_run_to_end_of_input():
    for text, kind in (
        ('"never closed', TokenKind.STRING),
        ("/* runs off the end", TokenKind.COMMENT),
        ("x = r#\"raw and open", TokenKind.STRING),
        ("b'\\", TokenKind.CHAR),
    ):
        last = lex(text).tokens[-1]
        assert (last.kind, last.end) == (kind, len(text)), text


def test_fused_operators_are_single_puncts():
    for op in ("<<", ">>", "<=", ">=", "->", "=>", "::", "<<=", ">>=", "..="):
        toks = [t for t in lex(f"a {op} c").tokens if t.kind is TokenKind.PUNCT]
        assert [t.text for t in toks] == [op]


def test_shift_in_generics_stays_fused():
    toks = lex("Vec<Vec<u8>>").tokens
    puncts = [t.text for t in toks if t.kind is TokenKind.PUNCT]
    assert puncts == ["<", "<", ">>"]


def test_keywords_versus_identifiers():
    toks = {t.text: t.kind for t in lex("fn let mainish self Self union").tokens}
    assert toks["fn"] is TokenKind.KEYWORD
    assert toks["let"] is TokenKind.KEYWORD
    assert toks["self"] is TokenKind.KEYWORD
    assert toks["Self"] is TokenKind.KEYWORD
    assert toks["union"] is TokenKind.KEYWORD
    assert toks["mainish"] is TokenKind.IDENTIFIER


def test_number_literals():
    toks = [t for t in lex("0 1_000 0xFFusize 3.14 1e5 0..5").tokens]
    literals = [t.text for t in toks if t.kind is TokenKind.LITERAL]
    assert "1_000" in literals
    assert "0xFFusize" in literals
    assert "3.14" in literals
    # range dots stay out of the number
    assert "0" in literals and "5" in literals
    dots = [t.text for t in toks if t.kind is TokenKind.PUNCT]
    assert ".." in dots


def texts_of(source: str) -> list[tuple[TokenKind, str]]:
    tokens = lex(source).tokens
    return [(t.kind, t.text) for t in tokens if t.kind is not TokenKind.WHITESPACE]


def test_comment_delimiters_do_not_overlap():
    # the opener's * is not reused by a closer
    assert texts_of("/*/ x */ y") == [
        (TokenKind.COMMENT, "/*/ x */"),
        (TokenKind.IDENTIFIER, "y"),
    ]
    # an inner /*/ opens once; the / is not the start of a */
    assert texts_of("/* a /*/ b */ c */ d") == [
        (TokenKind.COMMENT, "/* a /*/ b */ c */"),
        (TokenKind.IDENTIFIER, "d"),
    ]
    # */* closes once; the / is not the start of a /*
    assert texts_of("/* /* a */* b */ c") == [
        (TokenKind.COMMENT, "/* /* a */* b */"),
        (TokenKind.IDENTIFIER, "c"),
    ]


def test_raw_prefix_rules():
    # r#1 is no raw identifier: a word, a punct and a number
    assert texts_of("r#1") == [
        (TokenKind.IDENTIFIER, "r"),
        (TokenKind.PUNCT, "#"),
        (TokenKind.LITERAL, "1"),
    ]
    assert texts_of('br#"a "quoted" }"# x') == [
        (TokenKind.STRING, 'br#"a "quoted" }"#'),
        (TokenKind.IDENTIFIER, "x"),
    ]
    # only a quote followed by both hashes closes it
    assert texts_of('r##"a "# b"## c') == [
        (TokenKind.STRING, 'r##"a "# b"##'),
        (TokenKind.IDENTIFIER, "c"),
    ]


def test_escaped_and_empty_chars():
    for text in ("b'\\''", "'\\''"):
        assert texts_of(text + " x") == [
            (TokenKind.CHAR, text),
            (TokenKind.IDENTIFIER, "x"),
        ]
    assert texts_of("''") == [(TokenKind.PUNCT, "'"), (TokenKind.PUNCT, "'")]


def test_number_takes_one_dot_before_a_digit():
    assert texts_of("1.2.3") == [
        (TokenKind.LITERAL, "1.2"),
        (TokenKind.PUNCT, "."),
        (TokenKind.LITERAL, "3"),
    ]
    assert texts_of("1..2") == [
        (TokenKind.LITERAL, "1"),
        (TokenKind.PUNCT, ".."),
        (TokenKind.LITERAL, "2"),
    ]


def test_numeric_non_decimal_characters_are_word_characters():
    # numeric but not decimal: they start identifiers, never numbers
    assert texts_of("Ⅻ ² ½") == [
        (TokenKind.IDENTIFIER, "Ⅻ"),
        (TokenKind.IDENTIFIER, "²"),
        (TokenKind.IDENTIFIER, "½"),
    ]
    assert texts_of("1.²") == [
        (TokenKind.LITERAL, "1"),
        (TokenKind.PUNCT, "."),
        (TokenKind.IDENTIFIER, "²"),
    ]
    # a decimal digit of another script is a digit
    assert texts_of("٣") == [(TokenKind.LITERAL, "٣")]


def test_hostile_one_token_inputs_lex_in_linear_time():
    size = 1 << 20
    for text, kind in (
        ("/*" * (size // 4) + "*/" * (size // 4), TokenKind.COMMENT),
        ('r###"' + '"##' * (size // 3), TokenKind.STRING),
        ('"' + "\\" * size, TokenKind.STRING),
        ("b'" + "\\'x" * (size // 3), TokenKind.CHAR),
    ):
        started = time.monotonic()
        tokens = lex(text).tokens
        took = time.monotonic() - started
        assert [(t.kind, t.end) for t in tokens] == [(kind, len(text))], text[:8]
        assert took < 2.0, (text[:8], took)
