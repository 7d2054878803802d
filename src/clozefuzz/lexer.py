"""Lexer for Rust-flavored source text.

Splits a program into contiguous tokens so downstream passes can find
bracket structure without being fooled by string literals, comments,
char literals, or lifetimes. The stream is lossless: concatenating the
token texts reproduces the input byte for byte.

``_RULES`` is the one statement of the lexical rules: one row per
token kind, compiled into a single pattern that is matched at each
position. Alternation in ``re`` is ordered, not longest-match, so the
first row that matches wins, and the table's order carries the rules'
priorities: each constraint it relies on is noted on its row. The last
row ends in a catch-all for any one character, so every position
matches.

Nested block comments are the one rule a pattern cannot count. The
table matches only the opening ``/*``; a loop then walks the ``/*``
and ``*/`` delimiters after it, left to right and without overlap,
until the depth is back to zero. Literals and comments left open run
to the end of input.

Character classes are ``re``'s Unicode classes: whitespace is ``\\s``
(``str.isspace``), a word character is ``\\w`` (``str.isalnum`` or
``_``), a digit is ``\\d`` (``str.isdecimal``), and an identifier or
lifetime starts with ``[^\\W\\d]``. So a character that is numeric but
not a decimal digit, such as ``²``, ``½`` or ``Ⅻ``, can start an
identifier and never starts or continues a number. rustc agrees on
``Ⅻ``, an identifier, and rejects ``²`` outright, so either reading of
``²`` is as good.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple


class TokenKind(Enum):
    IDENTIFIER = "identifier"
    KEYWORD = "keyword"
    LITERAL = "literal"
    STRING = "string"
    CHAR = "char"
    LIFETIME = "lifetime"
    COMMENT = "comment"
    PUNCT = "punct"
    OPEN_BRACKET = "open_bracket"
    CLOSE_BRACKET = "close_bracket"
    WHITESPACE = "whitespace"


class Token(NamedTuple):
    kind: TokenKind
    start: int
    end: int
    text: str


@dataclass
class LexResult:
    tokens: list[Token]


KEYWORDS = frozenset(
    """
    as async await break const continue crate dyn else enum extern false fn
    for if impl in let loop match mod move mut pub ref return self Self
    static struct super trait true type union unsafe use where while
    abstract become box do final macro override priv try typeof unsized
    virtual yield
    """.split()
)


def _quoted(quote: str) -> str:
    """A literal from its opening ``quote`` to the next unescaped one,
    or to the end of input, unrolled so each character is looked at
    once."""
    return rf"{quote}[^{quote}\\]*(?:\\[\s\S]?[^{quote}\\]*)*{quote}?"


# (row, pattern), tried in order at each position. A row name is a
# TokenKind name, except BLOCK_COMMENT and WORD, which lex() resolves.
_RULES = (
    ("WHITESPACE", r"\s+"),
    ("COMMENT", r"//[^\n]*"),
    ("BLOCK_COMMENT", r"/\*"),
    # raw strings and byte strings before WORD, which would take the
    # r or b prefix; a raw string ends at the first quote followed by
    # as many hashes as it opened with
    (
        "STRING",
        r'b?r(?P<hashes>#*)"(?:[^"]*"(?!(?P=hashes)))*[^"]*(?:"(?P=hashes))?|b?'
        + _quoted('"'),
    ),
    # byte chars before WORD; 'x' chars before LIFETIME, which would
    # take the 'x of 'x'; a char with an escape runs to its closing
    # quote like a string
    ("CHAR", r"(?:b|(?='\\))" + _quoted("'") + r"|'[^'\\]'"),
    ("LIFETIME", r"'[^\W\d]\w*"),
    # one dot at most, and only before a digit: 0..5 is a range
    ("LITERAL", r"\d\w*(?:\.\d\w*)?"),
    # raw identifiers (r#type) before plain words
    ("WORD", r"(?:r#)?[^\W\d]\w*"),
    ("OPEN_BRACKET", r"[(\[{]"),
    ("CLOSE_BRACKET", r"[)\]}]"),
    # maximal munch: three-character operators before two-character
    # ones, so a >> in Vec<Vec<u8>> never reads as two closing angles;
    # the one-character catch-all last
    (
        "PUNCT",
        r"<<=|>>=|\.\.=|\.\.\.|::|->|=>|==|!=|<=|>=|&&|\|\||<<|>>|[-+*/%^&|]="
        r"|\.\.|[\s\S]",
    ),
)

_TOKEN = re.compile("|".join(f"(?P<{name}>{rule})" for name, rule in _RULES))
_COMMENT_DELIMITER = re.compile(r"/\*|\*/")
# row name -> kind; WORD is missing, it depends on the text
_KIND = dict(TokenKind.__members__, BLOCK_COMMENT=TokenKind.COMMENT)
# looking a member up on an Enum class per token costs more than the
# test it feeds, so the per-token filters below compare these
_WHITESPACE, _COMMENT = TokenKind.WHITESPACE, TokenKind.COMMENT


def lex(source: str) -> LexResult:
    tokens: list[Token] = []
    n = len(source)
    pos = 0
    while pos < n:
        match = _TOKEN.match(source, pos)
        name, end = match.lastgroup, match.end()
        if name == "BLOCK_COMMENT":
            depth, end = 1, n
            for delimiter in _COMMENT_DELIMITER.finditer(source, pos + 2):
                depth += 1 if delimiter.group() == "/*" else -1
                if not depth:
                    end = delimiter.end()
                    break
        text = source[pos:end]
        if name == "WORD":
            kind = TokenKind.KEYWORD if text in KEYWORDS else TokenKind.IDENTIFIER
        else:
            kind = _KIND[name]
        tokens.append(Token(kind, pos, end, text))
        pos = end
    return LexResult(tokens=tokens)


def significant_tokens(tokens: list[Token]) -> list[Token]:
    """Tokens that matter for structure: everything except whitespace
    and comments."""
    return [t for t in tokens if t.kind is not _WHITESPACE and t.kind is not _COMMENT]


def count_nonspace_tokens(source: str) -> int:
    """Number of tokens excluding whitespace runs. Comments count."""
    return sum(1 for t in lex(source).tokens if t.kind is not _WHITESPACE)
