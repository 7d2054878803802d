"""Lexer for Rust-flavored source text.

Splits a program into contiguous tokens so downstream passes can find
bracket structure without being fooled by string literals, comments,
char literals, or lifetimes. The stream is lossless: concatenating the
token texts reproduces the input byte for byte.

``lex`` stores its result compactly, as ``Tokens``: the end offset of
each token in one ``array('q')`` and its kind, as an index into
``TokenKind``, in one byte of a ``bytearray``, about 9 bytes a token.
A token starts where the one before it ends, so neither its start nor
its text is stored. A ``Token`` tuple, with its text sliced from the
source, is made only when it is read, by iteration or by index, and is
dropped once its reader is done with it. So a pass that reads the
tokens once holds one token at a time, not the whole stream.

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
from array import array
from collections.abc import Iterator, Sequence
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


# a kind's code in Tokens is its index here
_KINDS = tuple(TokenKind)


class Tokens(Sequence[Token]):
    """The tokens of ``source``, read-only: token i ends at ``ends[i]``
    and its kind is ``_KINDS[kinds[i]]``."""

    __slots__ = ("_source", "_ends", "_kinds")

    def __init__(self, source: str, ends: array, kinds: bytearray) -> None:
        self._source, self._ends, self._kinds = source, ends, kinds

    def __len__(self) -> int:
        return len(self._ends)

    def __getitem__(self, index: int) -> Token:
        i = range(len(self._ends))[index]  # a negative index counts back
        start = self._ends[i - 1] if i else 0
        end = self._ends[i]
        # tuple.__new__ skips the Python-level __new__ of a NamedTuple,
        # which costs more than the tuple itself
        return tuple.__new__(
            Token, (_KINDS[self._kinds[i]], start, end, self._source[start:end])
        )

    def __iter__(self) -> Iterator[Token]:
        source, kinds, new = self._source, _KINDS, tuple.__new__
        start = 0
        for code, end in zip(self._kinds, self._ends):
            yield new(Token, (kinds[code], start, end, source[start:end]))
            start = end


@dataclass
class LexResult:
    tokens: Tokens


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
# row name -> kind code; WORD is missing, it depends on the text
_CODE = {kind.name: code for code, kind in enumerate(_KINDS)}
_CODE["BLOCK_COMMENT"] = _CODE["COMMENT"]
_KEYWORD_CODE, _IDENTIFIER_CODE = _CODE["KEYWORD"], _CODE["IDENTIFIER"]


def lex(source: str) -> LexResult:
    ends = array("q")
    kinds = bytearray()
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
        if name == "WORD":
            code = _KEYWORD_CODE if source[pos:end] in KEYWORDS else _IDENTIFIER_CODE
        else:
            code = _CODE[name]
        kinds.append(code)
        ends.append(end)
        pos = end
    return LexResult(tokens=Tokens(source, ends, kinds))

