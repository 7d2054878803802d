"""Lexer for Rust-flavored source text.

Splits a program into contiguous tokens so downstream passes can find
bracket structure without being fooled by string literals, comments,
char literals, or lifetimes. The stream is lossless: concatenating the
token texts reproduces the input byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


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


@dataclass(frozen=True)
class Token:
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

OPEN_BRACKETS = "([{"
CLOSE_BRACKETS = ")]}"

# Maximal munch: multi-character operators are single punct tokens, so a
# ">>" in Vec<Vec<u8>> never reads as two closing angles downstream.
_PUNCTS_3 = ("<<=", ">>=", "..=", "...")
_PUNCTS_2 = (
    "::", "->", "=>", "==", "!=", "<=", ">=", "&&", "||", "<<", ">>",
    "+=", "-=", "*=", "/=", "%=", "^=", "&=", "|=", "..",
)

def _is_ident_start(ch: str) -> bool:
    return ch.isalpha() or ch == "_"


def _is_ident_continue(ch: str) -> bool:
    return ch.isalnum() or ch == "_"


def lex(source: str) -> LexResult:
    tokens: list[Token] = []
    n = len(source)
    i = 0

    def emit(kind: TokenKind, start: int, end: int) -> None:
        tokens.append(Token(kind, start, end, source[start:end]))

    def scan_quoted(pos: int, quote: str) -> int:
        """Scan past a quoted literal body starting after the opening
        quote at ``pos``. Returns its end index; an unclosed literal
        runs to the end of input."""
        j = pos + 1
        while j < n:
            ch = source[j]
            if ch == "\\":
                j += 2
                continue
            if ch == quote:
                return j + 1
            j += 1
        return n

    def scan_raw_string(pos: int) -> int | None:
        """Try to scan r"..." / r#"..."# starting at the char after the
        prefix. Returns its end index, or None when this is not a raw
        string opener."""
        j = pos
        hashes = 0
        while j < n and source[j] == "#":
            hashes += 1
            j += 1
        if j >= n or source[j] != '"':
            return None
        terminator = '"' + "#" * hashes
        at = source.find(terminator, j + 1)
        return n if at == -1 else at + len(terminator)

    while i < n:
        c = source[i]
        start = i

        if c.isspace():
            while i < n and source[i].isspace():
                i += 1
            emit(TokenKind.WHITESPACE, start, i)
            continue

        if source.startswith("//", i):
            at = source.find("\n", i)
            i = n if at == -1 else at
            emit(TokenKind.COMMENT, start, i)
            continue

        if source.startswith("/*", i):
            depth = 1
            i += 2
            while i < n and depth:
                if source.startswith("/*", i):
                    depth += 1
                    i += 2
                elif source.startswith("*/", i):
                    depth -= 1
                    i += 2
                else:
                    i += 1
            emit(TokenKind.COMMENT, start, i)
            continue

        if c == "r":
            scanned = scan_raw_string(i + 1)
            if scanned is not None:
                i = scanned
                emit(TokenKind.STRING, start, i)
                continue
            if source.startswith("r#", i) and i + 2 < n and _is_ident_start(source[i + 2]):
                # raw identifier r#type
                i += 2
                while i < n and _is_ident_continue(source[i]):
                    i += 1
                emit(TokenKind.IDENTIFIER, start, i)
                continue

        if c == "b":
            if i + 1 < n and source[i + 1] == '"':
                i = scan_quoted(i + 1, '"')
                emit(TokenKind.STRING, start, i)
                continue
            if i + 1 < n and source[i + 1] == "'":
                i = scan_quoted(i + 1, "'")
                emit(TokenKind.CHAR, start, i)
                continue
            if i + 1 < n and source[i + 1] == "r":
                scanned = scan_raw_string(i + 2)
                if scanned is not None:
                    i = scanned
                    emit(TokenKind.STRING, start, i)
                    continue

        if c == '"':
            i = scan_quoted(i, '"')
            emit(TokenKind.STRING, start, i)
            continue

        if c == "'":
            nxt = source[i + 1] if i + 1 < n else ""
            if nxt == "\\":
                i = scan_quoted(i, "'")
                emit(TokenKind.CHAR, start, i)
                continue
            # 'x' is a char; 'x followed by anything else is a lifetime
            if nxt and nxt != "'" and i + 2 < n and source[i + 2] == "'":
                i += 3
                emit(TokenKind.CHAR, start, i)
                continue
            if nxt and _is_ident_start(nxt):
                i += 1
                while i < n and _is_ident_continue(source[i]):
                    i += 1
                emit(TokenKind.LIFETIME, start, i)
                continue
            i += 1
            emit(TokenKind.PUNCT, start, i)
            continue

        if c.isdigit():
            i += 1
            seen_dot = False
            while i < n:
                ch = source[i]
                if _is_ident_continue(ch):
                    i += 1
                elif (
                    ch == "."
                    and not seen_dot
                    and i + 1 < n
                    and source[i + 1].isdigit()
                ):
                    seen_dot = True
                    i += 1
                else:
                    break
            emit(TokenKind.LITERAL, start, i)
            continue

        if _is_ident_start(c):
            i += 1
            while i < n and _is_ident_continue(source[i]):
                i += 1
            text = source[start:i]
            kind = TokenKind.KEYWORD if text in KEYWORDS else TokenKind.IDENTIFIER
            emit(kind, start, i)
            continue

        if c in OPEN_BRACKETS:
            i += 1
            emit(TokenKind.OPEN_BRACKET, start, i)
            continue
        if c in CLOSE_BRACKETS:
            i += 1
            emit(TokenKind.CLOSE_BRACKET, start, i)
            continue

        matched = None
        for group in (_PUNCTS_3, _PUNCTS_2):
            for op in group:
                if source.startswith(op, i):
                    matched = op
                    break
            if matched:
                break
        i += len(matched) if matched else 1
        emit(TokenKind.PUNCT, start, i)

    return LexResult(tokens=tokens)


def significant_tokens(tokens: list[Token]) -> list[Token]:
    """Tokens that matter for structure: everything except whitespace
    and comments."""
    return [
        t for t in tokens if t.kind not in (TokenKind.WHITESPACE, TokenKind.COMMENT)
    ]


def count_nonspace_tokens(source: str) -> int:
    """Number of tokens excluding whitespace runs. Comments count."""
    return sum(1 for t in lex(source).tokens if t.kind is not TokenKind.WHITESPACE)
