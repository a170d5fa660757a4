"""SQL tokenizer.

Produces a flat token list consumed by the recursive-descent parser.
Keywords are recognised case-insensitively; identifiers may be quoted
with double quotes or backticks (MySQL style).  String literals use
single quotes with ``''`` escaping.
"""

from __future__ import annotations

import enum
import re
from typing import NamedTuple

from repro.common.errors import ParseError

KEYWORDS = {
    "select", "from", "where", "group", "by", "having", "order", "limit",
    "as", "and", "or", "not", "in", "between", "is", "null", "distinct",
    "union", "all", "except", "minus", "intersect", "join", "inner", "cross",
    "on", "with", "force", "use", "ignore", "index", "indexed", "asc", "desc", "true",
    "false", "case", "when", "then", "else", "end", "exists", "like",
    "insert", "into", "values", "delete", "update", "set", "create",
    "table", "drop", "analyze", "using",
}


class TokenType(enum.Enum):
    KEYWORD = "keyword"
    IDENT = "ident"
    NUMBER = "number"
    STRING = "string"
    OPERATOR = "operator"
    PUNCT = "punct"
    PARAM = "param"
    EOF = "eof"


class Token(NamedTuple):
    type: TokenType
    value: str
    position: int

    def is_keyword(self, *words: str) -> bool:
        return self.type is TokenType.KEYWORD and self.value in words

    def __str__(self) -> str:
        return f"{self.value!r}"


#: Two-character operators (tried first) and their spelling; ``<>`` is ``!=``.
_TWO_CHAR_OPERATORS = {"<>": "!=", "!=": "!=", "<=": "<=", ">=": ">="}
_ONE_CHAR_OPERATORS = "=<>+-*/%"
_PUNCT = "(),."
#: An identifier's tail: ``\w`` is exactly ``str.isalnum()`` or ``_``.
_WORD_TAIL = re.compile(r"[\w$]*")
_SPACE = re.compile(r"\s*")


def tokenize(text: str) -> list[Token]:
    """Tokenize SQL text, raising ParseError on malformed input."""
    tokens: list[Token] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i = _SPACE.match(text, i + 1).end()
            continue
        if text.startswith("--", i):
            nl = text.find("\n", i)
            i = n if nl == -1 else nl + 1
            continue
        if ch == "'":
            start = i
            value, i = _read_string(text, i)
            tokens.append(Token(TokenType.STRING, value, start))
            continue
        if ch in ('"', "`"):
            end = text.find(ch, i + 1)
            if end == -1:
                raise ParseError("unterminated quoted identifier", i)
            tokens.append(Token(TokenType.IDENT, text[i + 1 : end], i))
            i = end + 1
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and text[i + 1].isdigit()):
            start = i
            while i < n and (text[i].isdigit() or text[i] == "."):
                i += 1
            if text.count(".", start, i) > 1:
                raise ParseError(f"malformed number {text[start:i]!r}", start)
            # allow exponents like 1e-5
            if i < n and text[i] in "eE":
                j = i + 1
                if j < n and text[j] in "+-":
                    j += 1
                if j < n and text[j].isdigit():
                    i = j
                    while i < n and text[i].isdigit():
                        i += 1
            tokens.append(Token(TokenType.NUMBER, text[start:i], start))
            continue
        if ch.isalpha() or ch == "_":
            start = i
            i = _WORD_TAIL.match(text, i + 1).end()
            word = text[start:i]
            lowered = word.lower()
            if lowered in KEYWORDS:
                tokens.append(Token(TokenType.KEYWORD, lowered, start))
            else:
                tokens.append(Token(TokenType.IDENT, word, start))
            continue
        op = _TWO_CHAR_OPERATORS.get(text[i : i + 2])
        if op is not None:
            tokens.append(Token(TokenType.OPERATOR, op, i))
            i += 2
            continue
        if ch in _ONE_CHAR_OPERATORS:
            tokens.append(Token(TokenType.OPERATOR, ch, i))
            i += 1
            continue
        if ch in _PUNCT:
            tokens.append(Token(TokenType.PUNCT, ch, i))
            i += 1
            continue
        if ch == "?":
            # Positional parameter; value is empty, slot assigned by parser.
            tokens.append(Token(TokenType.PARAM, "", i))
            i += 1
            continue
        if ch == ":":
            start = i
            i += 1
            if i < n and (text[i].isalpha() or text[i] == "_"):
                name_start = i
                while i < n and (text[i].isalnum() or text[i] == "_"):
                    i += 1
                tokens.append(Token(TokenType.PARAM, text[name_start:i], start))
                continue
            raise ParseError("expected parameter name after ':'", start)
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(Token(TokenType.EOF, "", n))
    return tokens


def _read_string(text: str, start: int) -> tuple[str, int]:
    """Read a single-quoted string starting at ``start``; '' escapes a quote."""
    out: list[str] = []
    i = start + 1
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "'":
            if i + 1 < n and text[i + 1] == "'":
                out.append("'")
                i += 2
                continue
            return "".join(out), i + 1
        out.append(ch)
        i += 1
    raise ParseError("unterminated string literal", start)
