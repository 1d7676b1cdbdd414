"""The lexer for the C subset: one compiled regular expression.

The lexer tracks 1-based line and column numbers for every token; those
positions become the ``(line, offset)`` sites that debug information and the
crash-site mapping oracle work with.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List

from repro.utils.errors import LexError

KEYWORDS = {
    "void", "char", "short", "int", "long", "unsigned", "signed",
    "struct", "if", "else", "for", "while", "do", "return", "break",
    "continue", "sizeof", "static", "const", "volatile", "extern",
}

# Multi-character operators, longest first so maximal munch works.
_OPERATORS = [
    "<<=", ">>=", "...",
    "==", "!=", "<=", ">=", "&&", "||", "<<", ">>", "->", "++", "--",
    "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
    "+", "-", "*", "/", "%", "=", "<", ">", "!", "~", "&", "|", "^",
    "?", ":", ";", ",", ".", "(", ")", "[", "]", "{", "}",
]


@dataclass(frozen=True)
class Token:
    kind: str        # "ident", "keyword", "number", "string", "char", "op", "eof"
    text: str
    line: int
    col: int

    @property
    def is_eof(self) -> bool:
        return self.kind == "eof"

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return f"{self.kind}({self.text!r})@{self.line}:{self.col}"


# One alternative per token class, tried in order at each position.  Trivia
# (whitespace, comments, "#" lines) comes before the operators so "/"
# starts a comment where one fits; every other class is told apart by its
# first character.  ``\w`` is exactly ``str.isalnum()`` plus "_"; an
# identifier's first character must also be a letter (see Lexer.tokenize
# for the non-letter numerics ``\w`` admits).
_TOKEN_RE = re.compile(r"""
    (?P<skip>[ \t\r\n]+|//[^\n]*|\#[^\n]*|/\*[^*]*\*+(?:[^/*][^*]*\*+)*/)
  | (?P<open_comment>/\*)
  | (?P<ident>[^\W\d]\w*)
  | (?P<hex>0[xX][0-9a-fA-F]*[uUlL]*)
  | (?P<number>\d+[uUlL]*)
  | (?P<string>"[^"\\]*(?:\\.[^"\\]*)*")
  | (?P<open_string>")
  | (?P<char>'[^'\\]*(?:\\.[^'\\]*)*')
  | (?P<open_char>')
  | (?P<op>""" + "|".join(re.escape(op) for op in _OPERATORS) + r""")
  | (?P<other>.)
""", re.VERBOSE | re.DOTALL)


class Lexer:
    """Tokenize C-subset source text with one compiled regular expression."""

    def __init__(self, source: str) -> None:
        self.source = source

    def tokenize(self) -> List[Token]:
        source = self.source
        end = len(source)
        tokens: List[Token] = []
        append = tokens.append
        match = _TOKEN_RE.match
        pos = 0
        line = 1
        line_start = 0  # offset of the first character of the current line
        while pos < end:
            m = match(source, pos)
            kind = m.lastgroup
            text = m.group()
            col = pos - line_start + 1
            if kind == "ident":
                first = text[0]
                if first > "\x7f" and not first.isalpha():
                    # A numeric character that is not a letter ("²", "½"):
                    # a digit starts a number, anything else is invalid.
                    if not first.isdigit():
                        raise LexError(f"unexpected character {first!r}", line, col)
                    text = source[pos:_decimal_end(source, pos)]
                    append(Token("number", text, line, col))
                else:
                    append(Token("keyword" if text in KEYWORDS else "ident",
                                 text, line, col))
            elif kind == "op":
                append(Token("op", text, line, col))
            elif kind == "skip":
                newlines = text.count("\n")
                if newlines:
                    line += newlines
                    line_start = pos + text.rindex("\n") + 1
            elif kind == "number":
                stop = m.end()
                if (stop < end and source[stop] > "\x7f"
                        and text[-1] not in "uUlL" and source[stop].isdigit()):
                    # \d stops at a non-decimal digit such as "²".
                    text = source[pos:_decimal_end(source, stop)]
                append(Token("number", text, line, col))
            elif kind == "hex":
                append(Token("number", text, line, col))
            elif kind == "string" or kind == "char":
                append(Token(kind, text, line, col))
                newlines = text.count("\n")
                if newlines:
                    line += newlines
                    line_start = pos + text.rindex("\n") + 1
            elif kind == "open_comment":
                # Reported where the comment runs out: the end of input.
                rest = source[pos:]
                newlines = rest.count("\n")
                if newlines:
                    line += newlines
                    line_start = pos + rest.rindex("\n") + 1
                raise LexError("unterminated block comment", line,
                               end - line_start + 1)
            elif kind == "open_string":
                raise LexError("unterminated string literal", line, col)
            elif kind == "open_char":
                raise LexError("unterminated character literal", line, col)
            else:
                raise LexError(f"unexpected character {text!r}", line, col)
            pos += len(text)
        tokens.append(Token("eof", "", line, pos - line_start + 1))
        return tokens


def _decimal_end(source: str, pos: int) -> int:
    """End of the decimal literal whose digits continue at *pos*: every
    ``str.isdigit()`` character, then the integer suffix."""
    end = len(source)
    while pos < end and source[pos].isdigit():
        pos += 1
    while pos < end and source[pos] in "uUlL":
        pos += 1
    return pos


def tokenize(source: str) -> List[Token]:
    """Convenience wrapper returning the token list for *source*."""
    return Lexer(source).tokenize()
