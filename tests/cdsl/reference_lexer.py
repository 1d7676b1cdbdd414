"""The character-at-a-time C-subset lexer, kept as a reference oracle.

``repro.cdsl.lexer`` tokenizes with one compiled regular expression; this
is the hand-written lexer it replaced, one method call per character.  The
parity property test (``test_lexer_parity.py``) requires both to produce
the same tokens, or the same ``LexError`` at the same position, on any
input.
"""

from __future__ import annotations

from typing import List

from repro.cdsl.lexer import KEYWORDS, Token
from repro.utils.errors import LexError

# Multi-character operators, longest first so maximal munch works.
_OPERATORS = [
    "<<=", ">>=", "...",
    "==", "!=", "<=", ">=", "&&", "||", "<<", ">>", "->", "++", "--",
    "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
    "+", "-", "*", "/", "%", "=", "<", ">", "!", "~", "&", "|", "^",
    "?", ":", ";", ",", ".", "(", ")", "[", "]", "{", "}",
]


class ReferenceLexer:
    """The character-at-a-time lexer: one method call per character."""

    def __init__(self, source: str) -> None:
        self.source = source
        self.pos = 0
        self.line = 1
        self.col = 1

    def tokenize(self) -> List[Token]:
        tokens: List[Token] = []
        while True:
            tok = self._next_token()
            tokens.append(tok)
            if tok.is_eof:
                return tokens

    # -- internals ---------------------------------------------------------

    def _peek(self, offset: int = 0) -> str:
        idx = self.pos + offset
        return self.source[idx] if idx < len(self.source) else ""

    def _advance(self, count: int = 1) -> str:
        text = self.source[self.pos:self.pos + count]
        for ch in text:
            if ch == "\n":
                self.line += 1
                self.col = 1
            else:
                self.col += 1
        self.pos += count
        return text

    def _skip_trivia(self) -> None:
        while self.pos < len(self.source):
            ch = self._peek()
            if ch in " \t\r\n":
                self._advance()
            elif ch == "/" and self._peek(1) == "/":
                while self.pos < len(self.source) and self._peek() != "\n":
                    self._advance()
            elif ch == "/" and self._peek(1) == "*":
                self._advance(2)
                while self.pos < len(self.source):
                    if self._peek() == "*" and self._peek(1) == "/":
                        self._advance(2)
                        break
                    self._advance()
                else:
                    raise LexError("unterminated block comment", self.line, self.col)
            elif ch == "#":
                # Preprocessor-style lines (e.g. "#include") are skipped whole;
                # generated programs do not rely on the preprocessor.
                while self.pos < len(self.source) and self._peek() != "\n":
                    self._advance()
            else:
                return

    def _next_token(self) -> Token:
        self._skip_trivia()
        if self.pos >= len(self.source):
            return Token("eof", "", self.line, self.col)
        line, col = self.line, self.col
        ch = self._peek()
        if ch.isalpha() or ch == "_":
            return self._lex_ident(line, col)
        if ch.isdigit():
            return self._lex_number(line, col)
        if ch == '"':
            return self._lex_string(line, col)
        if ch == "'":
            return self._lex_char(line, col)
        for op in _OPERATORS:
            if self.source.startswith(op, self.pos):
                self._advance(len(op))
                return Token("op", op, line, col)
        raise LexError(f"unexpected character {ch!r}", line, col)

    def _lex_ident(self, line: int, col: int) -> Token:
        start = self.pos
        while self.pos < len(self.source) and (self._peek().isalnum() or self._peek() == "_"):
            self._advance()
        text = self.source[start:self.pos]
        kind = "keyword" if text in KEYWORDS else "ident"
        return Token(kind, text, line, col)

    def _lex_number(self, line: int, col: int) -> Token:
        start = self.pos
        if self._peek() == "0" and self._peek(1) in ("x", "X"):
            self._advance(2)
            while self.pos < len(self.source) and self._peek() in "0123456789abcdefABCDEF":
                self._advance()
        else:
            while self.pos < len(self.source) and self._peek().isdigit():
                self._advance()
        # Integer suffixes (u, l, ul, ull, ...)
        while self.pos < len(self.source) and self._peek() in "uUlL":
            self._advance()
        text = self.source[start:self.pos]
        return Token("number", text, line, col)

    def _lex_string(self, line: int, col: int) -> Token:
        start = self.pos
        self._advance()  # opening quote
        while self.pos < len(self.source) and self._peek() != '"':
            if self._peek() == "\\":
                self._advance()
            self._advance()
        if self.pos >= len(self.source):
            raise LexError("unterminated string literal", line, col)
        self._advance()  # closing quote
        return Token("string", self.source[start:self.pos], line, col)

    def _lex_char(self, line: int, col: int) -> Token:
        start = self.pos
        self._advance()  # opening quote
        while self.pos < len(self.source) and self._peek() != "'":
            if self._peek() == "\\":
                self._advance()
            self._advance()
        if self.pos >= len(self.source):
            raise LexError("unterminated character literal", line, col)
        self._advance()
        return Token("char", self.source[start:self.pos], line, col)


def reference_tokenize(source: str) -> List[Token]:
    return ReferenceLexer(source).tokenize()
