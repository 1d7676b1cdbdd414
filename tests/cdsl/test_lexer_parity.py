"""Property: the regex lexer matches the character-at-a-time reference.

On any input the two lexers produce the same token list, every
``(kind, text, line, col)`` equal, or raise the same ``LexError`` message
at the same line and column.  Inputs are C-token soup: whitespace,
``//``/``/* */`` comments and ``#`` lines, hex and suffixed numbers,
strings and chars with escapes and embedded newlines, unterminated
comments, strings and chars, every operator, non-ASCII identifier and
numeric characters, and arbitrary characters.
"""

from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st
from reference_lexer import _OPERATORS, reference_tokenize

from repro.cdsl.lexer import KEYWORDS, tokenize
from repro.utils.errors import LexError

FRAGMENTS = (
    # trivia
    " ", "\t", "\n", "\r\n", "  \n\t",
    "// line comment", "//", "/* block */", "/* spans\n two lines */",
    "/**/", "/***/", "/*/ x */", "/* ** */", "/*", "/* never closed",
    "#include <stdio.h>", "#",
    # identifiers and keywords
    "a", "_", "x1", "foo_bar", "__ub_hat_0", *sorted(KEYWORDS),
    "é", "ßx", "π2", "日本", "Ωmega", "a²", "x½",
    # non-letter numerics: "²" and "٣" are digits, "½" and "Ⅻ" are not
    "²", "³1", "½", "Ⅻ", "٣", "١٢",
    # numbers
    "0", "7", "123", "08", "0x", "0X1f", "0xFFu", "0x1g", "9UL", "3l",
    "42uLL", "1u2", "5e3",
    # strings and chars
    '""', '"abc"', '"a\\"b"', '"esc\\\\"', '"two\nlines"', '"\\\n"',
    '"open', '"\\', "''", "'a'", "'\\''", "'\\n'", "'\n'", "'", "'\\",
    # stray characters
    "`", "@", "$", "\\", "\x0b", "\x0c", "\x00", " ",
    *_OPERATORS,
)

soup = st.lists(
    st.one_of(st.sampled_from(FRAGMENTS), st.text(max_size=3)),
    max_size=40,
).map("".join)


def outcome(lex, source):
    try:
        return [(t.kind, t.text, t.line, t.col) for t in lex(source)]
    except LexError as exc:
        return ("LexError", str(exc), exc.line, exc.col)


@settings(max_examples=400, deadline=None)
@given(soup)
@example("a /* never closed")
@example("x\n  /* open\n at end")
@example('int s = "open\n')
@example("c = '")
@example("1²3u ²3u 0x1² 1u² ½")
@example("a²b ٣4 Ⅻ")
@example("p->x++ <<= >>= ... a/**/b /*/ */")
def test_regex_lexer_matches_reference(source):
    assert outcome(tokenize, source) == outcome(reference_tokenize, source)


def test_seed_programs_lex_identically():
    from repro.seedgen import CsmithGenerator, GeneratorConfig
    for seed in range(3):
        source = CsmithGenerator(GeneratorConfig(seed=seed)).generate(0).source
        assert outcome(tokenize, source) == outcome(reference_tokenize, source)
