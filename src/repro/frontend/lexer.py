"""Lexical structure of the ``.ag`` input language.

Identifiers follow the paper's convention: ``$`` is a word separator
(``function$list``, ``union$setof``); trailing digits distinguish
occurrences (``function$list0``).  ``#`` starts a comment to end of
line (the paper's listings carry ``# pass 2`` comments).
"""

from __future__ import annotations

from repro.regex.generator import ScannerSpec
from repro.regex.scanner import Scanner

#: Keywords of the input language (section structure + expressions).
KEYWORDS = [
    "grammar",
    "symbols",
    "attributes",
    "productions",
    "end",
    "nonterminal",
    "terminal",
    "limb",
    "inherited",
    "synthesized",
    "intrinsic",
    "local",
    "if",
    "then",
    "elsif",
    "else",
    "endif",
    "and",
    "or",
    "not",
    "div",
    "true",
    "false",
]


def _build_spec() -> ScannerSpec:
    spec = ScannerSpec()
    spec.rule("WS", r"[ \t\r\n]+", skip=True)
    spec.rule("COMMENT", r"#[^\n]*", skip=True)
    spec.rule("IDENT", r"[A-Za-z][A-Za-z0-9$_]*", intern=True)
    spec.rule("NUMBER", r"\d+")
    spec.rule("STRING", r"'([^'\n]|'')*'")
    spec.rule("ARROW", r"\->")
    spec.rule("NE", r"<>")
    spec.rule("LE", r"<=")
    spec.rule("GE", r">=")
    spec.rule("LT", r"<")
    spec.rule("GT", r">")
    spec.rule("EQ", r"=")
    spec.rule("PLUS", r"\+")
    spec.rule("MINUS", r"\-")
    spec.rule("STAR", r"\*")
    spec.rule("LPAREN", r"\(")
    spec.rule("RPAREN", r"\)")
    spec.rule("COMMA", r",")
    spec.rule("SEMI", r";")
    spec.rule("COLON", r":")
    spec.rule("DOT", r"\.")
    for kw in KEYWORDS:
        spec.keyword(kw, kw.upper())
    return spec


#: The declarative lexical spec (inspected by tests and the listing).
LEXICAL_SPEC = _build_spec()

_GENERATOR = None


def make_scanner(filename: str = "<input>") -> Scanner:
    """A scanner for the input language (tables built once, cached)."""
    global _GENERATOR
    if _GENERATOR is None:
        from repro.regex.generator import ScannerGenerator

        _GENERATOR = ScannerGenerator(LEXICAL_SPEC)
        _GENERATOR.build_tables()
    return _GENERATOR.generate(filename=filename)
