"""Regular-expression abstract syntax.

The alphabet is bytes 0–127 plus a single "other" bucket (code 128) for
any non-ASCII character; LINGUIST-86 inputs are ASCII, and bucketing
keeps DFA rows small the way the original's table-driven scanner did.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Tuple

#: Code used for every character outside the 7-bit ASCII range.
OTHER = 128

#: Size of the scanner alphabet (ASCII plus the OTHER bucket).
ALPHABET_SIZE = 129


def char_code(ch: str) -> int:
    """Map a character to its alphabet code."""
    cp = ord(ch)
    return cp if cp < 128 else OTHER


class Regex:
    """Base class for regular-expression AST nodes."""

    __slots__ = ()

    def __or__(self, other: "Regex") -> "Regex":
        return Alt(self, other)

    def __add__(self, other: "Regex") -> "Regex":
        return Concat(self, other)

    def plus(self) -> "Regex":
        return Plus(self)

    def opt(self) -> "Regex":
        return Opt(self)


@dataclass(frozen=True)
class Empty(Regex):
    """Matches the empty string (epsilon)."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "ε"


@dataclass(frozen=True)
class CharSet(Regex):
    """Matches any single character whose code is in ``codes``."""

    codes: FrozenSet[int]

    def __repr__(self) -> str:
        if len(self.codes) == 1:
            (c,) = self.codes
            return repr(chr(c)) if c != OTHER else "<other>"
        return f"[{len(self.codes)} chars]"

    @staticmethod
    def of(chars: str) -> "CharSet":
        return CharSet(frozenset(char_code(c) for c in chars))

    @staticmethod
    def range(lo: str, hi: str) -> "CharSet":
        return CharSet(frozenset(range(ord(lo), ord(hi) + 1)))

    @staticmethod
    def negated(codes: FrozenSet[int]) -> "CharSet":
        return CharSet(frozenset(range(ALPHABET_SIZE)) - codes)

    @staticmethod
    def any_char() -> "CharSet":
        """``.`` — anything except newline."""
        return CharSet.negated(frozenset({ord("\n")}))


@dataclass(frozen=True)
class Concat(Regex):
    left: Regex
    right: Regex

    def __repr__(self) -> str:
        return f"({self.left!r}{self.right!r})"


@dataclass(frozen=True)
class Alt(Regex):
    left: Regex
    right: Regex

    def __repr__(self) -> str:
        return f"({self.left!r}|{self.right!r})"


@dataclass(frozen=True)
class Star(Regex):
    body: Regex

    def __repr__(self) -> str:
        return f"({self.body!r})*"


@dataclass(frozen=True)
class Plus(Regex):
    body: Regex

    def __repr__(self) -> str:
        return f"({self.body!r})+"


@dataclass(frozen=True)
class Opt(Regex):
    body: Regex

    def __repr__(self) -> str:
        return f"({self.body!r})?"


def literal(text: str) -> Regex:
    """Regex matching exactly ``text``."""
    if not text:
        return Empty()
    node: Regex = CharSet.of(text[0])
    for ch in text[1:]:
        node = Concat(node, CharSet.of(ch))
    return node
