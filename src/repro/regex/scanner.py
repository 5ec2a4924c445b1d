"""Table-driven maximal-munch scanner interpreter.

LINGUIST-86's overlay 1 contains "the automatically generated scanner
tables and parser tables and their interpreters".  :class:`Scanner` is
the scanner-table interpreter: it walks the minimized DFA to the longest
match, applies keyword remapping, skips ignorable tokens, and tracks
source coordinates.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, NamedTuple, Optional, Set

from repro.errors import ScanError
from repro.regex.ast import ALPHABET_SIZE, char_code
from repro.regex.dfa import DFA
from repro.util.nametable import NameTable
from repro.errors import SourceLocation


class Token(NamedTuple):
    """One lexeme: kind, text, source location, optional interned name."""

    kind: str
    text: str
    location: SourceLocation
    name_index: int = 0

    def __repr__(self) -> str:
        return f"Token({self.kind}, {self.text!r}, {self.location.line}:{self.location.column})"


#: Kind used for the synthetic end-of-input token.
EOF = "$eof"


class Scanner:
    """Longest-match scanner over a DFA table.

    Parameters
    ----------
    dfa:
        the (minimized) DFA whose accept tags are token kinds.
    skip:
        token kinds to drop silently (whitespace, comments).
    keywords:
        map from exact lexeme to token kind; applied after a match of a
        kind in ``keyword_kinds`` (usually just the identifier kind).
    intern_kinds:
        kinds whose lexemes are interned in the name table and carried
        on the token as ``name_index`` — the paper's intrinsic
        name-table-index attributes of terminal leaves.  Each scan
        interns into a fresh table (left in ``names``), so an index
        depends only on the text being scanned.
    """

    def __init__(
        self,
        dfa: DFA,
        skip: Optional[Set[str]] = None,
        keywords: Optional[Dict[str, str]] = None,
        keyword_kinds: Optional[Set[str]] = None,
        intern_kinds: Optional[Set[str]] = None,
        filename: str = "<input>",
    ):
        self.dfa = dfa
        self.skip = skip or set()
        self.keywords = keywords or {}
        self.keyword_kinds = keyword_kinds or {"IDENT"}
        self.intern_kinds = intern_kinds or set()
        self.names = NameTable()
        self.filename = filename
        # The DFA as the scan loop reads it: one transition row per
        # state, and each state's accept tag (None if not accepting).
        self._rows = [
            dfa.trans[s * ALPHABET_SIZE : (s + 1) * ALPHABET_SIZE]
            for s in range(dfa.n_states)
        ]
        self._tags = [acc[1] if acc else None for acc in dfa.accepts]

    def tokens(self, text: str) -> Iterator[Token]:
        """Yield tokens of ``text``, ending with one EOF token."""
        names = self.names = NameTable()
        codes = text.encode("ascii") if text.isascii() else bytes(map(char_code, text))
        rows = self._rows
        tags = self._tags
        start = self.dfa.start
        skip = self.skip
        keywords = self.keywords
        keyword_kinds = self.keyword_kinds
        intern_kinds = self.intern_kinds
        filename = self.filename
        pos = 0
        line = 1
        line_start = 0  # offset of the first character of ``line``
        n = len(text)
        while pos < n:
            state = start
            kind: Optional[str] = None
            end = i = pos
            while i < n:
                state = rows[state][codes[i]]
                if state < 0:  # DEAD
                    break
                i += 1
                tag = tags[state]
                if tag is not None:
                    kind = tag
                    end = i
            if kind is None:
                raise ScanError(
                    f"{filename}:{line}:{pos - line_start + 1}: "
                    f"illegal character {text[pos]!r}"
                )
            lexeme = text[pos:end]
            if kind in keyword_kinds:
                kind = keywords.get(lexeme, kind)
            if kind not in skip:
                yield Token(
                    kind,
                    lexeme,
                    SourceLocation(line, pos - line_start + 1, filename),
                    names.intern(lexeme) if kind in intern_kinds else 0,
                )
            newlines = lexeme.count("\n")
            if newlines:
                line += newlines
                line_start = pos + lexeme.rfind("\n") + 1
            pos = end
        yield Token(EOF, "", SourceLocation(line, n - line_start + 1, filename))

    def scan(self, text: str) -> List[Token]:
        """Scan all of ``text`` into a token list (including EOF)."""
        return list(self.tokens(text))
