"""Table-driven shift-reduce parser.

The parser interprets :class:`~repro.lalr.tables.ParseTables` over a
token stream.  It reports events through a listener so the APT builder
can emit tree nodes **in bottom-up order** — exactly the paper's first
linearization strategy ("for the parser to emit tree nodes in bottom-up
order … the first attribute evaluation pass is right-to-left").  A
generic :class:`ParseTreeNode` builder is provided for tests and for
the prefix-emission strategy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from repro.errors import ParseError
from repro.lalr.grammar import EOF_SYMBOL, Grammar, Production
from repro.lalr.tables import ActionKind, ParseTables
from repro.regex.scanner import Token


@dataclass
class ParseTreeNode:
    """A generic concrete-syntax tree node."""

    symbol: str
    production: Optional[Production] = None  # None for terminal leaves
    token: Optional[Token] = None
    children: List["ParseTreeNode"] = field(default_factory=list)

    @property
    def is_leaf(self) -> bool:
        return self.production is None

    def pretty(self, indent: int = 0) -> str:
        pad = "  " * indent
        if self.is_leaf:
            text = self.token.text if self.token else ""
            return f"{pad}{self.symbol} {text!r}"
        lines = [f"{pad}{self.symbol}  [{self.production.tag or self.production.index}]"]
        lines.extend(child.pretty(indent + 1) for child in self.children)
        return "\n".join(lines)

    def leaves(self) -> Iterable["ParseTreeNode"]:
        if self.is_leaf:
            yield self
            return
        for child in self.children:
            yield from child.leaves()


class ParseListener:
    """Receives shift/reduce events during parsing.

    ``on_shift`` fires for every terminal consumed; ``on_reduce`` fires
    for every production applied, in bottom-up order — together these
    form the right-parse the first evaluation pass consumes.
    """

    def on_shift(self, token: Token) -> None:  # pragma: no cover - interface
        pass

    def on_reduce(self, production: Production) -> None:  # pragma: no cover
        pass


#: Action code of ACCEPT: it reads as "reduce by production 0", the
#: synthetic ``$accept -> start $eof`` that is never reduced otherwise.
_ACCEPT = ~0


class LALRParser:
    """Interprets LALR parse tables over a scanner's token stream.

    The tables are read through integer action codes derived once per
    parser: per state, a map from terminal to ``target`` (shift) or
    ``~production`` (reduce, with ``~0`` for accept), and a map from
    nonterminal to goto state; per production, ``(lhs, len(rhs))``.
    """

    def __init__(self, tables: ParseTables):
        self.tables = tables
        self.grammar: Grammar = tables.grammar
        self._actions: List[Dict[str, int]] = [{} for _ in range(tables.n_states)]
        self._gotos: List[Dict[str, int]] = [{} for _ in range(tables.n_states)]
        for (state, terminal), act in tables.action.items():
            if act.kind is ActionKind.SHIFT:
                code = act.target
            elif act.kind is ActionKind.REDUCE:
                code = ~act.target
            else:
                code = _ACCEPT
            self._actions[state][terminal] = code
        for (state, nonterminal), target in tables.goto.items():
            self._gotos[state][nonterminal] = target
        self._shapes = [(p.lhs, len(p.rhs)) for p in self.grammar.productions]

    def parse(
        self,
        tokens: Iterable[Token],
        listener: Optional[ParseListener] = None,
        build_tree: bool = True,
        tracer=None,
    ) -> Optional[ParseTreeNode]:
        """Parse ``tokens``; return the tree root (or None if not built).

        ``tokens`` must end with a token whose kind is ``$eof`` (the
        scanner emits one).  Raises :class:`ParseError` on syntax errors
        with the set of expected terminals.  With a ``tracer`` the whole
        parse runs inside one span (category ``parse``) whose args carry
        the final shift/reduce counts.
        """
        if tracer is not None:
            span = tracer.begin("parse", cat="parse")
            try:
                return self._parse(tokens, listener, build_tree, span)
            finally:
                tracer.end()
        return self._parse(tokens, listener, build_tree, None)

    def _parse(
        self,
        tokens: Iterable[Token],
        listener: Optional[ParseListener],
        build_tree: bool,
        span,
    ) -> Optional[ParseTreeNode]:
        if listener is None:
            listener = ParseListener()
        on_shift = listener.on_shift
        on_reduce = listener.on_reduce
        actions = self._actions
        gotos = self._gotos
        shapes = self._shapes
        productions = self.grammar.productions
        n_shifts = 0
        n_reduces = 0
        state = 0
        state_stack: List[int] = [state]
        node_stack: List[Optional[ParseTreeNode]] = []
        stream = iter(tokens)
        token = next(stream, None)
        if token is None:
            token = Token(EOF_SYMBOL, "", _loc())
        while True:
            code = actions[state].get(token.kind)
            if code is None:
                expected = self.tables.expected_terminals(state)
                raise ParseError(
                    f"{token.location}: syntax error at {token.kind} "
                    f"({token.text!r}); expected one of: {', '.join(expected)}"
                )
            if code >= 0:  # shift
                n_shifts += 1
                on_shift(token)
                state = code
                state_stack.append(state)
                if build_tree:
                    node_stack.append(ParseTreeNode(token.kind, token=token))
                token = next(stream, None)
                if token is None:
                    token = Token(EOF_SYMBOL, "", _loc())
            elif code != _ACCEPT:  # reduce
                n_reduces += 1
                prod = ~code
                lhs, n = shapes[prod]
                if n:
                    del state_stack[-n:]
                if build_tree:
                    children = node_stack[len(node_stack) - n :]
                    del node_stack[len(node_stack) - n :]
                on_reduce(productions[prod])
                state = gotos[state_stack[-1]].get(lhs)
                if state is None:
                    raise ParseError(
                        f"internal: missing goto for {lhs} in state {state_stack[-1]}"
                    )
                state_stack.append(state)
                if build_tree:
                    node_stack.append(
                        ParseTreeNode(lhs, production=productions[prod], children=children)
                    )
            else:  # accept
                if span is not None:
                    span.args["n_shifts"] = n_shifts
                    span.args["n_reduces"] = n_reduces
                on_shift(token)  # the $eof leaf
                if build_tree:
                    return ParseTreeNode(
                        productions[0].lhs,
                        production=productions[0],
                        children=[node_stack[-1], ParseTreeNode(EOF_SYMBOL, token=token)],
                    )
                return None


def _loc():
    from repro.errors import SourceLocation

    return SourceLocation()
