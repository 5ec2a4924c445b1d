"""Differential tests for the table-driven front end.

The scanner, the LALR parser and the APT builder run from tables they
derive once (transition rows, integer action codes, build plans).  Each
is checked here against a reference kept in this file that reads the
original structures directly: the per-character ``DFA.step`` /
``DFA.accept_tag`` maximal-munch walk, a ``ParseTables.action_for`` /
``goto_for`` interpreter, and an APT listener that builds an
:class:`APTNode` per event and sums ``APTNode.byte_size()``.
"""

import pickle

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.apt.build import APTBuilder, default_intrinsics
from repro.apt.linear import TreeNode, iter_prefix
from repro.apt.node import APTNode
from repro.apt.storage import MemorySpool
from repro.ag.model import SymbolKind
from repro.core import Linguist
from repro.errors import EvaluationError, ParseError, ScanError, SourceLocation
from repro.frontend.lexer import KEYWORDS, make_scanner
from repro.grammars import GRAMMAR_NAMES, library_for, load_source
from repro.grammars.scanners import calc_scanner_spec, pascal_scanner_spec
from repro.lalr.grammar import EOF_SYMBOL, Production
from repro.lalr.parser import LALRParser, ParseListener, ParseTreeNode
from repro.lalr.tables import ActionKind
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.passes.schedule import Direction
from repro.regex.ast import char_code
from repro.regex.dfa import DEAD
from repro.regex.scanner import Token
from repro.util.nametable import NameTable
from repro.workloads.generators import (
    generate_ag_source,
    generate_calc_program,
    generate_pascal_program,
)

# ---------------------------------------------------------------------------
# References
# ---------------------------------------------------------------------------


def reference_scan(scanner, text):
    """Maximal munch by ``DFA.step``/``accept_tag`` per character, one
    fresh name table per scan.  Returns ``(tokens, error text)`` with
    tokens as ``(kind, text, line, column, name_index)``."""
    dfa = scanner.dfa
    names = NameTable()
    out = []
    pos, line, col, n = 0, 1, 1, len(text)
    while pos < n:
        state = dfa.start
        last, last_end, i = None, pos, pos
        while i < n:
            state = dfa.step(state, char_code(text[i]))
            if state == DEAD:
                break
            i += 1
            tag = dfa.accept_tag(state)
            if tag is not None:
                last, last_end = tag, i
        if last is None:
            return out, f"{scanner.filename}:{line}:{col}: illegal character {text[pos]!r}"
        lexeme = text[pos:last_end]
        start = (line, col)
        newlines = lexeme.count("\n")
        if newlines:
            line += newlines
            col = len(lexeme) - lexeme.rfind("\n")
        else:
            col += len(lexeme)
        pos = last_end
        kind = last
        if kind in scanner.keyword_kinds and lexeme in scanner.keywords:
            kind = scanner.keywords[lexeme]
        if kind in scanner.skip:
            continue
        index = names.intern(lexeme) if kind in scanner.intern_kinds else 0
        out.append((kind, lexeme) + start + (index,))
    out.append((EOF_SYMBOL, "", line, col, 0))
    return out, None


def table_scan(scanner, text):
    """The scanner under test, in the shape of :func:`reference_scan`."""
    out = []
    try:
        for tok in scanner.tokens(text):
            assert type(tok.location) is SourceLocation
            assert tok.location.filename == scanner.filename
            out.append(
                (tok.kind, tok.text, tok.location.line, tok.location.column, tok.name_index)
            )
    except ScanError as exc:
        return out, str(exc)
    return out, None


def _eof():
    return Token(EOF_SYMBOL, "", SourceLocation())


def reference_parse(tables, tokens):
    """Shift-reduce over ``action_for``/``goto_for``.  Returns the event
    list, the syntax-error text (or None) and the parse tree."""
    grammar = tables.grammar
    events = []
    states = [0]
    nodes = []
    stream = iter(tokens)
    token = next(stream, None) or _eof()
    while True:
        act = tables.action_for(states[-1], token.kind)
        if act is None:
            expected = tables.expected_terminals(states[-1])
            return events, (
                f"{token.location}: syntax error at {token.kind} "
                f"({token.text!r}); expected one of: {', '.join(expected)}"
            ), None
        if act.kind is ActionKind.SHIFT:
            events.append(("shift", token))
            states.append(act.target)
            nodes.append(ParseTreeNode(token.kind, token=token))
            token = next(stream, None) or _eof()
        elif act.kind is ActionKind.REDUCE:
            prod = grammar.productions[act.target]
            n = len(prod.rhs)
            children = nodes[len(nodes) - n:]
            del states[len(states) - n:]
            del nodes[len(nodes) - n:]
            events.append(("reduce", prod.index))
            states.append(tables.goto_for(states[-1], prod.lhs))
            nodes.append(ParseTreeNode(prod.lhs, production=prod, children=children))
        else:
            events.append(("shift", token))
            root = ParseTreeNode(
                grammar.productions[0].lhs,
                production=grammar.productions[0],
                children=[nodes[-1], ParseTreeNode(EOF_SYMBOL, token=token)],
            )
            return events, None, root


class Recorder(ParseListener):
    def __init__(self):
        self.events = []

    def on_shift(self, token):
        self.events.append(("shift", token))

    def on_reduce(self, production):
        self.events.append(("reduce", production.index))


def table_parse(parser, tokens, build_tree=False, tracer=None):
    rec = Recorder()
    try:
        root = parser.parse(tokens, listener=rec, build_tree=build_tree, tracer=tracer)
    except ParseError as exc:
        return rec.events, str(exc), None
    return rec.events, None, root


class ReferenceBuilder(ParseListener):
    """One :class:`APTNode` per event; sizes summed by ``byte_size()``."""

    def __init__(self, ag, intrinsic_fn=default_intrinsics):
        self.ag = ag
        self.intrinsic_fn = intrinsic_fn
        self.records = []
        self.total_bytes = 0
        self.stack = []

    def _emit(self, node):
        self.total_bytes += node.byte_size()
        self.records.append((node.symbol, node.production, node.attrs, node.is_limb))

    def on_shift(self, token):
        if token.kind == EOF_SYMBOL:
            return
        sym = self.ag.symbols.get(token.kind)
        if sym is None or sym.kind is not SymbolKind.TERMINAL:
            raise EvaluationError(
                f"parser shifted {token.kind!r}, which is not a terminal of "
                f"attribute grammar {self.ag.name!r}"
            )
        attrs = {a.name: self.intrinsic_fn(token, sym.name, a.name) for a in sym.intrinsic}
        node = APTNode(sym.name, None, attrs)
        self._emit(node)
        self.stack.append(TreeNode(node))

    def on_reduce(self, cfg_prod):
        if cfg_prod.index == 0:
            return
        prod = self.ag.productions[cfg_prod.index - 1]
        if prod.lhs != cfg_prod.lhs or prod.rhs != cfg_prod.rhs:
            raise EvaluationError(
                f"parser production {cfg_prod} does not match attribute "
                f"grammar production {prod} — the same input file must drive "
                "both tools"
            )
        n = len(prod.rhs)
        children = self.stack[len(self.stack) - n:]
        del self.stack[len(self.stack) - n:]
        limb = None
        if prod.limb:
            limb = APTNode(prod.limb, prod.index, {}, True)
            self._emit(limb)
        node = APTNode(prod.lhs, prod.index)
        self._emit(node)
        self.stack.append(TreeNode(node, children, limb))


# ---------------------------------------------------------------------------
# Fixtures: the three front ends and their corpora
# ---------------------------------------------------------------------------

FRONT_ENDS = ("calc", "pascal", "linguist")


@pytest.fixture(scope="module")
def front_ends():
    """Per language: (scanner, linguist) — the linguist's AG and tables
    are those of the grammar whose input the scanner reads."""
    specs = {"calc": calc_scanner_spec(), "pascal": pascal_scanner_spec()}
    out = {}
    for name in FRONT_ENDS:
        linguist = Linguist(load_source(name))
        scanner = make_scanner() if name == "linguist" else specs[name].generate()
        out[name] = (scanner, linguist)
    return out


def corpus(name):
    if name == "calc":
        return [generate_calc_program(n, seed) for n, seed in ((1, 1), (12, 2), (40, 3))]
    if name == "pascal":
        return [generate_pascal_program(n, seed) for n, seed in ((1, 1), (15, 2), (50, 3))]
    return [load_source(g) for g in GRAMMAR_NAMES] + [generate_ag_source(12, 5)]


# ---------------------------------------------------------------------------
# Scanner
# ---------------------------------------------------------------------------

_COMMON = [" ", "  ", "\t", "\n", "\r\n", "\n\n", "x", "x1", "abc_9", "Zz", "0", "42",
           "007", "é", "λ", " ", "日本", "@", "~", "`", "!", "?", "%", "^", "&", "|"]
FRAGMENTS = {
    "calc": _COMMON + ["let", "print", "lets", "=", "+", "-", "*", "(", ")", ";",
                       "# note\n", "#", "# ü\n"],
    "pascal": _COMMON + [kw for kw in ("program", "var", "begin", "end", "if", "then",
                                       "while", "do", "div", "writeln", "true")]
    + [":=", "<>", "<=", ">=", "<", ">", "=", ":", ",", ".", ";", "{ c }", "{\nx\n}",
       "{ unclosed", "}", "BEGIN"],
    "linguist": _COMMON + KEYWORDS + ["x$y", "a$0", "'s'", "'it''s'", "'open", "'\n'",
                                      "->", "-", ">", "<>", "<=", ".", ",", ";", ":",
                                      "# comment\n", "#", "$"],
}


def texts(name):
    piece = st.one_of(st.sampled_from(FRAGMENTS[name]), st.text(max_size=3))
    return st.lists(piece, max_size=40).map("".join)


@pytest.mark.parametrize("name", FRONT_ENDS)
class TestScannerAgainstReference:
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_random_texts(self, front_ends, name, data):
        scanner = front_ends[name][0]
        text = data.draw(texts(name))
        assert table_scan(scanner, text) == reference_scan(scanner, text)

    def test_corpus(self, front_ends, name):
        scanner = front_ends[name][0]
        for text in corpus(name):
            ours = table_scan(scanner, text)
            assert ours[1] is None
            assert ours == reference_scan(scanner, text)


def test_scan_error_keeps_earlier_tokens_and_coordinates(front_ends):
    scanner = front_ends["calc"][0]
    tokens, error = table_scan(scanner, "let x = 1 ;\n  print é")
    assert error == "<input>:2:9: illegal character 'é'"
    assert [t[0] for t in tokens] == ["LET", "ID", "ASSIGN", "NUM", "SEMI", "PRINT"]


def test_token_is_immutable_hashable_and_picklable():
    tok = Token("ID", "x", SourceLocation(3, 4, "f.pas"), 7)
    same = Token("ID", "x", SourceLocation(3, 4, "f.pas"), 7)
    assert tok == same and hash(tok) == hash(same)
    assert tok != Token("ID", "x", SourceLocation(3, 5, "f.pas"), 7)
    assert pickle.loads(pickle.dumps(tok)) == tok
    assert type(pickle.loads(pickle.dumps(tok)).location) is SourceLocation
    with pytest.raises(AttributeError):
        tok.kind = "NUM"
    assert Token("EOF", "", SourceLocation()).name_index == 0
    assert repr(tok) == "Token(ID, 'x', 3:4)"


# ---------------------------------------------------------------------------
# Name-table indexes depend only on the text being scanned
# ---------------------------------------------------------------------------


class TestNameIndexesPerScan:
    A = "let x = 1 ; let q = x"
    B = "let y = 1 ; let x = 2 ; print y + x"

    def test_scanner_reuse_matches_fresh_scanner(self):
        warm = calc_scanner_spec().generate()
        list(warm.tokens(self.A))
        after = [(t.kind, t.text, t.name_index) for t in warm.tokens(self.B)]
        fresh = calc_scanner_spec().generate()
        assert after == [(t.kind, t.text, t.name_index) for t in fresh.tokens(self.B)]
        assert [t.name_index for t in fresh.tokens(self.B) if t.kind == "ID"][:2] == [1, 2]
        # The table holds the last scan's names only: it does not grow.
        assert sorted(warm.names) == ["x", "y"]

    NAMES_AG = """
grammar names : prog .

symbols
  nonterminal prog, items ;
  terminal ID ;
  limb ProgLimb, MoreLimb, OneLimb ;

attributes
  prog  : synthesized OUT list ;
  items : synthesized OUT list ;
  ID    : intrinsic NAME int ;

productions

prog = items -> ProgLimb .
  prog.OUT = items.OUT ;

items0 = items1 ID -> MoreLimb .
  items0.OUT = append(items1.OUT, cons(ID.NAME, empty$list())) ;

items = ID -> OneLimb .
  items.OUT = cons(ID.NAME, empty$list()) ;

end
"""

    def test_translate_reuse_matches_fresh_translator(self):
        linguist = Linguist(self.NAMES_AG)

        def translator():
            return linguist.make_translator(calc_scanner_spec(), library=library_for("calc"))

        warm = translator()
        assert list(warm.translate("a b a").root_attrs["OUT"]) == [1, 2, 1]
        after = warm.translate("b c b").root_attrs
        assert after == translator().translate("b c b").root_attrs
        assert list(after["OUT"]) == [1, 2, 1]


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _mutate(tokens, op, i, j, kinds):
    """Delete / duplicate / swap / re-kind a non-EOF token."""
    body, eof = list(tokens[:-1]), tokens[-1]
    if not body:
        return tokens
    i %= len(body)
    j %= len(body)
    if op == 0:
        del body[i]
    elif op == 1:
        body.insert(i, body[i])
    elif op == 2:
        body[i], body[j] = body[j], body[i]
    else:
        tok = body[i]
        body[i] = Token(kinds[j % len(kinds)], tok.text, tok.location, tok.name_index)
    return body + [eof]


@pytest.mark.parametrize("name", FRONT_ENDS)
class TestParserAgainstReference:
    def test_corpus_events_trees_and_spans(self, front_ends, name):
        scanner, linguist = front_ends[name]
        tables = linguist.parse_tables()
        parser = LALRParser(tables)
        for text in corpus(name):
            tokens = scanner.scan(text)
            events, error, tree = reference_parse(tables, tokens)
            assert error is None
            assert table_parse(parser, tokens)[:2] == (events, None)
            tracer = Tracer()
            ours = table_parse(parser, tokens, build_tree=True, tracer=tracer)
            assert ours[:2] == (events, None)
            assert ours[2].pretty() == tree.pretty()
            (span,) = tracer.spans("parse")
            assert span.args == {
                "n_shifts": sum(e[0] == "shift" for e in events) - 1,
                "n_reduces": sum(e[0] == "reduce" for e in events),
            }

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(ops=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 10**6),
                                  st.integers(0, 10**6)), min_size=1, max_size=3))
    def test_mutated_streams(self, front_ends, name, ops):
        scanner, linguist = front_ends[name]
        tables = linguist.parse_tables()
        parser = LALRParser(tables)
        kinds = sorted(tables.grammar.terminals)
        tokens = scanner.scan(corpus(name)[1])
        for op, i, j in ops:
            tokens = _mutate(tokens, op, i, j, kinds)
        ref_events, ref_error, _ = reference_parse(tables, tokens)
        assert table_parse(parser, tokens) == (ref_events, ref_error, None)
        assert table_parse(parser, tokens, build_tree=True)[:2] == (ref_events, ref_error)


def test_parser_without_listener_or_eof_token(front_ends):
    scanner, linguist = front_ends["calc"]
    parser = LALRParser(linguist.parse_tables())
    tokens = scanner.scan("print 1")
    assert parser.parse(tokens, build_tree=False) is None
    # A stream that stops without $eof reads as if it ended with one.
    assert parser.parse(tokens[:-1]).pretty() == parser.parse(tokens).pretty()
    with pytest.raises(ParseError, match=r"syntax error at \$eof"):
        parser.parse([])


# ---------------------------------------------------------------------------
# APT builder
# ---------------------------------------------------------------------------


def _counter(metrics, name):
    return metrics.counter(name).value


@pytest.mark.parametrize("name", FRONT_ENDS)
def test_builder_matches_reference(front_ends, name):
    scanner, linguist = front_ends[name]
    parser = LALRParser(linguist.parse_tables())
    for text in corpus(name):
        tokens = scanner.scan(text)
        ref = ReferenceBuilder(linguist.ag)
        parser.parse(tokens, listener=ref, build_tree=False)

        spool = MemorySpool()
        metrics = MetricsRegistry()
        builder = APTBuilder(linguist.ag, spool, metrics=metrics)
        parser.parse(tokens, listener=builder, build_tree=False)
        builder.finish()
        assert list(spool.read_forward()) == ref.records
        assert builder.n_nodes == len(ref.records) == _counter(metrics, "apt.nodes")
        assert builder.total_node_bytes == ref.total_bytes
        assert _counter(metrics, "apt.node_bytes") == ref.total_bytes

        tree_builder = APTBuilder(linguist.ag, None, build_tree=True)
        parser.parse(tokens, listener=tree_builder, build_tree=False)
        tree_builder.finish()
        prefix = MemorySpool()
        tree_builder.emit_prefix(prefix)
        (root,) = ref.stack
        assert list(prefix.read_forward()) == [
            (n.symbol, n.production, n.attrs, n.is_limb)
            for n in iter_prefix(root, Direction.L2R)
        ]


def test_builder_errors_match_reference(front_ends):
    calc_scanner, _ = front_ends["calc"]
    _, pascal = front_ends["pascal"]
    _, calc = front_ends["calc"]

    def error_of(listener, event, arg):
        with pytest.raises(EvaluationError) as info:
            getattr(listener, event)(arg)
        return str(info.value)

    let = calc_scanner.scan("let")[0]
    assert error_of(APTBuilder(pascal.ag), "on_shift", let) == error_of(
        ReferenceBuilder(pascal.ag), "on_shift", let
    )
    wrong = Production(1, "stmt", ("PRINT",))
    builder = APTBuilder(calc.ag)
    first = error_of(builder, "on_reduce", wrong)
    assert first == error_of(ReferenceBuilder(calc.ag), "on_reduce", wrong)
    assert "does not match attribute grammar production" in first
