"""Syntax of the ``.ag`` input language.

The grammar below is itself fed to the project's LALR table builder —
the frontend parses attribute-grammar source with machinery the system
generates for its users, the way LINGUIST-86 did.  AST construction is
a classic syntax-directed translation: a value stack driven by the
parser's shift/reduce events.

Layout of an input file::

    grammar <name> : <start-symbol> .
    symbols
      nonterminal a, b ;  terminal C ;  limb L ;
    attributes
      a : inherited ENV envT, synthesized OUT outT ;
      C : intrinsic TEXT string ;
      L : local TMP int ;
    productions
    a0 = a1 C -> L .
      TMP = C.TEXT ,
      a1.ENV = a0.ENV ,               # explicit copy (or omit: implicit)
      a0.OUT = f(a1.OUT, TMP) ;
    end
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from repro.ag.expr import AttrRef, BinOp, Call, Const, Expr, If, Not
from repro.errors import ParseError
from repro.frontend.astnodes import AGFile, AttrDecl, FuncDecl, ProdDecl, SymDecl
from repro.frontend.lexer import make_scanner
from repro.lalr.grammar import Grammar
from repro.lalr.parser import LALRParser, ParseListener
from repro.lalr.tables import build_tables
from repro.regex.scanner import Token

# ---------------------------------------------------------------------------
# The context-free grammar of the input language.
# ---------------------------------------------------------------------------

_PRODUCTIONS = [
    ("File", "file",
     ["GRAMMAR", "IDENT", "COLON", "IDENT", "DOT",
      "SYMBOLS", "symdecls", "ATTRIBUTES", "attrdecls",
      "PRODUCTIONS", "prodlist", "END"]),
    ("SymMany", "symdecls", ["symdecls", "symdecl"]),
    ("SymOne", "symdecls", ["symdecl"]),
    ("SymDecl", "symdecl", ["symkind", "identlist", "SEMI"]),
    ("KindNonterminal", "symkind", ["NONTERMINAL"]),
    ("KindTerminal", "symkind", ["TERMINAL"]),
    ("KindLimb", "symkind", ["LIMB"]),
    ("IdentMany", "identlist", ["identlist", "COMMA", "IDENT"]),
    ("IdentOne", "identlist", ["IDENT"]),
    ("AttrNone", "attrdecls", []),
    ("AttrMany", "attrdecls", ["attrdecls", "attrdecl"]),
    ("AttrDecl", "attrdecl", ["IDENT", "COLON", "attrspecs", "SEMI"]),
    ("SpecMany", "attrspecs", ["attrspecs", "COMMA", "attrspec"]),
    ("SpecOne", "attrspecs", ["attrspec"]),
    ("AttrSpec", "attrspec", ["akind", "IDENT", "IDENT"]),
    ("KindInherited", "akind", ["INHERITED"]),
    ("KindSynthesized", "akind", ["SYNTHESIZED"]),
    ("KindIntrinsic", "akind", ["INTRINSIC"]),
    ("KindLocal", "akind", ["LOCAL"]),
    ("ProdMany", "prodlist", ["prodlist", "production"]),
    ("ProdOne", "prodlist", ["production"]),
    ("ProdBare", "production", ["header", "SEMI"]),
    ("ProdFuncs", "production", ["header", "funclist", "SEMI"]),
    ("Header", "header", ["IDENT", "EQ", "symseq", "DOT"]),
    ("HeaderLimb", "header", ["IDENT", "EQ", "symseq", "ARROW", "IDENT", "DOT"]),
    ("HeaderEmpty", "header", ["IDENT", "EQ", "DOT"]),
    ("HeaderEmptyLimb", "header", ["IDENT", "EQ", "ARROW", "IDENT", "DOT"]),
    ("SymSeqMany", "symseq", ["symseq", "IDENT"]),
    ("SymSeqOne", "symseq", ["IDENT"]),
    ("FuncMany", "funclist", ["funclist", "COMMA", "semfn"]),
    ("FuncOne", "funclist", ["semfn"]),
    ("SemFn", "semfn", ["targetlist", "EQ", "exprtop"]),
    ("TargetMany", "targetlist", ["targetlist", "COMMA", "target"]),
    ("TargetOne", "targetlist", ["target"]),
    ("TargetQualified", "target", ["IDENT", "DOT", "IDENT"]),
    ("TargetBare", "target", ["IDENT"]),
    ("ExprIf", "exprtop", ["ifexpr"]),
    ("ExprSimple", "exprtop", ["simple"]),
    ("IfExpr", "ifexpr", ["IF", "simple", "THEN", "exprseq", "elsetail"]),
    ("ElseTail", "elsetail", ["ELSE", "exprseq", "ENDIF"]),
    ("ElsifTail", "elsetail", ["ELSIF", "simple", "THEN", "exprseq", "elsetail"]),
    ("SeqMany", "exprseq", ["exprseq", "COMMA", "exprtop"]),
    ("SeqOne", "exprseq", ["exprtop"]),
    ("Simple", "simple", ["disj"]),
    ("Or", "disj", ["disj", "OR", "conj"]),
    ("Disj", "disj", ["conj"]),
    ("And", "conj", ["conj", "AND", "cmp"]),
    ("Conj", "conj", ["cmp"]),
    ("Compare", "cmp", ["add", "relop", "add"]),
    ("Cmp", "cmp", ["add"]),
    ("RelEq", "relop", ["EQ"]),
    ("RelNe", "relop", ["NE"]),
    ("RelLt", "relop", ["LT"]),
    ("RelGt", "relop", ["GT"]),
    ("RelLe", "relop", ["LE"]),
    ("RelGe", "relop", ["GE"]),
    ("Plus", "add", ["add", "PLUS", "mul"]),
    ("Minus", "add", ["add", "MINUS", "mul"]),
    ("Add", "add", ["mul"]),
    ("Times", "mul", ["mul", "STAR", "unary"]),
    ("Divide", "mul", ["mul", "DIV", "unary"]),
    ("Mul", "mul", ["unary"]),
    ("NotOp", "unary", ["NOT", "unary"]),
    ("NegOp", "unary", ["MINUS", "unary"]),
    ("Unary", "unary", ["primary"]),
    ("Number", "primary", ["NUMBER"]),
    ("Str", "primary", ["STRING"]),
    ("True", "primary", ["TRUE"]),
    ("False", "primary", ["FALSE"]),
    ("Name", "primary", ["IDENT"]),
    ("AttrRef", "primary", ["IDENT", "DOT", "IDENT"]),
    ("Call0", "primary", ["IDENT", "LPAREN", "RPAREN"]),
    ("CallN", "primary", ["IDENT", "LPAREN", "args", "RPAREN"]),
    ("Paren", "primary", ["LPAREN", "simple", "RPAREN"]),
    ("ArgMany", "args", ["args", "COMMA", "simple"]),
    ("ArgOne", "args", ["simple"]),
]


def input_language_grammar() -> Grammar:
    """The input language's own CFG (fed to the LALR builder)."""
    return Grammar("file", [(lhs, rhs, tag) for tag, lhs, rhs in _PRODUCTIONS])


_PARSER: Optional[LALRParser] = None


def _parser() -> LALRParser:
    """The input language's parser (tables built once, cached)."""
    global _PARSER
    if _PARSER is None:
        _PARSER = LALRParser(build_tables(input_language_grammar()))
    return _PARSER


# ---------------------------------------------------------------------------
# Syntax-directed AST construction.
# ---------------------------------------------------------------------------


def _text(tok: Token) -> str:
    return tok.text


def _branch(seq: List[Expr]):
    return tuple(seq)


_ACTIONS: Dict[str, Callable[[List[Any]], Any]] = {
    "File": lambda c: AGFile(
        name=_text(c[1]), start=_text(c[3]),
        symdecls=c[6], attrdecls=c[8], prods=c[10],
    ),
    "SymMany": lambda c: c[0] + [c[1]],
    "SymOne": lambda c: [c[0]],
    "SymDecl": lambda c: SymDecl(c[0][0], c[1], c[0][1]),
    "KindNonterminal": lambda c: ("nonterminal", c[0].location),
    "KindTerminal": lambda c: ("terminal", c[0].location),
    "KindLimb": lambda c: ("limb", c[0].location),
    "IdentMany": lambda c: c[0] + [_text(c[2])],
    "IdentOne": lambda c: [_text(c[0])],
    "AttrNone": lambda c: [],
    "AttrMany": lambda c: c[0] + [c[1]],
    "AttrDecl": lambda c: AttrDecl(_text(c[0]), c[2], c[0].location),
    "SpecMany": lambda c: c[0] + [c[2]],
    "SpecOne": lambda c: [c[0]],
    "AttrSpec": lambda c: (c[0], _text(c[1]), _text(c[2])),
    "KindInherited": lambda c: "inherited",
    "KindSynthesized": lambda c: "synthesized",
    "KindIntrinsic": lambda c: "intrinsic",
    "KindLocal": lambda c: "local",
    "ProdMany": lambda c: c[0] + [c[1]],
    "ProdOne": lambda c: [c[0]],
    "ProdBare": lambda c: ProdDecl(
        lhs=c[0][0], rhs=c[0][1], limb=c[0][2], funcs=[], location=c[0][3]
    ),
    "ProdFuncs": lambda c: ProdDecl(
        lhs=c[0][0], rhs=c[0][1], limb=c[0][2], funcs=c[1], location=c[0][3]
    ),
    "Header": lambda c: (_text(c[0]), c[2], "", c[0].location),
    "HeaderLimb": lambda c: (_text(c[0]), c[2], _text(c[4]), c[0].location),
    "HeaderEmpty": lambda c: (_text(c[0]), [], "", c[0].location),
    "HeaderEmptyLimb": lambda c: (_text(c[0]), [], _text(c[3]), c[0].location),
    "SymSeqMany": lambda c: c[0] + [_text(c[1])],
    "SymSeqOne": lambda c: [_text(c[0])],
    "FuncMany": lambda c: c[0] + [c[2]],
    "FuncOne": lambda c: [c[0]],
    "SemFn": lambda c: FuncDecl(targets=c[0][0], expr=c[2], location=c[0][1]),
    "TargetMany": lambda c: (c[0][0] + [c[2][0]], c[0][1]),
    "TargetOne": lambda c: ([c[0][0]], c[0][1]),
    "TargetQualified": lambda c: ((_text(c[0]), _text(c[2])), c[0].location),
    "TargetBare": lambda c: (("", _text(c[0])), c[0].location),
    "ExprIf": lambda c: c[0],
    "ExprSimple": lambda c: c[0],
    "IfExpr": lambda c: _make_if(c[1], c[3], c[4]),
    "ElseTail": lambda c: _branch(c[1]),
    "ElsifTail": lambda c: _make_if(c[1], c[3], c[4]),
    "SeqMany": lambda c: c[0] + [c[2]],
    "SeqOne": lambda c: [c[0]],
    "Simple": lambda c: c[0],
    "Or": lambda c: BinOp("OR", c[0], c[2]),
    "Disj": lambda c: c[0],
    "And": lambda c: BinOp("AND", c[0], c[2]),
    "Conj": lambda c: c[0],
    "Compare": lambda c: BinOp(c[1], c[0], c[2]),
    "Cmp": lambda c: c[0],
    "RelEq": lambda c: "=",
    "RelNe": lambda c: "<>",
    "RelLt": lambda c: "<",
    "RelGt": lambda c: ">",
    "RelLe": lambda c: "<=",
    "RelGe": lambda c: ">=",
    "Plus": lambda c: BinOp("+", c[0], c[2]),
    "Minus": lambda c: BinOp("-", c[0], c[2]),
    "Add": lambda c: c[0],
    "Times": lambda c: BinOp("*", c[0], c[2]),
    "Divide": lambda c: BinOp("DIV", c[0], c[2]),
    "Mul": lambda c: c[0],
    "NotOp": lambda c: Not(c[1]),
    "NegOp": lambda c: BinOp("-", Const(0), c[1]),
    "Unary": lambda c: c[0],
    "Number": lambda c: Const(int(_text(c[0]))),
    "Str": lambda c: Const(_text(c[0])[1:-1].replace("''", "'")),
    "True": lambda c: Const(True),
    "False": lambda c: Const(False),
    "Name": lambda c: AttrRef("", _text(c[0])),
    "AttrRef": lambda c: AttrRef(_text(c[0]), _text(c[2])),
    "Call0": lambda c: Call(_text(c[0]), ()),
    "CallN": lambda c: Call(_text(c[0]), tuple(c[2])),
    "Paren": lambda c: c[1],
    "ArgMany": lambda c: c[0] + [c[2]],
    "ArgOne": lambda c: [c[0]],
}


def _make_if(cond: Expr, then_seq: List[Expr], tail: Any) -> If:
    then_branch = tuple(then_seq)
    tail_arity = tail.arity() if isinstance(tail, If) else len(tail)
    if len(then_branch) != tail_arity:
        raise ParseError(
            f"if-expression branches have different lengths "
            f"({len(then_branch)} vs {tail_arity})"
        )
    return If(cond, then_branch, tail)


class _Builder(ParseListener):
    def __init__(self) -> None:
        self.stack: List[Any] = []

    def on_shift(self, token: Token) -> None:
        self.stack.append(token)

    def on_reduce(self, production) -> None:
        if production.index == 0:
            return
        n = len(production.rhs)
        children = self.stack[len(self.stack) - n :] if n else []
        if n:
            del self.stack[len(self.stack) - n :]
        action = _ACTIONS.get(production.tag)
        if action is None:  # pragma: no cover
            raise ParseError(f"no action for production {production.tag!r}")
        self.stack.append(action(children))


def parse_ag_text(text: str, filename: str = "<input>") -> AGFile:
    """Parse ``.ag`` source text into an :class:`AGFile` AST."""
    scanner = make_scanner(filename=filename)
    builder = _Builder()
    _parser().parse(scanner.tokens(text), listener=builder, build_tree=False)
    # Stack: [AGFile, eof-token]
    result = next(v for v in builder.stack if isinstance(v, AGFile))
    result.source_lines = text.count("\n") + (0 if text.endswith("\n") else 1)
    return result
