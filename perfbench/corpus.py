"""Seeded inputs for every workload, and the validity-preserving edits.

All randomness flows from one ``random.Random(seed)`` per workload, so
the same seed gives the same inputs.  Input sizes come from a fixed
ladder rather than from the seed: that keeps the work of a run, and so
its percentiles, comparable across seeds while the texts differ.
"""

from __future__ import annotations

import random
import re
from typing import List, Tuple

from repro.grammars import GRAMMAR_NAMES, load_source
from repro.workloads import (
    generate_ag_source,
    generate_calc_program,
    generate_pascal_program,
)

#: Statement counts of one compile-pascal round ("about 50-800"),
#: spaced evenly on a log scale.
PASCAL_LADDER = (50, 71, 100, 141, 200, 283, 400, 566, 800)
#: Production counts of the generated grammars in one selfgen-ag round.
#: With the five shipped sources they fill the middle of the latency
#: range densely, so the median never sits in a gap between inputs.
AG_LADDER = (30, 40, 50, 60, 70, 80, 100)
#: Statements per edit-pascal base program.
EDIT_BASE_STATEMENTS = 100
#: Request texts of serve-mixed.
SERVE_POOL = 256
#: Statements of the small calc requests, cycled: the sizes the
#: repository's own serve benchmark (benchmarks/bench_t8_serve.py) sends.
CALC_STATEMENTS = (5, 6, 7, 8)
#: Statements of the medium Pascal requests, one text each: the lowest
#: octave of PASCAL_LADDER, twice.  Their share of the pool, 6 of 256, is
#: an assumption, kept small so that the request path's overhead stays as
#: large as the translation in the median request (``serve.overhead_ms``
#: against ``serve.inproc_translate_ms``) and about half of all
#: client-observed time (``serve.overhead_share``), as the workload is
#: meant to.  A pool a quarter Pascal measured an overhead share of 0.40
#: (see README.md).
SERVE_PASCAL = PASCAL_LADDER[:3] * 2
#: The edits of one session: the four kinds the benchmark knows, in equal
#: shares.  Nothing in the repository or the paper says how often each
#: kind occurs, so none is favoured; the report gives each kind's median
#: so the figures can be re-weighted for another mix.  The memo's gain
#: depends on the kind (literal bumps keep the token-kind sequence and
#: reuse the parse) and on how deep in the program an edit lands, so the
#: kind met in each eighth of the program is fixed; the seed picks order
#: and positions.
EDIT_KINDS = ("bump", "delete", "duplicate", "swap") * 2


def _program_seed(rng: random.Random) -> int:
    return rng.randrange(1, 2**31 - 1)


def pascal_corpus(seed: int) -> List[str]:
    """One compile-pascal round: a program per rung of the ladder."""
    rng = random.Random(seed)
    texts = [
        generate_pascal_program(n, seed=_program_seed(rng))
        for n in PASCAL_LADDER
    ]
    rng.shuffle(texts)
    return texts


def ag_corpus(seed: int) -> List[Tuple[str, str]]:
    """One selfgen-ag round: the shipped ``.ag`` sources plus generated
    grammars, as ``(name, source)`` pairs."""
    rng = random.Random(seed)
    items = [(name, load_source(name)) for name in GRAMMAR_NAMES]
    for n in AG_LADDER:
        items.append((f"generated{n}", generate_ag_source(n, seed=_program_seed(rng))))
    rng.shuffle(items)
    return items


def edit_sessions(seed: int, count: int) -> List[Tuple[str, List[Tuple[str, str]]]]:
    """``count`` edit-pascal sessions: a base program (all the same size,
    each its own text) and its chain of edits.  Session ``s`` pairs the
    edit kinds with the strata of the program rotated by ``3 s``, so the
    kind met at each depth of the program is the same for every seed."""
    rng = random.Random(seed)
    sessions = []
    for s in range(count):
        base = generate_pascal_program(EDIT_BASE_STATEMENTS, seed=_program_seed(rng))
        sessions.append((base, edit_chain(base, rng, rotation=3 * s)))
    return sessions


def serve_pool(seed: int) -> List[Tuple[str, str]]:
    """The serve-mixed request texts as ``(grammar, text)`` pairs: one
    Pascal program per size of ``SERVE_PASCAL``, the rest small calc
    programs."""
    rng = random.Random(seed)
    pool = [
        ("pascal", generate_pascal_program(n, seed=_program_seed(rng)))
        for n in SERVE_PASCAL
    ]
    for i in range(SERVE_POOL - len(pool)):
        n = CALC_STATEMENTS[i % len(CALC_STATEMENTS)]
        pool.append(("calc", generate_calc_program(n, seed=_program_seed(rng))))
    rng.shuffle(pool)
    return pool


# ---------------------------------------------------------------------------
# edits
# ---------------------------------------------------------------------------

_BEGIN = "\nbegin\n"
_END = "\nend."
#: A number literal; the word boundaries keep identifier digits (v3) out.
_NUMBER = re.compile(r"\b\d+\b")


def _split(text: str) -> Tuple[str, List[str]]:
    head, rest = text.split(_BEGIN, 1)
    body, tail = rest.rsplit(_END, 1)
    if tail.strip():
        raise ValueError("program text after 'end.'")
    return head, body.split(";\n")


def _join(head: str, statements: List[str]) -> str:
    return head + _BEGIN + ";\n".join(statements) + _END


def apply_edit(text: str, kind: str, rng: random.Random, where: Tuple[float, float]) -> str:
    """Apply one edit of ``kind`` at a uniformly chosen position within
    the ``where`` fraction of the statement list.

    Every edit keeps the program valid: a bump changes a number literal
    only, and delete/duplicate/swap move whole statements, all of which
    use only declared variables.
    """
    head, statements = _split(text)
    n = len(statements)
    if kind in ("delete", "swap") and n < 2:
        kind = "duplicate"
    lo = min(int(where[0] * n), n - 1)
    hi = max(int(where[1] * n), lo + 1)
    if kind == "bump":
        sites = [
            (i, m) for i, s in enumerate(statements) for m in _NUMBER.finditer(s)
        ]
        sites = [(i, m) for i, m in sites if lo <= i < hi] or sites
        i, m = sites[rng.randrange(len(sites))]
        s = statements[i]
        statements[i] = s[: m.start()] + str(int(m.group()) + 1) + s[m.end():]
    elif kind == "delete":
        del statements[rng.randrange(lo, hi)]
    elif kind == "duplicate":
        i = rng.randrange(lo, hi)
        statements.insert(i + 1, statements[i])
    elif kind == "swap":
        i = min(rng.randrange(lo, hi), n - 2)
        statements[i], statements[i + 1] = statements[i + 1], statements[i]
    else:
        raise ValueError(f"unknown edit kind {kind!r}")
    return _join(head, statements)


def edit_chain(base: str, rng: random.Random, rotation: int) -> List[Tuple[str, str]]:
    """One session's chained edits as ``(kind, edited text)`` pairs.

    Positions are uniform over the program and stratified: each edit
    falls in its own stratum (an eighth) of the statement list, so every
    session samples the whole program.  Stratum ``k`` gets kind
    ``EDIT_KINDS[(k + rotation) % 8]``; the seed picks the position
    within each stratum and the order in which the edits are applied.
    """
    n = len(EDIT_KINDS)
    strata = list(range(n))
    rng.shuffle(strata)
    chain = []
    text = base
    for k in strata:
        kind = EDIT_KINDS[(k + rotation) % n]
        where = (k / n, (k + 1) / n)
        text = apply_edit(text, kind, rng, where)
        chain.append((kind, text))
    return chain
