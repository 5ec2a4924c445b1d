"""Golden pin of the paper's accounting counters.

The file-traffic figures (EXP-M1, ABL-1) and the 48K residency claim
are read off :class:`~repro.obs.metrics.IOAccountant` and
:class:`~repro.obs.metrics.MemoryGauge`.  These tests translate calc,
pascal and the ``linguist.ag`` self-description on fixed inputs under
every spool set-up the evaluator has, and compare the counters with
``tests/golden/accounting_counters.json``:

* ``memory`` — the default in-memory :class:`AdaptiveSpool`;
* ``spill`` — ``spool_memory_budget=0``, every spool spilled to v3 disk;
* ``checkpoint`` — a checkpointed run (sealed :class:`DiskSpool` pass
  files);
* ``memo_cold`` / ``memo_edit`` — a ``memo_dir`` cold run, then one
  literal edit translated through the memo.

Recorded per case: the accountant snapshot (totals and per channel),
every ``pass_stats`` row without its wall time, the gauge's peak bytes
and nodes, and the ``apt.node_bytes`` counter.  Every case also checks
that the gauge ends balanced.

Updating intentionally::

    PYTHONPATH=src python -m pytest tests/test_accounting_counters.py --update-golden

then inspect ``git diff tests/golden/`` — a moved counter changes a
number the paper's tables are built from.
"""

import json
import os
import re

import pytest

from repro.core import Linguist
from repro.grammars import load_source, scanner_and_library
from repro.obs import MetricsRegistry
from repro.util.iotrack import IOAccountant, MemoryGauge
from repro.workloads.generators import (
    generate_calc_program,
    generate_pascal_program,
)

GOLDEN = os.path.join(
    os.path.dirname(__file__), "golden", "accounting_counters.json"
)

INPUTS = {
    "calc": lambda: generate_calc_program(40, seed=7),
    "pascal": lambda: generate_pascal_program(40, seed=42),
    "linguist": lambda: load_source("binary"),
}


@pytest.fixture(scope="module")
def translators():
    built = {}
    for name in INPUTS:
        spec, library = scanner_and_library(name)
        built[name] = Linguist(load_source(name)).make_translator(
            spec, library=library
        )
    return built


def bump_middle_literal(text: str) -> str:
    """Add one to the middle numeric literal: the token kinds, and so
    the parse, stay the same (the memo's front-end reuse path)."""
    literals = list(re.finditer(r"\b\d+\b", text))
    assert literals, "input holds no numeric literal to edit"
    m = literals[len(literals) // 2]
    return text[: m.start()] + str(int(m.group()) + 1) + text[m.end():]


def counters(translator, text: str, **options) -> dict:
    accountant = IOAccountant()
    gauge = MemoryGauge()
    metrics = MetricsRegistry()
    translator.translate_tokens(
        translator.scanner.tokens(text),
        accountant=accountant,
        gauge=gauge,
        metrics=metrics,
        **options,
    )
    gauge.assert_balanced()
    return {
        "io": accountant.snapshot(),
        "pass_stats": [
            {k: v for k, v in row.items() if k != "seconds"}
            for row in translator.last_driver.pass_stats
        ],
        "gauge": {"peak_bytes": gauge.peak_bytes,
                  "peak_nodes": gauge.peak_nodes},
        "apt.node_bytes": metrics.counter("apt.node_bytes").value,
    }


def all_cases(translator, text: str, tmp_path) -> dict:
    memo_dir = str(tmp_path / "memo")
    return {
        "memory": counters(translator, text),
        "spill": counters(translator, text, spool_memory_budget=0),
        "checkpoint": counters(
            translator, text, checkpoint_dir=str(tmp_path / "ckpt")
        ),
        "memo_cold": counters(translator, text, memo_dir=memo_dir),
        "memo_edit": counters(
            translator, bump_middle_literal(text), memo_dir=memo_dir
        ),
    }


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_accounting_counters_match_golden(
    name, translators, tmp_path, update_golden
):
    got = all_cases(translators[name], INPUTS[name](), tmp_path)
    if update_golden:
        golden = {}
        if os.path.exists(GOLDEN):
            with open(GOLDEN, encoding="utf-8") as f:
                golden = json.load(f)
        golden[name] = got
        with open(GOLDEN, "w", encoding="utf-8") as f:
            f.write(json.dumps(golden, indent=1, sort_keys=True) + "\n")
        pytest.skip(f"golden entry {name!r} rewritten: {GOLDEN}")
    with open(GOLDEN, encoding="utf-8") as f:
        expected = json.load(f)[name]
    for case in expected:
        assert got[case] == expected[case], (
            f"{name}/{case}: accounting counters moved; if intended, "
            "regenerate with --update-golden and review the diff"
        )
    assert sorted(got) == sorted(expected)
