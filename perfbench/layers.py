"""The traced run: a build and a translation taken apart at layer calls.

:func:`traced_build` and :func:`traced_translate` make, in order, the
same public calls that ``Linguist(...).make_translator(...)`` and
``Translator.translate`` make, each inside a span named after the
module it enters.  Nothing inside ``src/`` is instrumented, so a span's
time is the time of the call the benchmark makes into that layer.

Translation spans nest as::

    translate                 (end to end; its self time is unattributed)
      regex.scan              Scanner.tokens
      apt.parse_build         LALRParser.parse feeding APTBuilder (+ emit_prefix)
      evalgen.eval            AlternatingPassDriver.run (self time: the driver)
        evalgen.pass<k>       the generated pass executor
    lalr.parse                the parser again with a no-op listener (a
                              probe outside ``translate``; apt.build_s is
                              apt.parse_build minus this)
"""

from __future__ import annotations

import time
from typing import Dict, List, Tuple

from repro.ag.circularity import check_noncircular
from repro.apt.build import APTBuilder
from repro.apt.storage import adaptive_spool_factory
from repro.errors import DiagnosticSink
from repro.evalgen.codegen_pascal import PascalCodeGenerator
from repro.evalgen.codegen_py import GeneratedEvaluator
from repro.evalgen.deadness import analyze_deadness
from repro.evalgen.driver import AlternatingPassDriver
from repro.evalgen.plan import build_pass_plans
from repro.evalgen.runtime import FunctionLibrary
from repro.evalgen.subsumption import (
    SubsumptionConfig,
    choose_static_attributes,
    refine_allocation,
)
from repro.frontend.analyze import analyze
from repro.frontend.listing import render_listing
from repro.frontend.syntax import parse_ag_text
from repro.lalr.parser import LALRParser, ParseListener
from repro.lalr.tables import build_tables
from repro.obs.metrics import IOAccountant, MemoryGauge
from repro.passes.fusion import fuse_assignment
from repro.passes.partition import assign_passes
from repro.passes.schedule import Direction

from harness import Trace

#: Setup layers, in build order (span name = metric name minus ``_s``).
SETUP_LAYERS = (
    "frontend.parse",
    "frontend.analyze",
    "lalr.tables",
    "passes.assign",
    "evalgen.shape",
    "evalgen.codegen_py",
    "evalgen.codegen_pascal",
    "regex.scanner_gen",
)
#: Pass spans reported one by one; the shipped grammars have at most 3
#: passes after fusion.
MAX_PASSES = 3


class CountingLibrary(FunctionLibrary):
    """A function library that counts semantic-function calls."""

    def __init__(self, library: FunctionLibrary) -> None:
        super().__init__(library.functions, library.constants)
        self.calls = 0

    def call(self, name, *args):
        self.calls += 1
        return super().call(name, *args)


def traced_build(source: str, filename: str, scanner_spec, trace: Trace, build_id: str):
    """Build a grammar's evaluator the way ``Linguist`` does on a cold
    start (no build cache), one span per layer call.  Returns the
    generated Python pass texts, which the caller compares with an
    untraced build's."""
    with trace.span("setup", build_id):
        sink = DiagnosticSink()
        with trace.span("frontend.parse"):
            ag_file = parse_ag_text(source, filename)
        with trace.span("frontend.analyze"):
            ag = analyze(ag_file, sink)
        sink.raise_if_errors()
        with trace.span("lalr.tables"):
            tables = build_tables(ag.underlying_cfg())
        with trace.span("passes.assign"):
            check_noncircular(ag)
            assignment = fuse_assignment(ag, assign_passes(ag, Direction.R2L)).assignment
        with trace.span("evalgen.shape"):
            dead = analyze_deadness(ag, assignment, enabled=True)
            alloc = choose_static_attributes(ag, assignment, SubsumptionConfig())
            alloc = refine_allocation(ag, assignment, alloc, dead)
        render_listing(source, ag, sink, assignment)
        with trace.span("evalgen.codegen_py"):
            plans = build_pass_plans(ag, assignment, dead, alloc)
            generated = GeneratedEvaluator(ag, plans)
        with trace.span("evalgen.codegen_pascal"):
            PascalCodeGenerator(ag).generate_all(plans)
        with trace.span("regex.scanner_gen"):
            scanner_spec.generate()
        LALRParser(tables)
    return [a.text for a in generated.artifacts]


def traced_translate(translator, text: str, trace: Trace, input_id: str, library):
    """Translate ``text`` through ``translator``'s parts, one span per
    layer call; semantic functions go through ``library`` (a
    :class:`CountingLibrary`).  Returns ``(root attributes, counters)``."""
    linguist = translator.linguist
    ag = linguist.ag
    bottom_up = linguist.assignment.first_direction is Direction.R2L
    accountant = IOAccountant()
    gauge = MemoryGauge()
    factory = adaptive_spool_factory(accountant)
    executor = linguist.generated.executor

    def timed_executor(plan, runtime):
        with trace.span(f"evalgen.pass{plan.pass_k}"):
            return executor(plan, runtime)

    calls_before = library.calls
    with trace.span("translate", input_id):
        with trace.span("regex.scan"):
            tokens = list(translator.scanner.tokens(text))
        with trace.span("apt.parse_build"):
            initial = factory("initial")
            builder = APTBuilder(
                ag, initial if bottom_up else None,
                intrinsic_fn=translator.intrinsic_fn,
                build_tree=not bottom_up,
            )
            translator.parser.parse(tokens, listener=builder, build_tree=False)
            builder.finish()
            if not bottom_up:
                builder.emit_prefix(initial)
        with trace.span("evalgen.eval"):
            driver = AlternatingPassDriver(
                ag, linguist.plans, timed_executor, library=library,
                spool_factory=factory, accountant=accountant, gauge=gauge,
            )
            result = driver.run(
                initial, strategy="bottom-up" if bottom_up else "prefix"
            )
    with trace.span("lalr.parse", input_id):
        translator.parser.parse(tokens, listener=ParseListener(), build_tree=False)

    counters = {
        "tokens": len(tokens),
        "apt_nodes": builder.n_nodes,
        "semfn_calls": library.calls - calls_before,
        "passes": len(driver.pass_stats),
        "spool_records": accountant.records_written,
        "spool_bytes": accountant.bytes_written,
        "peak_bytes": gauge.peak_bytes,
    }
    for stats in driver.pass_stats:
        k = stats["pass"]
        counters[f"pass{k}_records"] = stats["records_written"]
        counters[f"pass{k}_bytes"] = stats["bytes_written"]
    return result.root_attrs, counters


def add_counters(total: Dict[str, int], counters: Dict[str, int]) -> None:
    """Accumulate one input's counters (``peak_bytes`` is a maximum)."""
    for key, value in counters.items():
        if key == "peak_bytes" or key == "passes":
            total[key] = max(total.get(key, 0), value)
        else:
            total[key] = total.get(key, 0) + value


def setup_layer_metrics(report, trace: Trace, n_builds: int) -> None:
    """Per-build mean self time of each setup layer; the layers plus
    ``layers.setup_unattributed_s`` sum to ``layers.setup_s``."""
    total = trace.durations()
    own = trace.self_times()
    for name in SETUP_LAYERS:
        report.metric(f"{name}_s", total.get(name, 0.0) / n_builds, "s")
    report.metric("layers.setup_s", total["setup"] / n_builds, "s")
    report.metric(
        "layers.setup_unattributed_s", own["setup"] / n_builds, "s",
        "setup time outside the named layer calls (listing, parser object)",
    )


def translate_layer_metrics(
    report, trace: Trace, n_inputs: int, untraced_s: float
) -> None:
    """Per-input mean self time of each translation layer; the layers
    plus ``layers.unattributed_s`` sum to ``layers.translate_s``."""
    total = trace.durations()
    own = trace.self_times()
    per = 1.0 / n_inputs
    report.metric("regex.scan_s", total["regex.scan"] * per, "s")
    report.metric("lalr.parse_s", total["lalr.parse"] * per, "s")
    report.metric(
        "apt.build_s",
        (total["apt.parse_build"] - total["lalr.parse"]) * per, "s",
    )
    report.metric("evalgen.eval_s", own["evalgen.eval"] * per, "s")
    for k in range(1, MAX_PASSES + 1):
        report.metric(f"evalgen.pass{k}_s", total.get(f"evalgen.pass{k}", 0.0) * per, "s")
    report.metric("layers.translate_s", total["translate"] * per, "s")
    report.metric("layers.unattributed_s", own["translate"] * per, "s")
    layer_sum = (
        report.metrics["regex.scan_s"]["value"]
        + report.metrics["lalr.parse_s"]["value"]
        + report.metrics["apt.build_s"]["value"]
        + report.metrics["evalgen.eval_s"]["value"]
        + sum(
            report.metrics[f"evalgen.pass{k}_s"]["value"]
            for k in range(1, MAX_PASSES + 1)
        )
        + report.metrics["layers.unattributed_s"]["value"]
    )
    report.note(
        f"  layer sum check: scan + parse + build + eval + passes + "
        f"unattributed = {layer_sum:.6f} s, translate = "
        f"{total['translate'] * per:.6f} s per input over {n_inputs} inputs"
    )
    traced_s = total["translate"]
    report.metric(
        "layers.tracing_overhead", traced_s / untraced_s - 1.0, "ratio",
        f"traced {traced_s:.4f} s vs untraced {untraced_s:.4f} s "
        "over the same inputs",
    )


def counter_metrics(report, counters: Dict[str, int]) -> None:
    """The deterministic work counters of one pass over the inputs."""
    report.metric("regex.tokens", counters["tokens"], "count")
    report.metric("apt.nodes", counters["apt_nodes"], "count")
    report.metric("evalgen.semfn_calls", counters["semfn_calls"], "count")
    report.metric("apt.spool_records", counters["spool_records"], "count")
    report.metric("apt.spool_bytes", counters["spool_bytes"], "bytes")
    report.metric("apt.peak_bytes", counters["peak_bytes"], "bytes")


def decompose(
    pairs: List[Tuple[object, str]], trace: Trace, libraries, check,
    seconds: float, report, counted: int = -1,
):
    """Shared translation-layer loop of the traced run.

    ``pairs`` holds ``(translator, text)``; each is translated once
    untraced (the overhead baseline) and once through
    :func:`traced_translate`, in rounds until ``seconds`` have passed
    (at least one round).  ``check(i, root_attrs)`` validates every
    traced result.  The counters of the first ``counted`` pairs (all by
    default) in the first round are the deterministic work counters.
    """
    untraced = 0.0
    n = 0
    first_round: Dict[str, int] = {}
    start = time.perf_counter()
    rounds = 0
    while rounds == 0 or time.perf_counter() - start < seconds:
        for i, (translator, text) in enumerate(pairs):
            report.attempted += 1
            t0 = time.perf_counter()
            translator.translate(text)
            untraced += time.perf_counter() - t0
            attrs, counters = traced_translate(
                translator, text, trace, f"r{rounds}.i{i}", libraries[id(translator)]
            )
            check(i, attrs)
            if rounds == 0 and (counted < 0 or i < counted):
                add_counters(first_round, counters)
            n += 1
        rounds += 1
    translate_layer_metrics(report, trace, n, untraced)
    counter_metrics(report, first_round)
    return first_round
