"""compile-pascal and selfgen-ag: from-scratch translation in process.

Both run a seeded corpus in whole rounds (every input once per round,
so the size mix of a run never depends on where the clock stopped),
closed loop, one client, and check every output against a reference
that shares no code with the translator's evaluator.
"""

from __future__ import annotations

import time
from typing import Callable, List

from repro.baseline.rdparser import HandPascalCompiler
from repro.core import Linguist
from repro.core.selfgen import summary_from_ast, summary_from_result
from repro.frontend.syntax import parse_ag_text
from repro.grammars import load_source, scanner_and_library, source_path

import corpus
import layers
from harness import Trace, mean, median, peak_rss_mb, percentile, settle

#: Cold builds per run; setup_s is their mean.
SETUP_REPEATS = 15


def build_translator(grammar: str):
    spec, library = scanner_and_library(grammar)
    linguist = Linguist(load_source(grammar), filename=source_path(grammar))
    return linguist.make_translator(spec, library=library)


def measure_setup(report, grammars: List[str]):
    """Cold builds (no build cache) of ``grammars``, ``SETUP_REPEATS``
    times; returns the last translators.  Traced runs also take each
    build apart by layer and check the parts give the same evaluator."""
    times = []
    translators = {}
    for _ in range(SETUP_REPEATS):
        report.phase("setup").tick(5)
        settle()
        t0 = time.perf_counter()
        translators = {g: build_translator(g) for g in grammars}
        times.append(time.perf_counter() - t0)
    report.metric(
        "setup_s", mean(times), "s",
        f"mean of {SETUP_REPEATS} cold builds of {'+'.join(grammars)}", phase="setup",
    )
    if report.traced:
        trace = Trace()
        for r in range(SETUP_REPEATS):
            for g in grammars:
                spec, _ = scanner_and_library(g)
                texts = layers.traced_build(
                    load_source(g), source_path(g), spec, trace, f"build{r}.{g}"
                )
                wanted = [a.text for a in translators[g].linguist.generated.artifacts]
                if texts != wanted:
                    report.mismatch(f"traced build of {g} generated other code")
        layers.setup_layer_metrics(report, trace, SETUP_REPEATS)
        report.setup_trace = trace
    return translators


def timed_rounds(report, translate: Callable, texts: List[str], seconds: float):
    """Translate ``texts`` in whole rounds until ``seconds`` have passed,
    after one untimed warm-up translation.  Returns each input's
    latencies and the outputs of round 0; later rounds must repeat them."""
    translate(min(texts, key=len))
    latencies = [[] for _ in texts]
    outputs = []
    start = time.perf_counter()
    rounds = 0
    while rounds == 0 or time.perf_counter() - start < seconds:
        for i, text in enumerate(texts):
            report.attempted += 1
            report.phase("translate").tick(2)
            settle()
            t0 = time.perf_counter()
            out = translate(text)
            latencies[i].append(time.perf_counter() - t0)
            if rounds == 0:
                outputs.append(out)
            elif out != outputs[i]:
                report.mismatch(f"input {i} gave another output in round {rounds}")
        rounds += 1
    report.note(f"  {rounds} rounds of {len(texts)} inputs")
    return latencies, outputs


def scratch_metrics(report, latencies: List[List[float]], texts: List[str]) -> None:
    """The from-scratch metrics of an in-process workload.  Each input
    counts at its mean latency over the run's rounds; percentiles are
    over the inputs.  The host alternates between a fast and a slow
    speed for spells of seconds, so a median over rounds jumps between
    the two while a mean moves with the share of each (``settle`` keeps
    the one-off cost of a full collection out of the rounds).

    The memo and the request path are bypassed here, so edit_*,
    memo_cold_ms and req_* measure the same translations (every edit
    and every translation is cold without a memo; see README.md)."""
    typical = [mean(per_input) for per_input in latencies]
    p50 = percentile(typical, 50) * 1000
    p95 = percentile(typical, 95) * 1000
    note = f"over {len(texts)} inputs, each at its mean of {len(latencies[0])} rounds"
    metric = lambda *args: report.metric(*args, phase="translate")
    metric("lines_per_s", sum(len(t.splitlines()) for t in texts) / sum(typical), "lines/s")
    metric("translate_p50_ms", p50, "ms", note)
    metric("translate_p95_ms", p95, "ms")
    metric("edit_p50_ms", p50, "ms", "no memo: same as translate_p50_ms")
    metric("edit_p95_ms", p95, "ms")
    metric("memo_cold_ms", p50, "ms")
    metric("req_per_s", len(texts) / sum(typical), "1/s", "in-process closed loop, one client")
    metric("req_p50_ms", p50, "ms")
    metric("req_p99_ms", percentile(typical, 99) * 1000, "ms")


def run_inproc(report, grammar: str, texts: List[str], extract, references, seconds):
    translator = measure_setup(report, [grammar])[grammar]
    if report.traced:
        library = layers.CountingLibrary(translator.library)
        trace = Trace()

        def check(i, attrs):
            if extract(attrs) != references[i]:
                report.mismatch(f"traced translation of input {i}")

        counters = layers.decompose(
            [(translator, t) for t in texts], trace,
            {id(translator): library}, check, seconds, report,
        )
        report.note(f"  counters {counters}")
        return trace
    translate = lambda text: extract(translator.translate(text).root_attrs)
    latencies, outputs = timed_rounds(report, translate, texts, seconds)
    report.metric("peak_rss_mb", peak_rss_mb(), "MiB")
    scratch_metrics(report, latencies, texts)
    for i, out in enumerate(outputs):
        if out != references[i]:
            report.mismatch(f"input {i} differs from the reference")
    return None


def compile_pascal(report, seed: int, seconds: float):
    texts = corpus.pascal_corpus(seed)
    hand = HandPascalCompiler()
    references = [hand.compile(t).code for t in texts]
    return run_inproc(
        report, "pascal", texts, lambda attrs: list(attrs["CODE"]), references, seconds
    )


def _summary_key(summary):
    """The fields both sides of the self-generation check compute."""
    return (
        summary.n_syms, summary.n_attrs, summary.n_prods, summary.n_funcs,
        summary.n_copies, summary.n_msgs, summary.n_occs, summary.symbols,
    )


def selfgen_ag(report, seed: int, seconds: float):
    items = corpus.ag_corpus(seed)
    texts = [source for _, source in items]
    references = [_summary_key(summary_from_ast(parse_ag_text(t))) for t in texts]
    report.note("  inputs: " + ", ".join(name for name, _ in items))
    return run_inproc(
        report, "linguist", texts,
        lambda attrs: _summary_key(summary_from_result(attrs)), references, seconds,
    )
