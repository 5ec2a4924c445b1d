"""edit-pascal: editor sessions through the incremental memo.

A session translates a base program into an empty ``memo_dir`` (the
cold run, which writes the memo) and then re-translates a chain of
seeded edits, each reading and rewriting the memo; every edited text is
also translated from scratch right after, for comparison.  This is the
only workload that runs ``repro.passes.incremental`` and its v3 disk
spools.

A run replays the same few sessions in whole rounds, each time into
fresh memo directories, and takes every edit's mean over the rounds,
so a slow spell of the host during one replay moves the figures by its
share of the run only.
"""

from __future__ import annotations

import os
import shutil
import time
from collections import Counter

from repro.baseline.rdparser import HandPascalCompiler
from repro.grammars import scanner_and_library
from repro.obs.metrics import IOAccountant, MetricsRegistry
from repro.workloads import generate_pascal_program

import corpus
import layers
from harness import Trace, mean, median, peak_rss_mb, percentile, settle
from inproc import measure_setup

#: Distinct sessions (base programs with their edit chains) per run.
SESSIONS = 2
#: Memo counters read after every edit.
MEMO_COUNTERS = (
    "hits", "misses", "spliced_records", "frontend_reuses", "spine_nodes", "invalidations",
)


def _dir_state(path: str):
    state = {}
    for name in os.listdir(path):
        st = os.stat(os.path.join(path, name))
        state[name] = (st.st_size, st.st_mtime_ns)
    return state


def _bytes_written(before, after) -> int:
    """Bytes of the files an edit created or rewrote in the memo dir."""
    return sum(size for name, (size, mtime) in after.items() if before.get(name) != (size, mtime))


def _code(result):
    return list(result.root_attrs["CODE"])


class Session:
    """One replay of a session: two cold runs, then the edit chain."""

    def __init__(self, workdir: str, name: str) -> None:
        self.memo = os.path.join(workdir, name)
        self.cold = []  # seconds of the two cold runs
        self.codes = []  # CODE of every memo translation, base first
        self.edit_s = []  # seconds of each memo edit
        self.scratch_s = []  # seconds of each from-scratch translation
        self.counters = []  # memo counters of each edit

    def run(self, translator, base, chain, report, trace=None, library=None) -> None:
        # Two cold runs, each into an empty memo; the chain goes on
        # from the second.
        for path in (self.memo + ".cold", self.memo):
            report.attempted += 1
            report.phase("edit").tick(2)
            settle()
            t0 = time.perf_counter()
            code = _code(translator.translate(base, memo_dir=path))
            self.cold.append(time.perf_counter() - t0)
        shutil.rmtree(self.memo + ".cold")
        self.codes.append(code)
        for e, (_, text) in enumerate(chain):
            report.attempted += 1
            metrics = MetricsRegistry()
            if trace is None:
                report.phase("edit").tick(2)
                settle()
                t0 = time.perf_counter()
                code = _code(translator.translate(text, memo_dir=self.memo, metrics=metrics))
                self.edit_s.append(time.perf_counter() - t0)
                counters = {}
                report.attempted += 1
                settle()
                t0 = time.perf_counter()
                scratch = _code(translator.translate(text))
                self.scratch_s.append(time.perf_counter() - t0)
                if scratch != code:
                    report.mismatch("from-scratch translation differs from the memo one")
            else:
                code, counters = self._traced_edit(translator, text, metrics, trace, library, e)
            for name in MEMO_COUNTERS:
                counters[name] = metrics.counter(f"incremental.{name}").value
            self.codes.append(code)
            self.counters.append(counters)
        shutil.rmtree(self.memo)

    def _traced_edit(self, translator, text, metrics, trace, library, e):
        before = _dir_state(self.memo)
        calls = library.calls
        accountant = IOAccountant()
        with trace.span("edit", f"{os.path.basename(self.memo)}.e{e}"):
            with trace.span("edit.scan"):
                tokens = list(translator.scanner.tokens(text))
            with trace.span("incremental.translate"):
                code = _code(translator.translate_tokens(
                    tokens, memo_dir=self.memo, metrics=metrics, accountant=accountant,
                ))
        return code, {
            "semfn_calls": library.calls - calls,
            "emitted": sum(
                c.records_written for ch, c in accountant.by_channel.items()
                if ch.startswith("pass")
            ),
            "memo_bytes": _bytes_written(before, _dir_state(self.memo)),
        }


def edit_pascal(report, seed: int, seconds: float, workdir: str):
    traced = report.traced
    linguist = measure_setup(report, ["pascal"])["pascal"].linguist
    spec, library = scanner_and_library("pascal")
    if traced:
        library = layers.CountingLibrary(library)

    def session_translator(name: str):
        """A fresh translator per replay.  A translator keeps every memo
        directory it opened in memory, so one shared by all replays
        would grow with the length of the run.  Its memo evaluator is
        compiled here, outside the timing, so each cold run measures
        memo work alone."""
        translator = linguist.make_translator(spec, library=library)
        warm = os.path.join(workdir, name + ".warm")
        translator.translate(generate_pascal_program(5, seed=1), memo_dir=warm)
        shutil.rmtree(warm)
        return translator

    sessions = corpus.edit_sessions(seed, SESSIONS)
    trace = Trace() if traced else None
    replays = [[] for _ in sessions]
    start = time.perf_counter()
    rounds = 0
    # The traced run replays each session once; its time goes to the
    # from-scratch decomposition below.
    while rounds == 0 or (not traced and time.perf_counter() - start < seconds):
        for s, (base, chain) in enumerate(sessions):
            name = f"memo{s}.r{rounds}"
            replay = Session(workdir, name)
            replay.run(session_translator(name), base, chain, report, trace, library)
            if rounds and replay.codes != replays[s][0].codes:
                report.mismatch(f"replay {rounds} of session {s} gave other output")
            replays[s].append(replay)
        rounds += 1
    rss = peak_rss_mb()

    first = [r[0] for r in replays]
    counters = [c for r in first for c in r.counters]
    kinds = Counter(kind for _, chain in sessions for kind, _ in chain)
    reuse = sum(1 for c in counters if c["frontend_reuses"])
    report.note(
        f"  {len(sessions)} sessions of {corpus.EDIT_BASE_STATEMENTS} statements "
        f"x {rounds} rounds; {len(counters)} distinct edits, kinds "
        f"{dict(sorted(kinds.items()))}; frontend reuse on {reuse}/{len(counters)} "
        f"edits ({reuse / len(counters):.0%})"
    )
    # The independent reference, outside the timed region.
    hand = HandPascalCompiler()
    for (base, chain), replay in zip(sessions, first):
        texts = [base] + [text for _, text in chain]
        for text, code in zip(texts, replay.codes):
            if code != hand.compile(text).code:
                report.mismatch("memo translation differs from the hand compiler")

    texts = [text for _, chain in sessions for _, text in chain]
    if traced:
        translator = linguist.make_translator(spec, library=library)
        codes = [code for r in first for code in r.codes[1:]]

        def check(i, attrs):
            if list(attrs["CODE"]) != codes[i]:
                report.mismatch(f"from-scratch translation of edit {i} differs")

        n_first = len(sessions[0][1])
        totals = layers.decompose(
            [(translator, t) for t in texts], trace, {id(translator): library},
            check, 0.0, report, counted=n_first,
        )
        totals["spliced_records"] = sum(c["spliced_records"] for c in counters[:n_first])
        memo_metrics(report, trace, counters[:n_first], totals["semfn_calls"])
        report.note(f"  counters {totals}")
        return trace

    per_edit = lambda attr: [
        mean(values)
        for s in replays
        for values in zip(*(getattr(r, attr) for r in s))
    ]
    edit_s = per_edit("edit_s")
    scratch_s = per_edit("scratch_s")
    cold = [mean([t for r in s for t in r.cold]) for s in replays]
    # Each kind's figures, so edit_* can be re-weighted for another mix.
    edit_kinds = [kind for _, chain in sessions for kind, _ in chain]
    for kind in sorted(set(edit_kinds)):
        pick = lambda values: [v for k, v in zip(edit_kinds, values) if k == kind]
        report.note(
            f"  {kind}: {len(pick(edit_s))} edits, memo median "
            f"{median(pick(edit_s)) * 1000:.3f} ms, from scratch median "
            f"{median(pick(scratch_s)) * 1000:.3f} ms (measured)"
        )
    note = f"over {len(edit_s)} edits, each at its mean of {rounds} replays"
    report.metric("peak_rss_mb", rss, "MiB")
    metric = lambda *args: report.metric(*args, phase="edit")
    metric(
        "lines_per_s", sum(len(t.splitlines()) for t in texts) / sum(edit_s), "lines/s",
        "edited lines over the memo re-translation time",
    )
    metric("edit_p50_ms", percentile(edit_s, 50) * 1000, "ms", note)
    metric("edit_p95_ms", percentile(edit_s, 95) * 1000, "ms")
    metric(
        "memo_cold_ms", median(cold) * 1000, "ms",
        f"median over sessions of each session's mean of {2 * rounds} cold runs",
    )
    metric(
        "translate_p50_ms", percentile(scratch_s, 50) * 1000, "ms",
        "from-scratch translation of the same edited texts",
    )
    metric("translate_p95_ms", percentile(scratch_s, 95) * 1000, "ms")
    metric("req_per_s", len(edit_s) / sum(edit_s), "1/s", "edits as requests, one client")
    metric("req_p50_ms", percentile(edit_s, 50) * 1000, "ms")
    metric("req_p99_ms", percentile(edit_s, 99) * 1000, "ms")
    return None


def memo_metrics(report, trace: Trace, counters, scratch_calls: int):
    """Memo-layer metrics.  Counts come from the first session alone, so
    they repeat exactly for a seed; edit_vs_scratch is a time ratio over
    every traced edit."""
    total = lambda key: sum(c[key] for c in counters)
    lookups = total("hits") + total("misses")
    report.metric("incremental.hit_ratio", total("hits") / max(1, lookups), "ratio")
    report.metric(
        "incremental.splice_ratio",
        total("spliced_records") / max(1, total("emitted")), "ratio",
    )
    report.metric(
        "incremental.frontend_reuse_ratio",
        sum(1 for c in counters if c["frontend_reuses"]) / len(counters), "ratio",
    )
    report.metric("incremental.spine_nodes", total("spine_nodes"), "count")
    report.metric("incremental.invalidations", total("invalidations"), "count")
    report.metric(
        "incremental.memo_bytes_written", total("memo_bytes") / len(counters), "bytes",
        "per edit",
    )
    report.metric(
        "incremental.semfn_ratio", total("semfn_calls") / max(1, scratch_calls), "ratio",
        "memo edit vs from-scratch semantic-function calls, same texts",
    )
    durations = trace.durations()
    report.metric(
        "incremental.edit_vs_scratch", durations["edit"] / durations["translate"], "ratio",
        "traced memo edit vs traced from-scratch translation, same texts",
    )
