"""serve-mixed: a ``repro serve`` daemon under a closed-loop HTTP client.

One daemon per run serves calc and pascal with a journal and a build
cache dir of its own.  ``nproc`` client threads, each on one keep-alive
connection, send a seeded mix of small calc programs and medium Pascal
programs; each sends its next request when the previous answer is in.
Small requests make admission, queueing, worker IPC and the journal the
dominant cost.  After the SIGTERM drain, the journal must be sealed
with one completion per request and no shared-memory plane segment of
the run may survive.
"""

from __future__ import annotations

import http.client
import json
import os
import queue
import re
import signal
import subprocess
import sys
import random
import threading
import time
from contextlib import contextmanager

from repro.batch import WorkerSpec, build_batch_translator
from repro.buildcache.shm import attach_translator, export_translator_plane, plane_segments
from repro.evalgen.runtime import render_root_attrs
from repro.grammars import load_source, source_path
from repro.serve.journal import replay_journal

import corpus
import layers
from harness import Trace, median, percentile, process_peak_rss_mb, settle
from inproc import build_translator, measure_setup

GRAMMARS = ("calc", "pascal")
WORKERS = 2
#: Daemon starts per run; setup_s is their median.
STARTS = 5
#: Timed rounds of in-process translation of the request texts.
INPROC_ROUNDS = 5
#: Calibration slices between one-second load segments.
SLICES_BETWEEN = 20
#: Seconds to wait for a daemon to start or to drain.
DEADLINE = 60.0


class Daemon:
    """One ``repro serve`` subprocess with its own journal and cache."""

    def __init__(self, root: str, workdir: str, name: str) -> None:
        self.journal_dir = os.path.join(workdir, name, "journal")
        cache_dir = os.path.join(workdir, name, "cache")
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), TMPDIR=workdir)
        argv = [sys.executable, "-m", "repro", "serve"]
        argv += [source_path(g) for g in GRAMMARS]
        argv += [
            "--port", "0", "--workers", str(WORKERS),
            "--journal", self.journal_dir, "--cache-dir", cache_dir,
        ]
        self.started = time.perf_counter()
        # A process group of its own, so that paused() reaches the
        # workers, forkserver and resource tracker too.
        self.proc = subprocess.Popen(
            argv, cwd=workdir, env=env, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            start_new_session=True,
        )
        self._lines = queue.Queue()
        threading.Thread(target=self._read, daemon=True).start()
        try:
            self.port = self._wait_port()
            self.ready_s = self._wait_healthy()
        except BaseException:
            self.stop()
            raise

    def _read(self) -> None:
        for line in self.proc.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def _wait_port(self) -> int:
        output = []
        while True:
            left = DEADLINE - (time.perf_counter() - self.started)
            try:
                line = self._lines.get(timeout=max(0.0, left))
            except queue.Empty:
                raise RuntimeError("daemon did not listen in time") from None
            if line is None:
                raise RuntimeError("daemon exited before listening:\n" + "".join(output))
            output.append(line)
            m = re.search(r"listening on http://[\d.]+:(\d+)", line)
            if m:
                return int(m.group(1))

    def _wait_healthy(self) -> float:
        while time.perf_counter() - self.started < DEADLINE:
            conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=DEADLINE)
            try:
                conn.request("GET", "/healthz")
                response = conn.getresponse()
                body = json.loads(response.read())
                if response.status == 200 and all(
                    g["workers_alive"] == g["workers"] for g in body["grammars"].values()
                ):
                    return time.perf_counter() - self.started
            finally:
                conn.close()
            time.sleep(0.005)
        raise RuntimeError("daemon never became healthy")

    def get(self, path: str):
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=DEADLINE)
        try:
            conn.request("GET", path)
            return json.loads(conn.getresponse().read())
        finally:
            conn.close()

    @contextmanager
    def paused(self):
        """Every process of the daemon stopped (SIGSTOP) for the block."""
        os.killpg(self.proc.pid, signal.SIGSTOP)
        try:
            yield
        finally:
            os.killpg(self.proc.pid, signal.SIGCONT)

    def stop(self) -> int:
        """SIGTERM, wait for the drain, and return the exit code."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            return self.proc.wait(timeout=DEADLINE)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            return -9


def _send(conn, pool, i):
    """One request on ``conn``: ``(i, status, body, start, seconds)``,
    with status None when the request raised."""
    grammar, text = pool[i]
    t0 = time.perf_counter()
    try:
        conn.request("POST", f"/translate?grammar={grammar}", body=text.encode())
        response = conn.getresponse()
        body = response.read()
        status = response.status
    except (OSError, http.client.HTTPException) as exc:
        conn.close()
        status, body = None, repr(exc).encode()
    return i, status, body, t0, time.perf_counter() - t0


def _request(port, pool, i):
    """One request on a connection of its own."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=DEADLINE)
    try:
        return _send(conn, pool, i)
    finally:
        conn.close()


def _client(port, pool, order, counter, lock, gate, segment):
    """Closed loop on one keep-alive connection, one load segment at a
    time: between ``gate`` waits, send until the segment's deadline and
    file each answer under the segment's window."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=DEADLINE)
    try:
        while True:
            gate.wait()
            if segment[0] is None:
                return
            deadline, window = segment
            while time.perf_counter() < deadline:
                with lock:
                    k = counter[0]
                    counter[0] += 1
                window.append(_send(conn, pool, order[k % len(order)]))
            gate.wait()
    finally:
        conn.close()


def _load(daemon, pool, order, clients, seconds, speed):
    """``clients`` closed-loop clients for ``seconds`` of load, in
    one-second segments.  Between segments every client waits and every
    daemon process is stopped while ``SLICES_BETWEEN`` calibration
    slices run, so the slices see the host's speed over the same stretch
    of time as the load, and nothing the daemon does reaches them.
    Returns the answers of each segment."""
    gate = threading.Barrier(clients + 1, timeout=DEADLINE)
    segment = [None]
    counter = [0]
    lock = threading.Lock()
    threads = [
        threading.Thread(
            target=_client,
            args=(daemon.port, pool, order, counter, lock, gate, segment),
        )
        for _ in range(clients)
    ]
    count = max(1, round(seconds))
    windows = []
    for t in threads:
        t.start()
    try:
        for _ in range(count):
            with daemon.paused():
                speed.tick(SLICES_BETWEEN)
            windows.append([])
            segment[:] = [time.perf_counter() + seconds / count, windows[-1]]
            gate.wait()
            gate.wait()
        segment[:] = [None]
        gate.wait()
    except BaseException:
        gate.abort()
        raise
    finally:
        for t in threads:
            t.join()
    return windows


def _body(attrs) -> bytes:
    """A 200 response body: the root attributes as ``repro run`` prints them."""
    return ("\n".join(render_root_attrs(attrs)) + "\n").encode()


def _inproc(pool, speed):
    """In-process translation of every pool text: the reference bodies,
    and each text's median latency over ``INPROC_ROUNDS`` timed rounds
    after a warm-up one.  A median, where the other workloads take a
    mean: a 3 ms translation is hit whole by a scheduler or collector
    pause, and a mean of such outliers set the percentiles (on the
    2-CPU reference host, seeds 101-110, ``translate_p95_ms`` spread
    0.16 to 0.26 of its median with the mean of 3 rounds, 0.06 with the
    median of 5)."""
    translators = {g: build_translator(g) for g in GRAMMARS}
    references = []
    latencies = [[] for _ in pool]
    for r in range(INPROC_ROUNDS + 1):
        # Once a round, not before every text: most texts take 3 ms, less
        # than a collection does.
        settle()
        for i, (grammar, text) in enumerate(pool):
            speed.tick()
            t0 = time.perf_counter()
            body = _body(translators[grammar].translate(text).root_attrs)
            dt = time.perf_counter() - t0
            if r == 0:
                references.append(body)
            else:
                latencies[i].append(dt)
    return translators, references, [median(per_text) for per_text in latencies]


def _our_segments(pids):
    return [s for s in plane_segments() if any(f"_{pid}_" in s for pid in pids)]


def serve_mixed(report, seed: int, seconds: float, workdir: str, root: str):
    traced = report.traced
    pool = corpus.serve_pool(seed)
    order = list(range(len(pool)))
    random.Random(seed).shuffle(order)
    translators, references, inproc = _inproc(pool, report.phase("inproc"))

    starts = []
    pids = []
    daemon = None
    try:
        for k in range(STARTS):
            if daemon is not None and daemon.stop() != 0:
                report.mismatch(f"daemon start {k - 1} did not exit 0 after SIGTERM")
            daemon = Daemon(root, workdir, f"daemon{k}")
            pids.append(daemon.proc.pid)
            starts.append(daemon.ready_s)
        # As measured: the start runs in the daemon's own processes, and
        # slices taken after each start did not track it (scaled, the
        # spread over seeds 1-5 doubled).
        report.metric(
            "setup_s", median(starts), "s",
            f"median of {STARTS} daemon starts (fresh cache) to healthy /healthz",
        )
        # Warm both grammars' dispatch path once; these count as requests
        # and their answers are checked like the others.
        warmups = []
        for grammar in GRAMMARS:
            i = next(k for k, (g, _) in enumerate(pool) if g == grammar)
            warmups.append(_request(daemon.port, pool, i))
        clients = os.cpu_count() or 1
        windows = _load(daemon, pool, order, clients, seconds, report.phase("load"))
        stats = daemon.get("/stats")
        rss = process_peak_rss_mb(daemon.proc.pid)
    finally:
        code = daemon.stop() if daemon is not None else None
    samples = [sample for window in windows for sample in window]
    sent = len(samples) + len(warmups)
    report.attempted += sent

    # A request that raised, was refused or was answered wrongly fails
    # the run: the workload is chosen so that none should.
    for i, status, body, _, dt in warmups + samples:
        if status != 200:
            report.mismatch(f"request for pool text {i} answered {status}: {body[:200]!r}")
        elif body != references[i]:
            report.mismatch(f"response for pool text {i} differs from in-process")
    latencies = [dt for *_, dt in samples]
    report.note(
        f"  {len(samples)} requests from {clients} clients in {len(windows)} "
        f"segments of {seconds / len(windows):.3g} s; "
        f"pool {len(pool)} texts ({sum(1 for g, _ in pool if g == 'pascal')} pascal)"
    )
    overhead_share = mix_breakdown(report, pool, samples, inproc)

    # Run hygiene: clean drain, sealed journal, no surviving segments.
    if code != 0:
        report.mismatch(f"daemon exited {code} after SIGTERM")
    journal = os.path.join(daemon.journal_dir, "requests.ndjson")
    fsck = subprocess.run(
        [sys.executable, "-m", "repro", "fsck", "--json", journal],
        env=dict(os.environ, PYTHONPATH=os.path.join(root, "src")),
        capture_output=True, text=True, timeout=DEADLINE,
    )
    verdict = json.loads(fsck.stdout) if fsck.stdout else {}
    state = replay_journal(journal)
    if fsck.returncode != 0 or not verdict.get("sealed"):
        report.mismatch(f"journal not sealed and clean: {fsck.stdout}{fsck.stderr}")
    if len(state.completed) != sent:
        report.mismatch(f"journal shows {len(state.completed)} completions for {sent} requests")
    leftover = _our_segments(pids)
    if leftover:
        report.mismatch(f"plane segments survived the run: {leftover}")
    report.note(
        f"  journal sealed={verdict.get('sealed')} completions={len(state.completed)} "
        f"requests={sent}; surviving plane segments: {len(leftover)}"
    )

    if traced:
        trace = Trace()
        for k, (i, _, _, t0, dt) in enumerate(samples):
            trace.add("serve.request", t0, t0 + dt, f"req{k}.pool{i}")
        serve_layers(report, stats, journal, sent, latencies, inproc, workdir)
        report.metric("serve.overhead_share", overhead_share, "ratio")
        libraries = {}
        pairs = []
        for grammar, text in pool:
            translator = translators[grammar]
            libraries.setdefault(id(translator), layers.CountingLibrary(translator.library))
            pairs.append((translator, text))
        measure_setup(report, list(GRAMMARS))

        def check(i, attrs):
            if _body(attrs) != references[i]:
                report.mismatch(f"traced translation of pool text {i}")

        counters = layers.decompose(pairs, trace, libraries, check, 0.0, report)
        report.note(f"  counters {counters}")
        return trace

    # Throughput and median latency are medians over the one-second load
    # segments, so a stall of the host for a second or two does not move
    # them.  A segment's throughput is clients / mean latency (Little's
    # law for a closed loop with no think time), which does not round to
    # whole requests.  Like the in-process times, they are reported at
    # the reference host speed, from the slices run between segments.
    windows = [[(dt, len(pool[i][1].splitlines())) for i, *_, dt in w] for w in windows if w]
    rate = lambda w, weight: clients * sum(weight(n) for _, n in w) / sum(dt for dt, _ in w)
    load_metric = lambda *args: report.metric(*args, phase="load")
    load_metric(
        "req_per_s", median([rate(w, lambda n: 1) for w in windows]), "1/s",
        f"{clients} closed-loop clients, median of {len(windows)} one-second segments",
    )
    load_metric("lines_per_s", median([rate(w, lambda n: n) for w in windows]), "lines/s")
    load_metric(
        "req_p50_ms", median([median([dt for dt, _ in w]) for w in windows]) * 1000, "ms",
        f"median of the segments' medians; {len(latencies)} samples",
    )
    load_metric("req_p99_ms", percentile(latencies, 99) * 1000, "ms")
    report.metric("peak_rss_mb", rss, "MiB", "the daemon process (VmHWM)")
    p50 = percentile(inproc, 50) * 1000
    p95 = percentile(inproc, 95) * 1000
    inproc_metric = lambda *args: report.metric(*args, phase="inproc")
    inproc_metric(
        "translate_p50_ms", p50, "ms",
        "in-process translation of the request texts, each at its median (no memo)",
    )
    inproc_metric("translate_p95_ms", p95, "ms")
    inproc_metric("edit_p50_ms", p50, "ms")
    inproc_metric("edit_p95_ms", p95, "ms")
    inproc_metric("memo_cold_ms", p50, "ms")
    return None


def mix_breakdown(report, pool, samples, inproc) -> float:
    """Per-grammar request figures, so the effect of the mix on the req_*
    metrics can be read off, and the overhead share: the part of the
    client-observed time not spent translating in process."""
    for grammar in GRAMMARS:
        client = [dt for i, _, _, _, dt in samples if pool[i][0] == grammar]
        local = [inproc[i] for i, (g, _) in enumerate(pool) if g == grammar]
        report.note(
            f"  {grammar}: {len(client)} requests, client p50 "
            f"{median(client) * 1000:.3f} ms, in-process p50 {median(local) * 1000:.3f} ms"
        )
    client_s = sum(dt for *_, dt in samples)
    share = (client_s - sum(inproc[i] for i, *_ in samples)) / client_s
    report.note(f"  overhead share of client-observed time: {share:.3f}")
    return share


def serve_layers(report, stats, journal, sent, latencies, inproc, workdir):
    """The request path beside the in-process translation, the daemon's
    own counters, and the three start-up paths timed in process."""
    inproc_ms = percentile(inproc, 50) * 1000
    report.metric("serve.inproc_translate_ms", inproc_ms, "ms")
    report.metric("serve.overhead_ms", percentile(latencies, 50) * 1000 - inproc_ms, "ms")
    report.metric("serve.journal_bytes_per_req", os.path.getsize(journal) / sent, "bytes")
    for name in ("admitted", "rejected", "retries", "worker_restarts", "timeouts"):
        report.metric(f"serve.{name}", stats.get(f"serve.{name}", 0), "count")

    cold = rehydrate = attach = 0.0
    for grammar in GRAMMARS:
        spec = WorkerSpec(
            source=load_source(grammar), filename=source_path(grammar),
            grammar_name=grammar, direction="r2l",
            cache_dir=os.path.join(workdir, "probe-cache"),
        )
        t0 = time.perf_counter()
        translator = build_batch_translator(spec)
        t1 = time.perf_counter()
        build_batch_translator(spec)
        t2 = time.perf_counter()
        plane = export_translator_plane(translator)
        try:
            t3 = time.perf_counter()
            attach_translator(WorkerSpec(**dict(spec.__dict__, shm_plane=plane.name)))
            t4 = time.perf_counter()
        finally:
            plane.unlink()
        cold += t1 - t0
        rehydrate += t2 - t1
        attach += t4 - t3
    report.metric("buildcache.cold_build_s", cold, "s", "calc + pascal")
    report.metric("buildcache.rehydrate_s", rehydrate, "s")
    report.metric("shm.attach_s", attach, "s")
