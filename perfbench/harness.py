"""Measurement machinery shared by every workload.

Nothing here knows about LINGUIST: percentiles, peak memory, host facts,
the host-speed calibration, the in-memory span recorder of the traced
run, and the report whose last line is the JSON result the benchmark
contract asks for.  Run as a script, this file is the calibration
helper process (see :class:`Calibrator`).
"""

from __future__ import annotations

import gc
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from typing import Dict, List, Optional


def percentile(values: List[float], pct: float) -> float:
    """Linear-interpolated percentile of ``values`` (0 <= pct <= 100)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = (len(ordered) - 1) * pct / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(values: List[float]) -> float:
    return statistics.median(values)


def mean(values: List[float]) -> float:
    return statistics.fmean(values)


def trimmed_mean(values: List[float]) -> float:
    """Mean of the middle half of ``values``."""
    ordered = sorted(values)
    cut = len(ordered) // 4
    return statistics.fmean(ordered[cut:len(ordered) - cut])


def peak_rss_mb() -> float:
    """Peak resident set of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of another live process."""
    with open(f"/proc/{pid}/status", encoding="ascii") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def adopt_orphans() -> None:
    """Make this process the reaper of its descendants (Linux
    ``PR_SET_CHILD_SUBREAPER``): when a process it started exits, that
    process's own children (a daemon's workers, forkserver and resource
    tracker) become this process's children, so :func:`end_children`
    can wait for them too."""
    import ctypes

    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(36, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER)")


def _children() -> List[int]:
    """The pids whose parent is this process."""
    me = os.getpid()
    out = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii", errors="replace") as f:
                fields = f.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == me:
            out.append(int(entry))
    return out


def end_children(timeout: float = 30.0) -> List[int]:
    """Stop every process this run started and wait until each has ended.

    Stops the multiprocessing resource tracker this process started (it
    would otherwise outlive the run by a moment: it ends when the
    process that started it has exited), then waits for every child,
    orphans adopted through :func:`adopt_orphans` included.  A child
    still running after ``timeout`` seconds is killed; the pids killed
    are returned.
    """
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()
    killed: List[int] = []
    deadline = time.monotonic() + timeout
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return killed
        if pid:
            continue
        if time.monotonic() < deadline:
            time.sleep(0.01)
            continue
        for pid in _children():
            try:
                os.kill(pid, signal.SIGKILL)
                killed.append(pid)
            except ProcessLookupError:
                pass
        deadline = float("inf")


def settle() -> None:
    """Run a full collection; call it right before a timed operation.

    A full collection costs time in proportion to everything alive in
    the process, the benchmark's own records included, and starts once
    enough earlier work has piled up; left alone, one lands inside some
    operation that did not cause it (about 30 ms inside a 100 ms
    translation).  Each timed operation therefore starts from a collected
    heap.  The collections its own allocations trigger still count."""
    gc.collect()


class _Node:
    __slots__ = ("op", "left", "right")

    def __init__(self, op, left, right):
        self.op = op
        self.left = left
        self.right = right


_SLICE_TEXT = " + ".join(f"({i} * {i % 7} - {i % 5})" for i in range(60))


def _calibration_slice() -> int:
    """A fixed few milliseconds of interpreter work: an arithmetic loop,
    then a tokenizer, a recursive-descent parse and a tree walk.  Of the
    kernels tried, this mix tracked the host's slow spells closest for
    both translation and grammar builds.  It shares no code with the
    program, so no change to the program moves it."""
    total = 0
    for i in range(10000):
        total += i * i % 7
    tokens = _SLICE_TEXT.replace("(", " ( ").replace(")", " ) ").split()
    pos = 0

    def atom():
        nonlocal pos
        tok = tokens[pos]
        pos += 1
        if tok == "(":
            node = expr()
            pos += 1
            return node
        return int(tok)

    def term():
        nonlocal pos
        node = atom()
        while pos < len(tokens) and tokens[pos] == "*":
            pos += 1
            node = _Node("*", node, atom())
        return node

    def expr():
        nonlocal pos
        node = term()
        while pos < len(tokens) and tokens[pos] in "+-":
            op = tokens[pos]
            pos += 1
            node = _Node(op, node, term())
        return node

    def walk(node):
        if isinstance(node, int):
            return node
        a, b = walk(node.left), walk(node.right)
        return a * b if node.op == "*" else a + b if node.op == "+" else a - b

    return total + walk(expr())


class Calibrator:
    """Times calibration slices in a helper process of its own.

    The helper is this file run as a script: it imports nothing of the
    program, so no state of the process under measurement (its threads,
    trace hooks, heap or interpreter settings) can reach a slice.  Slices
    run one batch at a time while the benchmark waits on the pipe, so the
    two never run at the same time.
    """

    def __init__(self) -> None:
        self._proc: Optional[subprocess.Popen] = None

    def time_slices(self, n: int) -> List[float]:
        if self._proc is None:
            self._proc = subprocess.Popen(
                [sys.executable, os.path.abspath(__file__)],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            )
        self._proc.stdin.write(f"{n}\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("calibration helper exited")
        return [float(t) for t in line.split()]

    def close(self) -> None:
        """Stop the helper and wait until it has ended."""
        if self._proc is not None:
            self._proc.stdin.close()
            try:
                self._proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self._proc.kill()
                self._proc.wait()
            self._proc.stdout.close()
            self._proc = None


class HostSpeed:
    """How fast the host runs right now, from calibration slices the
    workload interleaves with its measurements.

    On a shared host the same code runs up to 1.8x slower for seconds or
    minutes at a time.  Times measured in process are therefore reported
    at the reference speed: measured time x ``REFERENCE_S`` / the trimmed
    mean slice time of the phase they were measured in (rates the other way
    round).  The slices run in a separate process (:class:`Calibrator`)
    and share no code with the program, so a change to the program still
    moves every figure by exactly its own effect.
    """

    #: Typical slice time on the host the bounds were set on (2 vCPUs,
    #: "Intel(R) Xeon(R) Processor", Python 3.11.7, in a quiet spell).
    REFERENCE_S = 0.0012

    def __init__(self, calibrator: Calibrator) -> None:
        self.calibrator = calibrator
        self.samples: List[float] = []

    def tick(self, n: int = 1) -> None:
        self.samples.extend(self.calibrator.time_slices(n))

    @property
    def factor(self) -> float:
        """Multiply a measured time by this to get reference time."""
        return self.REFERENCE_S / trimmed_mean(self.samples)


def host_facts() -> Dict[str, object]:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cpu": cpu,
    }


class Trace:
    """Spans kept in memory and written out once, at the end of a run.

    Each span has a name, start, end, the index of its parent span and
    the id of the input it belongs to (children inherit the parent's).
    A layer's self time is its duration minus the time its children
    cover.
    """

    def __init__(self) -> None:
        self.spans: List[dict] = []
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str, input_id: Optional[str] = None):
        parent = self._open[-1] if self._open else None
        if input_id is None and parent is not None:
            input_id = self.spans[parent]["input"]
        record = {
            "name": name, "start": 0.0, "end": 0.0,
            "parent": parent, "input": input_id,
        }
        self._open.append(len(self.spans))
        self.spans.append(record)
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def add(self, name: str, start: float, end: float, input_id: str) -> None:
        """Record a finished top-level span (from another thread)."""
        self.spans.append({
            "name": name, "start": start, "end": end,
            "parent": None, "input": input_id,
        })

    def durations(self) -> Dict[str, float]:
        """Total duration per span name."""
        out: Dict[str, float] = {}
        for s in self.spans:
            out[s["name"]] = out.get(s["name"], 0.0) + s["end"] - s["start"]
        return out

    def self_times(self) -> Dict[str, float]:
        """Total self time per span name."""
        out = self.durations()
        for s in self.spans:
            if s["parent"] is not None:
                parent = self.spans[s["parent"]]["name"]
                out[parent] -= s["end"] - s["start"]
        return out


class Report:
    """Metrics by name with their units, notes, and the outcome counts.

    ``attempted`` counts every operation the run tried and ``failed``
    those that raised, were refused, or gave a wrong output.
    """

    def __init__(self, workload: str, seed: int, traced: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.traced = traced
        self.metrics: Dict[str, dict] = {}
        self.notes: List[str] = []
        self.attempted = 0
        self.failed = 0
        self.wrong: List[str] = []
        #: Host-speed samples per measurement phase, and the phase each
        #: time or rate was measured in.
        self.phases: Dict[str, HostSpeed] = {}
        self.calibrator = Calibrator()
        self._phase_of: Dict[str, str] = {}
        self.measured: Dict[str, float] = {}
        #: The traced run's build spans (its translation spans are the
        #: workload's own trace).
        self.setup_trace: Optional["Trace"] = None

    def phase(self, name: str) -> HostSpeed:
        """The host-speed samples of measurement phase ``name``."""
        if name not in self.phases:
            self.phases[name] = HostSpeed(self.calibrator)
        return self.phases[name]

    def metric(
        self, name: str, value: float, unit: str, note: str = "",
        phase: Optional[str] = None,
    ) -> None:
        """Record a metric; a time or rate measured during ``phase`` is
        brought to the reference host speed by :meth:`normalize`."""
        self.metrics[name] = {"value": float(value), "unit": unit}
        if phase is not None:
            self._phase_of[name] = phase
        if note:
            self.notes.append(f"  {name}: {note}")

    def note(self, line: str) -> None:
        self.notes.append(line)

    def close(self) -> None:
        """Stop the calibration helper."""
        self.calibrator.close()

    def mismatch(self, what: str) -> None:
        """Record one wrong output (also counted as a failed operation)."""
        self.failed += 1
        if len(self.wrong) < 5:
            self.wrong.append(what)

    def normalize(self) -> None:
        """Bring each time and rate to the reference host speed with the
        slices of its own phase (see :class:`HostSpeed`); the measured
        values stay in the report."""
        for name, phase in self._phase_of.items():
            m = self.metrics[name]
            factor = self.phases[phase].factor
            self.measured[name] = m["value"]
            m["value"] *= 1.0 / factor if m["unit"].endswith("/s") else factor
        for phase, speed in self.phases.items():
            self.notes.append(
                f"  host speed ({phase}): calibration slice trimmed mean "
                f"{trimmed_mean(speed.samples) * 1000:.4f} ms over {len(speed.samples)} "
                f"slices (reference {HostSpeed.REFERENCE_S * 1000:.4f} ms): "
                f"times x {speed.factor:.4f}, rates / {speed.factor:.4f}"
            )

    @property
    def correct(self) -> bool:
        return not self.wrong

    def emit(self) -> None:
        mode = "traced" if self.traced else "untraced"
        print(f"perfbench {self.workload} seed={self.seed} ({mode})")
        print(f"  host: {json.dumps(host_facts(), sort_keys=True)}")
        for line in self.notes:
            print(line)
        for name in sorted(self.metrics):
            m = self.metrics[name]
            measured = self.measured.get(name)
            tail = f"  (measured {measured:.6g})" if measured is not None else ""
            print(f"  {name:<34} {m['value']:>16.6g} {m['unit']}{tail}")
        print(
            f"  attempted={self.attempted} failed={self.failed} "
            f"failed_ratio={self.failed / max(1, self.attempted):.6g}"
        )
        for what in self.wrong:
            print(f"  WRONG OUTPUT: {what}")
        print(json.dumps({
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": self.metrics,
        }, sort_keys=True))


if __name__ == "__main__":
    # The calibration helper: for each line "n" on stdin, time n slices
    # and answer with their times on one line.  The cyclic collector
    # stays off; this process allocates next to nothing.
    gc.disable()
    for _ in range(20):
        _calibration_slice()  # warm-up: the first runs of a fresh interpreter are slow
    for request in sys.stdin:
        times = []
        for _ in range(int(request)):
            t0 = time.perf_counter()
            _calibration_slice()
            times.append(time.perf_counter() - t0)
        print(" ".join(repr(t) for t in times), flush=True)
