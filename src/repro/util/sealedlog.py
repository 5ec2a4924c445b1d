"""Sealed logs: CRC-framed canonical NDJSON with a stream seal.

LINGUIST-86 keeps its whole APT in sealed sequential files; the line
logs grown around it — PROV1 provenance logs, SRVJ1 request journals
and MEMO1 memo manifests — share one on-disk discipline:

* every line is canonical JSON (sorted keys, compact separators) with
  its own CRC32 appended as a final ``"c"`` field (:func:`frame`);
* line 0 is a header ``{"e":"hdr","format":TAG,...}``;
* a closing seal line ``{"e":"seal","n":N,"crc":C}`` counts the N
  payload records and carries the CRC32 of every byte before it
  (:class:`StreamSeal`).

What differs between the logs is data, not code: a :class:`LogFormat`
names the tag, the typed error, the payload record kinds and the
tolerance rules (gap markers, an unsealed file with a torn tail,
contiguously sequenced events).  :func:`scan` is the one tolerant
verifying walk and :func:`salvage` rewrites its valid prefix as a
freshly sealed log.  Each writer keeps its own durability policy
(tmp + rename on seal, flush per line, or one atomic write).
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, List, Optional, Tuple, Type

from repro.errors import SealedLogCorruptionError
from repro.util.atomic_write import atomic_write

__all__ = [
    "LogFormat",
    "ScanReport",
    "StreamSeal",
    "frame",
    "salvage",
    "scan",
    "sniff",
    "verify",
]

_SEPARATORS = (",", ":")
_CRC_FIELD = b',"c":'


def frame(obj: Dict[str, Any]) -> str:
    """One log line: canonical JSON with its CRC32 as a final field."""
    body = json.dumps(obj, sort_keys=True, separators=_SEPARATORS)
    return f'{body[:-1]},"c":{zlib.crc32(body.encode("utf-8"))}}}\n'


def verify(
    line: bytes,
    index: int,
    path: str,
    error_cls: Type[SealedLogCorruptionError],
) -> Dict[str, Any]:
    """CRC-check one line (without its newline) and parse it.

    The checksum covers the bytes as written — the slice before the
    trailing ``,"c":N}`` plus ``}`` — so a line is never re-serialized
    to be checked, and a non-canonical edit fails like any other.
    """
    noun = error_cls.noun
    cut = line.rfind(_CRC_FIELD)
    digits = line[cut + len(_CRC_FIELD):-1]
    if cut < 0 or not line.endswith(b"}") or not digits.isdigit():
        raise error_cls(
            f"{noun} record {index} has no checksum field",
            record_index=index, path=path, reason="framing",
        )
    body = line[:cut] + b"}"
    if zlib.crc32(body) != int(digits):
        raise error_cls(
            f"{noun} record {index} checksum mismatch "
            "(bit rot or torn write)",
            record_index=index, path=path, reason="checksum",
        )
    try:
        obj = json.loads(body)
    except ValueError:
        obj = None
    if not isinstance(obj, dict):
        raise error_cls(
            f"{noun} record {index} is not a JSON object",
            record_index=index, path=path, reason="framing",
        )
    return obj


class StreamSeal:
    """The running seal of a log: payload count and the CRC32 of every
    line so far.  Writers feed it what they write; :func:`scan` feeds it
    what it verifies; the two must agree at the seal line."""

    __slots__ = ("n", "crc")

    def __init__(self) -> None:
        self.n = 0
        self.crc = 0

    def add(self, line: bytes, count: bool = True) -> None:
        """Cover one framed line (newline included)."""
        self.crc = zlib.crc32(line, self.crc)
        if count:
            self.n += 1

    def restart(self, line: bytes, n: int) -> None:
        """Restart the stream CRC at ``line`` (a gap marker) with ``n``
        records counted so far."""
        self.crc = zlib.crc32(line)
        self.n = n

    def matches(self, obj: Dict[str, Any]) -> bool:
        return obj.get("n") == self.n and obj.get("crc") == self.crc

    def line(self) -> str:
        return frame({"e": "seal", "n": self.n, "crc": self.crc})


@dataclass
class ScanReport:
    """Outcome of a tolerant sweep over one artifact (``repro fsck``)."""

    path: str
    #: Format tag (``PROV1``...) or registry name of the artifact.
    format: str
    sealed: bool = False
    #: The final line of an unsealed log failed verification (a write
    #: torn by a kill; tolerated only where the format allows it).
    torn_tail: bool = False
    #: Verified payload records; header, seal and gap lines excluded.
    n_valid: int = 0
    #: Payload records the seal line promises (None without one).
    n_sealed: Optional[int] = None
    #: Explicit suspension markers and the records they declare lost.
    gaps: int = 0
    lost_records: int = 0
    header: Optional[Dict[str, Any]] = None
    error: Optional[Exception] = None
    #: Extra lines for the human rendering (e.g. a journal's replay).
    notes: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def loss(self) -> Optional[int]:
        """Records known lost (None when the seal is unreadable)."""
        if self.ok:
            return self.lost_records
        if self.n_sealed is None:
            return None
        return max(0, self.n_sealed - self.n_valid)

    def render(self) -> str:
        state = "sealed" if self.sealed else "UNSEALED"
        lines = [
            self.path,
            f"  format {self.format}, {state}, "
            f"{self.n_valid} record(s) verified"
            + (" + torn tail line (expected after a kill)"
               if self.torn_tail else ""),
        ]
        if self.gaps:
            lines.append(
                f"  gaps: {self.gaps} suspension(s), {self.lost_records} "
                "record(s) explicitly dropped (disk pressure)"
            )
        lines.extend(self.notes)
        if self.ok:
            lines.append("  integrity: OK")
        else:
            lines.append(
                f"  integrity: CORRUPT at {self.error.locus()} "
                f"[{self.error.reason}]: {self.error}"
            )
        return "\n".join(lines)


@dataclass(frozen=True)
class LogFormat:
    """The rules that make one sealed log differ from another."""

    tag: str
    error_cls: Type[SealedLogCorruptionError]
    #: Payload record kinds (field ``e``).
    kinds: FrozenSet[str]
    #: ``gap`` markers end a disk-pressure suspension: the stream CRC
    #: restarts there and one unverifiable line before it is skipped.
    gaps: bool = False
    #: An unsealed log (possibly with a torn final line) is a crash
    #: artifact whose valid prefix is authoritative, not corruption.
    unsealed_ok: bool = False
    #: Payload records carry ``"i"`` = their 0-based sequence number.
    sequenced: bool = False
    report_cls: Type[ScanReport] = ScanReport


def sniff(head: bytes, tag: str) -> bool:
    """True when ``head`` (a file's first bytes) starts a ``tag`` log."""
    first = head.split(b"\n", 1)[0]
    return first.startswith(b"{") and b'"' + tag.encode() + b'"' in first


def _read_lines(path: str) -> List[bytes]:
    """A log's lines without their newlines; a final line missing its
    newline is kept (a torn write, judged by its failing checksum)."""
    with open(path, "rb") as f:
        lines = f.read().split(b"\n")
    if lines[-1] == b"":
        lines.pop()
    return lines


def _is_gap(lines: List[bytes], index: int, path: str, fmt: LogFormat) -> bool:
    if index >= len(lines):
        return False
    try:
        return verify(lines[index], index, path, fmt.error_cls).get("e") == "gap"
    except SealedLogCorruptionError:
        return False


def scan(
    path: str, fmt: LogFormat, metrics=None
) -> Tuple[ScanReport, List[Tuple[Dict[str, Any], bytes]]]:
    """The one verifying walk behind every scan, salvage and load.

    Never raises: returns the report plus ``(record, line)`` for the
    header and each verified payload record of the valid prefix, in
    stream order.  The first failure ends the walk and becomes
    ``report.error``.
    """
    err = fmt.error_cls
    noun = err.noun
    report = fmt.report_cls(path=path, format=fmt.tag)
    records: List[Tuple[Dict[str, Any], bytes]] = []
    try:
        lines = _read_lines(path)
    except OSError as exc:
        report.error = err(f"cannot read {noun} log: {exc}", path=path,
                           reason="io")
        lines = []
    seal = StreamSeal()
    for i, line in enumerate(lines):
        if report.sealed:
            report.error = err(
                f"{noun} record {i} follows the seal line",
                record_index=i, path=path, reason="seal",
            )
            break
        try:
            obj = verify(line, i, path, err)
        except SealedLogCorruptionError as exc:
            if fmt.gaps and _is_gap(lines, i + 1, path, fmt):
                continue  # the fragment a failed write left behind
            if (fmt.unsealed_ok and report.header is not None
                    and i == len(lines) - 1):
                report.torn_tail = True
                break
            report.error = exc
            break
        kind = obj.get("e")
        if report.header is None:
            if kind != "hdr" or obj.get("format") != fmt.tag:
                report.error = err(
                    f"{noun} record {i} is not a {fmt.tag} header",
                    record_index=i, path=path, reason="header",
                )
                break
            report.header = obj
            seal.add(line + b"\n", count=False)
        elif kind == "seal":
            if not seal.matches(obj):
                report.error = err(
                    f"{noun} seal mismatch: seal covers {obj.get('n')} "
                    f"record(s) crc {obj.get('crc')}, stream has "
                    f"{seal.n} crc {seal.crc}",
                    record_index=i, path=path, reason="seal",
                )
                break
            report.sealed = True
            report.n_sealed = seal.n
            continue
        elif kind == "gap" and fmt.gaps:
            report.gaps += 1
            report.lost_records += int(obj.get("lost", 0))
            seal.restart(line + b"\n", int(obj.get("base", seal.n)))
            continue
        elif kind not in fmt.kinds:
            report.error = err(
                f"{noun} record {i} has unknown kind {kind!r}",
                record_index=i, path=path, reason="framing",
            )
            break
        elif fmt.sequenced and obj.get("i") != seal.n:
            report.error = err(
                f"{noun} sequence broken at record {i}: expected seq "
                f"{seal.n}, found {obj.get('i')!r}",
                record_index=i, path=path, reason="framing",
            )
            break
        else:
            seal.add(line + b"\n")
            report.n_valid += 1
        records.append((obj, line))
    if report.error is None and report.header is None:
        report.error = err(f"{noun} log has no valid header line",
                           record_index=0, path=path, reason="header")
    elif report.error is None and not (report.sealed or fmt.unsealed_ok):
        report.error = err(
            f"{noun} log is not sealed (crash before the seal line?)",
            record_index=len(lines), path=path, reason="unsealed",
        )
    if report.error is not None and lines and not report.sealed:
        # The seal (if it survived) still says how much was lost.
        try:
            last = verify(lines[-1], len(lines) - 1, path, err)
        except SealedLogCorruptionError:
            last = {}
        if last.get("e") == "seal":
            report.n_sealed = last.get("n")
    if metrics is not None:
        verdict = "clean" if report.ok else "corrupt"
        metrics.counter(f"robust.{noun}_scan_{verdict}").inc()
    return report, records


def salvage(path: str, out: str, fmt: LogFormat, metrics=None) -> ScanReport:
    """Rewrite the valid prefix of ``path`` as a freshly sealed log at
    ``out`` (``out`` may be ``path``: the source is read first).

    Gap markers are dropped — the records they stood for never reached
    the disk — and the seal is recomputed over what is kept.  With no
    valid header there is nothing to name the log by: raises the
    format's corruption error and writes nothing.  Returns the scan
    report of the *source*.
    """
    report, records = scan(path, fmt, metrics)
    if report.header is None:
        raise report.error
    seal = StreamSeal()
    kept = [line + b"\n" for _, line in records]
    seal.add(kept[0], count=False)
    for line in kept[1:]:
        seal.add(line)
    kept.append(seal.line().encode("utf-8"))
    with atomic_write(out) as f:
        f.write(b"".join(kept))
    if metrics is not None:
        metrics.counter(f"robust.{fmt.error_cls.noun}_records_salvaged").inc(
            seal.n
        )
    return report
