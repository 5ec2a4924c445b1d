"""The registry of durable artifact formats behind ``fsck`` and ``doctor``.

Every file this system leaves on disk is one of eight formats: sealed
spools (v3, v2, and the legacy checksum-free v1), build-cache entries,
PROV1 provenance logs, SRVJ1 request journals, MEMO1 memo manifests and
checkpoint manifests.  A :class:`SealedFormat` says, for one of them,
how to recognize it by content (``sniff``), verify it tolerantly
(``scan``, never raises), rewrite its valid prefix as a freshly sealed
artifact (``salvage``; ``None`` where the only repair is deletion) and
map a scan to a doctor state (``classify``).

``repro fsck`` judges one path with the first format that claims it
(:func:`resolve`); ``repro doctor`` classifies every file of a tree the
same way (:func:`sniff`).  The format's ``name`` is the single name
both report — the doctor's ``ArtifactFormat`` and ``fsck --json``'s
``format`` field.  Adding a format is adding one entry to
:data:`FORMATS`.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.apt.storage import MAGIC, MAGIC_V3, salvage_spool, scan_spool
from repro.buildcache.store import ENTRY_SUFFIX, MAGIC as CACHE_MAGIC
from repro.errors import CacheCorruptionError, ResumeError
from repro.obs.provenance import (
    LOG_NAME,
    PROV_FORMAT,
    salvage_provenance,
    scan_provenance,
)
from repro.passes.incremental import (
    MEMO_FORMAT,
    MEMO_LOG,
    salvage_memo,
    scan_memo,
)
from repro.serve.journal import (
    JOURNAL_FORMAT,
    JOURNAL_NAME,
    salvage_journal,
    scan_journal,
)
from repro.util import sealedlog
from repro.util.sealedlog import ScanReport

__all__ = [
    "ArtifactFormat",
    "ArtifactState",
    "FORMATS",
    "MANIFEST_NAME",
    "SealedFormat",
    "by_name",
    "load_manifest_doc",
    "resolve",
    "sniff",
]

#: Checkpoint manifest file name (mirrors CheckpointManager.MANIFEST
#: without importing the evalgen driver at registry-import time).
MANIFEST_NAME = "checkpoint.json"


class ArtifactFormat:
    SPOOL_V3 = "spool-v3"
    SPOOL_V2 = "spool-v2"
    SPOOL_V1 = "spool-v1"
    CACHE_ENTRY = "cache-entry"
    PROVENANCE = "provenance-log"
    JOURNAL = "request-journal"
    MANIFEST = "checkpoint-manifest"
    MEMO = "memo-manifest"
    UNKNOWN = "unknown"


class ArtifactState:
    SEALED = "sealed"
    UNSEALED = "unsealed"
    UNSEALED_TMP = "unsealed-tmp"
    CORRUPT = "corrupt"
    ORPHANED = "orphaned"
    LEGACY = "legacy"
    FOREIGN = "foreign"


def _classify(report) -> Tuple[str, str]:
    """Scan report -> (doctor state, detail)."""
    if not report.ok:
        return ArtifactState.CORRUPT, (
            f"valid prefix {report.n_valid} record(s); {report.error.reason}"
        )
    if report.sealed:
        return ArtifactState.SEALED, f"{report.n_valid} record(s)"
    return ArtifactState.UNSEALED, f"{report.n_valid} record(s), no seal yet"


@dataclass(frozen=True)
class SealedFormat:
    name: str
    #: ``(path, first 4 KiB) -> bool``: does this format claim the file?
    sniff: Callable[[str, bytes], bool]
    #: ``(path, metrics=None) -> report`` with ``ok``/``sealed``/
    #: ``n_valid``/``loss``/``error``/``render()``; never raises.
    scan: Callable[..., Any]
    #: ``(src, dst, metrics=None) -> source report``; raises (writing
    #: nothing) when there is no valid header to salvage under.
    salvage: Optional[Callable[..., Any]] = None
    classify: Callable[[Any], Tuple[str, str]] = _classify
    #: File name the format takes inside its directory (``fsck DIR``).
    default_name: Optional[str] = None
    #: ``*.tmp`` debris keeps its salvageable prefix when the sealed
    #: name never appeared (a recorder died before its atomic rename).
    rescue_tmp: bool = False


def load_manifest_doc(path: str) -> Optional[Dict[str, Any]]:
    """A checkpoint manifest's JSON document, or None if unusable."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, ValueError):
        return None
    if not isinstance(doc, dict) or "completed" not in doc:
        return None
    return doc


def _scan_manifest(path: str, metrics=None) -> ScanReport:
    report = ScanReport(path, ArtifactFormat.MANIFEST)
    doc = load_manifest_doc(path)
    if doc is None:
        report.error = ResumeError(f"checkpoint manifest does not parse: {path}")
    else:
        report.sealed = True
        report.n_valid = len(doc.get("completed", []))
    return report


def _scan_cache_entry(path: str, metrics=None) -> ScanReport:
    from repro.buildcache.store import BuildCache

    report = ScanReport(path, ArtifactFormat.CACHE_ENTRY)
    name = os.path.basename(path)
    key = name[: -len(ENTRY_SUFFIX)] if name.endswith(ENTRY_SUFFIX) else name
    try:
        BuildCache.__new__(BuildCache)._read_sealed(path, key)
    except FileNotFoundError:
        report.error = CacheCorruptionError(
            f"cache entry vanished mid-scan: {path}", path=path,
            reason="missing",
        )
    except CacheCorruptionError as exc:
        report.error = exc
    else:
        report.sealed = True
        report.n_valid = 1
    return report


def _log_sniff(tag: str) -> Callable[[str, bytes], bool]:
    return lambda path, head: sealedlog.sniff(head, tag)


def _is_v1_spool(path: str, head: bytes) -> bool:
    # v1 spools have no magic: a bare length-framed pickle stream.
    name = path[: -len(".tmp")] if path.endswith(".tmp") else path
    return name.endswith(".spool") and bool(head)


FORMATS: List[SealedFormat] = [
    SealedFormat(ArtifactFormat.SPOOL_V3,
                 lambda path, head: head.startswith(MAGIC_V3),
                 scan_spool, salvage_spool),
    SealedFormat(ArtifactFormat.SPOOL_V2,
                 lambda path, head: head.startswith(MAGIC),
                 scan_spool, salvage_spool),
    SealedFormat(ArtifactFormat.CACHE_ENTRY,
                 lambda path, head: head.startswith(CACHE_MAGIC),
                 _scan_cache_entry),
    SealedFormat(ArtifactFormat.PROVENANCE, _log_sniff(PROV_FORMAT),
                 scan_provenance, salvage_provenance,
                 default_name=LOG_NAME, rescue_tmp=True),
    SealedFormat(ArtifactFormat.JOURNAL, _log_sniff(JOURNAL_FORMAT),
                 scan_journal, salvage_journal, default_name=JOURNAL_NAME),
    SealedFormat(ArtifactFormat.MEMO, _log_sniff(MEMO_FORMAT),
                 scan_memo, salvage_memo, default_name=MEMO_LOG),
    SealedFormat(ArtifactFormat.MANIFEST,
                 lambda path, head: os.path.basename(path) == MANIFEST_NAME,
                 _scan_manifest, default_name=MANIFEST_NAME),
    SealedFormat(ArtifactFormat.SPOOL_V1, _is_v1_spool,
                 scan_spool, salvage_spool,
                 classify=lambda report: (
                     ArtifactState.LEGACY,
                     f"{report.n_valid} record(s), no integrity data",
                 )),
]

_BY_NAME = {fmt.name: fmt for fmt in FORMATS}


def by_name(name: str) -> Optional[SealedFormat]:
    return _BY_NAME.get(name)


def sniff(path: str) -> Optional[SealedFormat]:
    """The format ``path`` holds, by content (a renamed artifact still
    classifies), or None when it is not one of ours."""
    try:
        with open(path, "rb") as f:
            head = f.read(4096)
    except OSError:
        head = b""
    for fmt in FORMATS:
        if fmt.sniff(path, head):
            return fmt
    return None


def resolve(path: str) -> Tuple[str, Optional[SealedFormat]]:
    """The file ``repro fsck`` judges for ``path``, and its format.

    A directory resolves to the first registered default file name
    present in it (a record directory to its provenance log, a
    ``--journal`` directory to its journal, a memo directory to its
    manifest).  A file no format claims is read as a legacy v1 spool,
    which has no magic to sniff.  ``(path, None)`` when there is
    nothing to judge.
    """
    if os.path.isdir(path):
        for fmt in FORMATS:
            inner = os.path.join(path, fmt.default_name or "")
            if fmt.default_name and os.path.isfile(inner):
                return inner, sniff(inner) or fmt
        return path, None
    if not os.path.exists(path):
        return path, None
    return path, sniff(path) or _BY_NAME[ArtifactFormat.SPOOL_V1]
