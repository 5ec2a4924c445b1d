"""``repro doctor``: the unified crash-recovery sweeper.

Every durable format in :data:`repro.formats.FORMATS` — sealed spools
(v1/v2/v3), build-cache entries, PROV1 provenance logs, SRVJ1 request
journals, checkpoint manifests, and MEMO1 incremental-memo manifests
(with their generation-numbered splice spools) — can be left
mid-flight by a crash, an ENOSPC, or a killed daemon.  ``repro fsck``
judges *one* file; the doctor walks a whole tree, classifies **every**
path through the same registry, and with ``--repair`` salvages what
it can and garbage-collects the rest, so a host always converges back
to "every artifact sealed or gone".

Classification (``ArtifactState``):

========================  ===================================================
state                     meaning
========================  ===================================================
``sealed``                verified clean (CRCs, footer, seal all good)
``unsealed``              a journal without its seal line — the expected
                          artifact of a killed daemon; valid prefix intact
``unsealed-tmp``          ``*.tmp`` staging debris: a writer died before its
                          atomic rename; never referenced by a sealed name
``corrupt``               recognized format failing verification (bit rot,
                          torn write inside the stream)
``orphaned``              a checkpoint pass spool its manifest does not
                          list (progress past the last durable manifest
                          write, or debris of a dead run)
``legacy``                format v1 spool: readable but carries no
                          integrity data to verify
``foreign``               not one of ours; never touched
========================  ===================================================

Repair policy (``--repair``): salvage keeps data (a corrupt artifact
whose format has a salvage is rewritten to its checksum-valid prefix
in place, atomically); deletion is reserved for artifacts whose loss
is safe by design (corrupt cache entries rebuild on miss, tmp debris
was never observable, orphaned pass spools are re-derived on resume,
a log with no valid header has nothing to salvage); checkpoint
manifests are *truncated* at the first damaged
pass so ``--resume`` restarts from the last good pass instead of
refusing.  The serve daemon runs a doctor pass over its journal and
cache directories at startup, so a crashed daemon always boots clean.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

from repro.apt.storage import scan_spool
from repro.formats import (
    ArtifactFormat,
    ArtifactState,
    by_name,
    load_manifest_doc,
    sniff,
)
from repro.passes.incremental import scan_memo

__all__ = [
    "ArtifactFormat",
    "ArtifactState",
    "ArtifactReport",
    "DoctorReport",
    "run_doctor",
    "sniff_format",
]


#: Generation-numbered splice-source spools living beside a MEMO1
#: manifest (``pass2.g7.spool``).  Checkpoint logic must never treat
#: them as checkpoint pass spools: their lifecycle belongs to the memo
#: manifest, not to ``checkpoint.json``.
_MEMO_SPOOL_RE = re.compile(r"^pass\d+\.g\d+\.spool$")


@dataclass
class ArtifactReport:
    """One classified path (and, after ``--repair``, what was done)."""

    path: str
    format: str
    state: str
    detail: str = ""
    #: ``""`` (nothing), ``salvaged``, ``salvaged-with-loss``,
    #: ``deleted``, ``truncated-manifest``.
    action: str = ""

    def render(self) -> str:
        line = f"{self.state:13} {self.format:19} {self.path}"
        if self.detail:
            line += f"  ({self.detail})"
        if self.action:
            line += f"  -> {self.action}"
        return line


@dataclass
class DoctorReport:
    """The sweep's outcome over one or more directories."""

    artifacts: List[ArtifactReport] = field(default_factory=list)
    repaired: bool = False

    @property
    def clean(self) -> bool:
        """True when nothing needs (or needed) attention."""
        return not self.problems

    @property
    def problems(self) -> List[ArtifactReport]:
        return [
            a
            for a in self.artifacts
            if a.state
            in (
                ArtifactState.UNSEALED_TMP,
                ArtifactState.CORRUPT,
                ArtifactState.ORPHANED,
            )
            and not a.action
        ]

    @property
    def lossy(self) -> bool:
        """True when a repair discarded data (salvage dropped records,
        a manifest was truncated, artifacts were deleted)."""
        return any(
            a.action in ("salvaged-with-loss", "deleted", "truncated-manifest")
            for a in self.artifacts
        )

    def render(self) -> str:
        if not self.artifacts:
            return "doctor: nothing recognized"
        lines = [a.render() for a in self.artifacts]
        counts: Dict[str, int] = {}
        for a in self.artifacts:
            counts[a.state] = counts.get(a.state, 0) + 1
        summary = ", ".join(f"{v} {k}" for k, v in sorted(counts.items()))
        lines.append(f"doctor: {len(self.artifacts)} artifact(s): {summary}")
        if self.problems:
            lines.append(
                f"doctor: {len(self.problems)} problem(s) "
                + ("remain" if self.repaired else "found (run with --repair)")
            )
        return "\n".join(lines)


def sniff_format(path: str) -> str:
    """The registry name of the format ``path`` holds (by content, not
    name — a renamed artifact still classifies)."""
    fmt = sniff(path)
    return fmt.name if fmt is not None else ArtifactFormat.UNKNOWN


def _verify_manifest_entry(
    directory: str, entry: Dict[str, Any]
) -> Tuple[bool, str]:
    spool_name = entry.get("spool", "")
    spool_path = os.path.join(directory, spool_name)
    if not spool_name or not os.path.exists(spool_path):
        return False, f"pass {entry.get('pass')}: spool missing"
    report = scan_spool(spool_path)
    if not report.ok:
        return False, f"pass {entry.get('pass')}: spool damaged"
    if report.n_valid != entry.get("n_records"):
        return False, (
            f"pass {entry.get('pass')}: manifest says "
            f"{entry.get('n_records')} record(s), spool holds "
            f"{report.n_valid}"
        )
    return True, ""


def run_doctor(
    directories: List[str],
    repair: bool = False,
    metrics=None,
) -> DoctorReport:
    """Sweep ``directories`` recursively; classify every file; with
    ``repair=True`` salvage / truncate / GC as the module docstring
    describes.  Never raises on damaged artifacts — damage is the
    *input*, the report is the output."""
    doctor = DoctorReport(repaired=repair)
    manifests: List[Tuple[str, Dict[str, Any]]] = []
    memo_manifests: List[str] = []
    referenced: Dict[str, ArtifactReport] = {}
    for directory in directories:
        for root, _dirs, files in os.walk(directory):
            for name in sorted(files):
                path = os.path.join(root, name)
                art = _classify(path)
                doctor.artifacts.append(art)
                if art.format == ArtifactFormat.MANIFEST:
                    doc = load_manifest_doc(path)
                    if doc is not None:
                        manifests.append((path, doc))
                if (
                    art.format == ArtifactFormat.MEMO
                    and art.state == ArtifactState.SEALED
                ):
                    memo_manifests.append(path)
                referenced[path] = art
    _mark_checkpoint_orphans(manifests, referenced)
    _mark_memo_orphans(memo_manifests, referenced)
    if repair:
        for art in doctor.artifacts:
            _repair_artifact(art, metrics=metrics)
        for path, doc in manifests:
            _repair_manifest(path, doc, referenced, metrics=metrics)
    if metrics is not None:
        metrics.counter("governance.doctor_runs").inc()
        for art in doctor.artifacts:
            metrics.counter(f"governance.doctor.{art.state}").inc()
    return doctor


def _classify(path: str) -> ArtifactReport:
    fmt = sniff(path)
    name = fmt.name if fmt is not None else ArtifactFormat.UNKNOWN
    if path.endswith(".tmp") or ".tmp" in os.path.basename(path)[-12:]:
        # Staging debris (including the unique ``<name>.<rand>.tmp``
        # the cache writer uses): a crash between open and rename.
        return ArtifactReport(
            path, name, ArtifactState.UNSEALED_TMP,
            detail="staging file never renamed into place",
        )
    if fmt is None:
        return ArtifactReport(path, name, ArtifactState.FOREIGN)
    state, detail = fmt.classify(fmt.scan(path))
    return ArtifactReport(path, name, state, detail=detail)


def _mark_checkpoint_orphans(
    manifests: List[Tuple[str, Dict[str, Any]]],
    referenced: Dict[str, ArtifactReport],
) -> None:
    """Pass spools living beside a manifest that does not list them are
    orphans (progress past the last durable manifest write)."""
    for manifest_path, doc in manifests:
        directory = os.path.dirname(manifest_path)
        listed = {
            entry.get("spool")
            for entry in doc.get("completed", [])
            if isinstance(entry, dict)
        }
        for path, art in referenced.items():
            if os.path.dirname(path) != directory:
                continue
            name = os.path.basename(path)
            if (
                art.format in (ArtifactFormat.SPOOL_V3,
                               ArtifactFormat.SPOOL_V2)
                and art.state == ArtifactState.SEALED
                and name.startswith("pass")
                and name.endswith(".spool")
                and not _MEMO_SPOOL_RE.match(name)
                and name not in listed
            ):
                art.state = ArtifactState.ORPHANED
                art.detail = "sealed but not listed in checkpoint manifest"


def _mark_memo_orphans(
    memo_manifests: List[str],
    referenced: Dict[str, ArtifactReport],
) -> None:
    """Generation-numbered splice spools beside a *clean* memo manifest
    that does not reference them are stale debris — the writer crashed
    between sealing a new manifest and unlinking the old generation.
    (Beside a corrupt manifest we keep every spool: salvage first.)"""
    for manifest_path in memo_manifests:
        directory = os.path.dirname(manifest_path)
        listed = set(scan_memo(manifest_path).spools)
        for path, art in referenced.items():
            if os.path.dirname(path) != directory:
                continue
            name = os.path.basename(path)
            if (
                _MEMO_SPOOL_RE.match(name)
                and art.state == ArtifactState.SEALED
                and name not in listed
            ):
                art.state = ArtifactState.ORPHANED
                art.detail = (
                    "stale memo generation not referenced by the sealed "
                    "memo manifest"
                )


def _repair_artifact(art: ArtifactReport, metrics=None) -> None:
    fmt = by_name(art.format)
    if art.state == ArtifactState.UNSEALED_TMP:
        final = art.path[: -len(".tmp")]
        if (
            fmt is not None
            and fmt.rescue_tmp
            and art.path.endswith(".tmp")
            and not os.path.exists(final)
        ):
            try:
                report = fmt.salvage(art.path, final, metrics=metrics)
            except Exception:
                pass
            else:
                # The salvage staged through this very name; whatever
                # is left of the debris goes.
                if os.path.exists(art.path):
                    os.unlink(art.path)
                art.action = "salvaged" if report.ok else "salvaged-with-loss"
                return
        _unlink_as_repair(art)
    elif art.state == ArtifactState.ORPHANED:
        _unlink_as_repair(art)
    elif art.state == ArtifactState.CORRUPT:
        if fmt is not None and fmt.salvage is not None:
            try:
                fmt.salvage(art.path, art.path, metrics=metrics)
                art.action = "salvaged-with-loss"
                return
            except Exception:
                pass
        # No salvage (a cache entry rebuilds on miss, an unparseable
        # manifest restarts the run) or nothing to salvage under.
        _unlink_as_repair(art)


def _unlink_as_repair(art: ArtifactReport) -> None:
    try:
        os.unlink(art.path)
    except FileNotFoundError:
        # A sibling repair already consumed this path: in-place salvage
        # of the final artifact stages through the very same ``.tmp``
        # name and renames it away.  Gone is gone.
        pass
    except OSError:
        return
    art.action = "deleted"


def _repair_manifest(
    manifest_path: str,
    doc: Dict[str, Any],
    referenced: Dict[str, ArtifactReport],
    metrics=None,
) -> None:
    """Truncate the completed-pass list at the first damaged entry and
    rewrite the manifest atomically, so ``--resume`` restarts from the
    last verified pass instead of refusing the whole directory."""
    from repro.util.atomic_write import atomic_write

    directory = os.path.dirname(manifest_path)
    completed = doc.get("completed", [])
    kept: List[Dict[str, Any]] = []
    for entry in completed:
        ok, _why = _verify_manifest_entry(directory, entry)
        if not ok:
            break
        kept.append(entry)
    if len(kept) == len(completed):
        return
    doc = dict(doc)
    doc["completed"] = kept
    with atomic_write(manifest_path, text=True, encoding="utf-8") as f:
        json.dump(doc, f, indent=2)
    art = referenced.get(manifest_path)
    if art is not None:
        art.action = "truncated-manifest"
        art.detail = (
            f"kept {len(kept)}/{len(completed)} pass(es); resume restarts "
            "from the last verified pass"
        )
    # Spools past the truncation point are now orphans; sweep them.
    listed = {entry.get("spool") for entry in kept}
    for path, other in referenced.items():
        if os.path.dirname(path) != directory:
            continue
        name = os.path.basename(path)
        if (
            name.startswith("pass")
            and name.endswith(".spool")
            and not _MEMO_SPOOL_RE.match(name)
            and name not in listed
            and other.state
            in (ArtifactState.SEALED, ArtifactState.CORRUPT,
                ArtifactState.ORPHANED)
            and os.path.exists(path)
        ):
            # Even a just-salvaged spool goes: the manifest no longer
            # vouches for this pass, and resume re-derives it.
            _unlink_as_repair(other)
    if metrics is not None:
        metrics.counter("governance.doctor_manifest_truncations").inc()
