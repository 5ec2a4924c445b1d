"""The sealed-log contract, checked once for every log in the registry.

Every line log in :data:`repro.formats.FORMATS` (PROV1 provenance logs,
SRVJ1 request journals, MEMO1 memo manifests) is damaged the same
ways — nothing, one bit flipped in each line, a torn last line, a
dropped seal line, a damaged header — and must then honour one
contract:

* the scan verdict follows the format's rules (only a format that
  tolerates unsealed logs shrugs off damage confined to the seal line);
* ``repro fsck --json`` exits 0 clean / 1 corrupt, with the same keys
  for every format;
* ``repro doctor`` classifies the file the way fsck judged it;
* ``fsck --salvage OUT`` exits 2 (0 when the source was clean) and OUT
  re-scans clean as the same format, keeping every verified record —
  or, without a valid header, exits 1 and writes nothing.

Also here: ``repro fsck DIR`` on artifact directories, and the record
directory a failed ``repro run --record`` leaves.
"""

import json
import os

import pytest

from repro.cli import main
from repro.core import Linguist
from repro.doctor import ArtifactFormat, ArtifactState, run_doctor
from repro.formats import FORMATS
from repro.grammars import load_source, scanner_and_library
from repro.obs.provenance import PROV_LOG, ProvenanceRecorder
from repro.passes.incremental import MEMO_MANIFEST
from repro.serve.journal import JOURNAL_LOG, RequestJournal
from repro.workloads import generate_calc_program

JSON_KEYS = {"path", "format", "verdict", "exit", "n_valid", "sealed", "loss"}


def write_provenance(d):
    rec = ProvenanceRecorder(d, "g", "generated", "S", productions=[])
    rec.begin_run("alternating", ["r2l", "l2r", "r2l"])
    for k in range(3):
        rec.begin_pass(k, "r2l")
    rec.seal()
    return rec.path


def write_journal(d):
    journal = RequestJournal(d, grammars=["calc"])
    for i in range(3):
        journal.admitted(i, "calc", f"in{i}")
        journal.completed(i, "calc", f"out{i}", 0.01)
    journal.seal()
    return journal.path


def write_memo(d):
    spec, library = scanner_and_library("calc")
    translator = Linguist(load_source("calc")).make_translator(
        spec, library=library
    )
    translator.translate(generate_calc_program(12, seed=3), memo_dir=d)
    return os.path.join(d, "memo.ndjson")


#: Registry name -> (writer, the log's rules).
LOGS = {
    ArtifactFormat.PROVENANCE: (write_provenance, PROV_LOG),
    ArtifactFormat.JOURNAL: (write_journal, JOURNAL_LOG),
    ArtifactFormat.MEMO: (write_memo, MEMO_MANIFEST),
}
SEALED_LOGS = [fmt for fmt in FORMATS if fmt.name in LOGS]


def test_every_registered_log_is_covered():
    ndjson = {
        fmt.name for fmt in FORMATS
        if (fmt.default_name or "").endswith(".ndjson")
    }
    assert ndjson == set(LOGS)


@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    """Registry name -> the bytes of one cleanly sealed log."""
    cache = {}

    def get(fmt):
        if fmt.name not in cache:
            d = str(tmp_path_factory.mktemp(fmt.name))
            with open(LOGS[fmt.name][0](d), "rb") as f:
                cache[fmt.name] = f.read()
        return cache[fmt.name]

    return get


def flip(data: bytes, offset: int) -> bytes:
    """Flip bit 0 of one byte (never turns a byte into a newline)."""
    return data[:offset] + bytes([data[offset] ^ 1]) + data[offset + 1:]


@pytest.fixture
def contract(tmp_path, capsys):
    """Check the contract for one damaged copy of a log."""
    counter = iter(range(10**6))

    def fsck(*argv):
        code = main(["fsck", *argv, "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert JSON_KEYS <= set(doc), doc
        assert doc["exit"] == code
        return code, doc

    def check(fmt, data: bytes, tolerated: bool, has_header: bool = True):
        case = tmp_path / f"case{next(counter)}"
        (case / "src").mkdir(parents=True)
        path = str(case / "src" / fmt.default_name)
        with open(path, "wb") as f:
            f.write(data)

        report = fmt.scan(path)
        assert report.ok == tolerated, report.render()
        code, doc = fsck(path)
        assert code == (0 if tolerated else 1)
        assert doc["format"] == fmt.name
        assert doc["sealed"] == report.sealed
        assert doc["n_valid"] == report.n_valid
        assert ("error" in doc) == (not tolerated)

        (art,) = run_doctor([str(case / "src")]).artifacts
        assert art.format == doc["format"]
        assert (art.state == ArtifactState.CORRUPT) == (code == 1)
        assert art.state == (
            ArtifactState.CORRUPT if not tolerated else
            ArtifactState.SEALED if report.sealed else ArtifactState.UNSEALED
        )

        out = str(case / "out.ndjson")
        code, doc = fsck(path, "--salvage", out)
        if not has_header:
            assert code == 1 and doc["verdict"] == "corrupt"
            assert not os.path.exists(out)
            return
        assert code == (0 if tolerated else 2)
        assert doc.get("salvaged_to") == out
        code, doc = fsck(out)
        assert code == 0 and doc["verdict"] == "clean"
        assert doc["format"] == fmt.name and doc["sealed"] is True
        assert doc["n_valid"] == report.n_valid

    return check


@pytest.mark.parametrize("fmt", SEALED_LOGS, ids=lambda f: f.name)
class TestSealedLogContract:
    def test_clean(self, fmt, pristine, contract):
        contract(fmt, pristine(fmt), tolerated=True)

    def test_bit_flip_in_each_line(self, fmt, pristine, contract):
        data = pristine(fmt)
        lines = data.split(b"\n")[:-1]
        start = 0
        for k, line in enumerate(lines):
            damaged = flip(data, start + len(line) // 2)
            is_seal = k == len(lines) - 1
            contract(fmt, damaged,
                     tolerated=is_seal and LOGS[fmt.name][1].unsealed_ok,
                     has_header=k > 0)
            start += len(line) + 1

    def test_torn_last_line(self, fmt, pristine, contract):
        contract(fmt, pristine(fmt)[:-6],
                 tolerated=LOGS[fmt.name][1].unsealed_ok)

    def test_dropped_seal(self, fmt, pristine, contract):
        data = pristine(fmt)
        without_seal = data[: data.rindex(b"\n", 0, len(data) - 1) + 1]
        contract(fmt, without_seal, tolerated=LOGS[fmt.name][1].unsealed_ok)

    def test_damaged_header(self, fmt, pristine, contract):
        contract(fmt, flip(pristine(fmt), 5), tolerated=False,
                 has_header=False)


# ---------------------------------------------------------------------------
# fsck on directories; failed record runs
# ---------------------------------------------------------------------------


def fsck_json(capsys, *argv):
    code = main(["fsck", *argv, "--json"])
    return code, json.loads(capsys.readouterr().out)


def test_fsck_resolves_record_and_journal_directories(tmp_path, capsys):
    rec = str(tmp_path / "rec")
    assert main(["run", "calc", "let a = 6 ; print a * 7",
                 "--record", rec]) == 0
    capsys.readouterr()
    code, doc = fsck_json(capsys, rec)
    assert code == 0 and doc["format"] == ArtifactFormat.PROVENANCE
    assert doc["path"] == os.path.join(rec, "provenance.ndjson")

    journal = str(tmp_path / "journal")
    write_journal(journal)
    code, doc = fsck_json(capsys, journal)
    assert code == 0 and doc["format"] == ArtifactFormat.JOURNAL
    assert doc["sealed"] is True


def test_fsck_directory_without_an_artifact(tmp_path, capsys):
    (tmp_path / "notes.txt").write_text("not ours\n")
    code = main(["fsck", str(tmp_path), "--json"])
    captured = capsys.readouterr()
    assert code == 1
    assert json.loads(captured.out)["verdict"] == "missing"
    assert captured.err.count("\n") == 1 and "error:" in captured.err


def test_failed_record_run_leaves_no_tmp_spool(tmp_path, capsys):
    rec = tmp_path / "rec"
    assert main(["run", "calc", "let a = = 6", "--record", str(rec)]) == 1
    assert "error:" in capsys.readouterr().err
    leftovers = os.listdir(rec) if rec.exists() else []
    assert not [n for n in leftovers if n.endswith(".tmp")], leftovers
