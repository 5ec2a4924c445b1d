"""When spools charge the I/O accountant.

A spool charges its writes once, at ``finalize()``, and each read sweep
once, when the sweep is exhausted or closed — for exactly the records
it yielded.  The per-record ``spool.read``/``spool.write`` trace
instants are the reference these bulk charges must match.
"""

import enum
from collections import defaultdict

import pytest

from repro.apt import APTNode, estimate_bytes
from repro.apt.storage import AdaptiveSpool, DiskSpool, MemorySpool
from repro.core import Linguist
from repro.evalgen.runtime import FunctionLibrary
from repro.grammars import load_source, scanner_and_library
from repro.obs import Tracer
from repro.util.iotrack import IOAccountant
from repro.util.lists import SetList
from repro.workloads.generators import generate_pascal_program

RECORDS = [("S", 1, {"X": i, "NAME": "n" * (i % 9)}, False) for i in range(100)]


def make_spool(kind, tmp_path, accountant, tracer=None):
    if kind == "memory":
        return MemorySpool(accountant, "ch", tracer=tracer)
    if kind == "disk":
        return DiskSpool(str(tmp_path / "s.spool"), accountant, "ch",
                         tracer=tracer)
    budget = 0 if kind == "adaptive-spilled" else 1 << 20
    return AdaptiveSpool(accountant, "ch", tracer=tracer,
                         memory_budget=budget)


SPOOL_KINDS = ["memory", "disk", "adaptive", "adaptive-spilled"]


def traced_io(tracer):
    """Per-channel totals of the per-record trace instants."""
    io = defaultdict(lambda: defaultdict(int))
    for event in tracer.instants():
        if event.name == "spool.read":
            stats = io[event.args["channel"]]
            stats["records_read"] += 1
            stats["bytes_read"] += event.args["nbytes"]
        elif event.name == "spool.write":
            stats = io[event.args["channel"]]
            stats["records_written"] += event.args.get("n_records", 1)
            stats["bytes_written"] += event.args["nbytes"]
    return io


def assert_charged_as_traced(accountant, tracer, kinds=("read", "written")):
    traced = traced_io(tracer)
    for channel, stats in accountant.by_channel.items():
        for kind in kinds:
            for unit in ("records", "bytes"):
                key = f"{unit}_{kind}"
                assert getattr(stats, key) == traced[channel][key], (
                    channel, key
                )


@pytest.mark.parametrize("backward", [False, True])
@pytest.mark.parametrize("kind", SPOOL_KINDS)
def test_abandoned_reader_charges_what_it_yielded(kind, backward, tmp_path):
    accountant, tracer = IOAccountant(), Tracer()
    spool = make_spool(kind, tmp_path, accountant, tracer)
    for record in RECORDS:
        spool.append(record)
    spool.finalize()
    written = accountant.snapshot()
    reader = spool.read_backward() if backward else spool.read_forward()
    expected = RECORDS[::-1] if backward else RECORDS
    assert [next(reader) for _ in range(7)] == expected[:7]
    assert accountant.records_read == 0  # charged when the sweep ends
    reader.close()
    assert accountant.records_read == 7
    assert_charged_as_traced(accountant, tracer)
    # A full sweep charges everything, once.
    assert list(spool.read_forward()) == RECORDS
    assert accountant.records_read == 7 + len(RECORDS)
    assert_charged_as_traced(accountant, tracer)
    assert accountant.records_written == written["records_written"]
    spool.close()


@pytest.mark.parametrize("kind", SPOOL_KINDS)
def test_finalize_twice_charges_once(kind, tmp_path):
    accountant = IOAccountant()
    spool = make_spool(kind, tmp_path, accountant)
    for record in RECORDS:
        spool.append(record)
    assert accountant.records_written == 0  # charged at finalize
    spool.finalize()
    spool.finalize()
    assert accountant.records_written == len(RECORDS)
    assert accountant.bytes_written == spool.data_bytes
    assert accountant.by_channel["ch"].records_written == len(RECORDS)
    spool.close()


def test_empty_spool_creates_no_channel(tmp_path):
    accountant = IOAccountant()
    spool = make_spool("adaptive", tmp_path, accountant)
    spool.finalize()
    assert list(spool.read_backward()) == []
    assert accountant.by_channel == {}


def test_opened_disk_spool_charges_nothing(tmp_path):
    accountant = IOAccountant()
    spool = make_spool("disk", tmp_path, accountant)
    for record in RECORDS:
        spool.append(record)
    spool.finalize()
    before = accountant.snapshot()
    reopened = DiskSpool.open(spool.path, channel="ch")
    assert list(reopened.read_backward()) == RECORDS[::-1]
    assert accountant.snapshot() == before


def test_byte_size_fast_paths_match_estimate_bytes():
    class Colour(enum.IntEnum):
        RED = 1

    attrs = {
        "I": 7, "B": True, "N": None, "S": "hello", "E": "", "C": "x",
        "F": 1.5, "T": (1, "ab"), "L": [1, 2], "R": Colour.RED,
        "SET": SetList.from_iterable([1, 2, 3]),
    }
    node = APTNode("symbol", 3, attrs)
    reference = 4 + max(2, len(node.symbol) // 2) + sum(
        2 + estimate_bytes(v) for v in attrs.values()
    )
    assert node.byte_size() == reference


# -- whole translations ------------------------------------------------------


@pytest.fixture(scope="module")
def linguist_build():
    return Linguist(load_source("linguist"))


class FailingLibrary(FunctionLibrary):
    """Raises on the ``fail_at``-th semantic-function call."""

    def __init__(self, library: FunctionLibrary, fail_at: int) -> None:
        super().__init__(library.functions, library.constants)
        self.calls = 0
        self.fail_at = fail_at

    def call(self, name, *args):
        self.calls += 1
        if self.calls == self.fail_at:
            raise RuntimeError("semantic function failed")
        return super().call(name, *args)


def test_failed_pass_charges_what_its_reader_yielded(linguist_build):
    spec, library = scanner_and_library("linguist")
    text = load_source("calc")
    counting = FailingLibrary(library, fail_at=0)
    linguist_build.make_translator(spec, library=counting).translate(text)
    # linguist.ag calls its semantic functions in pass 1 only.
    failing = FailingLibrary(library, fail_at=counting.calls // 2)
    translator = linguist_build.make_translator(spec, library=failing)
    accountant, tracer = IOAccountant(), Tracer()
    try:
        translator.translate_tokens(
            translator.scanner.tokens(text), accountant=accountant,
            tracer=tracer,
        )
    except RuntimeError as exc:
        # Checked while the traceback still holds the failed pass's
        # frames: the driver closed the reader, so it is charged now.
        assert str(exc) == "semantic function failed"
        assert_charged_as_traced(accountant, tracer, kinds=("read",))
        initial = accountant.by_channel["initial"]
        assert 0 < initial.records_read < initial.records_written
        # The failed pass's output was never finalized, so never charged.
        assert list(accountant.by_channel) == ["initial"]
    else:
        pytest.fail("the translation did not fail")


def test_root_attrs_from_spool_charges_what_it_read(linguist_build):
    spec, library = scanner_and_library("linguist")
    translator = linguist_build.make_translator(spec, library=library)
    accountant, tracer = IOAccountant(), Tracer()
    result = translator.translate_tokens(
        translator.scanner.tokens(load_source("binary")),
        accountant=accountant, tracer=tracer,
    )
    driver = translator.last_driver
    before = accountant.records_read
    assert driver._root_attrs_from_spool(driver.final_spool) == result.root_attrs
    assert accountant.records_read == before + 1
    assert_charged_as_traced(accountant, tracer)


def test_resume_of_finished_run_reads_only_unaccounted_spools(
    linguist_build, tmp_path
):
    spec, library = scanner_and_library("linguist")
    translator = linguist_build.make_translator(spec, library=library)
    text = load_source("binary")
    done = translator.translate(text, checkpoint_dir=str(tmp_path))
    accountant = IOAccountant()
    resumed = translator.translate_tokens(
        translator.scanner.tokens(text), accountant=accountant,
        checkpoint_dir=str(tmp_path), resume=True,
    )
    assert resumed.root_attrs == done.root_attrs
    # Only the rebuilt initial spool was charged; the sealed pass files
    # were attached by DiskSpool.open, which carries no accountant.
    assert list(accountant.by_channel) == ["initial"]
    assert accountant.records_read == 0


@pytest.mark.parametrize("budget", [None, 0])
@pytest.mark.parametrize("name", ["calc", "pascal", "linguist"])
def test_traced_and_untraced_runs_charge_alike(name, budget, linguist_build):
    spec, library = scanner_and_library(name)
    build = linguist_build if name == "linguist" else Linguist(load_source(name))
    translator = build.make_translator(spec, library=library)
    text = (generate_pascal_program(30, seed=5) if name == "pascal"
            else load_source("binary") if name == "linguist"
            else "let x0 = 1 ; let x1 = x0 + x0 ; print x1 + 7")
    snapshots = []
    for tracer in (None, Tracer()):
        accountant = IOAccountant()
        translator.translate_tokens(
            translator.scanner.tokens(text), accountant=accountant,
            tracer=tracer, spool_memory_budget=budget,
        )
        stats = [{k: v for k, v in row.items() if k != "seconds"}
                 for row in translator.last_driver.pass_stats]
        snapshots.append((accountant.snapshot(), stats))
    assert snapshots[0] == snapshots[1]
    assert_charged_as_traced(accountant, tracer)
