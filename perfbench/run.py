"""The repository benchmark: one command, four seeded workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload compile-pascal --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing;
``--trace 1`` is the separate traced run that gives the per-layer
metrics (spans are written to ``.perfbench/spans-<workload>-<seed>.json``).
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; any wrong output makes the
command exit 1.  See perfbench/README.md for what each metric measures
on each workload.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import tempfile
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    """The workloads and the metrics with their units, as BENCHMARK.json
    names them: the one place they are defined."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    units = lambda key: {m["name"]: m["unit"] for m in spec[key]}
    return [w["name"] for w in spec["workloads"]], units("end_to_end"), units("per_layer")


WORKLOADS, END_TO_END, PER_LAYER = load_spec()


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def finish(report) -> None:
    """Keep exactly the metrics of the run's mode, the end-to-end times
    and rates at the reference host speed.  A layer the workload does
    not run reads 0 (named in the report)."""
    wanted = PER_LAYER if report.traced else END_TO_END
    if not report.traced:
        report.metric("ok_ratio", 1.0 - report.failed / max(1, report.attempted), "ratio")
        report.normalize()
    missing = [name for name in wanted if name not in report.metrics]
    for name in missing:
        report.metrics[name] = {"value": 0.0, "unit": wanted[name]}
    if missing and report.traced:
        report.note(f"  layers not run on this workload (reported as 0): {', '.join(missing)}")
    elif missing:
        raise RuntimeError(f"end-to-end metrics not measured: {missing}")
    for name in list(report.metrics):
        if name not in wanted:
            del report.metrics[name]
        elif report.metrics[name]["unit"] != wanted[name]:
            raise RuntimeError(f"{name} measured in {report.metrics[name]['unit']}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"error: no source tree at {ROOT}/src/repro", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))

    from harness import Report, adopt_orphans, end_children

    adopt_orphans()
    # A SIGTERM ends the run through the same clean-up as any other exit.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    out_dir = os.path.join(ROOT, ".perfbench")
    workdir = os.path.join(out_dir, f"run-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    # Spill spools and anything else the program puts in a temp dir stay
    # inside the checkout.
    tempfile.tempdir = workdir
    os.environ["TMPDIR"] = workdir
    report = Report(args.workload, args.seed, bool(args.trace))
    try:
        import edit_pascal
        import inproc
        import serve_mixed

        if args.workload == "compile-pascal":
            trace = inproc.compile_pascal(report, args.seed, args.seconds)
        elif args.workload == "selfgen-ag":
            trace = inproc.selfgen_ag(report, args.seed, args.seconds)
        elif args.workload == "edit-pascal":
            trace = edit_pascal.edit_pascal(report, args.seed, args.seconds, workdir)
        else:
            trace = serve_mixed.serve_mixed(report, args.seed, args.seconds, workdir, ROOT)
        finish(report)
    except Exception:  # noqa: BLE001 - any failure ends the run without a result
        traceback.print_exc()
        return 1
    finally:
        report.close()
        killed = end_children()
        shutil.rmtree(workdir, ignore_errors=True)
    if killed:
        report.mismatch(f"processes still running 30 s after the run, killed: {killed}")
    if trace is not None:
        path = os.path.join(out_dir, f"spans-{args.workload}-{args.seed}.json")
        spans = {"setup": report.setup_trace.spans, "translation": trace.spans}
        with open(path, "w", encoding="utf-8") as f:
            json.dump(spans, f)
        report.note(
            f"  {len(spans['setup'])} + {len(spans['translation'])} spans written "
            f"to {os.path.relpath(path, ROOT)}"
        )
    report.emit()
    return 0 if report.correct else 1


if __name__ == "__main__":
    sys.exit(main())
