"""Benchmark of the prediction pipeline and the prediction service.

Run from the root of a checkout::

    python3 perfbench/run.py --workload cold-predict --seed 1 \\
        --seconds 10 --trace 0

Workloads: ``cold-predict``, ``warm-serve``, ``mixed-serve`` and
``campaign`` (``--workload all`` runs each in turn). Every metric is
printed on its own line with its unit and sample count; the last line
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``,
``--trace 1`` its per-layer metrics from a separate traced run.
``--describe`` prints each workload's loop and why it was chosen, and
which end-to-end metric each per-layer metric should move.
"""

from __future__ import annotations

import argparse
import importlib
import signal
import sys
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import spec  # noqa: E402
from perfbench.common import (  # noqa: E402
    BenchError,
    Report,
    RunDir,
    load_spec,
    use_source,
)

#: Workload -> the module that runs it.
MODULES = {"cold-predict": "cold_predict", "warm-serve": "serve_load",
           "mixed-serve": "serve_load", "campaign": "campaign"}
TIME_UNITS = ("s", "ms", "us")


class _Interrupted(BaseException):
    """The run hit its time cap or was told to stop; unwinding runs
    every cleanup (daemons stopped, run directory removed)."""


def _interrupt(signum, frame):
    raise _Interrupted(f"{signal.Signals(signum).name}: run stopped "
                       f"(time cap {spec.RUN_TIMEOUT_S} s per workload)")


def run_one(workload: str, seed: int, seconds: float, traced: bool) -> str:
    """Run one workload; print its metric lines; return the result line."""
    wanted = load_spec()["per_layer" if traced else "end_to_end"]
    names = [m["name"] for m in wanted]
    rep = Report(workload)
    signal.alarm(spec.RUN_TIMEOUT_S)
    try:
        with RunDir(workload, seed) as run_dir:
            mod = importlib.import_module(f"perfbench.{MODULES[workload]}")
            attempted, failed, correct = mod.run(
                workload, seed, seconds, traced, rep, run_dir)
    finally:
        signal.alarm(0)
    for m in wanted:
        # A count or ratio this workload cannot see reads 0 (the layer
        # is idle, or its counters live in worker processes); every
        # time is measured on every workload.
        if m["name"] not in rep.metrics and m["unit"] not in TIME_UNITS:
            rep.add(m["name"], 0.0, m["unit"], 0,
                    "not measured on this workload")
    rep.print_lines()
    return rep.result_line(names, correct and failed == 0, attempted, failed)


def describe() -> None:
    for w in load_spec()["workloads"]:
        print(f"{w['name']}: {w['why']}")
    print("\nend-to-end metrics:")
    for name, text in spec.END_TO_END.items():
        print(f"  {name}: {text}")
    print("\nend-to-end metrics printed only:")
    for name, text in spec.PRINTED_ONLY.items():
        print(f"  {name}: {text}")
    print("\nper-layer metric -> end-to-end metric it should move (workload):")
    for name, (e2e, where) in spec.PER_LAYER.items():
        print(f"  {name} -> {e2e} ({where})")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=tuple(MODULES) + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--describe", action="store_true")
    args = p.parse_args(argv)
    if args.describe:
        describe()
        return 0
    if args.workload is None:
        p.error("--workload is required")
    signal.signal(signal.SIGALRM, _interrupt)
    signal.signal(signal.SIGTERM, _interrupt)
    try:
        use_source()
        todo = MODULES if args.workload == "all" else (args.workload,)
        lines = [run_one(w, args.seed, args.seconds, bool(args.trace))
                 for w in todo]
    except (BenchError, _Interrupted) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 3
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
