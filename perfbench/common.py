"""Shared plumbing of the benchmark: checkout paths, run isolation,
statistics, the in-memory span recorder and the result line.

Nothing here imports :mod:`repro` at module level; :func:`use_source`
puts the checkout's ``src/`` on ``sys.path`` first, so the benchmark
always measures the code of the checkout it runs from.
"""

from __future__ import annotations

import json
import math
import os
import resource
import shutil
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Iterable, Optional

#: Checkout root: the directory holding ``perfbench/``.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for stores, sockets and span dumps (git-ignored).
STATE = ROOT / ".perfbench"


class BenchError(Exception):
    """The benchmark cannot run or its output check failed."""


def use_source() -> None:
    """Import ``repro`` from this checkout's ``src/`` or fail loudly."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(
            f"no repro sources under {SRC}; run from a full checkout"
        )
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    # Every run passes its own store explicitly; an inherited cache dir
    # could make a "cold" run silently warm.
    os.environ.pop("REPRO_CACHE_DIR", None)


class RunDir:
    """A fresh per-run directory under ``.perfbench/``, removed on
    exit. Stores are created inside it and asserted empty on use."""

    def __init__(self, workload: str, seed: int):
        self.path = STATE / f"run-{workload}-{seed}-{os.getpid()}"
        self._n = 0

    def __enter__(self) -> "RunDir":
        shutil.rmtree(self.path, ignore_errors=True)
        (self.path / "tmp").mkdir(parents=True)
        return self

    def __exit__(self, *exc) -> None:
        shutil.rmtree(self.path, ignore_errors=True)

    def fresh_store(self, label: str) -> Path:
        """A new, empty store root; the caller owns it."""
        self._n += 1
        root = self.path / f"store-{label}-{self._n}"
        root.mkdir()
        return root

    def child_env(self) -> dict:
        """Environment for processes the benchmark starts: this
        checkout's sources, no inherited cache dir, temp files inside
        the run directory."""
        env = dict(os.environ)
        env.pop("REPRO_CACHE_DIR", None)
        env["PYTHONPATH"] = str(SRC)
        env["TMPDIR"] = str(self.path / "tmp")
        return env


def normalize(bench: str, klass: str, target: float, scenario: str,
              env_seed: int = 0) -> dict:
    """The normalized predict request the benchmark sends for
    ``bench``.``klass``."""
    from perfbench import spec
    from repro.predict.online import normalize_request

    return normalize_request(bench, klass, spec.NPROCS, spec.WORKLOAD_SEED,
                             target=target, scenario=scenario,
                             env_seed=env_seed)


def reference_seconds(program, cluster, scenario) -> float:
    """The application's run time under ``scenario``, measured as
    ``repro-skeleton predict --verify`` measures it."""
    from perfbench import spec
    from repro.sim.program import run_program

    return run_program(program, cluster, scenario,
                       seed=spec.VERIFY_SEED).elapsed


def assert_empty_store(root: Path) -> None:
    """Cache isolation: a cold workload must start from nothing."""
    objects = root / "store" / "objects"
    if objects.exists() and any(objects.rglob("*.json")):
        raise BenchError(f"store {root} is not empty at start")


# -- statistics --------------------------------------------------------------


def percentile(values: Iterable[float], q: float) -> float:
    """Nearest-rank percentile, ``q`` in [0, 100]; NaN when empty."""
    data = sorted(values)
    if not data:
        return math.nan
    rank = max(1, math.ceil(q / 100.0 * len(data)))
    return data[min(rank, len(data)) - 1]


def median(values: Iterable[float]) -> float:
    data = sorted(values)
    if not data:
        return math.nan
    mid = len(data) // 2
    if len(data) % 2:
        return data[mid]
    return (data[mid - 1] + data[mid]) / 2.0


def beyond(n: int, q: float) -> int:
    """Samples strictly beyond the nearest-rank ``q`` percentile."""
    if n <= 0:
        return 0
    return n - max(1, math.ceil(q / 100.0 * n))


def mean(values: Iterable[float]) -> float:
    data = list(values)
    return sum(data) / len(data) if data else math.nan


# -- spans -------------------------------------------------------------------


class SpanRecorder:
    """In-memory spans (name, start, end, parent, request id), written
    out once at the end of a run.

    ``span()`` is a context manager keeping an ambient parent stack,
    for in-process call wrappers; spans measured elsewhere (server
    replies) are appended to :attr:`spans` in the same shape.
    """

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[dict] = []

    @contextmanager
    def span(self, name: str, request: Optional[str] = None):
        """A span under the innermost open one; ``request`` defaults to
        the parent's request id."""
        parent = self._stack[-1] if self._stack else None
        if request is None and parent is not None:
            request = parent["request"]
        rec = {"id": len(self.spans), "name": name,
               "parent": parent["id"] if parent else None,
               "request": request, "start": time.perf_counter(),
               "end": None}
        self.spans.append(rec)
        self._stack.append(rec)
        try:
            yield rec
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter()

    def by_name(self, name: str) -> list[dict]:
        return [s for s in self.spans if s["name"] == name]

    def total(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.by_name(name))

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"spans": self.spans}) + "\n")


def self_times(spans: list[dict]) -> dict:
    """Self time per span id: its duration minus the union of its
    children's intervals clipped to it. Overlapping children (parallel
    work) are not double-subtracted."""
    children: dict = {}
    for s in spans:
        if s.get("parent") is not None:
            children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        lo, hi = s["start"], s["end"]
        covered = 0.0
        cur_lo = cur_hi = None
        for c in sorted(children.get(s["id"], ()), key=lambda c: c["start"]):
            a, b = max(lo, c["start"]), min(hi, c["end"])
            if b <= a:
                continue
            if cur_hi is None or a > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = a, b
            else:
                cur_hi = max(cur_hi, b)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s["id"]] = (hi - lo) - covered
    return out


# -- memory ------------------------------------------------------------------


def self_peak_rss_mb(children: bool) -> float:
    """Peak RSS of this process, plus that of its largest reaped child
    when ``children``."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        own += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return own / 1024.0


def proc_peak_rss_mb(pid: int) -> float:
    """``VmHWM`` of a live process, in MiB (0 if it is gone)."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def child_pids(pid: int) -> list[int]:
    try:
        with open(f"/proc/{pid}/task/{pid}/children", encoding="ascii") as fh:
            return [int(p) for p in fh.read().split()]
    except OSError:
        return []


# -- output ------------------------------------------------------------------


class Report:
    """Collects metrics (value, unit, sample count) and prints them,
    one per line, then the result object as the last line."""

    def __init__(self, workload: str):
        self.workload = workload
        self.metrics: dict = {}
        self.notes: list[str] = []

    def add(self, name: str, value: float, unit: str, n: int,
            note: str = "") -> None:
        if value is None or (isinstance(value, float) and math.isnan(value)):
            raise BenchError(f"metric {name} was not measured")
        self.metrics[name] = {"value": float(value), "unit": unit, "n": n,
                              "note": note}

    def note(self, text: str) -> None:
        self.notes.append(text)

    def print_lines(self, out=sys.stdout) -> None:
        for name, m in self.metrics.items():
            extra = f"  ({m['note']})" if m["note"] else ""
            print(f"{self.workload:<13} {name:<32} {m['value']:>14.6g} "
                  f"{m['unit']:<6} n={m['n']}{extra}", file=out)
        for text in self.notes:
            print(f"{self.workload:<13} note: {text}", file=out)

    def result_line(self, names: list[str], correct: bool,
                    attempted: int, failed: int) -> str:
        missing = [n for n in names if n not in self.metrics]
        if missing:
            raise BenchError(f"metrics not measured: {missing}")
        return json.dumps({
            "correct": bool(correct),
            "attempted": int(attempted),
            "failed": int(failed),
            "metrics": {
                n: {"value": self.metrics[n]["value"],
                    "unit": self.metrics[n]["unit"]}
                for n in names
            },
        })


def load_spec() -> dict:
    """``BENCHMARK.json`` of this checkout."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())
