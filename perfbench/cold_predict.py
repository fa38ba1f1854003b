"""The ``cold-predict`` workload: a closed loop with one in-process
caller.

Each pass starts from an empty store and, for every input in a fixed
set (seed-shuffled order), runs ``compute_prediction`` and then the
reference ``run_program`` under the same scenario, as
``repro-skeleton predict --verify`` does. Passes are whole, so every
run measures the same inputs; the loop repeats passes until
``--seconds`` have elapsed.
"""

from __future__ import annotations

import contextlib
import json
import random
import subprocess
import sys
import time

from perfbench import spec
from perfbench.common import (
    BenchError,
    Report,
    RunDir,
    SpanRecorder,
    STATE,
    assert_empty_store,
    beyond,
    mean,
    median,
    normalize,
    percentile,
    reference_seconds,
    self_peak_rss_mb,
)
from perfbench.layers import Layers, hook_overhead, probe_store

#: What a user pays before the first prediction: a fresh interpreter
#: importing the pipeline and opening an empty store.
SETUP_CODE = """
import json, sys
from repro.cluster import resolve_scenario
from repro.cluster.topology import paper_testbed
from repro.predict.online import compute_prediction, normalize_request
from repro.sim.program import run_program
from repro.store import ArtifactStore, PipelineCache
from repro.workloads import get_program
cluster = paper_testbed()
cache = PipelineCache(ArtifactStore(sys.argv[1]), cluster)
for bench, klass, scen in json.loads(sys.argv[2]):
    get_program(bench, klass, 4, 12345)
    normalize_request(bench, klass, 4, 12345, target=float(sys.argv[3]),
                      scenario=scen, env_seed=0)
    resolve_scenario(scen)
"""


def measure_setup(run_dir: RunDir, label: str, code: str,
                  args: list) -> float:
    """Launch-to-ready seconds of one fresh interpreter."""
    store = run_dir.fresh_store(label)
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", code, str(store), *args],
        cwd=str(run_dir.path), env=run_dir.child_env(),
        capture_output=True, timeout=60,
    )
    took = time.perf_counter() - t0
    if proc.returncode != 0:
        raise BenchError(f"set-up failed: {proc.stderr.decode()[-400:]}")
    assert_empty_store(store)
    return took


class Pipeline:
    """The in-process system under test and the pass loop."""

    def __init__(self, run_dir: RunDir):
        from repro.cluster import resolve_scenario
        from repro.cluster.topology import paper_testbed
        from repro.workloads import get_program

        self.run_dir = run_dir
        self.cluster = paper_testbed()
        self.inputs = [
            (b, k, s, get_program(b, k, spec.NPROCS, spec.WORKLOAD_SEED),
             resolve_scenario(s))
            for b, k, s in spec.COLD_INPUTS
        ]
        #: input index -> canonical payload of the first pass.
        self.first: dict = {}
        self.mismatches = 0

    def one_pass(self, order: list, rec: SpanRecorder = None) -> list:
        """Run every input once on a fresh store. Returns one
        ``(index, predict_s, reference_s, error_pct)`` per input."""
        from repro.predict.metrics import prediction_error_percent
        from repro.predict.online import compute_prediction
        from repro.store import ArtifactStore, PipelineCache, canonical_json

        root = self.run_dir.fresh_store("cold")
        assert_empty_store(root)
        self.cache = PipelineCache(ArtifactStore(root), self.cluster)
        span = rec.span if rec is not None else _no_span
        rows = []
        for i in order:
            bench, klass, scen, program, scenario = self.inputs[i]
            params = normalize(bench, klass, spec.TARGET, scen)
            request = f"{bench}.{klass}"
            with span("bench.predict", request):
                t0 = time.perf_counter()
                payload = compute_prediction(params, self.cache, self.cluster)
                t1 = time.perf_counter()
            with span("predict.reference_run", request):
                actual = reference_seconds(program, self.cluster, scenario)
                t2 = time.perf_counter()
            text = canonical_json(payload)
            if self.first.setdefault(i, text) != text:
                self.mismatches += 1
            if not payload["predicted_seconds"] > 0:
                self.mismatches += 1
            err = abs(prediction_error_percent(payload["predicted_seconds"],
                                               actual))
            rows.append((i, t1 - t0, t2 - t1, err))
        return rows


def _no_span(name, request=None):
    return contextlib.nullcontext()


def _passes(pipe: Pipeline, seed: int, seconds: float, rec=None) -> tuple:
    """Whole passes until ``seconds`` have elapsed (at least one)."""
    rows, n = [], 0
    t0 = time.perf_counter()
    while n == 0 or time.perf_counter() - t0 < seconds:
        order = list(range(len(pipe.inputs)))
        random.Random(f"perfbench:cold:{seed}:{n}").shuffle(order)
        rows += pipe.one_pass(order, rec)
        n += 1
    return rows, n, time.perf_counter() - t0


def run(workload: str, seed: int, seconds: float, traced: bool,
        rep: Report, run_dir: RunDir) -> tuple:
    pipe = Pipeline(run_dir)
    # Pay first-call costs (lazy imports, memoized catalogs) on the
    # cheapest input before timing, so they do not land on whichever
    # input the seed puts first.
    pipe.one_pass([i for i, inp in enumerate(pipe.inputs) if inp[0] == "is"])
    if not traced:
        args = [json.dumps(spec.COLD_INPUTS), str(spec.TARGET)]
        setups = [measure_setup(run_dir, "setup", SETUP_CODE, args)
                  for _ in range(spec.SETUP_REPEATS)]
        rows, n, wall = _passes(pipe, seed, seconds)
        lat = [r[1] * 1e3 for r in rows]
        # The inputs differ by 30x in cost, so a median over all
        # samples jumps between inputs from run to run; the median over
        # inputs of each input's median does not.
        per_input: dict = {}
        for r in rows:
            per_input.setdefault(r[0], []).append(r[1] * 1e3)
        rep.add("setup_s", median(setups), "s", len(setups))
        rep.add("throughput_per_s", len(rows) / wall, "1/s", len(rows),
                f"{n} whole pass(es) of {len(pipe.inputs)} inputs, "
                "predict + reference run")
        rep.add("latency_p50_ms", median(map(median, per_input.values())),
                "ms", len(lat), "compute_prediction, cold: median over "
                "inputs of each input's median")
        rep.add("latency_p99_ms", percentile(lat, 99), "ms", len(lat),
                f"{beyond(len(lat), 99)} samples beyond")
        rep.add("prediction_error_pct", mean(r[3] for r in rows), "%",
                len(rows), "predict --verify semantics")
        rep.add("peak_rss_mb", self_peak_rss_mb(children=False), "MiB", 1,
                "this process")
        rep.add("failed_ratio", pipe.mismatches / len(rows), "ratio",
                len(rows))
        return len(rows), pipe.mismatches, True
    # Traced run: one untraced pass, then one pass under the
    # benchmark's wrappers, the tracer and the metrics registry.
    plain, _, plain_wall = _passes(pipe, seed, 0.0)
    rec = SpanRecorder()
    with Layers(rec) as layers:
        rows, _, wall = _passes(pipe, seed, 0.0, rec)
    rep.add("bench.tracing_overhead_pct", (wall / plain_wall - 1.0) * 100.0,
            "%", len(rows), "traced vs untraced pass wall time")
    layers.report(rep)
    rep.add("predict.reference_run_s", rec.total("predict.reference_run"),
            "s", len(rec.by_name("predict.reference_run")), "per pass")
    hook_overhead(rep, [inp[3] for inp in pipe.inputs], pipe.cluster)
    probe_store(rep, pipe.cache, pipe.cluster, [
        normalize(b, k, spec.TARGET, s) for b, k, s in spec.COLD_INPUTS])
    rec.write(STATE / f"spans-{workload}.json")
    return len(rows) + len(plain), pipe.mismatches, True
