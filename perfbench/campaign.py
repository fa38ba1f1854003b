"""The ``campaign`` workload: ``run_experiments`` on two workers.

A closed loop of whole campaigns, each on an empty store: the class-S
matrix of the six NAS benchmarks x the skeleton target x the five
paper scenarios, through ``experiments.runner``, the parallel
scheduler and supervisor, and the fsync'd campaign journal. The seed
decides the order of the benchmarks in the configuration (and so the
order tasks are scheduled in); results do not depend on it.
"""

from __future__ import annotations

import random
import time

from perfbench import spec
from perfbench.cold_predict import measure_setup
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
    self_peak_rss_mb,
)
from perfbench.layers import (
    counter,
    hist_sum,
    probe_store,
    store_counters,
)

SETUP_CODE = """
import sys
from repro.experiments import ExperimentRunner
from repro.experiments.config import ExperimentConfig
cfg = ExperimentConfig(benchmarks=tuple(sys.argv[2].split(",")), klass="S",
                       baseline_klass="S",
                       skeleton_targets=(float(sys.argv[3]),))
ExperimentRunner(cfg, cache_dir=sys.argv[1], workers=int(sys.argv[4]))
"""


def _config(seed: int):
    from repro.experiments.config import ExperimentConfig

    benches = list(spec.CAMPAIGN_BENCHMARKS)
    random.Random(f"perfbench:campaign:{seed}").shuffle(benches)
    return ExperimentConfig(benchmarks=tuple(benches), klass="S",
                            baseline_klass="S",
                            skeleton_targets=spec.CAMPAIGN_TARGETS)


def one_campaign(run_dir: RunDir, seed: int) -> tuple:
    """One campaign on an empty store: ``(runner, results, wall)``."""
    from repro.experiments import ExperimentRunner

    root = run_dir.fresh_store("campaign")
    assert_empty_store(root)
    runner = ExperimentRunner(_config(seed), cache_dir=root,
                              workers=spec.CAMPAIGN_WORKERS)
    t0 = time.perf_counter()
    results = runner.run(force=True)
    wall = time.perf_counter() - t0
    return runner, results, wall


def check(results) -> list:
    """Output check: no failures, not partial, every cell scored.
    Returns the absolute skeleton error of every cell."""
    if results.failures or results.is_partial:
        raise BenchError(f"campaign failed: {results.failures}")
    cells = []
    for bench in spec.CAMPAIGN_BENCHMARKS:
        for target in spec.CAMPAIGN_TARGETS:
            for scen in results.scenario_names:
                cells.append(abs(results.skeleton_error(bench, target, scen)))
    if len(cells) != (len(spec.CAMPAIGN_BENCHMARKS)
                      * len(spec.CAMPAIGN_TARGETS) * 5):
        raise BenchError("campaign scored the wrong number of cells")
    return cells


def _task_ms(runner) -> list:
    return [(s["t_end"] - s["t_start"]) * 1e3 for s in runner.campaign_spans
            if s["status"] == "ok"]


def run(workload: str, seed: int, seconds: float, traced: bool,
        rep: Report, run_dir: RunDir) -> tuple:
    if traced:
        return _traced(workload, seed, rep, run_dir)
    setups = [measure_setup(
        run_dir, "setup", SETUP_CODE,
        [",".join(spec.CAMPAIGN_BENCHMARKS), str(spec.CAMPAIGN_TARGETS[0]),
         str(spec.CAMPAIGN_WORKERS)]) for _ in range(spec.SETUP_REPEATS)]
    cells, tasks, walls = [], [], []
    t0 = time.perf_counter()
    while not walls or time.perf_counter() - t0 < seconds:
        runner, results, wall = one_campaign(run_dir, seed + len(walls))
        cells += check(results)
        tasks += _task_ms(runner)
        walls.append(wall)
    rep.add("setup_s", median(setups), "s", len(setups))
    rep.add("throughput_per_s", len(cells) / sum(walls), "1/s", len(cells),
            f"scored cells per second, {len(walls)} campaign(s)")
    rep.add("latency_p50_ms", percentile(tasks, 50), "ms", len(tasks),
            "one campaign task")
    rep.add("latency_p99_ms", percentile(tasks, 99), "ms", len(tasks),
            f"{beyond(len(tasks), 99)} samples beyond")
    rep.add("prediction_error_pct", mean(cells), "%", len(cells),
            "skeleton_error over every cell")
    rep.add("peak_rss_mb", self_peak_rss_mb(children=True), "MiB", 1,
            "this process + largest worker")
    rep.add("failed_ratio", 0.0, "ratio", len(cells))
    return len(cells), 0, True


def _traced(workload: str, seed: int, rep: Report, run_dir: RunDir) -> tuple:
    """One untraced campaign, then one with the parent-side metrics
    registry, a timed wrapper on the journal and the campaign
    timeline."""
    from repro.experiments.journal import CampaignJournal
    from repro.obs import MetricsRegistry, set_metrics
    from repro.parallel.tasks import (
        KIND_SKEL_BUILD,
        KIND_SKEL_TRACE,
        KIND_TRACE,
    )

    _, plain, plain_wall = one_campaign(run_dir, seed)
    check(plain)
    rec = SpanRecorder()
    original = CampaignJournal.record

    def record(self, key, entry):
        with rec.span("experiments.journal_record"):
            return original(self, key, entry)

    registry = MetricsRegistry(enabled=True)
    previous = set_metrics(registry)
    CampaignJournal.record = record
    try:
        runner, results, wall = one_campaign(run_dir, seed)
    finally:
        CampaignJournal.record = original
        set_metrics(previous)
    cells = check(results)
    snap = registry.snapshot()
    runner.write_campaign_timeline(STATE / f"timeline-{workload}.json")
    rep.add("bench.tracing_overhead_pct", (wall / plain_wall - 1.0) * 100.0,
            "%", 1, "traced vs untraced campaign wall time")
    spans = [s for s in runner.campaign_spans if s["status"] == "ok"]

    def kind_total(*kinds):
        sel = [s for s in spans if s["kind"] in kinds]
        return sum(s["t_end"] - s["t_start"] for s in sel), len(sel)

    busy, n = kind_total(*[k for k in {s["kind"] for s in spans}
                           if k != KIND_SKEL_BUILD])
    rep.add("sim.busy_s", busy, "s", n, "simulation tasks on the workers")
    traced_s, n = kind_total(KIND_TRACE, KIND_SKEL_TRACE)
    rep.add("trace.traced_run_s", traced_s, "s", n, "trace tasks")
    build, n = kind_total(KIND_SKEL_BUILD)
    rep.add("core.build_s", build, "s", n, "skeleton build tasks")
    store_counters(rep, snap, "parent process; workers count apart")
    run_wall, runs = hist_sum(snap, "campaign.run_wall_seconds")
    rep.add("parallel.run_wall_s", wall, "s", 1, "campaign wall time")
    rep.add("parallel.worker_utilization",
            run_wall / (spec.CAMPAIGN_WORKERS * wall), "ratio", runs,
            "sum of campaign.run_wall_seconds / (workers x wall)")
    rep.add("parallel.worker_restarts",
            counter(snap, "campaign.worker_restarts"), "count", 1)
    rep.add("parallel.retries", counter(snap, "campaign.retries"), "count", 1)
    m = mean(s["end"] - s["start"] for s in rec.spans)
    rep.add("experiments.journal_record_ms", m * 1e3, "ms", len(rec.spans),
            "CampaignJournal.record, fsync durability")
    probe_store(rep, runner.pipeline, runner.cluster, [
        normalize(b, "S", spec.CAMPAIGN_TARGETS[0], spec.SCENARIOS[0])
        for b in spec.CAMPAIGN_BENCHMARKS])
    rec.write(STATE / f"spans-{workload}.json")
    return len(cells) * 2, 0, True
