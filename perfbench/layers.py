"""Per-layer measurement from outside the program.

The traced run installs wrappers (in this file, never in ``src/``)
around the public calls of each layer, turns on the program's own
metrics registry and tracer, and reads both back:

* ``sim``: the ``engine.*`` and ``fluid.*`` counters and the
  ``engine.run_wall_seconds`` histogram;
* ``trace`` / ``core``: wrapper spans around ``trace_program`` and
  ``build_skeleton`` plus the ``construct.*`` counters;
* ``store``: the ``store.*`` counters, and timed ``get`` / ``put``
  calls on the run's store (:func:`probe_store`);
* ``predict``: the ``predict.*`` tracer spans (self time of
  ``predict.compute`` = its duration minus its stage spans).
"""

from __future__ import annotations

import time

from perfbench.common import Report, SpanRecorder, mean, self_times


def counter(snap: dict, name: str) -> float:
    return float((snap.get(name) or {}).get("value", 0.0))


def hist_sum(snap: dict, name: str) -> tuple:
    inst = snap.get(name) or {}
    return float(inst.get("sum", 0.0)), int(inst.get("count", 0))


def program_spans(spans: list) -> list:
    """The program's tracer spans in the recorder's shape."""
    return [{"id": s["span_id"], "name": s["name"],
             "parent": s.get("parent_id"), "request": s.get("trace_id"),
             "start": s["ts"], "end": s["ts"] + s["dur"]} for s in spans]


def span_stats(spans: list, name: str, own: bool = False) -> tuple:
    """(mean seconds, total seconds, count) of the spans called
    ``name``; ``own`` uses self time."""
    st = self_times(spans) if own else None
    vals = [(st[s["id"]] if own else s["end"] - s["start"])
            for s in spans if s["name"] == name]
    return (mean(vals) if vals else 0.0), sum(vals), len(vals)


class Layers:
    """Context manager: wrappers, metrics registry and tracer on."""

    def __init__(self, rec: SpanRecorder):
        self.rec = rec
        self.snap: dict = {}
        self.tracer_spans: list = []
        self.trace_calls = 0

    def __enter__(self) -> "Layers":
        from repro.obs import MetricsRegistry, set_metrics
        from repro.obs.tracing import Tracer, set_tracer
        from repro.predict import online

        self._online = online
        self._saved = {n: getattr(online, n) for n in
                       ("trace_program", "build_skeleton")}
        rec = self.rec

        def wrap(fn, name, count=False):
            def inner(*args, **kwargs):
                with rec.span(name):
                    if count:
                        self.trace_calls += args[0].n_calls()
                    return fn(*args, **kwargs)
            return inner

        online.trace_program = wrap(self._saved["trace_program"],
                                    "trace.trace_program")
        online.build_skeleton = wrap(self._saved["build_skeleton"],
                                     "core.build_skeleton", count=True)
        self.registry = MetricsRegistry(enabled=True)
        self._prev_metrics = set_metrics(self.registry)
        self.tracer = Tracer(enabled=True, capacity=1 << 20)
        self._prev_tracer = set_tracer(self.tracer)
        return self

    def __exit__(self, *exc) -> None:
        from repro.obs import set_metrics
        from repro.obs.tracing import set_tracer

        for name, fn in self._saved.items():
            setattr(self._online, name, fn)
        self.snap = self.registry.snapshot()
        self.tracer_spans = program_spans(self.tracer.recorder.spans())
        set_metrics(self._prev_metrics)
        set_tracer(self._prev_tracer)

    def report(self, rep: Report) -> None:
        snap, rec = self.snap, self.rec
        sim_layers(rep, snap)
        rep.add("trace.traced_run_s", rec.total("trace.trace_program"), "s",
                len(rec.by_name("trace.trace_program")), "per pass")
        build = rec.total("core.build_skeleton")
        rep.add("core.build_s", build, "s",
                len(rec.by_name("core.build_skeleton")), "per pass")
        rep.add("core.events_per_s", self.trace_calls / build if build else
                0.0, "1/s", self.trace_calls, "traced MPI calls consumed "
                "by build_skeleton per second")
        core_counters(rep, snap)
        store_counters(rep, snap)
        spans = self.tracer_spans
        m, _, n = span_stats(spans, "predict.compute", own=True)
        rep.add("predict.compute_ms", m * 1e3, "ms", n,
                "mean self time of predict.compute")
        for metric, name in (("predict.traced_run_s", "predict.traced_run"),
                             ("predict.skeleton_s", "predict.skeleton"),
                             ("predict.skel_dedicated_s",
                              "predict.skel_dedicated"),
                             ("predict.probe_s", "predict.probe")):
            _, total, n = span_stats(spans, name)
            rep.add(metric, total, "s", n, "per pass")


def hook_overhead(rep: Report, programs: list, cluster) -> None:
    """``trace_program`` time over ``run_program`` time for the
    same dedicated applications, outside the wrappers."""
    from repro.sim.program import run_program
    from repro.trace.tracer import trace_program

    traced = plain = 0.0
    for program in programs:
        t0 = time.perf_counter()
        trace_program(program, cluster)
        t1 = time.perf_counter()
        run_program(program, cluster)
        t2 = time.perf_counter()
        traced += t1 - t0
        plain += t2 - t1
    rep.add("trace.hook_overhead_ratio", traced / plain, "ratio",
            len(programs), "trace_program / run_program, dedicated")


def sim_layers(rep: Report, snap: dict, note: str = "") -> None:
    busy, runs = hist_sum(snap, "engine.run_wall_seconds")
    rep.add("sim.busy_s", busy, "s", runs, note or "engine.run_wall_seconds")
    events = counter(snap, "engine.events")
    rep.add("sim.events", events, "count", runs)
    rep.add("sim.messages", counter(snap, "engine.messages"), "count", runs)
    rep.add("sim.events_per_s", events / busy if busy else 0.0, "1/s", runs)
    res = counter(snap, "fluid.resettles")
    rep.add("sim.fluid_resettles_per_event", res / events if events else 0.0,
            "ratio", runs)
    rep.add("sim.fluid_tasks_per_resettle",
            counter(snap, "fluid.tasks_resettled") / res if res else 0.0,
            "ratio", runs)


def core_counters(rep: Report, snap: dict) -> None:
    rep.add("core.threshold_probes",
            counter(snap, "construct.threshold_probes"), "count", 1)
    hits = counter(snap, "construct.fold_cache_hits")
    misses = counter(snap, "construct.fold_cache_misses")
    rep.add("core.fold_cache_hit_ratio",
            hits / (hits + misses) if hits + misses else 0.0, "ratio",
            int(hits + misses))


def store_counters(rep: Report, snap: dict, note: str = "") -> None:
    hits, misses = counter(snap, "store.hits"), counter(snap, "store.misses")
    rep.add("store.hits", hits, "count", 1, note)
    rep.add("store.misses", misses, "count", 1, note)
    rep.add("store.writes", counter(snap, "store.writes"), "count", 1, note)
    rep.add("store.hit_ratio", hits / (hits + misses) if hits + misses
            else 0.0, "ratio", int(hits + misses), note)


#: Each timed probe calls its function this many times per item.
ROUNDS = 5


def time_calls(fn, items: list) -> float:
    """Mean seconds of ``fn(item)`` over ``ROUNDS`` passes of ``items``."""
    t0 = time.perf_counter()
    for _ in range(ROUNDS):
        for it in items:
            fn(it)
    return (time.perf_counter() - t0) / (ROUNDS * len(items))


def probe_store(rep: Report, cache, cluster, requests: list) -> None:
    """Time calls into the store, core and predict layers on a store
    the workload filled: warm-hit ``get`` of trace envelopes,
    ``is_warm``, a bundle rebuild from a stored signature (a fresh
    ``PipelineCache``, so no in-memory copy helps), and ``put``."""
    from repro.errors import ReproError
    from repro.predict.online import is_warm
    from repro.store import PipelineCache
    from repro.store.memo import workload_params

    store = cache.store
    keys, skels = [], []
    for r in requests:
        key = cache.trace_key(workload_params(
            r["bench"], r["klass"], r["nprocs"], r["workload_seed"]))
        if key not in keys:
            keys.append(key)
        if (key.digest, r["target"]) not in skels:
            skels.append((key.digest, r["target"]))
    def get(key):
        if store.get(key) is None:
            raise ReproError(f"store probe missed {key.digest}")

    def rebuild(item):
        PipelineCache(store, cluster).skeleton(*item, _no_build)

    rep.add("store.get_hit_us", time_calls(get, keys) * 1e6, "us",
            ROUNDS * len(keys), "ArtifactStore.get, trace envelopes")
    rep.add("predict.is_warm_us",
            time_calls(lambda r: is_warm(r, cache), requests) * 1e6, "us",
            ROUNDS * len(requests))
    rep.add("core.bundle_rebuild_ms", time_calls(rebuild, skels) * 1e3,
            "ms", ROUNDS * len(skels), "PipelineCache.skeleton on a store hit")
    payload = {"probe": list(range(256))}
    n = 20
    t0 = time.perf_counter()
    for i in range(n):
        store.put(store.key("perfbench", {"i": i}), payload)
    rep.add("store.put_ms", (time.perf_counter() - t0) / n * 1e3, "ms", n,
            "ArtifactStore.put of a 1 KiB artifact")


def _no_build():
    from repro.errors import ReproError

    raise ReproError("bundle rebuild missed the store")
