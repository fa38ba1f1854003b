"""The benchmark's own tests: statistics, self time, schedules, the
result line, the ``BENCHMARK.json`` contract and exact repeats of the
deterministic counts.

Run from the checkout root::

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import re
import statistics
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import run, serve_load, spec  # noqa: E402
from perfbench.common import (  # noqa: E402
    Report,
    RunDir,
    SpanRecorder,
    beyond,
    load_spec,
    median,
    percentile,
    self_times,
    use_source,
)

use_source()


# -- statistics --------------------------------------------------------------


def test_percentile_nearest_rank():
    data = list(range(1, 101))
    assert percentile(data, 50) == 50
    assert percentile(data, 99) == 99
    assert percentile(data, 100) == 100
    assert percentile([7.0], 99) == 7.0
    assert percentile(reversed(data), 1) == 1


def test_beyond_counts_samples_past_the_percentile():
    assert beyond(1000, 99) == 10
    assert beyond(100, 99) == 1
    assert beyond(6, 99) == 0


def test_median_matches_statistics():
    for data in ([3.0], [1.0, 2.0], [5.0, 1.0, 4.0, 2.0, 3.0]):
        assert median(data) == statistics.median(data)


# -- self time ---------------------------------------------------------------


def _span(sid, parent, start, end):
    return {"id": sid, "name": str(sid), "parent": parent,
            "start": start, "end": end}


def test_self_time_subtracts_children():
    spans = [_span(0, None, 0.0, 10.0), _span(1, 0, 1.0, 3.0),
             _span(2, 0, 5.0, 6.0), _span(3, 1, 1.5, 2.5)]
    st = self_times(spans)
    assert st[0] == pytest.approx(7.0)
    assert st[1] == pytest.approx(1.0)
    assert st[2] == pytest.approx(1.0)
    assert st[3] == pytest.approx(1.0)


def test_self_time_does_not_double_count_overlapping_children():
    spans = [_span("a", None, 0.0, 10.0), _span("b", "a", 2.0, 6.0),
             _span("c", "a", 4.0, 8.0), _span("d", "a", 9.0, 12.0)]
    assert self_times(spans)["a"] == pytest.approx(10.0 - 6.0 - 1.0)


def test_recorder_nests_and_tags_requests():
    rec = SpanRecorder()
    with rec.span("outer", "r1"):
        with rec.span("inner"):
            pass
    outer, inner = rec.spans
    assert inner["parent"] == outer["id"] and outer["parent"] is None
    assert outer["request"] == inner["request"] == "r1"
    assert outer["start"] <= inner["start"] <= inner["end"] <= outer["end"]


# -- schedules ---------------------------------------------------------------


@pytest.mark.parametrize("make", [
    lambda seed: serve_load.warm_schedule(seed, 5.0, spec.WARM_RATE),
    lambda seed: serve_load.mixed_schedule(seed, 5.0),
    lambda seed: serve_load.mixed_schedule(seed, 3.0, stress=True),
])
def test_schedule_is_byte_identical_per_seed_and_differs_across(make):
    a, b, c = make(3), make(3), make(4)
    assert serve_load.schedule_bytes(a) == serve_load.schedule_bytes(b)
    assert serve_load.schedule_bytes(a) != serve_load.schedule_bytes(c)


def test_mixed_schedule_shape():
    sched = serve_load.mixed_schedule(5, 10.0)
    cold = [it for it in sched if it["params"].get("cold")]
    share = len(cold) / len(sched)
    assert 0.05 < share < 0.2
    seeds = [it["params"]["env_seed"] for it in cold]
    assert len(set(seeds)) < len(seeds), "no coalescing pairs"
    assert len(serve_load.mixed_aliases()) > 32  # beyond the bundle LRU
    warm = {(p["alias"], p["scenario"], p["env_seed"])
            for p in serve_load.warm_working_set("mixed-serve")}
    for it in sched:
        p = it["params"]
        if not p.get("cold"):
            assert (p["alias"], p["scenario"], p["env_seed"]) in warm
    assert all("cold" not in it["params"]
               for it in serve_load._wire(sched))


def test_stress_schedule_clusters_cold_requests_on_fresh_seeds():
    gated = serve_load.mixed_schedule(5, 10.0)
    sched = serve_load.mixed_schedule(5, 3.0, stress=True)
    assert len(sched) >= spec.MIXED_STRESS_RATE * 3.0
    flags = [bool(it["params"].get("cold")) for it in sched]
    longest = run = 0
    for cold in flags:
        run = run + 1 if cold else 0
        longest = max(longest, run)
    assert longest >= spec.MIXED_STRESS_RUN
    seeds = {it["params"]["env_seed"] for it in sched
             if it["params"].get("cold")}
    assert not seeds & {it["params"]["env_seed"] for it in gated}


# -- result line and contract ------------------------------------------------


def test_result_line_has_exactly_the_contract_keys():
    rep = Report("w")
    rep.add("a_ms", 1.5, "ms", 3)
    rep.add("b", 2.0, "count", 1)
    out = json.loads(rep.result_line(["a_ms"], True, 4, 0))
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["metrics"] == {"a_ms": {"value": 1.5, "unit": "ms"}}


NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_contract():
    bench = load_spec()
    assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert 2 <= len(bench["workloads"]) <= 8
    assert [w["name"] for w in bench["workloads"]] == list(run.MODULES)
    names = []
    for w in bench["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200
        names.append(w["name"])
    for m in bench["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
        names.append(m["name"])
        assert UNIT.match(m["unit"])
    for m in bench["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
        assert m["name"] in spec.PER_LAYER
        names.append(m["name"])
        assert UNIT.match(m["unit"])
    assert all(NAME.match(n) for n in names)
    assert len(names) == len(set(names))
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])
    assert set(spec.END_TO_END) == {m["name"] for m in bench["end_to_end"]}


def test_refuses_to_run_without_sources(tmp_path):
    import subprocess

    bench = Path(__file__).resolve().parent
    (tmp_path / "perfbench").mkdir()
    for f in bench.glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_bytes(f.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes(
        (bench.parent / "BENCHMARK.json").read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cold-predict",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, timeout=60)
    assert proc.returncode != 0
    assert b'"correct"' not in proc.stdout


# -- exact repeats -----------------------------------------------------------


def _layer_counts(seed: int) -> dict:
    """One traced pass over the two cheapest cold-predict inputs."""
    from perfbench import cold_predict
    from perfbench.layers import Layers

    with RunDir("test", seed) as run_dir:
        pipe = cold_predict.Pipeline(run_dir)
        keep = [i for i, inp in enumerate(pipe.inputs) if inp[0] in
                ("is", "mg")]
        with Layers(SpanRecorder()) as layers:
            rows = pipe.one_pass(keep)
    snap = layers.snap

    def value(name):
        return (snap.get(name) or {}).get("value")

    return {
        "sim.events": value("engine.events"),
        "sim.messages": value("engine.messages"),
        "fluid.resettles": value("fluid.resettles"),
        "core.threshold_probes": value("construct.threshold_probes"),
        "store.writes": value("store.writes"),
        "prediction_error_pct": [r[3] for r in rows],
    }


def test_deterministic_counts_repeat_exactly():
    first, second = _layer_counts(11), _layer_counts(11)
    assert first == second
    assert first["sim.events"] and first["store.writes"]
