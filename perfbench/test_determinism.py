"""Self-checks of the benchmark, at a tiny size.

    python3 -m pytest perfbench -q

- every exact count a cycle records (bytes written, pre-reduction ratio,
  stage-1 tasks, buckets touched, ...) is identical across two runs of one
  workload at one seed, and every oracle check passes;
- in a traced cycle, the span self times of each tick add up to its wall
  time and every span layer is reached;
- ``BENCHMARK.json`` names exactly the workloads and metrics the code emits.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench.run import END_TO_END_UNITS, PER_LAYER_UNITS  # noqa: E402
from perfbench.tracing import LAYER_METRICS, Instrumentation, Tracer  # noqa: E402
from perfbench.workloads import WORKLOADS, Runner, wal_params  # noqa: E402

# the same shapes as the benchmark's workloads, a few thousand events each
TINY = {
    "bulk_catchup": dict(wal=dict(n_events=6_000, segment_rows=2_000, evolve_at_frac=0.6)),
    "views_refresh": dict(
        wal=dict(n_events=5_000, segment_rows=1_000, evolve_at_frac=0.1),
        prefix_segments=2, setup_ticks=1, ticks=2, read_every=2,
    ),
}


@pytest.fixture(scope="module")
def ray_session():
    import ray
    from ray.data import DataContext

    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p
    )
    ray.init(
        address="local", num_cpus=1, include_dashboard=False,
        logging_level="ERROR", log_to_driver=False,
    )
    DataContext.get_current().enable_progress_bars = False
    yield ray
    ray.shutdown()


def _tiny_wal(name: str, path: str, seed: int = 5):
    from etl_ray.wal import generate_wal

    w = dataclasses.replace(WORKLOADS[name], **TINY[name])
    return w, generate_wal(path, **wal_params(w, seed))


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_counts_identical_across_runs(ray_session, tmp_path, name):
    w, wal = _tiny_wal(name, str(tmp_path / "wal"))
    counts = []
    for i in range(2):
        runner = Runner(w, wal, str(tmp_path / f"run{i}"), Tracer(enabled=False), 1)
        runner.prepare_oracle()
        (cycle,) = runner.run(0)
        assert cycle.failures == []
        assert cycle.attempted > len(cycle.tick_s)
        counts.append(cycle.counts)
    assert counts[0] == counts[1]
    assert counts[0]["source.events"] > 0
    assert counts[0]["apply.state_bytes_written"] > 0
    assert counts[0]["partitioning.buckets_touched"] > 0


def test_traced_tick_self_times_add_up(ray_session, tmp_path):
    w, wal = _tiny_wal("views_refresh", str(tmp_path / "wal"))
    tracer = Tracer()
    instr = Instrumentation(tracer).install()
    try:
        runner = Runner(w, wal, str(tmp_path / "run"), tracer, 1)
        runner.prepare_oracle()
        (cycle,) = runner.run(0)
    finally:
        instr.remove()
    assert cycle.failures == []
    assert tracer.check() == []
    ticks = [
        (root, g) for root, g in tracer.per_root() if root["name"] == "tables.tick"
    ]
    assert len(ticks) == w.ticks
    for root, g in ticks:
        assert sum(g.values()) == pytest.approx(root["end"] - root["start"], rel=1e-9)
        assert g["replay.stage1"] > 0 and g["apply.stage2"] > 0
    assert set(tracer.layer_medians()) == set(LAYER_METRICS.values())
    # the wrappers are gone again
    from etl_ray.engine.replay import ReplayEngine

    assert not hasattr(ReplayEngine.tick, "__wrapped__")


def test_benchmark_json_matches_code():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER_UNITS
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
