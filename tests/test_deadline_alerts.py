"""Per-run wall-clock deadline (reference ``deadline.py:29-38``) and the
failure/alert event surface (reference ``lib/utils.py:65-160``)."""

from __future__ import annotations

import os

import pytest

from etl_ray.engine import ReplayEngine
from etl_ray.engine.alerts import emit_event, read_events
from etl_ray.engine.lineage import LakeLineage
from etl_ray.engine.replay import DeadlineExceededError


def test_deadline_stops_between_ticks(ray_session, small_wal, tmp_path):
    """A ~0 budget lets exactly the first tick commit, then aborts BEFORE
    the next tick — the lake stays at the committed tick, the ops trail
    records the breach, and a fresh run resumes from the watermark."""
    lake = str(tmp_path / "lake")
    eng = ReplayEngine(
        small_wal.wal_dir, lake, num_buckets=8, concurrency=2,
        deadline_minutes=1e-9,
    )
    with pytest.raises(DeadlineExceededError, match="budget"):
        eng.replay_all(segments_per_tick=1)
    lin = LakeLineage(lake)
    assert lin.last_tick()["tick"] == 0, "first tick commits, second never starts"
    evs = read_events(lake)
    assert [e["kind"] for e in evs] == ["deadline_exceeded"]
    assert evs[0]["payload"]["ticks_completed"] == 1
    # no lock left behind; an unbudgeted rerun drains the rest
    assert not os.path.exists(os.path.join(lake, "_lock.json"))
    eng2 = ReplayEngine(small_wal.wal_dir, lake, num_buckets=8, concurrency=2)
    rest = eng2.replay_all()
    assert rest and rest[0].tick == 1


def test_deadline_in_follow(ray_session, small_wal, tmp_path):
    lake = str(tmp_path / "lake")
    eng = ReplayEngine(
        small_wal.wal_dir, lake, num_buckets=8, concurrency=2,
        deadline_minutes=1e-9,
    )
    with pytest.raises(DeadlineExceededError):
        eng.follow(idle_timeout_s=5.0, segments_per_tick=1)
    assert LakeLineage(lake).last_tick()["tick"] == 0
    assert read_events(lake)[-1]["kind"] == "deadline_exceeded"


def test_quality_failure_emits_event(ray_session, small_wal, tmp_path):
    from etl_ray.engine.quality import CheckSpec, DataQualityError

    def always_fails(ctx):
        return [{"reason": "synthetic"}]

    got: list[dict] = []
    lake = str(tmp_path / "lake")
    eng = ReplayEngine(
        small_wal.wal_dir, lake, num_buckets=8, concurrency=2,
        checks=[CheckSpec("synthetic_gate", always_fails, mandatory=True)],
        on_event=got.append,
    )
    with pytest.raises(DataQualityError):
        eng.tick()
    assert LakeLineage(lake).last_tick() is None, "gate fired before commit"
    evs = read_events(lake)
    assert evs[-1]["kind"] == "quality_failure"
    assert "synthetic_gate" in evs[-1]["payload"]["error"]
    assert [e["kind"] for e in got] == ["quality_failure"], "callback fan-out"


def test_tick_failure_emits_event_and_callback_errors_are_swallowed(
    ray_session, small_wal, tmp_path, crash_at
):
    def bad_callback(rec):
        raise RuntimeError("pager is down")

    lake = str(tmp_path / "lake")
    eng = ReplayEngine(
        small_wal.wal_dir, lake, num_buckets=8, concurrency=2,
        on_event=bad_callback,
    )
    with crash_at("manifest.bucket"):
        with pytest.raises(RuntimeError, match="injected crash"):
            eng.tick()
    evs = read_events(lake)
    assert evs[-1]["kind"] == "tick_failure"
    assert "injected crash" in evs[-1]["payload"]["error"]
    # the broken callback didn't mask the original failure or the trail


def test_event_trail_tolerates_torn_tail(tmp_path):
    lake = str(tmp_path / "lake")
    emit_event(lake, "tick_failure", {"error": "x"})
    with open(os.path.join(lake, "_events.jsonl"), "a") as f:
        f.write('{"ts": 1, "kind": "torn')  # crash mid-append
    evs = read_events(lake)
    assert len(evs) == 1 and evs[0]["kind"] == "tick_failure"
    assert read_events(lake, last=5) == evs
