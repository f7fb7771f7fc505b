"""Live-tail mode: the engine keeps ticking as sealed segments appear in
the WAL manifest, and the final state matches the full-log oracle."""

from __future__ import annotations

import threading
import time

import pandas as pd

from etl_ray.engine import ReplayEngine
from etl_ray.engine.export import final_state
from etl_ray.oracle import expected_final_state
from etl_ray.wal import WalInfo


def test_follow_consumes_growing_wal(ray_session, small_wal, tmp_path):
    # a "view" WAL dir whose manifest starts with 2 sealed segments and
    # grows; segment files are shared with the source WAL (absolute paths)
    view_dir = str(tmp_path / "walview")
    import os

    os.makedirs(view_dir, exist_ok=True)

    def manifest_through(k: int) -> None:
        info = WalInfo(
            wal_dir=view_dir,
            n_events=sum(s["rows"] for s in small_wal.segments[:k]),
            n_base_events=small_wal.n_base_events,
            evolve_lsn=small_wal.evolve_lsn,
            segments=small_wal.segments[:k],
            params=None,
        )
        info.save()

    total = len(small_wal.segments)
    manifest_through(2)

    lake = str(tmp_path / "lake")
    eng = ReplayEngine(view_dir, lake, num_buckets=8, concurrency=2, aggregate=False)
    results: list = []

    def run():
        results.extend(
            eng.follow(poll_interval_s=0.2, idle_timeout_s=6.0, segments_per_tick=None)
        )

    t = threading.Thread(target=run)
    t.start()
    for k in range(3, total + 1):  # seal one more segment every beat
        time.sleep(1.0)
        manifest_through(k)
    t.join(timeout=120)
    assert not t.is_alive()

    assert len(results) >= 2  # consumed across multiple polls
    assert sum(r.segments for r in results) == total
    got = (
        final_state(lake, with_sha=True)
        .to_pandas()
        .sort_values(["repo", "path"])
        .reset_index(drop=True)
    )
    exp = expected_final_state(small_wal).to_pandas()
    assert len(got) == len(exp)
    assert (got["content_sha256"].to_numpy() == exp["content_sha256"].to_numpy()).all()


def test_follow_with_live_feed_consumer(ray_session, small_wal, tmp_path):
    """Live-tail with the change data feed on: a consumer folding the feed
    after every committed tick converges to the same live state the engine
    exports — the streaming CDC-out end-to-end."""
    import os

    from etl_ray.engine.changelog import committed_changelog_parts

    view_dir = str(tmp_path / "walview")
    os.makedirs(view_dir, exist_ok=True)

    def manifest_through(k: int) -> None:
        WalInfo(
            wal_dir=view_dir,
            n_events=sum(s["rows"] for s in small_wal.segments[:k]),
            n_base_events=small_wal.n_base_events,
            evolve_lsn=small_wal.evolve_lsn,
            segments=small_wal.segments[:k],
            params=None,
        ).save()

    total = len(small_wal.segments)
    manifest_through(2)
    lake = str(tmp_path / "lake")
    eng = ReplayEngine(
        view_dir, lake, num_buckets=8, concurrency=2, aggregate=False,
        emit_changelog=True,
    )
    results: list = []
    t = threading.Thread(
        target=lambda: results.extend(
            eng.follow(poll_interval_s=0.2, idle_timeout_s=6.0)
        )
    )
    t.start()
    for k in range(3, total + 1):
        time.sleep(0.8)
        manifest_through(k)
    t.join(timeout=120)
    assert not t.is_alive()
    assert sum(r.segments for r in results) == total

    # the feed covers every committed tick exactly once
    import pyarrow.parquet as pq

    feed = pd.concat(
        [
            pq.ParquetFile(p["file"]).read_row_groups(p["rgs"]).to_pandas()
            for p in committed_changelog_parts(lake)
        ],
        ignore_index=True,
    )
    assert set(feed["tick"].unique()) == {r.tick for r in results}

    # consumer fold == engine export
    last = (
        feed.sort_values(["lsn"], kind="mergesort")
        .groupby(["repo", "path"], as_index=False)
        .tail(1)
    )
    live = (
        last[~last["change_op"].isin(["delete", "erase"])]
        .sort_values(["repo", "path"])
        .reset_index(drop=True)
    )
    state = (
        final_state(lake)
        .to_pandas()
        .sort_values(["repo", "path"])
        .reset_index(drop=True)
    )
    assert len(live) == len(state)
    assert (live["content"].to_numpy() == state["content"].to_numpy()).all()


def test_follow_dim_refresh_mid_tail(ray_session, small_wal, tmp_path):
    """VERDICT r3 #7: a versioned enrichment dim changing MID-TAIL is
    re-broadcast into the running follow() — ticks after the change tag
    with the new map, rows committed before it keep their old tags (LWW:
    a dim change never rewrites committed state), and each tick manifest
    records the dim version that tagged it."""
    import json
    import os

    import pyarrow.compute as pc

    from etl_ray.engine.lineage import LakeLineage

    view_dir = str(tmp_path / "walview")
    os.makedirs(view_dir, exist_ok=True)

    def manifest_through(k: int) -> None:
        WalInfo(
            wal_dir=view_dir,
            n_events=sum(s["rows"] for s in small_wal.segments[:k]),
            n_base_events=small_wal.n_base_events,
            evolve_lsn=small_wal.evolve_lsn,
            segments=small_wal.segments[:k],
            params=None,
        ).save()

    dim_path = str(tmp_path / "ext_map.json")
    with open(dim_path, "w") as f:
        json.dump({}, f)  # v1: built-in map only

    total = len(small_wal.segments)
    half = total // 2
    manifest_through(half)

    lake = str(tmp_path / "lake")
    eng = ReplayEngine(
        view_dir, lake, num_buckets=8, concurrency=2, aggregate=False,
        ext_map_path=dim_path,
    )
    results: list = []

    def run():
        results.extend(
            eng.follow(poll_interval_s=0.2, idle_timeout_s=6.0, segments_per_tick=None)
        )

    t = threading.Thread(target=run)
    t.start()
    # wait until the first half is committed, then flip the dim
    deadline = time.monotonic() + 60
    lin = LakeLineage(lake)
    while time.monotonic() < deadline and lin.last_tick() is None:
        time.sleep(0.2)
    assert lin.last_tick() is not None
    with open(dim_path, "w") as f:
        json.dump({"py": "python3"}, f)  # v2 overlay
    for k in range(half + 1, total + 1):
        time.sleep(0.7)
        manifest_through(k)
    t.join(timeout=120)
    assert not t.is_alive()
    assert sum(r.segments for r in results) == total

    ticks = LakeLineage(lake).all_ticks()
    vers = [tk["dim_version"] for tk in ticks]
    assert len(set(vers)) == 2, f"expected both dim versions in lineage: {vers}"

    # rows written by v2 ticks tag 'python3'; earlier rows keep 'python'
    from etl_ray.engine.export import final_state

    df = final_state(lake).to_pandas()
    py = df[df["path"].str.endswith(".py")]
    assert set(py["lang"]) == {"python", "python3"}, (
        "post-flip ticks must tag with the new map while pre-flip rows "
        "keep their committed tags"
    )
