"""Export, view refresh and replay's stage 2 size their fan-out to the
cluster: one task per contiguous CPU chunk of buckets
(``partitioning.cpu_chunks``), not one per bucket, with results unchanged
against the DuckDB oracle."""

from __future__ import annotations

import glob
import json
import os

import pandas as pd
import pytest
import ray.data as rd
from ray.data.dataset import MaterializedDataset

from etl_ray.engine import ReplayEngine
from etl_ray.engine.export import final_state
from etl_ray.engine.lineage import LakeLineage
from etl_ray.engine.partitioning import cpu_chunks
from etl_ray.engine.tables import MultiTableLake, TableSpec
from etl_ray.oracle import expected_final_state

# DuckDB oracles of the three view kinds, shared with their own test modules
from test_agg_views import LANG_AGGS, _assert_matches_oracle  # noqa: E402
from test_tables import (  # noqa: E402
    _oracle_repo_stats,
    _oracle_sessions,
    _sessions_df,
    _view_df,
)

BUCKETS = 16


def test_cpu_chunks_are_contiguous_and_even(ray_session):
    cpus = int(ray_session.cluster_resources()["CPU"])
    for n in (0, 1, cpus - 1, cpus, 2 * cpus + 1, 16):
        items = list(range(n))
        chunks = cpu_chunks(items)
        assert len(chunks) == min(n, cpus)
        assert [x for c in chunks for x in c] == items
        sizes = {len(c) for c in chunks}
        assert not sizes or (min(sizes) >= 1 and max(sizes) - min(sizes) <= 1)


@pytest.fixture(scope="module")
def export_lakes(ray_session, small_wal, tmp_path_factory):
    """A rewrite and a delta lake of ``small_wal``, one segment per tick,
    with history retained for as-of reads."""
    lakes = {}
    for mode in ("rewrite", "delta"):
        lake = str(tmp_path_factory.mktemp(f"export_{mode}") / "lake")
        ReplayEngine(
            small_wal.wal_dir, lake, num_buckets=BUCKETS, concurrency=2,
            state_mode=mode, retain_ticks=10,
        ).replay_all(segments_per_tick=1)
        lakes[mode] = lake
    return lakes


def _fold_caches(lake: str) -> list[str]:
    return glob.glob(os.path.join(lake, "buckets", "b=*", "foldcache-*"))


@pytest.mark.parametrize(
    "mode,with_sha,include_tombstones,as_of",
    [
        (mode, sha, tombs, None)
        for mode in ("rewrite", "delta")
        for sha in (False, True)
        for tombs in (False, True)
    ]
    + [("delta", True, False, 2)],
)
def test_export_one_pass_per_cpu_chunk(
    ray_session, small_wal, export_lakes, monkeypatch,
    mode, with_sha, include_tombstones, as_of,
):
    """One Ray Data pass of ``min(buckets, CPUs)`` blocks, returned
    materialized, for both state modes; rows and sha equal the oracle; a
    live delta export publishes the fold cache, an as-of one does not."""
    lake = export_lakes[mode]
    for f in _fold_caches(lake):
        os.remove(f)
    cpus = int(ray_session.cluster_resources()["CPU"])
    blocks: list[int] = []
    orig = rd.from_items

    def spy(items, *a, **k):
        blocks.append(k.get("override_num_blocks"))
        return orig(items, *a, **k)

    monkeypatch.setattr(rd, "from_items", spy)
    ds = final_state(
        lake, with_sha=with_sha, include_tombstones=include_tombstones,
        as_of_tick=as_of,
    )
    monkeypatch.undo()
    assert blocks == [min(BUCKETS, cpus)]
    assert isinstance(ds, MaterializedDataset)

    got = ds.to_pandas()
    if include_tombstones:
        assert got["deleted"].any(), "fixture must carry tombstones"
        assert not got.duplicated(["repo", "path"]).any()
        got = got[~got["deleted"]]
    else:
        assert "deleted" not in got.columns
    assert ("content_sha256" in got.columns) == with_sha
    got = got.sort_values(["repo", "path"]).reset_index(drop=True)
    through = None
    if as_of is not None:
        ticks = {t["tick"]: t for t in LakeLineage(lake).all_ticks()}
        through = ticks[as_of]["through_seqno"]
    exp = expected_final_state(
        small_wal, with_sha=True, through_seqno=through
    ).to_pandas()
    assert len(got) == len(exp)
    for c in ("repo", "path", "lsn"):
        assert (got[c].to_numpy() == exp[c].to_numpy()).all(), c
    if with_sha:
        assert (got["content_sha256"].to_numpy() == exp["content_sha256"].to_numpy()).all()

    caches = _fold_caches(lake)
    if mode == "delta" and as_of is None:
        assert caches, "a live delta export publishes its chain folds"
    else:
        assert not caches


def _tail_wal(tmp_path_factory):
    """A WAL whose last segment holds two events, so the tick that reads
    it touches at most two of the lake's buckets."""
    from etl_ray.wal import generate_wal

    wal = generate_wal(
        str(tmp_path_factory.mktemp("wal_tail")),
        seed=11, n_events=6_002, n_repos=12, paths_per_repo=80, dup_rate=0.0,
        delete_rate=0.06, ooo_window=200, evolve_at_frac=0.5,
        segment_rows=2_000, content_min=32, content_max=256, days_span=5,
    )
    assert wal.segments[-1]["rows"] == 2
    return wal


def test_refresh_tasks_sized_to_cluster(ray_session, tmp_path_factory):
    """A 16-bucket lake's first refresh of each view kind runs one task per
    CPU; a tick touching k < CPUs buckets runs k tasks. Every view matches
    DuckDB after both."""
    wal = _tail_wal(tmp_path_factory)
    gap = 45
    lake = MultiTableLake(
        str(tmp_path_factory.mktemp("refresh") / "ml"),
        [
            TableSpec(name="repo_files", wal_dir=wal.wal_dir, num_buckets=BUCKETS),
            TableSpec(name="repo_stats", view="repo_stats", source="repo_files"),
            TableSpec(
                name="lang_stats", view="aggregate", source="repo_files",
                view_group_by=["lang"], view_aggs=LANG_AGGS,
            ),
            TableSpec(
                name="sessions", view="session", source="repo_files",
                view_key=["repo"], view_ts="commit_ts", gap_minutes=gap,
            ),
        ],
    )
    views = ("repo_stats", "lang_stats", "sessions")
    cpus = int(ray_session.cluster_resources()["CPU"])
    n_segs = len(wal.segments)

    first = lake.tick(max_segments=n_segs - 1)
    for v in views:
        assert first[v]["buckets"] == BUCKETS
        assert first[v]["tasks"] == min(BUCKETS, cpus)

    up = lake.table_dir("repo_files")
    with open(os.path.join(lake.table_dir("repo_stats"), "_view.json")) as fh:
        applied = json.load(fh)["upstream_tick"]
    last = lake.tick()
    k = sum(1 for m in LakeLineage(up).all_bucket_manifests() if m["tick"] > applied)
    assert 0 < k < cpus
    for v in views:
        assert last[v]["buckets"] == k
        assert last[v]["tasks"] == k

    pd.testing.assert_frame_equal(
        _view_df(lake, "repo_stats"),
        _oracle_repo_stats(wal).reset_index(drop=True),
        check_dtype=False,
    )
    _assert_matches_oracle(lake, wal)
    pd.testing.assert_frame_equal(
        _sessions_df(lake, "sessions"), _oracle_sessions(wal, gap), check_dtype=False
    )


@pytest.mark.parametrize(
    "concurrency,tasks", [(None, None), (1, 1), ((1, 2), 2)], ids=["cpus", "int", "pair"]
)
def test_stage2_tasks_sized_to_cluster(ray_session, small_wal, tmp_path, concurrency, tasks):
    """Replay's stage 2 runs ``min(touched, CPUs)`` chunk tasks, capped by
    ``concurrency`` (an int, or the ``hi`` of a pair) — on every tick, the
    first included — and the lake matches the oracle after each tick."""
    cpus = int(ray_session.cluster_resources()["CPU"])
    lake = str(tmp_path / "lake")
    n_segs = len(small_wal.segments)

    def assert_oracle(through):
        got = final_state(lake, with_sha=True).to_pandas()
        got = got.sort_values(["repo", "path"]).reset_index(drop=True)
        exp = expected_final_state(small_wal, through_seqno=through).to_pandas()
        assert len(got) == len(exp)
        assert (got["content_sha256"].to_numpy() == exp["content_sha256"].to_numpy()).all()
        assert (got["lsn"].to_numpy() == exp["lsn"].to_numpy()).all()

    eng = ReplayEngine(
        small_wal.wal_dir, lake, num_buckets=BUCKETS, state_mode="delta",
        concurrency=concurrency,
    )
    eng.tick(max_segments=n_segs - 2)
    assert eng.last_stage2_items == BUCKETS
    assert eng.last_stage2_tasks == (tasks or min(BUCKETS, cpus))
    assert_oracle(n_segs - 3)
    while eng.tick(max_segments=1) is not None:
        k = eng.last_stage2_items
        assert eng.last_stage2_tasks == min(k, tasks or cpus)
    assert_oracle(None)
