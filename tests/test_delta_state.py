"""Base+delta bucket state (``state_mode='delta'``): same S3
delete-partition-then-insert semantics, write amplification dropped from
O(bucket) to O(touched keys) per tick. Covers oracle equality, crash/resume,
idempotent re-apply, threshold compaction, GC of absorbed deltas, folds,
feed equality with rewrite mode, and the bytes-written win."""

from __future__ import annotations

import glob
import os

import pandas as pd
import pytest

from etl_ray.engine import ReplayEngine
from etl_ray.engine.export import final_state
from etl_ray.engine.lineage import LakeLineage
from etl_ray.oracle import expected_final_state


def _assert_oracle(lake: str, wal) -> None:
    got = (
        final_state(lake, with_sha=True)
        .to_pandas()
        .sort_values(["repo", "path"])
        .reset_index(drop=True)
    )
    exp = expected_final_state(wal).to_pandas()
    assert len(got) == len(exp)
    assert (got["content_sha256"].to_numpy() == exp["content_sha256"].to_numpy()).all()
    assert (got["lsn"].to_numpy() == exp["lsn"].to_numpy()).all()


def _delta_files(lake: str) -> list[str]:
    return glob.glob(os.path.join(lake, "buckets", "b=*", "*.delta.parquet"))


def test_delta_mode_matches_oracle_and_appends(ray_session, small_wal, tmp_path):
    lake = str(tmp_path / "lake")
    eng = ReplayEngine(
        small_wal.wal_dir, lake, num_buckets=8, concurrency=2, state_mode="delta"
    )
    res = eng.replay_all(segments_per_tick=1)
    assert len(res) >= 3
    assert _delta_files(lake), "ticks past the first must append deltas"
    mans = LakeLineage(lake).all_bucket_manifests()
    assert any(m.get("delta_files") for m in mans)
    _assert_oracle(lake, small_wal)


def test_delta_mode_crash_mid_commit_then_resume(
    ray_session, small_wal, tmp_path, crash_at
):
    lake = str(tmp_path / "lake")
    ReplayEngine(
        small_wal.wal_dir, lake, num_buckets=8, concurrency=2, state_mode="delta"
    ).tick(max_segments=2)
    bad = ReplayEngine(
        small_wal.wal_dir, lake, num_buckets=8, concurrency=2, state_mode="delta"
    )
    with crash_at("manifest.bucket", after=3):
        with pytest.raises(RuntimeError, match="injected crash"):
            bad.tick()
    res = ReplayEngine(
        small_wal.wal_dir, lake, num_buckets=8, concurrency=2, state_mode="delta"
    ).replay_all()
    assert res, "resume must reprocess the crashed tick"
    _assert_oracle(lake, small_wal)
    # the redo of buckets the crashed attempt ALREADY published must
    # reproduce their chain in place, not re-append this tick's delta:
    # a duplicate entry folds the file twice on every read and counts
    # double against the threshold
    for m in LakeLineage(lake).all_bucket_manifests():
        chain = m.get("delta_files") or []
        assert len(chain) == len(set(chain)), (
            f"bucket {m['bucket']}: duplicate delta entries {chain}"
        )


def test_delta_mode_reapply_is_noop(ray_session, small_wal, tmp_path):
    import hashlib

    lake = str(tmp_path / "lake")
    eng = ReplayEngine(
        small_wal.wal_dir, lake, num_buckets=8, concurrency=2, state_mode="delta"
    )
    eng.replay_all(segments_per_tick=2)

    def state_hash() -> str:
        df = (
            final_state(lake)
            .to_pandas()
            .sort_values(["repo", "path"])
            .reset_index(drop=True)
        )
        return hashlib.sha256(
            pd.util.hash_pandas_object(df, index=False).to_numpy().tobytes()
        ).hexdigest()

    h1 = state_hash()
    assert eng.tick() is None
    last = eng.lineage.last_tick()
    eng.lineage.publish_tick(
        dict(last, tick=last["tick"] + 1, through_seqno=last["through_seqno"] - 2)
    )
    assert eng.tick() is not None  # LWW re-apply over the delta chain
    assert state_hash() == h1
    _assert_oracle(lake, small_wal)


def test_delta_threshold_folds_to_base(ray_session, small_wal, tmp_path):
    lake = str(tmp_path / "lake")
    eng = ReplayEngine(
        small_wal.wal_dir, lake, num_buckets=4, concurrency=2,
        state_mode="delta", delta_threshold=2,
    )
    res = eng.replay_all(segments_per_tick=1)
    assert len(res) >= 4, "need enough ticks to cross the threshold"
    mans = LakeLineage(lake).all_bucket_manifests()
    # chains are capped by the threshold and at least one bucket re-based
    assert all(len(m.get("delta_files") or []) <= 2 for m in mans)
    rebased = [m for m in mans if "delta" not in os.path.basename(m["data_file"])
               and m["tick"] > 0 and not m.get("delta_files")]
    assert any(
        int(os.path.basename(m["data_file"])[len("state-t"):-len(".parquet")]) > 0
        for m in mans
    ), "some bucket must have folded a chain into a fresh base"
    _assert_oracle(lake, small_wal)
    # GC drops absorbed delta files: every on-disk delta is referenced
    eng.lineage.gc(0)
    referenced = {f for m in mans for f in (m.get("delta_files") or [])}
    assert set(_delta_files(lake)) == referenced


def test_delta_mode_writes_fewer_bytes(ray_session, tmp_path):
    # small_wal touches nearly every key every tick (2.4k keys, 2.5k-row
    # segments), which hides the delta win — use a sparse-update WAL where
    # each 1.5k-row tick touches <10% of the 16k-key space, the shape a
    # long-running CDC lake actually sees in steady state.
    from etl_ray.wal import generate_wal

    wal = generate_wal(
        str(tmp_path / "wal_sparse"),
        seed=11,
        n_events=15_000,
        n_repos=40,
        paths_per_repo=400,
        dup_rate=0.02,
        delete_rate=0.04,
        ooo_window=300,
        evolve_at_frac=0.0,
        segment_rows=1_500,
        content_min=32,
        content_max=256,
        days_span=6,
    )
    sizes = {}
    for mode in ("rewrite", "delta"):
        lake = str(tmp_path / f"lake-{mode}")
        eng = ReplayEngine(
            wal.wal_dir, lake, num_buckets=8, concurrency=2, state_mode=mode
        )
        eng.replay_all(segments_per_tick=1)
        ticks = LakeLineage(lake).all_ticks()
        assert all(t["delta_threshold"] == (8 if mode == "delta" else 0) for t in ticks)
        # first tick writes full bases in both modes — compare the steady
        # state (every tick after the first)
        sizes[mode] = sum(t["state_bytes_written"] for t in ticks[1:])
        _assert_oracle(lake, wal)
    assert sizes["delta"] < sizes["rewrite"] / 2, sizes


def test_delta_mode_with_folds_and_feed_matches_rewrite(
    ray_session, small_wal, tmp_path
):
    from etl_ray.engine.changelog import read_changelog
    from etl_ray.engine.folds import DEFAULT_FOLDS

    frames = {}
    feeds = {}
    for mode in ("rewrite", "delta"):
        lake = str(tmp_path / f"lake-{mode}")
        ReplayEngine(
            small_wal.wal_dir, lake, num_buckets=8, concurrency=2,
            state_mode=mode, folds=DEFAULT_FOLDS, emit_changelog=True,
            aggregate=False,
        ).replay_all(segments_per_tick=2)
        frames[mode] = (
            final_state(lake)
            .to_pandas()
            .sort_values(["repo", "path"])
            .reset_index(drop=True)
        )
        feeds[mode] = (
            read_changelog(lake)
            .to_pandas()
            .sort_values(["tick", "lsn", "repo", "path"])
            .reset_index(drop=True)
        )
    cols = ["repo", "path", "lsn", "change_count", "days_active", "reactivations"]
    pd.testing.assert_frame_equal(frames["rewrite"][cols], frames["delta"][cols])
    pd.testing.assert_frame_equal(
        feeds["rewrite"][["tick", "lsn", "repo", "path", "change_op"]],
        feeds["delta"][["tick", "lsn", "repo", "path", "change_op"]],
    )


def test_delta_mode_maintenance_folds_chain(ray_session, small_wal, tmp_path):
    """compact_tombstones over a delta lake folds every chain into a fresh
    base; erase_keys works on the folded view and resets the chain for its
    buckets; the audit and uniqueness checks stay green throughout."""
    from etl_ray.engine.lineage import LakeLineage
    from etl_ray.engine.maintenance import compact_tombstones, erase_keys
    from etl_ray.engine.quality import TickContext, check_unique_live_key

    lake = str(tmp_path / "lake")
    ReplayEngine(
        small_wal.wal_dir, lake, num_buckets=8, concurrency=2, state_mode="delta"
    ).replay_all(segments_per_tick=1)
    lin = LakeLineage(lake)
    mans = lin.all_bucket_manifests()
    ctx = TickContext(
        lineage=lin, tick=lin.last_tick()["tick"], events=0, segments=[],
        new_manifests=mans, prev_manifests={m["bucket"]: m for m in mans},
        prev_tick=lin.last_tick(),
    )
    assert check_unique_live_key(ctx) == []

    state = final_state(lake).to_pandas()
    victim = (str(state["repo"].iloc[0]), str(state["path"].iloc[0]))
    erase_keys(lake, [victim])
    df = final_state(lake).to_pandas()
    assert not ((df["repo"] == victim[0]) & (df["path"] == victim[1])).any()

    res = compact_tombstones(lake, lateness_bound=0)
    mans = lin.all_bucket_manifests()
    assert all(not m.get("delta_files") for m in mans), "chains folded to base"
    lin.gc(0)
    assert _delta_files(lake) == [], "absorbed deltas GC'd"


def test_delta_time_travel_exact_per_tick(ray_session, small_wal, tmp_path):
    """Time travel over base+delta chains: as-of T folds the newest base
    <= T plus the deltas in (base, T]. A small threshold forces chain
    compactions mid-replay, so exactness here also proves gc retains
    dereferenced chain segments inside the window."""
    lake = str(tmp_path / "lake")
    eng = ReplayEngine(
        small_wal.wal_dir, lake, num_buckets=8, concurrency=2,
        state_mode="delta", delta_threshold=2, retain_ticks=10,
    )
    recorded = {}
    while True:
        r = eng.tick(max_segments=1)
        if r is None:
            break
        recorded[r.tick] = _df(lake)
    assert len(recorded) >= 3
    assert _delta_files(lake), "chains must exist for this to prove anything"
    for t, exp in recorded.items():
        got = _df(lake, as_of_tick=t)
        pd.testing.assert_frame_equal(got, exp, obj=f"as_of_tick={t}")


def test_delta_retention_window_enforced(ray_session, small_wal, tmp_path):
    """retain_ticks=1 in delta mode: inside the window exact, outside
    refused, and gc still drops chain segments older than the boundary."""
    from etl_ray.engine.export import final_state as fs

    lake = str(tmp_path / "lake")
    eng = ReplayEngine(
        small_wal.wal_dir, lake, num_buckets=8, concurrency=2,
        state_mode="delta", delta_threshold=2, retain_ticks=1,
    )
    live = {}
    while True:
        r = eng.tick(max_segments=1)
        if r is None:
            break
        live[r.tick] = _df(lake)
    last = max(live)
    pd.testing.assert_frame_equal(_df(lake, as_of_tick=last - 1), live[last - 1])
    with pytest.raises(ValueError, match="retained history"):
        fs(lake, as_of_tick=0)
    # the retained file set is bounded by the window, not by replay length:
    # per bucket at most (window + boundary + current) bases plus the delta
    # chains attached to them — with threshold 2 that is <= 3 files per base
    for bdir in glob.glob(os.path.join(lake, "buckets", "b=*")):
        states = [
            f
            for f in glob.glob(os.path.join(bdir, "state-t*.parquet"))
            if not f.endswith(".fold.parquet")
        ]
        assert len(states) <= 9, bdir


def _df(lake, **kw):
    from etl_ray.engine.export import final_state as fs

    return (
        fs(lake, **kw)
        .to_pandas()
        .sort_values(["repo", "path"])
        .reset_index(drop=True)
    )


def test_fold_cache_bounds_read_amplification(ray_session, small_wal, tmp_path):
    """A full chain fold (export) publishes a per-chain fold cache; later
    readers of the SAME chain read one file and get identical rows; a chain
    change keys a different path and gc sweeps the stale cache; GDPR
    erasure leaves no cache containing the subject."""
    lake = str(tmp_path / "lake")
    eng = ReplayEngine(
        small_wal.wal_dir, lake, num_buckets=8, concurrency=2,
        aggregate=False, state_mode="delta", delta_threshold=100,
    )
    n_segs = len(small_wal.segments)
    assert n_segs >= 3
    eng.tick(max_segments=1)  # fresh bases
    eng.tick(max_segments=n_segs - 2)  # appended deltas → multi-file chains

    def caches():
        return sorted(glob.glob(os.path.join(lake, "buckets", "b=*",
                                             "foldcache-*.parquet")))

    assert caches() == [], "no cache before any multi-file fold"
    df1 = final_state(lake).to_pandas().sort_values(["repo", "path"])
    first_caches = caches()
    assert first_caches, "full export must publish per-chain fold caches"

    # cached read == fresh fold (drop the caches, re-export, compare)
    df2 = final_state(lake).to_pandas().sort_values(["repo", "path"])
    pd.testing.assert_frame_equal(
        df1.reset_index(drop=True), df2.reset_index(drop=True)
    )
    # projected readers (view refresh / audit) hit the cache too
    from etl_ray.engine.apply import read_bucket_state

    lin = LakeLineage(lake)
    man = next(m for m in lin.all_bucket_manifests() if m.get("delta_files"))
    t = read_bucket_state(man, columns=["repo", "lsn"])
    assert t.num_rows == man["rows"]

    # the next tick appends a delta → old cache key is stale; gc (which
    # runs at tick start) sweeps it and a new export re-keys
    eng.tick()
    assert not (set(caches()) & set(first_caches)), "stale caches must be swept"
    final_state(lake).to_pandas()
    second_caches = caches()
    assert second_caches and not (set(second_caches) & set(first_caches))

    # erasure: the erase's own gc leaves no cache holding the subject
    from etl_ray.engine.maintenance import erase_keys

    victim = df1.iloc[0]
    erase_keys(lake, [(victim["repo"], victim["path"])])
    import pyarrow.parquet as pq

    for f in caches():
        t = pq.read_table(f, columns=["repo", "path"])
        hit = t.filter(
            __import__("pyarrow").compute.and_(
                __import__("pyarrow").compute.equal(t["repo"], victim["repo"]),
                __import__("pyarrow").compute.equal(t["path"], victim["path"]),
            )
        )
        assert hit.num_rows == 0, f"erased subject survives in {f}"
