"""End-to-end replay correctness: engine final state == DuckDB oracle,
per-row content sha256 equality (the BASELINE.json invariant), idempotent
re-apply, multi-tick == single-tick, resume mid-replay, crash injection."""

from __future__ import annotations

import hashlib

import pandas as pd
import pytest

from etl_ray.engine import ReplayEngine
from etl_ray.engine.export import final_state
from etl_ray.oracle import expected_final_state


def _state_df(lake_dir: str, with_sha: bool = True) -> pd.DataFrame:
    ds = final_state(lake_dir, with_sha=with_sha)
    df = ds.to_pandas().sort_values(["repo", "path"]).reset_index(drop=True)
    return df


def _assert_matches_oracle(lake_dir: str, wal):
    exp = expected_final_state(wal).to_pandas().reset_index(drop=True)
    got = _state_df(lake_dir)
    assert len(got) == len(exp), f"row count {len(got)} != oracle {len(exp)}"
    for col in ["repo", "path", "commit", "lang", "lsn"]:
        pd.testing.assert_series_equal(
            got[col], exp[col], check_names=False, obj=col
        )
    # THE invariant: per-row content sha256 equality
    assert (got["content_sha256"] == exp["content_sha256"]).all()
    # schema evolution: size_bytes equal incl. null backfill on old rows
    pd.testing.assert_series_equal(
        got["size_bytes"].astype("Int64"),
        exp["size_bytes"].astype("Int64"),
        check_names=False,
    )
    assert exp["size_bytes"].isna().any(), "fixture must exercise null backfill"
    assert exp["size_bytes"].notna().any()


def test_single_tick_replay(ray_session, small_wal, tmp_path):
    lake = str(tmp_path / "lake")
    eng = ReplayEngine(small_wal.wal_dir, lake, num_buckets=8, concurrency=2)
    res = eng.replay_all()
    assert len(res) == 1
    assert res[0].events == small_wal.n_events
    _assert_matches_oracle(lake, small_wal)


def test_multi_tick_and_resume(ray_session, small_wal, tmp_path):
    lake = str(tmp_path / "lake")
    # first engine instance applies 2 segments then "dies"
    eng1 = ReplayEngine(small_wal.wal_dir, lake, num_buckets=8, concurrency=2)
    r1 = eng1.tick(max_segments=2)
    assert r1 is not None and r1.tick == 0
    # a NEW engine instance resumes from lineage manifests alone
    eng2 = ReplayEngine(small_wal.wal_dir, lake, num_buckets=8, concurrency=2)
    res = eng2.replay_all(segments_per_tick=1)
    assert len(res) >= 1
    assert all(r.tick == i + 1 for i, r in enumerate(res))
    _assert_matches_oracle(lake, small_wal)


def test_replay_twice_is_noop(ray_session, small_wal, tmp_path):
    lake = str(tmp_path / "lake")
    eng = ReplayEngine(small_wal.wal_dir, lake, num_buckets=8, concurrency=2)
    eng.replay_all()
    h1 = hashlib.sha256(
        pd.util.hash_pandas_object(_state_df(lake), index=False).to_numpy().tobytes()
    ).hexdigest()
    assert eng.tick() is None  # watermark: nothing pending

    # force a re-apply of the last segments by rolling the watermark back:
    # monotone LWW must make it byte-identical
    last = eng.lineage.last_tick()
    rolled = dict(last, tick=last["tick"] + 1, through_seqno=last["through_seqno"] - 2)
    eng.lineage.publish_tick(rolled)
    r = eng.tick()
    assert r is not None
    h2 = hashlib.sha256(
        pd.util.hash_pandas_object(_state_df(lake), index=False).to_numpy().tobytes()
    ).hexdigest()
    assert h1 == h2
    _assert_matches_oracle(lake, small_wal)


def test_crash_mid_commit_then_resume(ray_session, small_wal, tmp_path, crash_at):
    lake = str(tmp_path / "lake")
    eng = ReplayEngine(small_wal.wal_dir, lake, num_buckets=8, concurrency=2)
    eng.tick(max_segments=2)

    # crash after publishing only 3 bucket manifests of the next tick
    bad = ReplayEngine(small_wal.wal_dir, lake, num_buckets=8, concurrency=2)
    with crash_at("manifest.bucket", after=3):
        with pytest.raises(RuntimeError, match="injected crash"):
            bad.tick()
    # previous tick still authoritative; resume with a fresh engine
    eng3 = ReplayEngine(small_wal.wal_dir, lake, num_buckets=8, concurrency=2)
    res = eng3.replay_all()
    assert res, "resume must reprocess the crashed tick"
    _assert_matches_oracle(lake, small_wal)


def test_tombstones_block_late_updates(ray_session, small_wal, tmp_path):
    lake = str(tmp_path / "lake")
    ReplayEngine(small_wal.wal_dir, lake, num_buckets=8, concurrency=2).replay_all()
    ds = final_state(lake, include_tombstones=True)
    df = ds.to_pandas()
    assert df["deleted"].any(), "fixture must produce tombstones"
    dead = df[df["deleted"]]
    assert dead["content"].isna().all()


def test_repo_live_files_snapshot(ray_session, small_wal, tmp_path):
    """A9-style re-aggregation from state matches the oracle's log fold."""
    from etl_ray.oracle import expected_repo_live_files
    from etl_ray.engine.export import final_state

    lake = str(tmp_path / "lake")
    ReplayEngine(small_wal.wal_dir, lake, num_buckets=8, concurrency=2).replay_all()
    got = (
        final_state(lake)
        .to_pandas()
        .groupby("repo", as_index=False)
        .size()
        .rename(columns={"size": "live_files"})
        .sort_values("repo")
        .reset_index(drop=True)
    )
    exp = expected_repo_live_files(small_wal).to_pandas()
    pd.testing.assert_frame_equal(got, exp, check_dtype=False)


def test_struct_schema_evolution(ray_session, tmp_path):
    """Second, struct-typed additive evolution (meta: struct<author, msg> —
    the reference's nested params/ctx_* payload analog, SURVEY §1.2): old
    rows backfill to null, new rows carry the struct, content sha256 for
    pre-evolution winners is untouched, and the whole final state still
    matches the DuckDB oracle."""
    import pyarrow.compute as pc

    from etl_ray.wal import generate_wal

    wal = generate_wal(
        str(tmp_path / "wal_evo2"),
        seed=11,
        n_events=9_000,
        n_repos=15,
        paths_per_repo=90,
        dup_rate=0.03,
        delete_rate=0.06,
        ooo_window=400,
        evolve_at_frac=0.3,
        evolve2_at_frac=0.55,
        segment_rows=2_000,
        content_min=32,
        content_max=256,
        days_span=7,
    )
    assert 0 < wal.evolve2_lsn < wal.n_base_events
    lake = str(tmp_path / "lake_evo2")
    # multi-tick so at least one tick merges struct deltas INTO pre-struct
    # committed state (unify_schemas promotion on the state side)
    ReplayEngine(wal.wal_dir, lake, num_buckets=8, concurrency=2).replay_all(
        segments_per_tick=2
    )
    got = final_state(lake, with_sha=True).take_all()
    import pyarrow as pa

    gt = pa.Table.from_pylist(got).sort_by([("repo", "ascending"), ("path", "ascending")])
    exp = expected_final_state(wal).sort_by([("repo", "ascending"), ("path", "ascending")])
    assert "meta" in gt.schema.names and pa.types.is_struct(gt.schema.field("meta").type)
    assert gt.num_rows == exp.num_rows
    # flatten the struct for comparison (DuckDB and the engine agree per field)
    for side, tbl in (("got", gt), ("exp", exp)):
        assert tbl["meta"].null_count > 0, f"{side}: fixture must exercise null backfill"
    for f in ("author", "msg"):
        g = pc.struct_field(gt["meta"].combine_chunks(), f)
        e = pc.struct_field(exp["meta"].combine_chunks(), f)
        assert g.equals(e) or g.cast("string").to_pylist() == e.cast("string").to_pylist(), f
    # null exactly iff the winning lsn predates the struct evolution
    lsn = gt["lsn"].to_pandas()
    meta_null = pc.is_null(gt["meta"].combine_chunks()).to_pandas()
    assert ((lsn <= wal.evolve2_lsn) == meta_null).all()
    # the core invariant holds with the struct column present
    assert gt["content_sha256"].to_pylist() == exp["content_sha256"].to_pylist()


def test_widening_evolution_e2e(ray_session, tmp_path):
    """size_bytes appears as int32 in early post-evolve segments and int64
    later; the engine unifies through the widening lattice and the final
    state byte-matches the oracle with all values intact."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from etl_ray.wal import generate_wal

    wal = generate_wal(
        str(tmp_path / "wal"),
        seed=11,
        n_events=8_000,
        n_repos=12,
        paths_per_repo=80,
        evolve_at_frac=0.25,
        widen_at_frac=0.6,
        segment_rows=1_500,
        days_span=5,
    )
    widths = {
        pq.read_schema(s["file"]).field("size_bytes").type
        for s in wal.segments
        if s["has_size_bytes"]
    }
    assert widths == {pa.int32(), pa.int64()}, "fixture must mix widths"

    lake = str(tmp_path / "lake")
    eng = ReplayEngine(wal.wal_dir, lake, num_buckets=8, concurrency=2)
    eng.replay_all(segments_per_tick=2)
    _assert_matches_oracle(lake, wal)
    # the committed state carries the widened type
    man = eng.lineage.all_bucket_manifests()[0]
    assert pq.read_schema(man["data_file"]).field("size_bytes").type == pa.int64()


def test_volume_stress_replay(ray_session, tmp_path):
    """A heavier log (300k events, high dup/delete rates, wide ooo window,
    hot Zipf head) through multi-tick replay still byte-matches the oracle —
    the volume/ooo/dup interaction test at the edge of unit-test budget."""
    from etl_ray.wal import generate_wal

    wal = generate_wal(
        str(tmp_path / "wal"),
        seed=23,
        n_events=300_000,
        n_repos=40,
        paths_per_repo=200,
        zipf_s=1.5,
        dup_rate=0.08,
        delete_rate=0.12,
        ooo_window=8_000,
        evolve_at_frac=0.4,
        widen_at_frac=0.7,
        segment_rows=60_000,
        days_span=14,
    )
    lake = str(tmp_path / "lake")
    eng = ReplayEngine(wal.wal_dir, lake, num_buckets=16, concurrency=3)
    res = eng.replay_all(segments_per_tick=2)
    assert sum(r.events for r in res) == wal.n_events
    _assert_matches_oracle(lake, wal)
