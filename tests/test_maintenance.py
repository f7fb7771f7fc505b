"""Targeted erasure (GDPR-delete analog) and derivative snapshots."""

from __future__ import annotations

import pandas as pd

from etl_ray.engine import ReplayEngine
from etl_ray.engine.export import final_state
from etl_ray.engine.maintenance import erase_keys, snapshot_derivatives


def _live_df(lake: str) -> pd.DataFrame:
    return final_state(lake).to_pandas().sort_values(["repo", "path"]).reset_index(drop=True)


def test_erase_keys(ray_session, small_wal, tmp_path):
    lake = str(tmp_path / "lake")
    ReplayEngine(small_wal.wal_dir, lake, num_buckets=8, concurrency=2).replay_all()
    before = _live_df(lake)
    victims = [tuple(r) for r in before[["repo", "path"]].head(7).to_numpy()]

    res = erase_keys(lake, victims)
    assert res["erased"] == 7

    after = _live_df(lake)
    assert len(after) == len(before) - 7
    gone = set(victims)
    assert not any((r, p) in gone for r, p in zip(after["repo"], after["path"]))
    # untouched rows identical
    keep = before[~before.apply(lambda r: (r["repo"], r["path"]) in gone, axis=1)]
    pd.testing.assert_frame_equal(
        keep.reset_index(drop=True), after, check_dtype=False
    )

    # erasure wins over any replayed late event: re-applying the log is a no-op
    eng = ReplayEngine(small_wal.wal_dir, lake, num_buckets=8, concurrency=2)
    assert eng.tick() is None  # watermark: already applied
    still = _live_df(lake)
    pd.testing.assert_frame_equal(after, still, check_dtype=False)


def test_snapshot_derivatives(ray_session, small_wal, tmp_path):
    lake = str(tmp_path / "lake")
    ReplayEngine(small_wal.wal_dir, lake, num_buckets=8, concurrency=2).replay_all()
    out = str(tmp_path / "deriv")
    # the small_wal spans 9 days; step_us from the generator's params
    step_us = max(1, int(9 * 86_400_000_000 // 12_000))
    res = snapshot_derivatives(
        lake, out, daily_days=1, monthly_days=5, step_us_per_lsn=step_us
    )
    assert 0 < res["daily"] <= res["monthly"]
    import pyarrow.parquet as pq

    daily = pq.read_table(f"{out}/daily").to_pandas()
    monthly = pq.read_table(f"{out}/monthly").to_pandas()
    assert set(map(tuple, daily[["repo", "path"]].to_numpy())) <= set(
        map(tuple, monthly[["repo", "path"]].to_numpy())
    )


def test_compact_tombstones(ray_session, small_wal, tmp_path):
    from etl_ray.engine.maintenance import compact_tombstones

    lake = str(tmp_path / "lake")
    ReplayEngine(small_wal.wal_dir, lake, num_buckets=8, concurrency=2).replay_all()
    with_tombs = final_state(lake, include_tombstones=True).to_pandas()
    n_dead = int(with_tombs["deleted"].sum())
    assert n_dead > 0
    live_before = _live_df(lake)

    # default lateness bound (2^20) exceeds this small log's LSN range: every
    # tombstone is still within possible-lateness reach, so none is collected
    res = compact_tombstones(lake)
    assert res["tombstones_removed"] == 0

    # WAL fully consumed and closed → lateness 0 collects them all
    res = compact_tombstones(lake, lateness_bound=0)
    assert res["tombstones_removed"] == n_dead

    after_all = final_state(lake, include_tombstones=True).to_pandas()
    assert not after_all["deleted"].any()
    pd.testing.assert_frame_equal(live_before, _live_df(lake), check_dtype=False)


def test_erase_survives_inflight_events(ray_session, small_wal, tmp_path):
    """Erasure must not be resurrected by WAL events already emitted but not
    yet applied (they fall inside the erase-LSN gap)."""
    lake = str(tmp_path / "lake")
    eng = ReplayEngine(small_wal.wal_dir, lake, num_buckets=8, concurrency=2)
    eng.tick(max_segments=2)  # partial replay: later segments are in flight

    part = _live_df(lake)
    victims = [tuple(r) for r in part[["repo", "path"]].head(10).to_numpy()]
    erase_keys(lake, victims)  # num_buckets from lineage

    # a fresh engine consumes the remaining (in-flight) segments
    ReplayEngine(small_wal.wal_dir, lake, num_buckets=8, concurrency=2).replay_all()
    after = _live_df(lake)
    gone = set(victims)
    assert not any(
        (r, p) in gone for r, p in zip(after["repo"], after["path"])
    ), "in-flight events resurrected erased keys"


def test_chained_maintenance_ops(ray_session, small_wal, tmp_path):
    """erase → erase → compact → erase must chain: every maintenance tick
    propagates the lake's bucket-count lineage."""
    lake = str(tmp_path / "lake")
    ReplayEngine(small_wal.wal_dir, lake, num_buckets=8, concurrency=2).replay_all()
    ks = [tuple(r) for r in _live_df(lake)[["repo", "path"]].head(3).to_numpy()]
    from etl_ray.engine.maintenance import compact_tombstones

    r1 = erase_keys(lake, [ks[0]])
    r2 = erase_keys(lake, [ks[1]])  # reads num_buckets from the erasure tick
    compact_tombstones(lake)
    r3 = erase_keys(lake, [ks[2]])  # after a compaction tick
    assert r1["erase_lsn"] < r2["erase_lsn"] < r3["erase_lsn"]
    after = _live_df(lake)
    gone = set(ks)
    assert not any((r, p) in gone for r, p in zip(after["repo"], after["path"]))


def test_compaction_watermark_survives_erasure(ray_session, small_wal, tmp_path):
    """Erasure inflates applied_through_lsn by lsn_gap; the compaction
    watermark must derive from the TRUE WAL high-LSN (wal_through_lsn) or a
    single erasure zeroes the lateness protection and collects tombstones
    that still shadow possible late lower-LSN updates."""
    from etl_ray.engine.lineage import LakeLineage
    from etl_ray.engine.maintenance import compact_tombstones

    lake = str(tmp_path / "lake")
    ReplayEngine(small_wal.wal_dir, lake, num_buckets=8, concurrency=2).replay_all()
    with_tombs = final_state(lake, include_tombstones=True).to_pandas()
    assert int(with_tombs["deleted"].sum()) > 0

    lin = LakeLineage(lake)
    wal_hi_before = lin.last_tick()["wal_through_lsn"]

    ks = [tuple(r) for r in _live_df(lake)[["repo", "path"]].head(2).to_numpy()]
    erase_keys(lake, [ks[0]])
    erase_keys(lake, [ks[1]])  # two erasures: pre-fix watermark goes NEGATIVE

    last = lin.last_tick()
    # erasure ticks must not advance the WAL watermark
    assert last["wal_through_lsn"] == wal_hi_before
    assert last["applied_through_lsn"] > wal_hi_before

    # default lateness bound exceeds this small log's LSN range: every WAL
    # tombstone is still within possible-lateness reach → none collected
    res = compact_tombstones(lake)
    assert res["tombstones_removed"] == 0, (
        "erasure-inflated watermark collected protected tombstones"
    )


def test_erase_map_field_validation(ray_session, small_wal, tmp_path):
    """--map-field for a non-key column must be an explicit field=value pair;
    a bare unknown field name would silently remove zero mapping rows."""
    import pytest as _pytest

    lake = str(tmp_path / "lake")
    eng = ReplayEngine(
        small_wal.wal_dir, lake, num_buckets=8, concurrency=2,
        pseudonym_fields=["repo"],
    )
    eng.replay_all()
    victim = tuple(_live_df(lake)[["repo", "path"]].iloc[0])

    with _pytest.raises(ValueError, match="map-field"):
        erase_keys(lake, [victim], erase_map_fields=["lang"])

    # explicit field=value works for the same column
    res = erase_keys(lake, [victim], erase_map_fields=[f"repo={victim[0]}"])
    assert res["map_rows_removed"] >= 1


def test_compact_agglog(ray_session, small_wal, tmp_path):
    """Agg-log compaction: one file per day, aggregates identical after,
    crash-window double-reference harmless, and a second run is a no-op."""
    import glob as _glob
    import json as _json
    import os
    import shutil as _shutil

    from etl_ray.engine.aggregates import read_agg, recompute_days_from_agglog
    from etl_ray.engine.lineage import LakeLineage
    from etl_ray.engine.maintenance import compact_agglog

    lake = str(tmp_path / "lake")
    ReplayEngine(small_wal.wal_dir, lake, num_buckets=8, concurrency=2).replay_all(
        segments_per_tick=1
    )
    lin = LakeLineage(lake)

    def aggs():
        return {
            t: read_agg(lin, t)
            .to_pandas()
            .sort_values(["day", "lang" if t == "lang_daily_agg" else "repo"])
            .reset_index(drop=True)
            for t in ("lang_daily_agg", "repo_daily_agg")
        }

    before = aggs()
    days = sorted(before["lang_daily_agg"]["day"].unique())

    res = compact_agglog(lake)
    assert res["days"] == len(days)
    files = _glob.glob(os.path.join(lake, "_agglog", "t*.parquet"))
    assert len(files) == len(days)

    recompute_days_from_agglog(lin, set(days))
    after = aggs()
    for t in before:
        pd.testing.assert_frame_equal(before[t], after[t], check_dtype=False)

    # crash window: an old file surviving next to its replacement (cleanup
    # died mid-way) double-references rows — LSN dedup must absorb it
    f0 = sorted(files)[0]
    dup = f0.replace("-c", "-cdup")
    _shutil.copy(f0, dup)
    with open(f0[: -len(".parquet")] + ".json") as f:
        _json_idx = _json.load(f)
    with open(dup[: -len(".parquet")] + ".json", "w") as f:
        _json.dump(_json_idx, f)
    recompute_days_from_agglog(lin, set(days))
    assert aggs()["lang_daily_agg"].equals(after["lang_daily_agg"])
    # a re-run of compaction finishes the interrupted cleanup
    compact_agglog(lake)
    assert len(_glob.glob(os.path.join(lake, "_agglog", "t*.parquet"))) == len(days)
    recompute_days_from_agglog(lin, set(days))
    for t in before:
        pd.testing.assert_frame_equal(before[t], aggs()[t], check_dtype=False)


def test_compact_agglog_then_continue_replay(ray_session, small_wal, tmp_path):
    """A tick applied AFTER compaction (here: a forced redo of the last
    segments) re-adds its agg-log rows next to the compacted files; the
    per-day LSN dedup absorbs the overlap and aggregates stay identical to
    a never-compacted lake."""
    import glob as _glob
    import os

    from etl_ray.engine.aggregates import read_agg
    from etl_ray.engine.lineage import LakeLineage
    from etl_ray.engine.maintenance import compact_agglog

    def run(lake, compact_midway):
        eng = ReplayEngine(small_wal.wal_dir, lake, num_buckets=8, concurrency=2)
        eng.replay_all(segments_per_tick=1)
        if compact_midway:
            compact_agglog(lake)
        # roll the watermark back two segments → the next tick re-applies them
        last = eng.lineage.last_tick()
        eng.lineage.publish_tick(
            dict(last, tick=last["tick"] + 1, through_seqno=last["through_seqno"] - 2)
        )
        eng.tick()
        lin = LakeLineage(lake)
        return (
            read_agg(lin, "lang_daily_agg")
            .to_pandas()
            .sort_values(["day", "lang"])
            .reset_index(drop=True)
        )

    a = run(str(tmp_path / "compacted"), True)
    b = run(str(tmp_path / "control"), False)
    pd.testing.assert_frame_equal(a, b, check_dtype=False)


def test_compact_agglog_day_over_one_rowgroup(ray_session, small_wal, tmp_path):
    """ADVICE r3 (medium): a compacted day file larger than pyarrow's default
    ~1M-row row-group split must still be FULLY readable through its
    {day: 0} index — otherwise every row past the first group silently
    vanishes from the daily aggregates after `compact --agglog`."""
    import glob as _glob
    import json as _json
    import os

    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from etl_ray.engine.lineage import LakeLineage
    from etl_ray.engine.maintenance import compact_agglog

    lake = str(tmp_path / "lake")
    ReplayEngine(small_wal.wal_dir, lake, num_buckets=8, concurrency=2).replay_all()
    lin = LakeLineage(lake)

    # pick a real day and count its current log rows
    some_idx = sorted(_glob.glob(os.path.join(lake, "_agglog", "t*.json")))[0]
    with open(some_idx) as f:
        day = sorted(_json.load(f).keys())[0]
    # compaction dedups replayed duplicate LSNs — expect the UNIQUE count
    base_rows = len(
        {
            lsn
            for f, rg in lin.agglog_days_rgs({day})[day]
            for lsn in (
                pq.read_table(f) if rg < 0 else pq.ParquetFile(f).read_row_group(rg)
            )["lsn"].to_pylist()
        }
    )

    # synthesize a 1.2M-row single-row-group log part for that day with
    # fresh (non-duplicate) LSNs, matching the live schema
    schema = pq.read_schema(some_idx[: -len(".json")] + ".parquet")
    n = 1_200_000
    lsn0 = 10**9
    cols = {}
    for fld in schema:
        if fld.name == "lsn":
            cols[fld.name] = pa.array(
                np.arange(lsn0, lsn0 + n, dtype=np.int64)
            ).cast(fld.type)
        elif fld.name == "day":
            cols[fld.name] = pa.array([day] * n).cast(fld.type)
        elif pa.types.is_timestamp(fld.type):
            cols[fld.name] = pa.array(np.full(n, np.datetime64(day, "us"))).cast(fld.type)
        elif pa.types.is_integer(fld.type) or pa.types.is_floating(fld.type):
            cols[fld.name] = pa.array(np.ones(n, dtype=np.int64)).cast(fld.type)
        else:
            cols[fld.name] = pa.array(["x"] * n).cast(fld.type)
    big = pa.table(cols).cast(schema)
    bigp = os.path.join(lake, "_agglog", "t000999-bigday.parquet")
    pq.write_table(big, bigp, row_group_size=n)
    with open(bigp[: -len(".parquet")] + ".json", "w") as f:
        _json.dump({day: 0}, f)

    compact_agglog(lake)

    rgs = lin.agglog_days_rgs({day})[day]
    assert len(rgs) == 1 and rgs[0][1] == 0
    got = pq.ParquetFile(rgs[0][0]).read_row_group(0).num_rows
    assert got == base_rows + n, f"lost {base_rows + n - got} rows past rg 0"


def _agglog(lake: str):
    import glob as _glob
    import os

    import pyarrow as pa
    import pyarrow.parquet as pq

    files = sorted(_glob.glob(os.path.join(lake, "_agglog", "t*.parquet")))
    return pa.concat_tables(pq.read_table(f) for f in files)


def _daily(lake: str) -> dict:
    from etl_ray.engine.aggregates import read_agg
    from etl_ray.engine.lineage import LakeLineage

    lin = LakeLineage(lake)
    return {
        t: read_agg(lin, t).to_pandas().sort_values(["day", k]).reset_index(drop=True)
        for t, k in (("lang_daily_agg", "lang"), ("repo_daily_agg", "repo"))
    }


def test_erase_scrubs_agglog_and_recomputes_days(ray_session, small_wal, tmp_path):
    """GDPR: after ``erase_keys`` no agg-log row carries an erased key, and
    the daily aggregates at the lake's tz offset equal DuckDB over the WAL
    without those keys' events."""
    from etl_ray.oracle import expected_lang_daily, expected_repo_daily

    tz = 330
    lake = str(tmp_path / "lake")
    ReplayEngine(
        small_wal.wal_dir, lake, num_buckets=8, concurrency=2, tz_offset_minutes=tz
    ).replay_all(segments_per_tick=2)
    # the two keys with the most logged events: they sit on several days
    counts = (
        _agglog(lake).group_by(["repo", "path"]).aggregate([("lsn", "count")])
        .sort_by([("lsn_count", "descending"), ("repo", "ascending"),
                  ("path", "ascending")])
    )
    victims = list(zip(counts["repo"][:2].to_pylist(), counts["path"][:2].to_pylist()))
    assert counts["lsn_count"][0].as_py() > 1

    res = erase_keys(lake, victims)
    assert res["agglog_files_rewritten"] > 0 and res["days_recomputed"] > 0
    log = _agglog(lake)
    assert not set(zip(log["repo"].to_pylist(), log["path"].to_pylist())) & set(victims)

    got = _daily(lake)
    exp_l = expected_lang_daily(small_wal, tz, exclude_keys=victims).to_pandas()
    exp_r = expected_repo_daily(small_wal, tz, exclude_keys=victims).to_pandas()
    for t, exp in (("lang_daily_agg", exp_l), ("repo_daily_agg", exp_r)):
        pd.testing.assert_frame_equal(
            got[t][list(exp.columns)], exp, check_dtype=False
        )
    # the erasure is idempotent: a re-run finds nothing left to scrub
    again = erase_keys(lake, victims)
    assert again["agglog_files_rewritten"] == 0


def test_compact_agglog_does_not_grow_the_log(ray_session, small_wal, tmp_path):
    """Compaction writes through the log's one writer (sorted by
    ``commit_ts``, delta-encoded ``commit_ts``/``lsn``): ``_agglog/`` does
    not grow, and every day's recompute is unchanged."""
    import glob as _glob
    import os

    from etl_ray.engine.aggregates import recompute_days_from_agglog
    from etl_ray.engine.lineage import LakeLineage
    from etl_ray.engine.maintenance import compact_agglog

    def log_bytes() -> int:
        return sum(
            os.path.getsize(f) for f in _glob.glob(os.path.join(lake, "_agglog", "*"))
        )

    lake = str(tmp_path / "lake")
    ReplayEngine(small_wal.wal_dir, lake, num_buckets=8, concurrency=2).replay_all(
        segments_per_tick=1
    )
    before, size = _daily(lake), log_bytes()
    assert compact_agglog(lake)["days"] > 0
    assert log_bytes() <= size
    for f in _glob.glob(os.path.join(lake, "_agglog", "t*.parquet")):
        ts = _agglog_file_ts(f)
        assert ts == sorted(ts)
    recompute_days_from_agglog(LakeLineage(lake), set(before["lang_daily_agg"]["day"]))
    after = _daily(lake)
    for t in before:
        pd.testing.assert_frame_equal(before[t], after[t], check_dtype=False)


def _agglog_file_ts(path: str) -> list:
    import pyarrow.parquet as pq

    md = pq.ParquetFile(path).metadata
    for rg in range(md.num_row_groups):
        cols = {md.row_group(rg).column(i).path_in_schema: md.row_group(rg).column(i)
                for i in range(md.num_columns)}
        assert "DELTA_BINARY_PACKED" in cols["commit_ts"].encodings
        assert "DELTA_BINARY_PACKED" in cols["lsn"].encodings
    return pq.read_table(path, columns=["commit_ts"])["commit_ts"].to_pylist()
