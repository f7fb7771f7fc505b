"""Targeted erasure (GDPR-delete analog) and derivative snapshots."""

from __future__ import annotations

import pandas as pd
import pytest

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


def _day_slots(lake: str) -> list:
    """Each readable (part, row group) of the agg log, as its UTC day."""
    from etl_ray.engine import ticklog

    return sorted(k for p in ticklog.parts(lake, ticklog.AGGLOG) for k in p["keys"])


def test_compact_agglog(ray_session, small_wal, tmp_path):
    """Agg-log compaction: each day in exactly one row group of one part,
    aggregates identical after, an old part surviving its replacement
    harmless, and a second run removes it."""
    import os
    import shutil as _shutil

    from etl_ray.engine import ticklog
    from etl_ray.engine.aggregates import read_agg, recompute_days_from_agglog
    from etl_ray.engine.lineage import LakeLineage

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
    old = ticklog.parts(lake, ticklog.AGGLOG)[0]["file"]
    saved = str(tmp_path / "old.parquet")
    _shutil.copy(old, saved)

    res = ticklog.compact(lake, ticklog.AGGLOG)
    assert res["keys"] == len(days)
    assert _day_slots(lake) == days
    assert not os.path.exists(old)

    recompute_days_from_agglog(lin, set(days))
    after = aggs()
    for t in before:
        pd.testing.assert_frame_equal(before[t], after[t], check_dtype=False)

    # crash window: an old part surviving next to its replacement (cleanup
    # died mid-way) — the replacement's footer hides it from every read
    _shutil.copy(saved, old)
    assert _day_slots(lake) == days
    recompute_days_from_agglog(lin, set(days))
    assert aggs()["lang_daily_agg"].equals(after["lang_daily_agg"])
    # a re-run of compaction finishes the interrupted cleanup
    ticklog.compact(lake, ticklog.AGGLOG)
    assert not os.path.exists(old)
    assert _day_slots(lake) == days
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

    from etl_ray.engine import ticklog
    from etl_ray.engine.aggregates import read_agg
    from etl_ray.engine.lineage import LakeLineage

    def run(lake, compact_midway):
        eng = ReplayEngine(small_wal.wal_dir, lake, num_buckets=8, concurrency=2)
        eng.replay_all(segments_per_tick=1)
        if compact_midway:
            ticklog.compact(lake, ticklog.AGGLOG)
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
    """ADVICE r3 (medium): a compacted day larger than pyarrow's default
    ~1M-row row-group split must still be FULLY readable through its
    one-row-group index entry — otherwise every row past the first group
    silently vanishes from the daily aggregates after `compact --agglog`."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from etl_ray.engine import ticklog
    from etl_ray.engine.lineage import LakeLineage

    lake = str(tmp_path / "lake")
    ReplayEngine(small_wal.wal_dir, lake, num_buckets=8, concurrency=2).replay_all()
    lin = LakeLineage(lake)

    # pick a real day and count its current log rows
    day = _day_slots(lake)[0]
    day_parts = ticklog.parts(lake, ticklog.AGGLOG, {day})
    # compaction dedups replayed duplicate LSNs — expect the UNIQUE count
    base_rows = len(
        {
            lsn
            for p in day_parts
            for lsn in pq.ParquetFile(p["file"]).read_row_groups(p["rgs"])[
                "lsn"
            ].to_pylist()
        }
    )

    # synthesize a 1.2M-row single-row-group log part for that day with
    # fresh (non-duplicate) LSNs, matching the live schema
    schema = pq.read_schema(day_parts[0]["file"]).remove_metadata()
    n = 1_200_000
    lsn0 = 10**9
    cols = {}
    for fld in schema:
        if fld.name == "lsn":
            cols[fld.name] = pa.array(
                np.arange(lsn0, lsn0 + n, dtype=np.int64)
            ).cast(fld.type)
        elif pa.types.is_timestamp(fld.type):
            cols[fld.name] = pa.array(np.full(n, np.datetime64(day, "us"))).cast(fld.type)
        elif pa.types.is_integer(fld.type) or pa.types.is_floating(fld.type):
            cols[fld.name] = pa.array(np.ones(n, dtype=np.int64)).cast(fld.type)
        else:
            cols[fld.name] = pa.array(["x"] * n).cast(fld.type)
    big = pa.table(cols).cast(schema)
    tick = lin.last_tick()["tick"]
    ticklog.write(lake, ticklog.AGGLOG, tick, "bigday", big, pa.repeat(day, n))

    ticklog.compact(lake, ticklog.AGGLOG)

    (p,) = ticklog.parts(lake, ticklog.AGGLOG, {day})
    assert len(p["rgs"]) == 1
    got = pq.ParquetFile(p["file"]).metadata.row_group(p["rgs"][0]).num_rows
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
    assert res["agglog_rows_purged"] > 0 and res["days_recomputed"] > 0
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
    assert again["agglog_rows_purged"] == 0


def test_compact_agglog_does_not_grow_the_log(ray_session, small_wal, tmp_path):
    """Compaction writes through the log's one writer (sorted by
    ``commit_ts``, delta-encoded ``commit_ts``/``lsn``): ``_agglog/`` does
    not grow, and every day's recompute is unchanged."""
    import glob as _glob
    import os

    from etl_ray.engine import ticklog
    from etl_ray.engine.aggregates import recompute_days_from_agglog
    from etl_ray.engine.lineage import LakeLineage

    def log_bytes() -> int:
        return sum(
            os.path.getsize(f) for f in _glob.glob(os.path.join(lake, "_agglog", "*"))
        )

    lake = str(tmp_path / "lake")
    ReplayEngine(small_wal.wal_dir, lake, num_buckets=8, concurrency=2).replay_all(
        segments_per_tick=1
    )
    before, size = _daily(lake), log_bytes()
    assert ticklog.compact(lake, ticklog.AGGLOG)["keys"] > 0
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


def test_maintenance_refuses_a_crashed_replay_tick(ray_session, tmp_path):
    """A replay tick that crashed after publishing some bucket manifests
    owns the next tick id: erase, rebucket and compaction refuse to commit
    over it (and write nothing) until the next replay tick redoes it. Then
    the erasure runs, and the feed holds every change row once."""
    import os

    import pyarrow.parquet as pq
    import pytest

    from etl_ray.engine.changelog import committed_changelog_parts
    from etl_ray.engine.lineage import LakeLineage
    from etl_ray.engine.maintenance import compact_tombstones, rebucket
    from etl_ray.wal import generate_wal

    wal = generate_wal(
        str(tmp_path / "wal"), seed=3, n_events=6_000, n_repos=10,
        paths_per_repo=60, malform_rate=0.05, segment_rows=1_500,
        content_min=16, content_max=64,
    )
    lake = str(tmp_path / "lake")
    kw = dict(num_buckets=4, concurrency=2, emit_changelog=True)
    ReplayEngine(wal.wal_dir, lake, **kw).tick(2)
    with pytest.raises(RuntimeError, match="injected crash"):
        ReplayEngine(wal.wal_dir, lake, fail_after_buckets=2, **kw).tick(1)
    lin = LakeLineage(lake)
    last = lin.last_tick()["tick"]
    assert any(m["tick"] > last for m in lin.all_bucket_manifests())

    key = tuple(_live_df(lake)[["repo", "path"]].iloc[0])
    before = sorted(os.listdir(os.path.join(lake, "_manifests")))
    for op in (
        lambda: erase_keys(lake, [key]),
        lambda: rebucket(lake, 8),
        lambda: compact_tombstones(lake),
    ):
        with pytest.raises(RuntimeError, match="run the next replay tick first"):
            op()
    assert lin.last_tick()["tick"] == last
    assert sorted(os.listdir(os.path.join(lake, "_manifests"))) == before

    ReplayEngine(wal.wal_dir, lake, **kw).tick(1)  # the redo commits
    assert erase_keys(lake, [key])["erased"] == 1
    ReplayEngine(wal.wal_dir, lake, **kw).replay_all()
    feed = pd.concat(
        pq.ParquetFile(p["file"]).read_row_groups(p["rgs"]).to_pandas()
        for p in committed_changelog_parts(lake)
    )
    changes = feed[feed["change_op"] != "erase"]
    assert not changes.duplicated(["repo", "path", "lsn"]).any()
    live = _live_df(lake)
    assert not ((live["repo"] == key[0]) & (live["path"] == key[1])).any()


def _log_rows(lake: str, log) -> pd.DataFrame:
    import pyarrow.parquet as pq

    from etl_ray.engine import ticklog

    return pd.concat(
        pq.ParquetFile(p["file"]).read_row_groups(p["rgs"]).to_pandas()
        for p in ticklog.parts(lake, log)
    )


@pytest.mark.parametrize("stop", ["crash_before_publish", "quality_gate"])
def test_maintenance_drops_a_replay_attempt_that_published_nothing(
    ray_session, tmp_path, stop
):
    """A replay attempt that stopped before its first bucket-manifest
    publish — a crash at ``fail_after_buckets=0`` or a failing mandatory
    quality check — has written its tick's feed, agg-log and quarantine
    parts. Maintenance drops them and goes on (a failing check does not
    hold up an erasure); after the redo the feed holds every change row
    once and the quarantine every malformed row once."""
    import os

    from etl_ray.engine import ticklog
    from etl_ray.engine.lineage import LakeLineage
    from etl_ray.engine.maintenance import rebucket
    from etl_ray.engine.quality import CheckSpec, DataQualityError
    from etl_ray.engine.replay import tick_spill_dir
    from etl_ray.wal import generate_wal

    wal = generate_wal(
        str(tmp_path / "wal"), seed=3, n_events=6_000, n_repos=10,
        paths_per_repo=60, malform_rate=0.05, segment_rows=1_500,
        content_min=16, content_max=64,
    )
    lake = str(tmp_path / "lake")
    kw = dict(num_buckets=4, concurrency=2, emit_changelog=True)
    ReplayEngine(wal.wal_dir, lake, **kw).tick(2)
    if stop == "quality_gate":
        fail = CheckSpec("always_fails", lambda ctx: [{"why": "test"}])
        with pytest.raises(DataQualityError):
            ReplayEngine(wal.wal_dir, lake, checks=[fail], **kw).tick(1)
    else:
        with pytest.raises(RuntimeError, match="injected crash"):
            ReplayEngine(wal.wal_dir, lake, fail_after_buckets=0, **kw).tick(1)
    lin = LakeLineage(lake)
    last = lin.last_tick()["tick"]
    assert os.path.isdir(tick_spill_dir(lake, last + 1))
    assert ticklog.rows(lake, ticklog.QUARANTINE, last + 1) > 0

    rebucket(lake, 8)
    assert lin.last_tick()["tick"] == last + 1
    assert ticklog.rows(lake, ticklog.QUARANTINE, last + 1) == 0
    ReplayEngine(wal.wal_dir, lake, **kw).replay_all()

    ref = str(tmp_path / "ref")  # the same ticks, nothing stopped
    ReplayEngine(wal.wal_dir, ref, **kw).tick(2)
    ReplayEngine(wal.wal_dir, ref, **kw).replay_all()
    feed = _log_rows(lake, ticklog.FEED)
    assert not feed.duplicated(["repo", "path", "lsn"]).any()
    assert len(feed) == len(_log_rows(ref, ticklog.FEED))
    assert len(_log_rows(lake, ticklog.QUARANTINE)) == len(
        _log_rows(ref, ticklog.QUARANTINE)
    )
    assert _live_df(lake).equals(_live_df(ref))
