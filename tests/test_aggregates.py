"""Rolling daily aggregates vs the DuckDB oracle, incl. incremental
per-changed-day recomputation across ticks (the D-2/D-1/D0 heal analog)."""

from __future__ import annotations

import pandas as pd

from etl_ray.engine import ReplayEngine
from etl_ray.engine.aggregates import read_agg
from etl_ray.engine.lineage import LakeLineage
from etl_ray.oracle import expected_lang_daily, expected_repo_daily


def _check_aggs(lake: str, wal):
    lineage = LakeLineage(lake)
    got_l = (
        read_agg(lineage, "lang_daily_agg")
        .to_pandas()
        .sort_values(["day", "lang"])
        .reset_index(drop=True)
    )
    exp_l = expected_lang_daily(wal).to_pandas().reset_index(drop=True)
    pd.testing.assert_frame_equal(
        got_l[["day", "lang", "files_changed", "bytes", "distinct_repos"]],
        exp_l,
        check_dtype=False,
    )
    assert (got_l["max_file_bytes"] > 0).all()  # MetricSpec plugin column

    got_r = (
        read_agg(lineage, "repo_daily_agg")
        .to_pandas()
        .sort_values(["day", "repo"])
        .reset_index(drop=True)
    )
    exp_r = expected_repo_daily(wal).to_pandas().reset_index(drop=True)
    pd.testing.assert_frame_equal(
        got_r[["day", "repo", "events", "upserts", "deletes", "distinct_paths"]],
        exp_r,
        check_dtype=False,
    )


def test_aggregates_single_tick(ray_session, small_wal, tmp_path):
    lake = str(tmp_path / "lake")
    ReplayEngine(small_wal.wal_dir, lake, num_buckets=8, concurrency=2).replay_all()
    _check_aggs(lake, small_wal)


def test_aggregates_incremental_multi_tick(ray_session, small_wal, tmp_path):
    """Per-tick recomputation of only the touched days must converge to the
    same result as a single-shot aggregation (late data heals)."""
    lake = str(tmp_path / "lake")
    eng = ReplayEngine(small_wal.wal_dir, lake, num_buckets=8, concurrency=2)
    res = eng.replay_all(segments_per_tick=2)
    assert len(res) >= 2
    _check_aggs(lake, small_wal)


def _rescan_all_days(lake: str, wal, tz_offset_minutes: int = 0) -> None:
    """Aggregate every day of the log with the WAL-rescan recompute path
    (the fallback for ticks the agg log does not cover)."""
    from etl_ray.engine.aggregates import days_of_segments, recompute_days

    recompute_days(
        wal, LakeLineage(lake), days_of_segments(wal.segments, tz_offset_minutes),
        wal.segments[-1]["seqno"], tz_offset_minutes=tz_offset_minutes,
    )


def test_aggregates_wal_fallback_path(ray_session, small_wal, tmp_path):
    """The WAL-rescan recompute path, run over the days of a lake replayed
    with aggregates off, produces the same aggregates as the agg log."""
    lake = str(tmp_path / "lake")
    ReplayEngine(
        small_wal.wal_dir, lake, num_buckets=8, concurrency=2, aggregate=False
    ).replay_all()
    assert not LakeLineage(lake).agg_day_files("lang_daily_agg")
    _rescan_all_days(lake, small_wal)
    _check_aggs(lake, small_wal)


def test_aggregates_local_day_boundary(ray_session, small_wal, tmp_path):
    """Engine-side local-day aggregation (reference closes partitions on the
    app's LOCAL midnight, lib/utils.py:59-62): a +330-minute table offset
    must match the DuckDB oracle's `+ INTERVAL 330 MINUTE` day derivation —
    on BOTH the agg-log fast path (multi-tick spill) and the WAL-rescan
    fallback, and the two day sets must actually differ from UTC."""
    off = 330  # IST-like: guaranteed to move events across midnight
    exp = expected_lang_daily(small_wal, tz_offset_minutes=off).to_pandas()
    assert set(exp["day"]) != set(
        expected_lang_daily(small_wal).to_pandas()["day"]
    ) or len(exp) != len(expected_lang_daily(small_wal).to_pandas())

    for tag in ("agglog", "rescan"):
        lake = str(tmp_path / f"lake-{tag}")
        eng = ReplayEngine(
            small_wal.wal_dir, lake, num_buckets=8, concurrency=2,
            tz_offset_minutes=off, aggregate=(tag == "agglog"),
        )
        eng.replay_all(segments_per_tick=2)
        if tag == "rescan":
            _rescan_all_days(lake, small_wal, off)
        got = (
            read_agg(LakeLineage(lake), "lang_daily_agg")
            .to_pandas()
            .sort_values(["day", "lang"])
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(
            got[["day", "lang", "files_changed", "bytes", "distinct_repos"]],
            exp.reset_index(drop=True),
            check_dtype=False,
            obj=tag,
        )


def test_day_closer_local_midnight():
    """DayPartitionCloser with a tz offset keys days on LOCAL midnight: an
    event at 23:30 local lands in the local day that started 23.5h earlier,
    and the closable deadline is local midnight end + lateness."""
    from etl_ray.engine.watermark import US_PER_DAY, US_PER_HOUR, DayPartitionCloser

    off_min = 330
    off_us = off_min * 60_000_000
    c = DayPartitionCloser(close_after_us=US_PER_HOUR, tz_offset_minutes=off_min)
    # UTC instant whose LOCAL time is day 10, 23:30
    ts = 10 * US_PER_DAY + 23 * US_PER_HOUR + 30 * 60_000_000 - off_us
    c.observe(ts, now_us=ts)
    [day] = c.open_days
    assert day == 10 * US_PER_DAY - off_us  # UTC instant of local day start
    # watermark 30min past local midnight: not closable (lateness 1h)
    late1 = ts + 60 * 60_000_000
    c.observe(late1, now_us=late1)
    assert c.closable(late1) == []
    # an arrival 2.5h past local midnight: the trailing-window min (the
    # watermark) passes deadline = local midnight + 1h → closable
    late2 = ts + 3 * US_PER_HOUR
    c.observe(late2, now_us=late2)
    assert c.closable(late2) == [day]


def test_high_repo_cardinality_no_driver_funnel(ray_session, tmp_path, monkeypatch):
    """VERDICT r3 #2: with repos ≈ events, the aggregate recompute must not
    funnel (day × lang × repo)-grain data through the driver — per-day tasks
    write their own partition files and the driver materializes only one
    counter row per day (both the agg-log and the WAL-rescan paths)."""
    import ray.data as rd

    from etl_ray.engine.aggregates import (
        days_of_segments,
        recompute_days,
        recompute_days_from_agglog,
    )
    from etl_ray.oracle import expected_repo_daily
    from etl_ray.wal import generate_wal

    wal = generate_wal(
        str(tmp_path / "wal_hc"),
        seed=11,
        n_events=4_000,
        n_repos=2_000,  # repos ≈ events: repo_daily grain ≈ corpus grain
        paths_per_repo=3,
        dup_rate=0.0,
        delete_rate=0.03,
        ooo_window=100,
        evolve_at_frac=0.5,
        segment_rows=2_000,
        content_min=16,
        content_max=64,
        days_span=4,
    )
    lake = str(tmp_path / "lake_hc")
    eng = ReplayEngine(wal.wal_dir, lake, num_buckets=8, concurrency=2)
    eng.replay_all()
    lin = LakeLineage(lake)

    exp = expected_repo_daily(wal).to_pandas()
    got = read_agg(lin, "repo_daily_agg").to_pandas()
    key = ["day", "repo"]
    pd.testing.assert_frame_equal(
        got.sort_values(key).reset_index(drop=True)[exp.columns],
        exp.sort_values(key).reset_index(drop=True),
        check_dtype=False,
    )

    # spy: record every driver-side materialization's row count
    seen: list[int] = []
    orig = rd.Dataset.to_pandas

    def spy(self, *a, **k):
        df = orig(self, *a, **k)
        seen.append(len(df))
        return df

    monkeypatch.setattr(rd.Dataset, "to_pandas", spy)
    days = days_of_segments(wal.segments)
    recompute_days_from_agglog(lin, days)
    recompute_days(wal, lin, days, wal.segments[-1]["seqno"])
    assert seen, "recompute paths must have run"
    assert max(seen) <= len(days), (
        f"driver materialized {max(seen)} rows; counters only "
        f"(≤ {len(days)} day rows) allowed"
    )
    # and the rewritten partitions still match the oracle exactly
    got2 = read_agg(lin, "repo_daily_agg").to_pandas()
    pd.testing.assert_frame_equal(
        got2.sort_values(key).reset_index(drop=True)[exp.columns],
        exp.sort_values(key).reset_index(drop=True),
        check_dtype=False,
    )


def test_read_agg_with_empty_day(tmp_path):
    """A day whose events are all deletes writes an empty lang_daily
    partition; read_agg and counts_by_day must read it next to the other
    days (empty partitions keep the fixed partition schema)."""
    from etl_ray.engine.aggregates import (
        _day_intermediate,
        _day_tables,
        _write_day_partitions,
        counts_by_day,
    )
    from etl_ray.engine.metrics import DEFAULT_METRICS

    lin = LakeLineage(str(tmp_path / "lake"))
    days = {
        "2024-01-01": ["upsert", "upsert", "delete"],
        "2024-01-02": ["delete", "delete"],  # no live row: empty lang_daily
    }
    lsn = 0
    for day, ops in days.items():
        g = pd.DataFrame(
            {
                "day": day,
                "lang": "python",
                "repo": ["r1", "r2", "r1"][: len(ops)],
                "path": [f"p{i}.py" for i in range(len(ops))],
                "op": ops,
                "lsn": range(lsn, lsn + len(ops)),
                "nbytes": 10,
            }
        )
        lsn += len(ops)
        inter = _day_intermediate(g, DEFAULT_METRICS)
        _write_day_partitions(lin, day, *_day_tables(inter, DEFAULT_METRICS))

    lang = read_agg(lin, "lang_daily_agg")
    assert lang["day"].to_pylist() == ["2024-01-01"]
    assert lang.schema.field("lang").type == "string"
    assert counts_by_day(lin, "lang_daily_agg") == {"2024-01-01": 1}
    assert counts_by_day(lin, "repo_daily_agg") == {"2024-01-01": 2, "2024-01-02": 2}
