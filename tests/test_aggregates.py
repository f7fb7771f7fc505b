"""Rolling daily aggregates vs the DuckDB oracle, incl. incremental
per-changed-day recomputation across ticks (the D-2/D-1/D0 heal analog)."""

from __future__ import annotations

import os
import shutil

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


def _recompute_all_days(lake: str, wal, tz_offset_minutes: int = 0) -> None:
    """Aggregate every day of the log from the lake's agg log alone (what a
    day that only aggregate-off ticks touched waits for)."""
    from etl_ray.engine.aggregates import days_of_segments, recompute_days_from_agglog

    recompute_days_from_agglog(
        LakeLineage(lake), days_of_segments(wal.segments, tz_offset_minutes),
        tz_offset_minutes=tz_offset_minutes,
    )


def test_aggregates_wal_fallback_path(ray_session, small_wal, tmp_path):
    """A lake replayed with aggregates off writes no day partition but
    keeps the agg log; recomputing every day from that log gives the
    oracle's aggregates."""
    lake = str(tmp_path / "lake")
    ReplayEngine(
        small_wal.wal_dir, lake, num_buckets=8, concurrency=2, aggregate=False
    ).replay_all()
    assert not LakeLineage(lake).agg_day_files("lang_daily_agg")
    _recompute_all_days(lake, small_wal)
    _check_aggs(lake, small_wal)


def test_aggregates_local_day_boundary(ray_session, small_wal, tmp_path):
    """Engine-side local-day aggregation (reference closes partitions on the
    app's LOCAL midnight, lib/utils.py:59-62): a +330-minute table offset
    must match the DuckDB oracle's `+ INTERVAL 330 MINUTE` day derivation —
    per tick during replay, on demand after an aggregate-off replay, and on
    demand over a log whose first half was replayed at offset 0 (the log is
    indexed by UTC day, so re-daying needs no rewrite) — and the two day
    sets must actually differ from UTC."""
    off = 330  # IST-like: guaranteed to move events across midnight
    exp = expected_lang_daily(small_wal, tz_offset_minutes=off).to_pandas()
    assert set(exp["day"]) != set(
        expected_lang_daily(small_wal).to_pandas()["day"]
    ) or len(exp) != len(expected_lang_daily(small_wal).to_pandas())

    half = len(small_wal.segments) // 2
    for tag in ("agglog", "aggregate-off", "mixed"):
        lake = str(tmp_path / f"lake-{tag}")
        if tag == "mixed":
            ReplayEngine(
                small_wal.wal_dir, lake, num_buckets=8, concurrency=2
            ).tick(half)
        eng = ReplayEngine(
            small_wal.wal_dir, lake, num_buckets=8, concurrency=2,
            tz_offset_minutes=off, aggregate=(tag != "aggregate-off"),
        )
        eng.replay_all(segments_per_tick=2)
        if tag == "mixed":
            # drop the first half's UTC-day partitions, then re-day the
            # whole log at 330
            shutil.rmtree(os.path.join(lake, "_aggs"))
        if tag != "agglog":
            _recompute_all_days(lake, small_wal, off)
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
    counter row per day."""
    import ray

    from etl_ray.engine.aggregates import days_of_segments, recompute_days_from_agglog
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

    # spy: record the rows every driver-side fetch of task results holds
    # (the recompute's plain tasks each return a list of counter rows)
    seen: list[int] = []
    orig = ray.get

    def spy(refs, *a, **k):
        parts = orig(refs, *a, **k)
        seen.append(sum(len(p) for p in parts))
        return parts

    days = days_of_segments(wal.segments)
    with monkeypatch.context() as m:
        m.setattr(ray, "get", spy)
        recompute_days_from_agglog(lin, days)
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


def test_agglog_recompute_multi_chunk(ray_session, tmp_path, monkeypatch):
    """More days than cluster CPUs: the agg-log recompute cuts the days into
    one contiguous chunk per CPU, each reduced in one multi-day pass. The
    result matches the DuckDB oracle, reports one counter per day, and an
    all-delete day inside a multi-day chunk still gets both partition files
    (lang_daily empty, string key columns)."""
    import os

    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq
    import ray
    import ray.data as rd

    from etl_ray.engine import partitioning
    from etl_ray.engine.aggregates import days_of_segments, recompute_days_from_agglog
    from etl_ray.wal import WalInfo, generate_wal

    wal = generate_wal(
        str(tmp_path / "wal"), seed=5, n_events=3_000, n_repos=12,
        paths_per_repo=40, dup_rate=0.03, delete_rate=0.05, ooo_window=50,
        evolve_at_frac=0.5, segment_rows=1_500, content_min=16,
        content_max=64, days_span=9,
    )
    # one more segment: five deletes of existing keys, all on the day after
    # the log's last day — a day with events but no live row
    last = wal.segments[-1]
    day_us = 86_400_000_000
    del_day_us = (last["max_ts_us"] // day_us + 1) * day_us
    t = pq.read_table(last["file"]).slice(0, 5)
    lsn0 = max(s["max_lsn"] for s in wal.segments) + 1
    t = t.set_column(t.schema.get_field_index("op"), "op", pa.array(["delete"] * 5))
    t = t.set_column(
        t.schema.get_field_index("lsn"), "lsn",
        pa.array(range(lsn0, lsn0 + 5), pa.int64()),
    )
    t = t.set_column(
        t.schema.get_field_index("commit_ts"), "commit_ts",
        pa.array([del_day_us + 3_600_000_000 + i for i in range(5)], pa.timestamp("us")),
    )
    for c in ("commit", "lang", "content"):
        t = t.set_column(t.schema.get_field_index(c), c, pa.nulls(5, t.schema.field(c).type))
    seq = last["seqno"] + 1
    f = os.path.join(wal.wal_dir, f"seg-{seq:08d}.parquet")
    pq.write_table(t, f)
    wal.segments.append({
        **last, "file": f, "seqno": seq, "min_lsn": lsn0, "max_lsn": lsn0 + 4,
        "rows": 5, "min_ts_us": del_day_us + 3_600_000_000,
        "max_ts_us": del_day_us + 3_600_000_004,
    })
    wal.save()
    wal = WalInfo.load(wal.wal_dir)
    del_day = pd.Timestamp(del_day_us, unit="us").strftime("%Y-%m-%d")

    lake = str(tmp_path / "lake")
    ReplayEngine(wal.wal_dir, lake, num_buckets=4, concurrency=2).replay_all()
    lin = LakeLineage(lake)
    days = days_of_segments(wal.segments)
    cpus = int(ray.cluster_resources()["CPU"])
    # ≥ 2 days per chunk: the all-delete (last) day shares its chunk
    assert del_day in days and len(days) >= 2 * cpus

    # recompute every day from the agg log alone, recording the task count:
    # one plain task per chunk, no Ray Data pipeline
    for name in ("lang_daily_agg", "repo_daily_agg"):
        for p in lin.agg_day_files(name):
            os.remove(p)
    tasks: list[int] = []
    orig = partitioning.cpu_chunks

    def spy(items, *a, **k):
        chunks = orig(items, *a, **k)
        tasks.append(len(chunks))
        return chunks

    def no_pipeline(*a, **k):
        raise AssertionError("the recompute started a Ray Data pipeline")

    monkeypatch.setattr(partitioning, "cpu_chunks", spy)
    monkeypatch.setattr(rd, "from_items", no_pipeline)
    res = recompute_days_from_agglog(lin, days)
    assert tasks == [min(len(days), cpus)]
    assert res["days"] == len(days)
    _check_aggs(lake, wal)

    paths = {
        name: lin.agg_day_path(name, del_day)
        for name in ("lang_daily_agg", "repo_daily_agg")
    }
    lang = pq.read_table(paths["lang_daily_agg"])
    assert lang.num_rows == 0
    assert lang.schema.field("day").type == pa.string()
    assert lang.schema.field("lang").type == pa.string()
    repo = pq.read_table(paths["repo_daily_agg"])
    assert repo.schema.field("repo").type == pa.string()
    assert pc.sum(repo["deletes"]).as_py() == 5
    assert pc.sum(repo["upserts"]).as_py() == 0


def _small_log(path, seed: int):
    from etl_ray.wal import generate_wal

    return generate_wal(
        str(path), seed=seed, n_events=6_000, n_repos=10, paths_per_repo=60,
        dup_rate=0.03, delete_rate=0.05, ooo_window=100, evolve_at_frac=0.5,
        segment_rows=1_000, content_min=16, content_max=64, days_span=6,
    )


def _lang_daily(lake: str) -> pd.DataFrame:
    return (
        read_agg(LakeLineage(lake), "lang_daily_agg")
        .to_pandas()
        .sort_values(["day", "lang"])
        .reset_index(drop=True)
    )


def test_agglog_keeps_stage1_enrichment(ray_session, tmp_path):
    """The daily aggregates count what stage 1 enriched — here the lang a
    versioned ext map assigns — whether or not earlier ticks aggregated:
    lake A aggregates every tick, lake B skips the recompute on its first
    (two-segment) tick only. Both show the dim's lang, agree on every day B
    computed, and B leaves a day only its aggregate-off tick touched
    uncomputed."""
    import json

    from etl_ray.engine.aggregates import days_of_segments

    wal = _small_log(tmp_path / "wal", seed=7)
    ext = tmp_path / "ext.json"
    ext.write_text(json.dumps({"py": "snake"}))

    def replay(lake: str, first_tick_aggregates: bool) -> pd.DataFrame:
        kw = dict(num_buckets=4, concurrency=2, ext_map_path=str(ext))
        ReplayEngine(
            wal.wal_dir, lake, aggregate=first_tick_aggregates, **kw
        ).tick(2)
        ReplayEngine(wal.wal_dir, lake, **kw).replay_all(segments_per_tick=1)
        return _lang_daily(lake)

    a = replay(str(tmp_path / "a"), True)
    b = replay(str(tmp_path / "b"), False)
    assert "snake" in set(a["lang"]) and "snake" in set(b["lang"])
    assert "python" not in set(a["lang"]) | set(b["lang"])
    first_only = days_of_segments(wal.segments[:2]) - days_of_segments(wal.segments[2:])
    assert first_only and set(b["day"]) == set(a["day"]) - first_only
    pd.testing.assert_frame_equal(
        a[~a["day"].isin(first_only)].reset_index(drop=True), b
    )


def test_tick_reads_no_history(ray_session, tmp_path, monkeypatch):
    """A tick reads neither the WAL segments earlier ticks processed nor the
    tick-manifest history: with those segment files moved away, the tick
    after a tz-offset change and the tick after an aggregate-off tick both
    recompute their days from the agg log and match the oracle (which reads
    a copy of the log, bounded to the tick's segment prefix)."""
    import dataclasses

    from etl_ray.engine.aggregates import days_of_segments
    from etl_ray.engine.replay import ReplayEngine as Engine

    wal = _small_log(tmp_path / "wal", seed=3)
    copy_dir = tmp_path / "oracle_copy"
    aside = tmp_path / "aside"
    copy_dir.mkdir()
    aside.mkdir()
    for s in wal.segments:
        shutil.copy(s["file"], copy_dir)

    def oracle_days(through: int, off: int) -> tuple[pd.DataFrame, set[str]]:
        segs = [
            {**s, "file": str(copy_dir / os.path.basename(s["file"]))}
            for s in wal.segments
            if s["seqno"] <= through
        ]
        exp = expected_lang_daily(dataclasses.replace(wal, segments=segs), off)
        days = days_of_segments(segs[-1:], off)
        return exp.to_pandas().pipe(lambda e: e[e["day"].isin(days)]), days

    def move_processed(lake: str) -> None:
        through = LakeLineage(lake).last_tick()["through_seqno"]
        for s in wal.segments:
            if s["seqno"] <= through and os.path.exists(s["file"]):
                shutil.move(s["file"], aside / os.path.basename(s["file"]))

    in_tick = []
    history_reads = []
    orig_tick = Engine.tick
    orig_all = LakeLineage.all_ticks

    def tick(self, *a, **k):
        in_tick.append(1)
        try:
            return orig_tick(self, *a, **k)
        finally:
            in_tick.pop()

    def all_ticks(self):
        if in_tick:
            history_reads.append(1)
        return orig_all(self)

    monkeypatch.setattr(Engine, "tick", tick)
    monkeypatch.setattr(LakeLineage, "all_ticks", all_ticks)

    lake = str(tmp_path / "lake")
    kw = dict(num_buckets=4, concurrency=2)
    eng = ReplayEngine(wal.wal_dir, lake, **kw)
    eng.tick(1)
    eng.tick(1)
    move_processed(lake)

    def check(r, off: int) -> None:
        exp, days = oracle_days(LakeLineage(lake).last_tick()["through_seqno"], off)
        got = _lang_daily(lake)
        got = got[got["day"].isin(days)].reset_index(drop=True)
        assert r is not None and len(got) > 0
        pd.testing.assert_frame_equal(
            got[list(exp.columns)], exp.reset_index(drop=True), check_dtype=False
        )

    # a tz-offset change: the next tick re-days from the log, no rewrite
    check(ReplayEngine(wal.wal_dir, lake, tz_offset_minutes=330, **kw).tick(1), 330)
    move_processed(lake)
    # an aggregate-off tick, then an aggregating one
    ReplayEngine(
        wal.wal_dir, lake, tz_offset_minutes=330, aggregate=False, **kw
    ).tick(1)
    move_processed(lake)
    check(ReplayEngine(wal.wal_dir, lake, tz_offset_minutes=330, **kw).tick(1), 330)
    assert not history_reads, "ReplayEngine.tick read the tick-manifest history"


def test_recompute_aggs_cli_reads_the_log(ray_session, small_wal, tmp_path, capsys):
    """``recompute-aggs --day D`` after an aggregate-off replay computes day
    D from the lake's agg log alone (no WAL argument) and matches the
    oracle."""
    import json

    from etl_ray.__main__ import main
    from etl_ray.engine.aggregates import days_of_segments

    lake = str(tmp_path / "lake")
    ReplayEngine(
        small_wal.wal_dir, lake, num_buckets=8, concurrency=2, aggregate=False
    ).replay_all()
    day = sorted(days_of_segments(small_wal.segments))[1]
    assert main(["recompute-aggs", "--lake", lake, "--day", day]) == 0
    assert json.loads(capsys.readouterr().out.strip().splitlines()[-1])["days"] == 1
    got = _lang_daily(lake)
    exp = expected_lang_daily(small_wal).to_pandas()
    assert set(got["day"]) == {day}
    pd.testing.assert_frame_equal(
        got[list(exp.columns)],
        exp[exp["day"] == day].reset_index(drop=True),
        check_dtype=False,
    )
