"""Per-key state-fold metrics (user_history_formula analog): the applier's
LSN-ordered, prior-state-dependent fold must match a DuckDB window fold over
the whole WAL — single-tick AND multi-tick (warm + cold appliers), with
replay duplicates straddling tick boundaries deduped exactly by the
bounded-lateness LSN tail."""

from __future__ import annotations

import shutil

import duckdb
import pandas as pd
import pytest

from etl_ray.engine import ReplayEngine
from etl_ray.engine.export import final_state
from etl_ray.engine.folds import DEFAULT_FOLDS

FOLD_COLS = ["change_count", "days_active", "last_day", "reactivations"]


def duckdb_fold_oracle(wal, gap_days: int = 7) -> pd.DataFrame:
    """Full-history window fold over the WAL (live keys only): the
    independent truth for change_count/days_active/last_day/reactivations."""
    files = ", ".join(f"'{f}'" for f in wal.segment_files)
    con = duckdb.connect()
    df = con.execute(
        f"""
        WITH uniq AS (
            SELECT * FROM (SELECT *, row_number() OVER (
                PARTITION BY lsn ORDER BY lsn) rn
            FROM read_parquet([{files}], union_by_name=true)) WHERE rn = 1),
        e AS (SELECT repo, path, lsn,
                     epoch_us(commit_ts) // 86400000000 AS day_num,
                     (op = 'delete') AS del FROM uniq),
        w AS (SELECT *, lag(day_num) OVER (
                  PARTITION BY repo, path ORDER BY lsn) AS lag_day FROM e)
        SELECT repo, path,
          CAST(COUNT(*) AS BIGINT) AS change_count,
          CAST(COUNT(DISTINCT day_num) AS BIGINT) AS days_active,
          CAST(MAX(day_num) AS BIGINT) AS last_day,
          CAST(COALESCE(SUM(CASE WHEN day_num - lag_day > {gap_days}
                            THEN 1 ELSE 0 END), 0) AS BIGINT) AS reactivations
        FROM w GROUP BY repo, path
        HAVING first(del ORDER BY lsn DESC) = false
        ORDER BY repo, path
        """
    ).df()
    con.close()
    return df.reset_index(drop=True)


def _fold_df(lake: str) -> pd.DataFrame:
    df = (
        final_state(lake)
        .to_pandas()
        .sort_values(["repo", "path"])
        .reset_index(drop=True)
    )
    return df[["repo", "path", *FOLD_COLS]].astype(
        {c: "int64" for c in FOLD_COLS}
    )


@pytest.mark.parametrize("mode", ["single_tick", "multi_tick_warm", "multi_tick_cold"])
def test_folds_match_duckdb_window_fold(ray_session, small_wal, tmp_path, mode):
    lake = str(tmp_path / "lake")
    shutil.rmtree(lake, ignore_errors=True)
    eng = ReplayEngine(
        small_wal.wal_dir,
        lake,
        num_buckets=8,
        concurrency=2,
        folds=DEFAULT_FOLDS,
        aggregate=False,
    )
    if mode == "multi_tick_cold":
        # a new engine every tick: nothing carries over but the lake
        while eng.tick(1) is not None:
            eng = ReplayEngine(
                small_wal.wal_dir, lake, num_buckets=8, concurrency=2,
                folds=DEFAULT_FOLDS, aggregate=False,
            )
    else:
        eng.replay_all(segments_per_tick=None if mode == "single_tick" else 1)
    got = _fold_df(lake)
    exp = duckdb_fold_oracle(small_wal)
    pd.testing.assert_frame_equal(got, exp, check_dtype=False, obj=mode)


def test_fold_replay_is_noop(ray_session, small_wal, tmp_path):
    """Re-running the fully-applied log must not double-fold (watermark
    no-op — the anti-join-idempotency analog for fold state)."""
    lake = str(tmp_path / "lake")
    eng = ReplayEngine(
        small_wal.wal_dir, lake, num_buckets=8, concurrency=2,
        folds=DEFAULT_FOLDS, aggregate=False,
    )
    eng.replay_all(segments_per_tick=2)
    before = _fold_df(lake)
    eng2 = ReplayEngine(
        small_wal.wal_dir, lake, num_buckets=8, concurrency=2,
        folds=DEFAULT_FOLDS, aggregate=False,
    )
    assert eng2.tick() is None
    pd.testing.assert_frame_equal(before, _fold_df(lake))


def test_fold_crash_mid_commit_then_resume(ray_session, small_wal, tmp_path, crash_at):
    """Crash after SOME bucket manifests publish, before the tick commit:
    the re-run re-applies the same deltas — the fold tail (pruned only to
    the previous COMMITTED watermark) must make the re-fold a no-op for
    published buckets and a fresh fold for unpublished ones, landing
    exactly on the DuckDB window fold."""
    lake = str(tmp_path / "lake")
    eng = ReplayEngine(
        small_wal.wal_dir, lake, num_buckets=8, concurrency=2,
        folds=DEFAULT_FOLDS, aggregate=False,
    )
    assert eng.tick(max_segments=2) is not None  # committed base

    crash = ReplayEngine(
        small_wal.wal_dir, lake, num_buckets=8, concurrency=2,
        folds=DEFAULT_FOLDS, aggregate=False,
    )
    with crash_at("manifest.bucket", after=3):
        with pytest.raises(RuntimeError, match="injected crash"):
            crash.tick()

    heal = ReplayEngine(
        small_wal.wal_dir, lake, num_buckets=8, concurrency=2,
        folds=DEFAULT_FOLDS, aggregate=False,
    )
    heal.replay_all()
    pd.testing.assert_frame_equal(
        _fold_df(lake), duckdb_fold_oracle(small_wal), check_dtype=False
    )


def test_fold_state_survives_erasure_tick(ray_session, small_wal, tmp_path):
    """An erase mini-tick (run without fold config) must not drop the fold
    LSN-tail sidecar references; folds stay exact for un-erased keys
    through erase → continued replay."""
    from etl_ray.engine.maintenance import erase_keys

    lake = str(tmp_path / "lake")
    kw = dict(num_buckets=8, concurrency=2, folds=DEFAULT_FOLDS, aggregate=False)
    eng = ReplayEngine(small_wal.wal_dir, lake, **kw)
    eng.tick(max_segments=3)

    live = _fold_df(lake)
    victims = [tuple(r) for r in live[["repo", "path"]].head(5).to_numpy()]
    erase_keys(lake, victims)
    # tail references survive the erasure tick
    assert any(
        m.get("fold_file") for m in eng.lineage.all_bucket_manifests()
    )

    ReplayEngine(small_wal.wal_dir, lake, **kw).replay_all(segments_per_tick=1)
    got = _fold_df(lake)
    exp = duckdb_fold_oracle(small_wal)
    gone = set(victims)
    # erased keys may be tombstoned or legitimately re-created later; compare
    # the keys never touched by the erasure
    got = got[~got.apply(lambda r: (r["repo"], r["path"]) in gone, axis=1)]
    exp = exp[~exp.apply(lambda r: (r["repo"], r["path"]) in gone, axis=1)]
    pd.testing.assert_frame_equal(
        got.reset_index(drop=True), exp.reset_index(drop=True), check_dtype=False
    )
