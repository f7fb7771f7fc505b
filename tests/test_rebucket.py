"""Bucket-count evolution: rebucket preserves the exact live state, replay
continues against the new layout, a crashed attempt rolls back, and fold
state survives the move."""

from __future__ import annotations

import pandas as pd
import pytest

from etl_ray.engine import ReplayEngine
from etl_ray.engine.export import final_state
from etl_ray.engine.maintenance import rebucket


def _live_df(lake: str) -> pd.DataFrame:
    return (
        final_state(lake)
        .to_pandas()
        .sort_values(["repo", "path"])
        .reset_index(drop=True)
    )


@pytest.mark.parametrize("new_nb", [16, 5])
def test_rebucket_preserves_state_and_replay_continues(
    ray_session, small_wal, tmp_path, new_nb
):
    lake = str(tmp_path / "lake")
    eng = ReplayEngine(small_wal.wal_dir, lake, num_buckets=8, concurrency=2)
    eng.tick(max_segments=2)  # partial replay
    before = _live_df(lake)

    res = rebucket(lake, new_nb)
    assert res["num_buckets"] == new_nb
    pd.testing.assert_frame_equal(_live_df(lake), before)

    # a fresh engine adopts the new bucket count from lineage and the
    # remaining segments apply correctly against the moved state
    eng2 = ReplayEngine(small_wal.wal_dir, lake, num_buckets=8, concurrency=2)
    eng2.replay_all()
    assert eng2.num_buckets == new_nb
    ref = str(tmp_path / "ref")
    ReplayEngine(small_wal.wal_dir, ref, num_buckets=8, concurrency=2).replay_all()
    got = _live_df(lake)
    exp = _live_df(ref)
    pd.testing.assert_frame_equal(
        got[["repo", "path", "lsn", "content"]], exp[["repo", "path", "lsn", "content"]]
    )


def test_rebucket_crash_rolls_back(ray_session, small_wal, tmp_path, crash_at):
    lake = str(tmp_path / "lake")
    eng = ReplayEngine(small_wal.wal_dir, lake, num_buckets=8, concurrency=2)
    eng.replay_all()
    before = _live_df(lake)
    tick_before = eng.lineage.last_tick()

    with crash_at("manifest.bucket", after=3):  # half-published layout
        with pytest.raises(RuntimeError, match="injected crash"):
            rebucket(lake, 16)

    # recovery (run by any maintenance op / tick start) restores the old
    # layout exactly; a subsequent clean rebucket then succeeds
    assert eng.lineage.recover() is True
    assert eng.lineage.last_tick() == tick_before
    pd.testing.assert_frame_equal(_live_df(lake), before)

    rebucket(lake, 16)
    pd.testing.assert_frame_equal(_live_df(lake), before)


def test_rebucket_preserves_folds(ray_session, small_wal, tmp_path):
    """Fold metrics must stay exact across a mid-replay rebucket: the
    per-bucket LSN tails are unioned into the new buckets, so replay
    duplicates straddling the rebucket still dedupe exactly."""
    from etl_ray.engine.folds import DEFAULT_FOLDS
    from tests.test_folds import FOLD_COLS, duckdb_fold_oracle

    lake = str(tmp_path / "lake")
    kw = dict(num_buckets=8, concurrency=2, folds=DEFAULT_FOLDS, aggregate=False)
    eng = ReplayEngine(small_wal.wal_dir, lake, **kw)
    eng.tick(max_segments=2)
    rebucket(lake, 16)
    ReplayEngine(small_wal.wal_dir, lake, **kw).replay_all(segments_per_tick=1)

    got = _live_df(lake)[["repo", "path", *FOLD_COLS]].astype(
        {c: "int64" for c in FOLD_COLS}
    )
    exp = duckdb_fold_oracle(small_wal)
    pd.testing.assert_frame_equal(got, exp, check_dtype=False)


def test_rebucket_no_phantom_partition_column(ray_session, small_wal, tmp_path):
    """Reading buckets/b=*/ state files must not hive-infer the directory
    into a phantom `b` column — pre-fix, rebucket baked the OLD bucket id
    (as a string) into every rewritten state file."""
    import glob

    import pyarrow.parquet as pq

    lake = str(tmp_path / "lake")
    ReplayEngine(small_wal.wal_dir, lake, num_buckets=8, concurrency=2).replay_all()
    rebucket(lake, 12)
    for f in glob.glob(f"{lake}/buckets/b=*/state-*.parquet"):
        names = pq.read_schema(f).names
        assert "b" not in names, f
    # exports are clean too
    from etl_ray.engine.export import final_state

    assert "b" not in final_state(lake).schema().names
