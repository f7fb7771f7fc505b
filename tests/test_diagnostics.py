"""Skew report (engine/diagnostics.py): bucket stats from manifests, hot-repo
top-k vs a pandas recompute, recommendations fire on a planted hot key."""

from __future__ import annotations

from etl_ray.engine import ReplayEngine
from etl_ray.engine.diagnostics import skew_report
from etl_ray.engine.export import final_state


def test_skew_report_matches_state(ray_session, small_wal, tmp_path):
    lake = str(tmp_path / "lake")
    ReplayEngine(small_wal.wal_dir, lake, num_buckets=8, concurrency=2).replay_all()
    rep = skew_report(lake, top_k=5)
    state = final_state(lake).to_pandas()

    assert rep["buckets"] == 8
    assert rep["live_rows"] == len(state)
    assert rep["bucket_rows_min"] <= rep["bucket_rows_median"] <= rep["bucket_rows_max"]

    exp = state.groupby("repo").size().sort_values(ascending=False)
    got = rep["top_repos"]
    assert len(got) == 5
    # counts must match the recompute; ties may order differently
    assert [g["live_rows"] for g in got] == exp.head(5).tolist()
    assert got[0]["repo"] == exp.index[0] or exp[got[0]["repo"]] == exp.iloc[0]
    assert 0 < rep["hottest_repo_fraction"] < 1


def test_skew_recommendations_fire_on_hot_key(ray_session, tmp_path):
    """A single dominant key produces bucket imbalance > 2x and the
    rebucket recommendation."""
    from etl_ray.wal import generate_wal

    wal = generate_wal(
        str(tmp_path / "wal"),
        seed=5,
        n_events=20_000,
        n_repos=1,
        paths_per_repo=3,  # few keys in 8 buckets → guaranteed imbalance
        delete_rate=0.0,
        segment_rows=20_000,
        days_span=2,
    )
    lake = str(tmp_path / "lake")
    ReplayEngine(wal.wal_dir, lake, num_buckets=8, concurrency=2).replay_all()
    rep = skew_report(lake, top_k=1)
    assert rep["imbalance_max_over_mean"] > 2.0
    assert rep["hottest_repo_fraction"] == 1.0
    assert rep["recommendations"], "expected a rebucket recommendation"
    assert "rebucket" in rep["recommendations"][0]
