"""Multi-table lakes (``engine/tables.py``): N logical tables through one
replay loop — per-table commits, cross-table crash/resume, and the
incrementally-maintained ``repo_stats`` view vs a DuckDB oracle."""

from __future__ import annotations

import glob
import json
import os

import duckdb
import pandas as pd
import pytest

from etl_ray.engine.lineage import LakeLineage
from etl_ray.engine.tables import (
    MultiTableLake,
    TableSpec,
    load_config,
    spec_from_config,
)


def _second_wal(tmp_path_factory):
    from etl_ray.wal import generate_wal

    d = tmp_path_factory.mktemp("wal_b")
    return generate_wal(
        str(d),
        seed=31,
        n_events=6_000,
        n_repos=12,
        paths_per_repo=80,
        dup_rate=0.02,
        delete_rate=0.05,
        ooo_window=300,
        evolve_at_frac=0.5,
        segment_rows=1_500,
        content_min=32,
        content_max=256,
        days_span=5,
    )


@pytest.fixture(scope="module")
def wal_b(tmp_path_factory):
    return _second_wal(tmp_path_factory)


def _oracle_repo_stats(wal, n_segments: int | None = None) -> pd.DataFrame:
    """DuckDB truth over the first ``n_segments`` segments (default: all)."""
    segs = wal.segments[:n_segments]
    files = ", ".join(f"'{s['file']}'" for s in segs)
    has_size = any(s.get("has_size_bytes") for s in segs)
    size_expr = "CAST(size_bytes AS BIGINT)" if has_size else "CAST(NULL AS BIGINT)"
    sql = f"""
        SELECT repo,
               CAST(COUNT(*) AS BIGINT) AS live_files,
               CAST(COALESCE(SUM(sz), 0) AS BIGINT) AS total_bytes,
               CAST(MAX(lsn) AS BIGINT) AS last_lsn
        FROM (
            SELECT repo, path, lsn, {size_expr} AS sz, op,
                   row_number() OVER (PARTITION BY repo, path
                                      ORDER BY lsn DESC) AS rn
            FROM read_parquet([{files}], union_by_name=true)
        )
        WHERE rn = 1 AND op <> 'delete'
        GROUP BY repo ORDER BY repo
    """
    return duckdb.sql(sql).df()


def _view_df(lake: MultiTableLake, name: str) -> pd.DataFrame:
    return (
        lake.read_view(name)
        .to_pandas()
        .sort_values("repo")
        .reset_index(drop=True)
        .astype({"live_files": "int64", "total_bytes": "int64", "last_lsn": "int64"})
    )


def test_two_base_tables_one_loop(ray_session, small_wal, wal_b, tmp_path):
    """Two base tables with different specs replay through one loop; each
    table's final state matches its own oracle; per-table lineage is
    independent."""
    from etl_ray.oracle import expected_final_state

    lake = MultiTableLake(
        str(tmp_path / "ml"),
        [
            TableSpec(name="repo_files", wal_dir=small_wal.wal_dir, num_buckets=8),
            TableSpec(
                name="sessions", wal_dir=wal_b.wal_dir, num_buckets=4,
                tz_offset_minutes=330,
            ),
        ],
    )
    rounds = lake.replay_all(segments_per_tick=2)
    assert rounds, "no progress made"

    from etl_ray.engine.export import final_state

    for name, wal in (("repo_files", small_wal), ("sessions", wal_b)):
        got = (
            final_state(lake.table_dir(name))
            .to_pandas()
            .sort_values(["repo", "path"])
            .reset_index(drop=True)
        )
        exp = (
            expected_final_state(wal)
            .to_pandas()
            .sort_values(["repo", "path"])
            .reset_index(drop=True)
        )
        assert len(got) == len(exp)
        pd.testing.assert_frame_equal(
            got[["repo", "path", "commit", "lsn"]], exp[["repo", "path", "commit", "lsn"]]
        )
    st = lake.status()
    assert st["repo_files"]["live_rows"] > 0
    assert st["sessions"]["live_rows"] > 0
    # per-table lineage: independent tick counters and bucket layouts
    assert LakeLineage(lake.table_dir("repo_files")).last_tick()["num_buckets"] == 8
    assert LakeLineage(lake.table_dir("sessions")).last_tick()["num_buckets"] == 4


def test_view_matches_oracle_and_is_incremental(ray_session, small_wal, tmp_path):
    """repo_stats view: equals the DuckDB LWW-fold oracle after full replay,
    and a refresh after one more tick touches ONLY the buckets whose
    manifests advanced."""
    lake = MultiTableLake(
        str(tmp_path / "ml"),
        [
            TableSpec(name="repo_files", wal_dir=small_wal.wal_dir, num_buckets=8),
            TableSpec(name="repo_stats", view="repo_stats", source="repo_files"),
        ],
    )
    # first pass: all but the last segment
    n_segs = len(small_wal.segments)
    eng = lake.engine("repo_files")
    eng.tick(n_segs - 1)
    r1 = lake.tick()  # repo_files consumes the final segment; view refreshes
    assert r1["repo_files"] is not None
    assert r1["repo_stats"]["buckets"] > 0

    got = _view_df(lake, "repo_stats")
    exp = _oracle_repo_stats(small_wal)
    pd.testing.assert_frame_equal(got, exp.reset_index(drop=True), check_dtype=False)

    # incremental: another refresh with no upstream progress is a no-op
    r2 = lake.tick()
    assert r2["repo_files"] is None and r2["repo_stats"] is None


def test_repo_stats_before_size_bytes_arrives(ray_session, small_wal, tmp_path):
    """repo_stats reads (total_bytes = its default 0) while the upstream has
    only ticked segments from before the size_bytes schema evolution."""
    pre = 0
    while not small_wal.segments[pre].get("has_size_bytes"):
        pre += 1
    assert pre > 0, "fixture must have pre-evolution segments"
    lake = MultiTableLake(
        str(tmp_path / "ml"),
        [
            TableSpec(name="repo_files", wal_dir=small_wal.wal_dir, num_buckets=8),
            TableSpec(name="repo_stats", view="repo_stats", source="repo_files"),
        ],
    )
    lake.tick(pre)
    got = _view_df(lake, "repo_stats")
    assert len(got) and (got["total_bytes"] == 0).all()
    exp = _oracle_repo_stats(small_wal, pre)
    pd.testing.assert_frame_equal(got, exp.reset_index(drop=True), check_dtype=False)


def test_view_refresh_touches_only_advanced_buckets(ray_session, small_wal, tmp_path):
    lake = MultiTableLake(
        str(tmp_path / "ml"),
        [
            TableSpec(name="repo_files", wal_dir=small_wal.wal_dir, num_buckets=8),
            TableSpec(name="repo_stats", view="repo_stats", source="repo_files"),
        ],
    )
    eng = lake.engine("repo_files")
    eng.tick(len(small_wal.segments) - 1)
    from etl_ray.engine.tables import refresh_repo_stats

    up_dir, v_dir = lake.table_dir("repo_files"), lake.table_dir("repo_stats")
    refresh_repo_stats(up_dir, v_dir)
    applied = json.load(open(os.path.join(v_dir, "_view.json")))["upstream_tick"]

    eng.tick()  # last segment
    advanced = [
        m["bucket"]
        for m in LakeLineage(up_dir).all_bucket_manifests()
        if m["tick"] > applied
    ]
    res = refresh_repo_stats(up_dir, v_dir)
    assert res["buckets"] == len(advanced) < 8 or len(advanced) == 8
    got = _view_df(lake, "repo_stats")
    exp = _oracle_repo_stats(small_wal)
    pd.testing.assert_frame_equal(got, exp.reset_index(drop=True), check_dtype=False)


def test_crash_commits_table_a_not_b_then_resume(ray_session, small_wal, wal_b, tmp_path):
    """A tick that commits table A but crashes in table B leaves A committed
    and B at its previous tick; the rerun no-ops A and completes B."""
    lake = MultiTableLake(
        str(tmp_path / "ml"),
        [
            TableSpec(name="a", wal_dir=small_wal.wal_dir, num_buckets=8),
            TableSpec(name="b", wal_dir=wal_b.wal_dir, num_buckets=4),
        ],
    )
    lake.engine("b").fail_after_buckets = 0  # crash before B's first publish
    with pytest.raises(RuntimeError, match="injected crash"):
        lake.tick()
    assert LakeLineage(lake.table_dir("a")).last_tick()["tick"] == 0
    assert LakeLineage(lake.table_dir("b")).last_tick() is None

    lake.engine("b").fail_after_buckets = None
    r = lake.tick()
    assert r["a"] is None, "table A must be a watermark no-op on the rerun"
    assert r["b"] is not None and r["b"].tick == 0

    # full drain: both tables reach their final oracle rows
    lake.replay_all()
    from etl_ray.oracle import expected_final_state

    for name, wal in (("a", small_wal), ("b", wal_b)):
        lin = LakeLineage(lake.table_dir(name))
        live = sum(m["live_rows"] for m in lin.all_bucket_manifests())
        assert live == expected_final_state(wal).num_rows


def test_view_crash_before_manifest_recovers(ray_session, small_wal, tmp_path):
    """Partials written but _view.json not published → the rerun recomputes
    the same buckets idempotently and the view converges."""
    lake = MultiTableLake(
        str(tmp_path / "ml"),
        [
            TableSpec(name="repo_files", wal_dir=small_wal.wal_dir, num_buckets=8),
            TableSpec(name="repo_stats", view="repo_stats", source="repo_files"),
        ],
    )
    lake.engine("repo_files").replay_all()
    v_dir = lake.table_dir("repo_stats")
    r = lake.tick()
    assert r["repo_stats"]["buckets"] == 8
    # simulate the crash: drop the manifest (partials stay), refresh again
    os.remove(os.path.join(v_dir, "_view.json"))
    r2 = lake.tick()
    assert r2["repo_stats"]["buckets"] == 8  # full redo, same result
    got = _view_df(lake, "repo_stats")
    exp = _oracle_repo_stats(small_wal)
    pd.testing.assert_frame_equal(got, exp.reset_index(drop=True), check_dtype=False)


def test_config_file_and_cli_surface(ray_session, small_wal, tmp_path):
    cfgp = tmp_path / "tables.json"
    cfgp.write_text(
        json.dumps(
            {
                "tables": [
                    {"name": "repo_files", "wal": small_wal.wal_dir, "buckets": 4},
                    {"name": "repo_stats", "view": "repo_stats", "source": "repo_files"},
                ]
            }
        )
    )
    specs = load_config(str(cfgp))
    assert [s.name for s in specs] == ["repo_files", "repo_stats"]
    lake = MultiTableLake(str(tmp_path / "ml"), specs)
    lake.replay_all()
    st = lake.status()
    assert st["repo_files"]["live_rows"] > 0
    assert st["repo_stats"]["upstream_tick"] == LakeLineage(
        lake.table_dir("repo_files")
    ).last_tick()["tick"]
    assert st["repo_stats"]["partial_files"] == 4
    # registry file exists for ops tooling
    reg = json.load(open(os.path.join(str(tmp_path / "ml"), "_tables.json")))
    assert [t["name"] for t in reg["tables"]] == ["repo_files", "repo_stats"]

    # the erase / export CLI handlers, driven through main()
    import io
    from contextlib import redirect_stdout

    from etl_ray.__main__ import main

    out_dir = str(tmp_path / "view_out")
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = main(
            [
                "tables-export", "--lake", str(tmp_path / "ml"),
                "--config", str(cfgp), "--table", "repo_stats",
                "--out", out_dir,
            ]
        )
    assert not rc
    res = json.loads(buf.getvalue().strip().splitlines()[-1])
    assert res["rows"] == len(_view_df(lake, "repo_stats"))
    victim = _view_df(lake, "repo_stats").iloc[0]["repo"]
    import pyarrow.parquet as pq

    any_path = (
        pq.read_table(lake.table_dir("repo_files") + "/buckets", columns=["repo", "path"])
    )
    import pyarrow.compute as pc

    path = any_path.filter(pc.equal(any_path["repo"], victim))["path"][0].as_py()
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = main(
            [
                "tables-erase", "--lake", str(tmp_path / "ml"),
                "--config", str(cfgp), "--key", f"{victim}:{path}",
            ]
        )
    assert not rc
    res = json.loads(buf.getvalue().strip().splitlines()[-1])
    assert res["repo_files"]["erased"] == 1
    assert "repo_stats" in res, "the view must refresh after the erase"


def test_main_is_embedding_safe(ray_session, small_wal, tmp_path):
    """Regression (round-4 verdict): ``main()`` must not shut down a Ray
    runtime it did not start.  Call it twice in-process, then run a real
    engine tick in the same process — the session Ray must survive."""
    import ray

    from etl_ray.__main__ import main

    cfgp = tmp_path / "tables.json"
    cfgp.write_text(
        json.dumps(
            {"tables": [{"name": "repo_files", "wal": small_wal.wal_dir, "buckets": 4}]}
        )
    )
    lake = MultiTableLake(str(tmp_path / "ml"), load_config(str(cfgp)))
    lake.replay_all()

    import io
    from contextlib import redirect_stdout

    for _ in range(2):
        buf = io.StringIO()
        with redirect_stdout(buf):
            rc = main(["tables-status", "--lake", str(tmp_path / "ml"), "--config", str(cfgp)])
        assert not rc
        assert ray.is_initialized(), "main() tore down the host's Ray session"

    # a genuine engine tick after the embedded calls must still work
    lake2 = MultiTableLake(str(tmp_path / "ml2"), load_config(str(cfgp)))
    lake2.replay_all()
    assert lake2.status()["repo_files"]["live_rows"] > 0


def test_spec_validation():
    with pytest.raises(ValueError, match="needs wal_dir"):
        TableSpec(name="x").validate()
    with pytest.raises(ValueError, match="unknown view kind"):
        TableSpec(name="x", view="nope", source="y").validate()
    with pytest.raises(ValueError, match="needs a source"):
        TableSpec(name="x", view="repo_stats").validate()
    with pytest.raises(ValueError, match="duplicate"):
        MultiTableLake(
            "/tmp/etl_ray_spec_dup",
            [
                TableSpec(name="x", wal_dir="/w"),
                TableSpec(name="x", wal_dir="/w"),
            ],
        )
    with pytest.raises(ValueError, match="sources unknown"):
        MultiTableLake(
            "/tmp/etl_ray_spec_dup",
            [TableSpec(name="v", view="repo_stats", source="ghost")],
        )
    assert spec_from_config({"name": "t", "wal": "/w", "folds": True}).folds


def test_view_survives_upstream_rebucket(ray_session, small_wal, tmp_path):
    """After an upstream rebucket the view drops orphan partials and
    recomputes from the new layout — values unchanged."""
    lake = MultiTableLake(
        str(tmp_path / "ml"),
        [
            TableSpec(name="repo_files", wal_dir=small_wal.wal_dir, num_buckets=8),
            TableSpec(name="repo_stats", view="repo_stats", source="repo_files"),
        ],
    )
    lake.replay_all()
    before = _view_df(lake, "repo_stats")

    from etl_ray.engine.maintenance import rebucket

    rebucket(lake.table_dir("repo_files"), 5)
    r = lake.tick()
    assert r["repo_stats"]["buckets"] == 5
    files = glob.glob(os.path.join(lake.table_dir("repo_stats"), "partials", "b=*.parquet"))
    assert len(files) == 5, "orphan partials must be dropped"
    pd.testing.assert_frame_equal(_view_df(lake, "repo_stats"), before)


def test_delta_mode_table_with_view(ray_session, small_wal, tmp_path):
    """A delta-mode base table in a multi-table lake: oracle-green state,
    delta files on disk, and the repo_stats view (whose partials read the
    upstream state) folds base+delta chains correctly."""
    from etl_ray.engine.export import final_state
    from etl_ray.oracle import expected_final_state

    lake = MultiTableLake(
        str(tmp_path / "ml"),
        [
            # threshold > tick count so the delta chain survives the replay
            # (threshold compaction itself is covered in test_delta_state.py)
            TableSpec(
                name="repo_files", wal_dir=small_wal.wal_dir, num_buckets=8,
                state_mode="delta", delta_threshold=8,
            ),
            TableSpec(name="repo_stats", view="repo_stats", source="repo_files"),
        ],
    )
    lake.replay_all(segments_per_tick=1)
    tdir = lake.table_dir("repo_files")
    assert glob.glob(os.path.join(tdir, "buckets", "b=*", "*.delta.parquet")), (
        "delta-mode table must append deltas"
    )
    got = (
        final_state(tdir, with_sha=True)
        .to_pandas()
        .sort_values(["repo", "path"])
        .reset_index(drop=True)
    )
    exp = expected_final_state(small_wal).to_pandas()
    assert (got["content_sha256"].to_numpy() == exp["content_sha256"].to_numpy()).all()
    pd.testing.assert_frame_equal(
        _view_df(lake, "repo_stats"),
        _oracle_repo_stats(small_wal).reset_index(drop=True),
        check_dtype=False,
    )
    # spec plumbing: config round-trip + invalid combinations refused
    s = spec_from_config(
        {"name": "t", "wal": "/w", "state_mode": "delta", "delta_threshold": 3}
    )
    assert s.state_mode == "delta" and s.delta_threshold == 3
    with pytest.raises(ValueError, match="rewrite|delta"):
        TableSpec(name="x", wal_dir="/w", state_mode="nope").validate()
    # time travel + delta compose (as-of reads fold the chain prefix)
    TableSpec(name="x", wal_dir="/w", state_mode="delta", retain_ticks=2).validate()


def _growing_wal_view(src_wal, view_dir: str):
    """A WAL dir whose manifest can be advanced segment by segment; segment
    files are shared with the source WAL (absolute paths)."""
    from etl_ray.wal import WalInfo

    os.makedirs(view_dir, exist_ok=True)

    def through(k: int) -> None:
        WalInfo(
            wal_dir=view_dir,
            n_events=sum(s["rows"] for s in src_wal.segments[:k]),
            n_base_events=src_wal.n_base_events,
            evolve_lsn=src_wal.evolve_lsn,
            segments=src_wal.segments[:k],
            params=None,
        ).save()

    return through


def test_multi_table_follow_consumes_both_wals(
    ray_session, small_wal, wal_b, tmp_path
):
    """Live tail across N tables: one follow() loop drains two growing WAL
    manifests and keeps the derived view current with its source."""
    import threading
    import time

    a_through = _growing_wal_view(small_wal, str(tmp_path / "wa"))
    b_through = _growing_wal_view(wal_b, str(tmp_path / "wb"))
    a_total, b_total = len(small_wal.segments), len(wal_b.segments)
    a_through(2)
    b_through(1)
    lake = MultiTableLake(
        str(tmp_path / "ml"),
        [
            TableSpec(name="repo_files", wal_dir=str(tmp_path / "wa"), num_buckets=8),
            TableSpec(name="sessions", wal_dir=str(tmp_path / "wb"), num_buckets=4),
            TableSpec(name="repo_stats", view="repo_stats", source="repo_files"),
        ],
    )
    rounds: list = []

    def run():
        rounds.extend(lake.follow(poll_interval_s=0.2, idle_timeout_s=6.0))

    t = threading.Thread(target=run)
    t.start()
    for k in range(2, max(a_total, b_total) + 1):  # seal one more per beat
        time.sleep(0.8)
        a_through(min(k + 1, a_total))
        b_through(min(k, b_total))
    t.join(timeout=180)
    assert not t.is_alive()
    assert len(rounds) >= 2, "growth must arrive across multiple polls"
    segs = {
        n: sum(
            r[n].segments for r in rounds if r[n] is not None and not isinstance(r[n], dict)
        )
        for n in ("repo_files", "sessions")
    }
    assert segs == {"repo_files": a_total, "sessions": b_total}
    from etl_ray.engine.export import final_state
    from etl_ray.oracle import expected_final_state

    for name, wal in (("repo_files", small_wal), ("sessions", wal_b)):
        got = (
            final_state(lake.table_dir(name), with_sha=True)
            .to_pandas()
            .sort_values(["repo", "path"])
            .reset_index(drop=True)
        )
        exp = expected_final_state(wal).to_pandas()
        assert (
            got["content_sha256"].to_numpy() == exp["content_sha256"].to_numpy()
        ).all(), name
    # the view followed its source to the last committed upstream tick
    pd.testing.assert_frame_equal(
        _view_df(lake, "repo_stats"),
        _oracle_repo_stats(small_wal).reset_index(drop=True),
        check_dtype=False,
    )


def test_multi_table_follow_deadline_aborts_between_rounds(
    ray_session, small_wal, tmp_path
):
    """A ~0 budget stops after the FIRST productive round: every table stays
    at its committed tick, the abort lands in the lake-level ops trail, and
    a rerun resumes from the watermark."""
    from etl_ray.engine.replay import DeadlineExceededError

    lake = MultiTableLake(
        str(tmp_path / "ml"),
        [
            TableSpec(name="repo_files", wal_dir=small_wal.wal_dir, num_buckets=8),
            TableSpec(name="repo_stats", view="repo_stats", source="repo_files"),
        ],
    )
    with pytest.raises(DeadlineExceededError, match="committed tick"):
        lake.follow(segments_per_tick=1, deadline_minutes=1e-9, idle_timeout_s=2.0)
    st = lake.status()
    assert st["repo_files"]["tick"] == 0, "exactly one committed round"
    events = [
        json.loads(ln)
        for ln in open(os.path.join(str(tmp_path / "ml"), "_events.jsonl"))
    ]
    assert any(e["kind"] == "deadline_exceeded" for e in events)
    # rerun resumes: remaining segments drain, state converges
    lake2 = MultiTableLake(str(tmp_path / "ml"), lake.specs)
    lake2.replay_all(segments_per_tick=None)
    assert lake2.status()["repo_files"]["tick"] >= 1


def test_multi_table_erase_scrubs_state_and_views(
    ray_session, small_wal, wal_b, tmp_path
):
    """Lake-wide GDPR erasure: the subject vanishes from the targeted base
    table AND its derived view; an untargeted table keeps its tick."""
    from etl_ray.engine.export import final_state

    lake = MultiTableLake(
        str(tmp_path / "ml"),
        [
            TableSpec(name="repo_files", wal_dir=small_wal.wal_dir, num_buckets=8),
            TableSpec(name="sessions", wal_dir=wal_b.wal_dir, num_buckets=4),
            TableSpec(name="repo_stats", view="repo_stats", source="repo_files"),
        ],
    )
    lake.replay_all()
    df = (
        final_state(lake.table_dir("repo_files"))
        .to_pandas()
        .sort_values(["repo", "path"])
    )
    victim_repo = df.iloc[0]["repo"]
    victims = [
        (r.repo, r.path) for r in df[df["repo"] == victim_repo].itertuples()
    ]
    view_before = _view_df(lake, "repo_stats")
    assert victim_repo in set(view_before["repo"])
    sessions_tick = LakeLineage(lake.table_dir("sessions")).last_tick()["tick"]

    res = lake.erase(victims, tables=["repo_files"])
    assert "repo_files" in res and "repo_stats" in res and "sessions" not in res

    cur = final_state(lake.table_dir("repo_files")).to_pandas()
    assert not (cur["repo"] == victim_repo).any()
    view_after = _view_df(lake, "repo_stats")
    assert victim_repo not in set(view_after["repo"]), "view retained the subject"
    pd.testing.assert_frame_equal(
        view_after,
        view_before[view_before["repo"] != victim_repo].reset_index(drop=True),
    )
    assert (
        LakeLineage(lake.table_dir("sessions")).last_tick()["tick"] == sessions_tick
    ), "untargeted table must be untouched"
    with pytest.raises(ValueError, match="not base tables"):
        lake.erase(victims, tables=["repo_stats"])


def test_follow_tolerates_one_locked_table(ray_session, small_wal, wal_b, tmp_path):
    """A maintenance op holding ONE table's writer lock must not discard the
    other tables' committed results or stall the tail."""
    from etl_ray.engine.lock import writer_lock

    lake = MultiTableLake(
        str(tmp_path / "ml"),
        [
            TableSpec(name="a", wal_dir=small_wal.wal_dir, num_buckets=8),
            TableSpec(name="b", wal_dir=wal_b.wal_dir, num_buckets=4),
        ],
    )
    with writer_lock(lake.table_dir("b"), "test-maintenance"):
        rounds = lake.follow(
            poll_interval_s=0.1, idle_timeout_s=1.0, segments_per_tick=2
        )
    # table A drained while B was locked; A's results were kept
    assert rounds, "A's committed rounds must be recorded"
    assert all(r["b"] is None for r in rounds)
    a_segs = sum(r["a"].segments for r in rounds if r["a"] is not None)
    assert a_segs == len(small_wal.segments)
    assert LakeLineage(lake.table_dir("b")).last_tick() is None
    # the lock released: the next replay drains B
    lake.replay_all()
    assert LakeLineage(lake.table_dir("b")).last_tick() is not None


def test_batch_replay_deadline_and_alert_callback(ray_session, small_wal, tmp_path):
    """replay_all honors the wall-clock budget too (not only follow), and a
    BARE callable on_event is accepted — both with the engine's payload
    schema for the deadline_exceeded event."""
    from etl_ray.engine.replay import DeadlineExceededError

    lake = MultiTableLake(
        str(tmp_path / "ml"),
        [TableSpec(name="repo_files", wal_dir=small_wal.wal_dir, num_buckets=8)],
    )
    seen = []
    with pytest.raises(DeadlineExceededError, match="committed tick"):
        lake.replay_all(
            segments_per_tick=1, deadline_minutes=1e-9, on_event=seen.append
        )
    assert lake.status()["repo_files"]["tick"] == 0
    assert len(seen) == 1 and seen[0]["kind"] == "deadline_exceeded"
    payload = seen[0]["payload"]
    assert {"deadline_s", "elapsed_s", "ticks_completed"} <= set(payload), (
        "payload keys must match the single-table engine's schema"
    )


def test_table_name_and_config_validation(tmp_path):
    for bad in ("..", ".", "a/b", "_hidden", "", "a b"):
        with pytest.raises(ValueError, match="bad table name"):
            TableSpec(name=bad, wal_dir="/w").validate()
    # a typo'd config key must not silently build a different lake
    with pytest.raises(ValueError, match="unknown table-config keys"):
        spec_from_config({"name": "t", "wal": "/w", "bucket": 64})
    # concurrency round-trips, including the (lo, hi) list form
    s = spec_from_config({"name": "t", "wal": "/w", "concurrency": [2, 6]})
    assert s.concurrency == (2, 6)
    s = spec_from_config({"name": "t", "wal": "/w", "concurrency": 4})
    assert s.concurrency == 4


def test_tables_cli_quarantine_and_events(ray_session, tmp_path):
    """Multi-table ops parity: per-table quarantine export and per-table
    status --events through the tables-* CLI (in-process main())."""
    import io
    from contextlib import redirect_stdout

    from etl_ray.__main__ import main
    from etl_ray.wal import generate_wal

    wal = generate_wal(
        str(tmp_path / "wal"), n_events=8000, n_repos=8, seed=11,
        malform_rate=0.05,
    )
    cfgp = tmp_path / "tables.json"
    cfgp.write_text(
        json.dumps({"tables": [{"name": "t1", "wal": wal.wal_dir, "buckets": 4}]})
    )
    lake = MultiTableLake(str(tmp_path / "ml"), load_config(str(cfgp)))
    lake.replay_all()
    assert LakeLineage(lake.table_dir("t1")).last_tick()["quarantined_rows"] > 0

    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = main(
            [
                "quarantine", "--lake", str(tmp_path / "ml"), "--table", "t1",
                "--out", str(tmp_path / "q"),
            ]
        )
    assert not rc
    res = json.loads(buf.getvalue().strip().splitlines()[-1])
    assert res["rows"] > 0
    import pyarrow.parquet as pq

    qt = pq.read_table(str(tmp_path / "q"))
    assert "reason" in qt.schema.names and qt.num_rows == res["rows"]

    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = main(
            [
                "tables-status", "--lake", str(tmp_path / "ml"),
                "--config", str(cfgp), "--events", "10",
            ]
        )
    assert not rc
    st = json.loads(buf.getvalue().strip().splitlines()[-1])
    assert "events" in st["t1"] and isinstance(st["t1"]["events"], list)
    assert "events" in st["_lake"]

    # path-escape guard on --table
    buf = io.StringIO()
    import contextlib

    with pytest.raises(SystemExit), redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        main(["quarantine", "--lake", str(tmp_path / "ml"),
              "--table", "../evil", "--out", str(tmp_path / "q2")])


# --- session views ----------------------------------------------------------


def _oracle_sessions(wal, gap_minutes: int) -> pd.DataFrame:
    """DuckDB truth: LWW-fold the WAL to live state, then windowed
    gap-sessionization per repo over commit_ts."""
    files = ", ".join(f"'{f}'" for f in wal.segment_files)
    sql = f"""
        WITH live AS (
            SELECT repo, commit_ts FROM (
                SELECT repo, path, commit_ts, op,
                       row_number() OVER (PARTITION BY repo, path
                                          ORDER BY lsn DESC) AS rn
                FROM read_parquet([{files}], union_by_name=true))
            WHERE rn = 1 AND op <> 'delete' AND commit_ts IS NOT NULL
        ), b AS (
            SELECT repo, commit_ts,
                   CASE WHEN commit_ts - LAG(commit_ts) OVER (
                            PARTITION BY repo ORDER BY commit_ts)
                        > INTERVAL {gap_minutes} MINUTE THEN 1 ELSE 0 END AS brk
            FROM live
        ), c AS (
            SELECT repo, commit_ts,
                   SUM(brk) OVER (PARTITION BY repo ORDER BY commit_ts
                                  ROWS UNBOUNDED PRECEDING) AS g
            FROM b
        )
        SELECT repo,
               MIN(commit_ts) AS session_start,
               MAX(commit_ts) AS session_end,
               CAST(COUNT(*) AS BIGINT) AS n_events,
               CAST(ROW_NUMBER() OVER (PARTITION BY repo
                                       ORDER BY MIN(commit_ts)) AS BIGINT)
                   AS session_seq
        FROM c GROUP BY repo, g ORDER BY repo, session_start
    """
    return duckdb.sql(sql).df()


def _sessions_df(lake: MultiTableLake, name: str) -> pd.DataFrame:
    df = lake.read_view(name).to_pandas()
    df = df.sort_values(["repo", "session_start"]).reset_index(drop=True)
    return df[["repo", "session_start", "session_end", "n_events", "session_seq"]]


def test_session_view_matches_oracle_and_is_incremental(
    ray_session, small_wal, tmp_path
):
    """Gap-sessionization as a maintained view: per-bucket session FRAGMENTS
    + read-side per-key interval merge equals DuckDB's windowed
    sessionization over the LWW live state — after a partial replay, after
    the final tick (touching only advanced buckets), and as a no-op when
    the upstream is idle."""
    gap = 45
    lake = MultiTableLake(
        str(tmp_path / "ml"),
        [
            TableSpec(name="repo_files", wal_dir=small_wal.wal_dir, num_buckets=8),
            TableSpec(
                name="sessions", view="session", source="repo_files",
                view_key=["repo"], view_ts="commit_ts", gap_minutes=gap,
            ),
        ],
    )
    eng = lake.engine("repo_files")
    eng.tick(len(small_wal.segments) - 1)
    r1 = lake.tick()  # final segment + first refresh (all 8 buckets)
    assert r1["sessions"]["buckets"] == 8 and r1["sessions"]["partial_rows"] > 0

    got = _sessions_df(lake, "sessions")
    exp = _oracle_sessions(small_wal, gap)
    assert (got["session_end"] >= got["session_start"]).all()
    pd.testing.assert_frame_equal(got, exp, check_dtype=False)

    # idle upstream → refresh is a no-op
    assert lake.tick()["sessions"] is None


def test_session_view_incremental_refresh_touches_advanced_buckets(
    ray_session, small_wal, tmp_path
):
    gap = 45
    lake = MultiTableLake(
        str(tmp_path / "ml"),
        [
            TableSpec(name="repo_files", wal_dir=small_wal.wal_dir, num_buckets=8),
            TableSpec(
                name="sessions", view="session", source="repo_files",
                view_key=["repo"], view_ts="commit_ts", gap_minutes=gap,
            ),
        ],
    )
    from etl_ray.engine.tables import refresh_view

    eng = lake.engine("repo_files")
    eng.tick(len(small_wal.segments) - 1)
    refresh_view(
        lake.spec("sessions"),
        lake.table_dir("repo_files"),
        lake.table_dir("sessions"),
    )
    applied = json.load(
        open(os.path.join(lake.table_dir("sessions"), "_view.json"))
    )["upstream_tick"]
    eng.tick()  # one more upstream tick
    advanced = [
        m["bucket"]
        for m in LakeLineage(lake.table_dir("repo_files")).all_bucket_manifests()
        if m["tick"] > applied
    ]
    res = lake.tick()["sessions"]
    assert res["buckets"] == len(advanced)
    got = _sessions_df(lake, "sessions")
    exp = _oracle_sessions(small_wal, gap)
    pd.testing.assert_frame_equal(got, exp, check_dtype=False)


def test_session_view_spec_validation():
    with pytest.raises(ValueError, match="needs key columns"):
        TableSpec(name="s", view="session", source="t", view_ts="commit_ts").validate()
    with pytest.raises(ValueError, match="needs a ts column"):
        TableSpec(name="s", view="session", source="t", view_key=["repo"]).validate()
    with pytest.raises(ValueError, match="gap_minutes"):
        TableSpec(
            name="s", view="session", source="t",
            view_key=["repo"], view_ts="commit_ts", gap_minutes=0,
        ).validate()
    with pytest.raises(ValueError, match="collide"):
        TableSpec(
            name="s", view="session", source="t",
            view_key=["n_events"], view_ts="commit_ts",
        ).validate()
    # config-key spelling for the session surface
    s = spec_from_config(
        {"name": "s", "view": "session", "source": "t",
         "key": ["repo"], "ts": "commit_ts", "gap_minutes": 15}
    )
    assert s.view_key == ["repo"] and s.view_ts == "commit_ts"
    assert s.gap_minutes == 15.0


def test_session_view_empty_partials_keep_schema(ray_session, tmp_path):
    """All partials empty (fully-deleted upstream): the view Dataset must
    keep its typed schema instead of coming back schemaless."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    pdir = tmp_path / "v" / "partials"
    pdir.mkdir(parents=True)
    t = pa.table(
        {
            "repo": pa.array([], pa.string()),
            "session_start": pa.array([], pa.timestamp("us")),
            "session_end": pa.array([], pa.timestamp("us")),
            "n_events": pa.array([], pa.int64()),
        }
    )
    pq.write_table(t, str(pdir / "b=00000.parquet"))
    from etl_ray.engine.tables import read_session_view

    ds = read_session_view(
        {"key": ["repo"], "ts": "commit_ts", "gap_minutes": 30},
        str(tmp_path / "v"),
    )
    assert set(ds.schema().names) == {
        "repo", "session_start", "session_end", "n_events", "session_seq"
    }
    assert ds.count() == 0


def test_session_gap_is_exact_not_unit_rounded():
    """Fragment side and merge side must apply the SAME threshold: the gap
    in ts units stays an exact float (1.5 s, not rounded to 2 s), or
    session splits would depend on physical bucket placement."""
    import pyarrow as pa

    from etl_ray.engine.tables import _gap_in_ts_units

    assert _gap_in_ts_units(pa.timestamp("s"), 0.025) == 1.5
    assert _gap_in_ts_units(pa.timestamp("us"), 30) == 30 * 60_000_000
    with pytest.raises(ValueError, match="timestamp"):
        _gap_in_ts_units(pa.int64(), 30)


def test_session_view_riders_match_oracle(ray_session, small_wal, tmp_path):
    """Rider aggregates inside each session row (sum/mean/min/max +
    first/last by the session ts) equal DuckDB's per-session-group
    arg_min/arg_max/AVG over the same windowed sessionization."""
    gap = 45
    lake = MultiTableLake(
        str(tmp_path / "ml"),
        [
            TableSpec(name="repo_files", wal_dir=small_wal.wal_dir, num_buckets=8),
            TableSpec(
                name="sessions", view="session", source="repo_files",
                view_key=["repo"], view_ts="commit_ts", gap_minutes=gap,
                view_aggs=[
                    {"out": "first_path", "col": "path", "fn": "first"},
                    {"out": "last_path", "col": "path", "fn": "last"},
                    {"out": "mean_lsn", "col": "lsn", "fn": "mean"},
                    {"out": "max_lsn", "col": "lsn", "fn": "max"},
                    {"out": "changes", "fn": "count"},
                ],
            ),
        ],
    )
    lake.replay_all(segments_per_tick=1)
    got = (
        lake.read_view("sessions")
        .to_pandas()
        .sort_values(["repo", "session_start"])
        .reset_index(drop=True)
    )
    files = ", ".join(f"'{f}'" for f in small_wal.segment_files)
    exp = duckdb.sql(f"""
        WITH live AS (
            SELECT repo, path, lsn, commit_ts FROM (
                SELECT repo, path, lsn, commit_ts, op,
                       row_number() OVER (PARTITION BY repo, path
                                          ORDER BY lsn DESC) AS rn
                FROM read_parquet([{files}], union_by_name=true))
            WHERE rn = 1 AND op <> 'delete' AND commit_ts IS NOT NULL
        ), b AS (
            SELECT *, CASE WHEN commit_ts - LAG(commit_ts) OVER (
                          PARTITION BY repo ORDER BY commit_ts)
                      > INTERVAL {gap} MINUTE THEN 1 ELSE 0 END AS brk
            FROM live
        ), c AS (
            SELECT *, SUM(brk) OVER (PARTITION BY repo ORDER BY commit_ts
                                     ROWS UNBOUNDED PRECEDING) AS g
            FROM b
        )
        SELECT repo,
               MIN(commit_ts) AS session_start,
               MAX(commit_ts) AS session_end,
               CAST(COUNT(*) AS BIGINT) AS n_events,
               arg_min(path, commit_ts) AS first_path,
               arg_max(path, commit_ts) AS last_path,
               AVG(lsn) AS mean_lsn,
               CAST(MAX(lsn) AS BIGINT) AS max_lsn,
               CAST(COUNT(*) AS BIGINT) AS changes,
               CAST(ROW_NUMBER() OVER (PARTITION BY repo
                                       ORDER BY MIN(commit_ts)) AS BIGINT)
                   AS session_seq
        FROM c GROUP BY repo, g ORDER BY repo, session_start
    """).df()
    got = got[exp.columns.tolist()]
    pd.testing.assert_frame_equal(got, exp, check_dtype=False)


def test_session_sum_rider_all_null_is_null(ray_session, small_wal, tmp_path):
    """A session whose sum-rider values are all NULL sums to NULL (SQL SUM),
    not 0, while a count rider over the same column stays 0. Ticking
    through the first post-evolution segment leaves early sessions whose
    live rows all predate the size_bytes column."""
    gap = 45
    n = 1
    while not small_wal.segments[n - 1].get("has_size_bytes"):
        n += 1
    lake = MultiTableLake(
        str(tmp_path / "ml"),
        [
            TableSpec(name="repo_files", wal_dir=small_wal.wal_dir, num_buckets=8),
            TableSpec(
                name="sessions", view="session", source="repo_files",
                view_key=["repo"], view_ts="commit_ts", gap_minutes=gap,
                view_aggs=[
                    {"out": "total_bytes", "col": "size_bytes", "fn": "sum"},
                    {"out": "sized", "col": "size_bytes", "fn": "count"},
                ],
            ),
        ],
    )
    lake.tick(n)
    got = (
        lake.read_view("sessions")
        .to_pandas()
        .sort_values(["repo", "session_start"])
        .reset_index(drop=True)
    )
    files = ", ".join(f"'{s['file']}'" for s in small_wal.segments[:n])
    exp = duckdb.sql(f"""
        WITH live AS (
            SELECT repo, size_bytes, commit_ts FROM (
                SELECT repo, path, CAST(size_bytes AS BIGINT) AS size_bytes,
                       commit_ts, op,
                       row_number() OVER (PARTITION BY repo, path
                                          ORDER BY lsn DESC) AS rn
                FROM read_parquet([{files}], union_by_name=true))
            WHERE rn = 1 AND op <> 'delete' AND commit_ts IS NOT NULL
        ), b AS (
            SELECT *, CASE WHEN commit_ts - LAG(commit_ts) OVER (
                          PARTITION BY repo ORDER BY commit_ts)
                      > INTERVAL {gap} MINUTE THEN 1 ELSE 0 END AS brk
            FROM live
        ), c AS (
            SELECT *, SUM(brk) OVER (PARTITION BY repo ORDER BY commit_ts
                                     ROWS UNBOUNDED PRECEDING) AS g
            FROM b
        )
        SELECT repo, MIN(commit_ts) AS session_start,
               SUM(size_bytes) AS total_bytes,
               CAST(COUNT(size_bytes) AS BIGINT) AS sized
        FROM c GROUP BY repo, g ORDER BY repo, session_start
    """).df()
    all_null = exp["sized"] == 0
    assert all_null.any() and not all_null.all(), "fixture must mix both kinds"
    assert exp.loc[all_null, "total_bytes"].isna().all()
    got = got[exp.columns.tolist()]
    pd.testing.assert_frame_equal(got, exp, check_dtype=False)


def test_session_rider_validation():
    base = dict(name="s", view="session", source="t",
                view_key=["repo"], view_ts="commit_ts")
    with pytest.raises(ValueError, match="rider fn"):
        TableSpec(**base, view_aggs=[{"out": "x", "col": "a", "fn": "median"}]).validate()
    with pytest.raises(ValueError, match="needs col"):
        TableSpec(**base, view_aggs=[{"out": "x", "fn": "sum"}]).validate()
    with pytest.raises(ValueError, match="omit 'by'"):
        TableSpec(
            **base, view_aggs=[{"out": "x", "col": "a", "fn": "first", "by": "lsn"}]
        ).validate()
    with pytest.raises(ValueError, match="duplicate/reserved"):
        TableSpec(
            **base, view_aggs=[{"out": "n_events", "col": "a", "fn": "sum"}]
        ).validate()


def test_session_rider_string_minmax_rejected(ray_session, small_wal, tmp_path):
    """min/max riders over string columns are rejected at refresh (the
    pandas cross-fragment reduce cannot order None) — first/last is the
    supported path for string values."""
    lake = MultiTableLake(
        str(tmp_path / "ml"),
        [
            TableSpec(name="repo_files", wal_dir=small_wal.wal_dir, num_buckets=4),
            TableSpec(
                name="sessions", view="session", source="repo_files",
                view_key=["repo"], view_ts="commit_ts",
                view_aggs=[{"out": "min_path", "col": "path", "fn": "min"}],
            ),
        ],
    )
    lake.engine("repo_files").tick(1)
    with pytest.raises(ValueError, match="first/last for string values"):
        lake.tick()


def test_session_view_over_delta_upstream(ray_session, small_wal, tmp_path):
    """Session fragments read through the delta-chain merge-on-read path
    (state_mode=delta upstream) equal the same DuckDB oracle."""
    gap = 45
    lake = MultiTableLake(
        str(tmp_path / "ml"),
        [
            TableSpec(
                name="repo_files", wal_dir=small_wal.wal_dir, num_buckets=8,
                state_mode="delta", delta_threshold=64,
            ),
            TableSpec(
                name="sessions", view="session", source="repo_files",
                view_key=["repo"], view_ts="commit_ts", gap_minutes=gap,
            ),
        ],
    )
    lake.replay_all(segments_per_tick=1)
    # delta mode actually produced chains (not just bases)
    assert glob.glob(
        os.path.join(lake.table_dir("repo_files"), "buckets", "b=*", "*.delta.parquet")
    ), "expected delta files under the upstream buckets"
    got = _sessions_df(lake, "sessions")
    exp = _oracle_sessions(small_wal, gap)
    pd.testing.assert_frame_equal(got, exp, check_dtype=False)
