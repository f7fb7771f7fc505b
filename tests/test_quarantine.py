"""Bad-record quarantine: malformed envelope rows (unknown op, null key)
are routed to a per-tick quarantine side table — never crashing the tick,
never silently dropped, never entering state or aggregates (the reference
marks such rows with event_quality, load_data.sql:10)."""

from __future__ import annotations

import glob
import os

import duckdb
import pandas as pd
import pyarrow.parquet as pq
import pytest

from etl_ray.engine import ReplayEngine
from etl_ray.engine.export import final_state
from etl_ray.oracle import expected_final_state, expected_lang_daily
from etl_ray.wal import generate_wal


@pytest.fixture(scope="module")
def malformed_wal(tmp_path_factory):
    d = tmp_path_factory.mktemp("wal_malformed")
    return generate_wal(
        str(d),
        seed=23,
        n_events=10_000,
        n_repos=15,
        paths_per_repo=80,
        dup_rate=0.03,
        delete_rate=0.06,
        ooo_window=400,
        evolve_at_frac=0.5,
        malform_rate=0.04,
        segment_rows=2_500,
        content_min=32,
        content_max=256,
        days_span=7,
    )


def _oracle_bad_count(wal) -> int:
    files = ", ".join(f"'{f}'" for f in wal.segment_files)
    con = duckdb.connect()
    n = con.execute(
        f"""
        SELECT COUNT(*) FROM read_parquet([{files}], union_by_name=true)
        WHERE NOT (op IN ('insert','update','delete')
                   AND repo IS NOT NULL AND path IS NOT NULL AND lsn IS NOT NULL)
        """
    ).fetchone()[0]
    con.close()
    return n


def _quarantine_rows(lake: str):
    parts = [
        pq.read_table(f)
        for f in glob.glob(os.path.join(lake, "_quarantine", "*.parquet"))
    ]
    import pyarrow as pa

    # per-tick schemas differ across the evolution boundary
    return pa.concat_tables(parts, promote_options="default") if parts else None


def test_malformed_rows_quarantined(ray_session, malformed_wal, tmp_path):
    lake = str(tmp_path / "lake")
    eng = ReplayEngine(
        malformed_wal.wal_dir, lake, num_buckets=8, concurrency=2,
    )
    eng.replay_all(segments_per_tick=2)

    # state: exactly the valid-row LWW fold (sha invariant intact)
    got = (
        final_state(lake, with_sha=True)
        .to_pandas()
        .sort_values(["repo", "path"])
        .reset_index(drop=True)
    )
    exp = expected_final_state(malformed_wal).to_pandas()
    assert len(got) == len(exp)
    assert (got["content_sha256"].to_numpy() == exp["content_sha256"].to_numpy()).all()

    # quarantine: complete (every malformed emit, including its replay
    # duplicates), with reasons
    q = _quarantine_rows(lake)
    expected_bad = _oracle_bad_count(malformed_wal)
    assert expected_bad > 0, "fixture must actually produce malformed rows"
    assert q is not None and q.num_rows == expected_bad
    assert set(q["reason"].to_pylist()) == {"bad_op", "null_key"}

    # tick manifests account for every quarantined row
    manifest_total = sum(
        t.get("quarantined_rows", 0) for t in eng.lineage.all_ticks()
    )
    assert manifest_total == expected_bad

    # aggregates exclude quarantined rows (match the valid-only oracle)
    from etl_ray.engine.aggregates import read_agg
    from etl_ray.engine.lineage import LakeLineage

    got_l = (
        read_agg(LakeLineage(lake), "lang_daily_agg")
        .to_pandas()
        .sort_values(["day", "lang"])
        .reset_index(drop=True)
    )
    exp_l = expected_lang_daily(malformed_wal).to_pandas()
    pd.testing.assert_frame_equal(
        got_l[["day", "lang", "files_changed", "bytes", "distinct_repos"]],
        exp_l,
        check_dtype=False,
    )


def test_quarantine_idempotent_on_redo(ray_session, malformed_wal, tmp_path):
    """Re-running a tick (crash redo) rewrites its quarantine files instead
    of appending duplicates."""
    lake = str(tmp_path / "lake")
    eng = ReplayEngine(malformed_wal.wal_dir, lake, num_buckets=8, concurrency=2)
    eng.replay_all()
    n1 = _quarantine_rows(lake).num_rows
    # roll the watermark back one tick and redo (the replay-twice pattern)
    last = eng.lineage.last_tick()
    rolled = dict(last, tick=last["tick"] + 1, through_seqno=-1)
    eng.lineage.publish_tick(rolled)
    eng.replay_all()
    # the redo tick re-quarantines the same rows under its OWN tick;
    # totals per distinct source row stay complete and non-duplicated
    per_tick = {
        t["tick"]: t.get("quarantined_rows", 0) for t in eng.lineage.all_ticks()
    }
    assert per_tick[last["tick"] + 2] == n1  # full redo saw the same bad rows


def test_quarantine_ratio_check_flags_breakage(ray_session, tmp_path):
    """A producer-break-level malform rate trips the OPTIONAL
    quarantine_ratio check: recorded in the tick manifest, tick commits."""
    wal = generate_wal(
        str(tmp_path / "wal_broken"),
        seed=29,
        n_events=4_000,
        n_repos=10,
        paths_per_repo=40,
        malform_rate=0.25,
        segment_rows=4_000,
        content_min=32,
        content_max=128,
        days_span=3,
    )
    lake = str(tmp_path / "lake_broken")
    eng = ReplayEngine(wal.wal_dir, lake, num_buckets=4, concurrency=2)
    res = eng.replay_all()
    assert res, "tick must still commit — rows are routed, not fatal"
    last = eng.lineage.last_tick()
    assert "quarantine_ratio" in last["quality"]["checks_failed"]
    assert last["quarantined_rows"] > 0


def test_erase_scrubs_quarantine(ray_session, tmp_path):
    """GDPR: a ``bad_op`` row keeps its repo, path and content, so an
    erasure of its key must scrub the quarantine too; the quarantine
    export still works afterwards."""
    import io
    import json
    from contextlib import redirect_stdout

    from etl_ray.__main__ import main
    from etl_ray.engine.maintenance import erase_keys

    wal = generate_wal(
        str(tmp_path / "wal"), seed=31, n_events=6_000, n_repos=10,
        paths_per_repo=40, malform_rate=0.05, segment_rows=2_000,
        content_min=32, content_max=128, days_span=3,
    )
    lake = str(tmp_path / "lake")
    ReplayEngine(wal.wal_dir, lake, num_buckets=4, concurrency=2).replay_all(
        segments_per_tick=1
    )

    def exported(out: str) -> pd.DataFrame:
        buf = io.StringIO()
        with redirect_stdout(buf):
            assert main(["quarantine", "--lake", lake, "--out", out]) == 0
        assert json.loads(buf.getvalue().strip().splitlines()[-1])["rows"] > 0
        return pq.read_table(out).to_pandas()

    q = exported(str(tmp_path / "q1"))
    bad = q[(q["reason"] == "bad_op") & q["repo"].notna() & q["path"].notna()]
    assert len(bad), "fixture must quarantine a bad_op row with a key"
    subject = (bad["repo"].iloc[0], bad["path"].iloc[0])

    erase_keys(lake, [subject])
    after = exported(str(tmp_path / "q2"))
    held = (after["repo"] == subject[0]) & (after["path"] == subject[1])
    assert not held.any(), "the quarantine still holds the erased key"
    assert len(after) == len(q) - ((q["repo"] == subject[0]) & (q["path"] == subject[1])).sum()
