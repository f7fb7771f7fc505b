"""Runtime data-quality framework: mandatory checks gate the tick commit.

Reference semantics under test: ``etl/plugins/operators/test.py:39-64`` —
a check returning rows fails; mandatory failure aborts the run before its
commit point, leaving the previous state authoritative; optional failures
are recorded but do not block."""

from __future__ import annotations

import pandas as pd
import pytest

from etl_ray.engine import ReplayEngine
from etl_ray.engine.export import final_state
from etl_ray.engine.quality import (
    DEFAULT_CHECKS,
    CheckSpec,
    DataQualityError,
)


def _live_df(lake: str) -> pd.DataFrame:
    return (
        final_state(lake)
        .to_pandas()
        .sort_values(["repo", "path"])
        .reset_index(drop=True)
    )


def test_default_checks_pass_and_recorded(ray_session, small_wal, tmp_path):
    lake = str(tmp_path / "lake")
    eng = ReplayEngine(small_wal.wal_dir, lake, num_buckets=8, concurrency=2)
    eng.replay_all()
    last = eng.lineage.last_tick()
    assert last["quality"] == {"checks_failed": [], "violations": {}}


def test_failing_mandatory_check_leaves_previous_tick_authoritative(
    ray_session, small_wal, tmp_path
):
    lake = str(tmp_path / "lake")
    good = ReplayEngine(small_wal.wal_dir, lake, num_buckets=8, concurrency=2)
    assert good.tick(max_segments=2) is not None  # tick 0 committed
    before = _live_df(lake)
    tick_before = good.lineage.last_tick()

    bad_check = CheckSpec(
        "always_fails", lambda ctx: [{"reason": "injected"}], mandatory=True
    )
    bad = ReplayEngine(
        small_wal.wal_dir,
        lake,
        num_buckets=8,
        concurrency=2,
        checks=[*DEFAULT_CHECKS, bad_check],
    )
    with pytest.raises(DataQualityError):
        bad.tick()

    # nothing committed: tick manifest unchanged, live state byte-identical
    assert good.lineage.last_tick() == tick_before
    pd.testing.assert_frame_equal(_live_df(lake), before)

    # the tick re-runs cleanly once the failing check is removed and the
    # final state matches a straight full replay (idempotent heal)
    heal = ReplayEngine(small_wal.wal_dir, lake, num_buckets=8, concurrency=2)
    heal.replay_all()
    ref_lake = str(tmp_path / "ref")
    ReplayEngine(small_wal.wal_dir, ref_lake, num_buckets=8, concurrency=2).replay_all()
    pd.testing.assert_frame_equal(_live_df(lake), _live_df(ref_lake))


def test_optional_check_failure_does_not_block(ray_session, small_wal, tmp_path):
    lake = str(tmp_path / "lake")
    warn_check = CheckSpec(
        "always_warns", lambda ctx: [{"reason": "heads-up"}], mandatory=False
    )
    eng = ReplayEngine(
        small_wal.wal_dir,
        lake,
        num_buckets=8,
        concurrency=2,
        checks=[*DEFAULT_CHECKS, warn_check],
    )
    results = eng.replay_all()
    assert results  # committed despite the optional failure
    last = eng.lineage.last_tick()
    assert last["quality"]["checks_failed"] == ["always_warns"]
    assert last["quality"]["violations"] == {"always_warns": 1}


def test_audit_checks_pass_full_replay(ray_session, small_wal, tmp_path):
    """AUDIT_CHECKS adds the per-bucket key-uniqueness scan (mandatory):
    a full replay must pass it on every tick."""
    from etl_ray.engine.quality import AUDIT_CHECKS

    lake = str(tmp_path / "lake")
    eng = ReplayEngine(
        small_wal.wal_dir, lake, num_buckets=8, concurrency=2, checks=AUDIT_CHECKS
    )
    results = eng.replay_all(segments_per_tick=2)
    assert results
    assert eng.lineage.last_tick()["quality"] == {
        "checks_failed": [],
        "violations": {},
    }


def test_audit_feed_consistency(ray_session, small_wal, tmp_path):
    """The offline audit's feed_consistency check: passes on a healthy
    feed-enabled lake, flags a forged feed divergence, and skips silently
    when the feed is absent/incomplete."""
    import os

    import pyarrow.parquet as pq

    from etl_ray.engine import ReplayEngine
    from etl_ray.engine.quality import TickContext, check_feed_consistency

    lake = str(tmp_path / "lake")
    ReplayEngine(
        small_wal.wal_dir, lake, num_buckets=8, concurrency=2, emit_changelog=True
    ).replay_all(segments_per_tick=2)

    from etl_ray.engine.lineage import LakeLineage

    lin = LakeLineage(lake)
    mans = lin.all_bucket_manifests()
    ctx = TickContext(
        lineage=lin,
        tick=lin.last_tick()["tick"],
        events=0,
        segments=[],
        new_manifests=mans,
        prev_manifests={m["bucket"]: m for m in mans},
        prev_tick=lin.last_tick(),
    )
    assert check_feed_consistency(ctx) == []

    # forge a divergence: drop one feed part file entirely
    from etl_ray.engine import ticklog

    part = ticklog.parts(lake, ticklog.FEED)[0]["file"]
    saved = pq.read_table(part)
    os.remove(part)
    v = check_feed_consistency(ctx)
    assert v and (v[0]["feed_only"] or v[0]["state_only"])
    pq.write_table(saved, part)
    assert check_feed_consistency(ctx) == []

    # a lake without a feed skips silently
    plain = str(tmp_path / "plain")
    ReplayEngine(small_wal.wal_dir, plain, num_buckets=8, concurrency=2).replay_all()
    lin2 = LakeLineage(plain)
    m2 = lin2.all_bucket_manifests()
    ctx2 = TickContext(
        lineage=lin2,
        tick=lin2.last_tick()["tick"],
        events=0,
        segments=[],
        new_manifests=m2,
        prev_manifests={m["bucket"]: m for m in m2},
        prev_tick=lin2.last_tick(),
    )
    assert check_feed_consistency(ctx2) == []


def test_feed_audit_is_distributed(ray_session, small_wal, tmp_path, monkeypatch):
    """VERDICT r3 #5: the feed-consistency audit must not materialize the
    feed (or state) on the driver — over a long multi-tick feed, the only
    driver-side Dataset materialization is the descriptor table (one row
    per (stage-1 task, bucket)), and the audit still proves equality."""
    import ray.data as rd

    from etl_ray.engine import ReplayEngine
    from etl_ray.engine.lineage import LakeLineage
    from etl_ray.engine.quality import TickContext, check_feed_consistency

    lake = str(tmp_path / "lake")
    ReplayEngine(
        small_wal.wal_dir, lake, num_buckets=8, concurrency=2, emit_changelog=True
    ).replay_all(segments_per_tick=1)  # one tick per segment: a long feed
    lin = LakeLineage(lake)
    assert lin.last_tick()["tick"] >= 3

    seen: list[int] = []
    orig_take_all = rd.Dataset.take_all
    orig_to_pandas = rd.Dataset.to_pandas

    def spy_take_all(self, *a, **k):
        rows = orig_take_all(self, *a, **k)
        seen.append(len(rows))
        return rows

    def spy_to_pandas(self, *a, **k):
        df = orig_to_pandas(self, *a, **k)
        seen.append(len(df))
        return df

    monkeypatch.setattr(rd.Dataset, "take_all", spy_take_all)
    monkeypatch.setattr(rd.Dataset, "to_pandas", spy_to_pandas)

    mans = lin.all_bucket_manifests()
    ctx = TickContext(
        lineage=lin,
        tick=lin.last_tick()["tick"],
        events=0,
        segments=[],
        new_manifests=mans,
        prev_manifests={m["bucket"]: m for m in mans},
        prev_tick=lin.last_tick(),
    )
    assert check_feed_consistency(ctx) == []
    assert seen, "the audit must have run its shuffle"
    state_rows = sum(m["rows"] for m in mans)
    # descriptor grain only: far below the corpus, bounded by tasks × buckets
    assert max(seen) < state_rows / 2, (seen, state_rows)


def test_reconciliation_check_tolerance(ray_session, small_wal, tmp_path):
    """Built-in tolerance reconciliation vs an external truth table
    (store_itunes.yaml semantics): a seeded 3% drift passes at 5% and
    fails at 2%; a day missing from either side is always a violation."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from etl_ray.engine import ReplayEngine
    from etl_ray.engine.aggregates import read_agg
    from etl_ray.engine.lineage import LakeLineage
    from etl_ray.engine.quality import TickContext, make_reconciliation_check

    lake = str(tmp_path / "lake")
    ReplayEngine(small_wal.wal_dir, lake, num_buckets=8, concurrency=2).replay_all()
    lin = LakeLineage(lake)
    eng_days = (
        read_agg(lin, "repo_daily_agg")
        .to_pandas()
        .groupby("day", as_index=False)["events"]
        .sum()
    )
    assert len(eng_days) > 1

    truth = eng_days.copy()
    truth["events"] = truth["events"] * 1.03  # seeded 3% drift
    truth_path = str(tmp_path / "truth.parquet")
    pq.write_table(pa.Table.from_pandas(truth, preserve_index=False), truth_path)

    ctx = TickContext(
        lineage=lin, tick=lin.last_tick()["tick"], events=0, segments=[],
        new_manifests=[], prev_manifests={}, prev_tick=lin.last_tick(),
    )
    ok = make_reconciliation_check("store_recon", truth_path, rel_tolerance=0.05)
    assert ok.check(ctx) == []
    assert not ok.mandatory, "reference store tests are optional severity"

    tight = make_reconciliation_check(
        "store_recon", truth_path, rel_tolerance=0.02, mandatory=True
    )
    v = tight.check(ctx)
    assert len(v) == len(eng_days), f"every drifted day must violate at 2%: {v[:2]}"
    assert all(abs(r["rel_err"] - 0.03 / 1.03) < 1e-6 for r in v)
    assert tight.mandatory

    # a day on only one side is a violation regardless of tolerance
    lop_path = str(tmp_path / "truth2.parquet")
    pq.write_table(
        pa.Table.from_pandas(truth.iloc[1:], preserve_index=False), lop_path
    )
    v2 = make_reconciliation_check(
        "store_recon", lop_path, rel_tolerance=0.05
    ).check(ctx)
    assert [r for r in v2 if r.get("side") == "engine_only"]

    # truth table lacking the declared columns errors loudly
    bad_path = str(tmp_path / "bad.parquet")
    pq.write_table(pa.table({"day": ["2024-01-01"]}), bad_path)
    with pytest.raises(ValueError, match="lacks columns"):
        make_reconciliation_check(
            "store_recon", bad_path, rel_tolerance=0.05
        ).check(ctx)


def test_reconciliation_missing_truth_is_violation_not_crash(tmp_path):
    """Review regression: the truth side table is produced by an EXTERNAL
    job — when it's absent or malformed the check must report a violation
    (alert-only at the default optional severity), not crash the tick."""
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq

    from etl_ray.engine.quality import make_reconciliation_check

    eng = pd.DataFrame({"day": ["2024-01-01"], "events": [10]})
    spec = make_reconciliation_check(
        "recon", str(tmp_path / "nope.parquet"), rel_tolerance=0.05,
        compute=lambda ctx: eng,
    )
    v = spec.check(None)
    assert len(v) == 1 and v[0]["reason"] == "truth table unreadable"

    # a torn/unparsable file is the same external condition
    torn = str(tmp_path / "torn.parquet")
    with open(torn, "wb") as f:
        f.write(b"not parquet")
    spec2 = make_reconciliation_check(
        "recon", torn, rel_tolerance=0.05, compute=lambda ctx: eng,
    )
    v2 = spec2.check(None)
    assert len(v2) == 1 and v2[0]["reason"] == "truth table unreadable"
