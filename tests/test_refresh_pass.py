"""One refresh pass per source (``views.refresh.refresh_views``): every
view of a base table is advanced by one pass that takes each touched
bucket's state once — as the tick's stage 2 handed it over, or else read in
the union of the views' projections — while each view keeps its own
touched set and publishes its own ``_view.json`` last."""

from __future__ import annotations

import json
import os

import pandas as pd
import pytest

from etl_ray.engine import tables
from etl_ray.engine.lineage import LakeLineage
from etl_ray.engine.tables import MultiTableLake, TableSpec
from etl_ray.engine.views import refresh
from etl_ray.engine.views.refresh import VIEW_KINDS, view_job

from conftest import inline_task_refs  # noqa: E402

# DuckDB oracles of the three view kinds, shared with their own test modules
from test_agg_views import LANG_AGGS, _assert_matches_oracle  # noqa: E402
from test_fan_out_sizing import BUCKETS, _tail_wal  # noqa: E402
from test_tables import (  # noqa: E402
    _oracle_repo_stats,
    _oracle_sessions,
    _sessions_df,
    _view_df,
)

GAP = 45
VIEWS = ("repo_stats", "lang_stats", "sessions")


@pytest.fixture(scope="module")
def tail_wal(tmp_path_factory):
    return _tail_wal(tmp_path_factory)


def _specs(wal, lang_aggs=LANG_AGGS) -> list[TableSpec]:
    return [
        TableSpec(
            name="repo_files", wal_dir=wal.wal_dir, num_buckets=BUCKETS,
            delta_threshold=8,
        ),
        TableSpec(name="repo_stats", view="repo_stats", source="repo_files"),
        TableSpec(
            name="lang_stats", view="aggregate", source="repo_files",
            view_group_by=["lang"], view_aggs=lang_aggs,
        ),
        TableSpec(
            name="sessions", view="session", source="repo_files",
            view_key=["repo"], view_ts="commit_ts", gap_minutes=GAP,
            view_aggs=[{"out": "mean_lsn", "col": "lsn", "fn": "mean"}],
        ),
    ]


def _upstream_tick(lake, view: str) -> int:
    with open(os.path.join(lake.table_dir(view), "_view.json")) as fh:
        return json.load(fh)["upstream_tick"]


def _advanced(lake, since_tick: int) -> set[int]:
    return {
        m["bucket"]
        for m in LakeLineage(lake.table_dir("repo_files")).all_bucket_manifests()
        if m["tick"] > since_tick
    }


def _assert_views_match_oracle(lake, wal) -> None:
    pd.testing.assert_frame_equal(
        _view_df(lake, "repo_stats"),
        _oracle_repo_stats(wal).reset_index(drop=True),
        check_dtype=False,
    )
    _assert_matches_oracle(lake, wal)
    got = _sessions_df(lake, "sessions")
    pd.testing.assert_frame_equal(got, _oracle_sessions(wal, GAP), check_dtype=False)


def test_crash_between_view_publishes_heals_on_next_tick(
    ray_session, tail_wal, tmp_path, monkeypatch
):
    """A pass that dies after publishing the first view's ``_view.json``
    leaves the other views at their previous tick; the next ``tick()``
    refreshes just those, and every view equals DuckDB."""
    lake = MultiTableLake(str(tmp_path / "ml"), _specs(tail_wal))
    lake.tick(len(tail_wal.segments) - 1)
    before = _upstream_tick(lake, "repo_stats")

    real, published = refresh._publish_view_manifest, []

    def crash_on_second(view_dir, obj):
        if published:
            raise RuntimeError("crash between two _view.json publishes")
        published.append(view_dir)
        real(view_dir, obj)

    monkeypatch.setattr(refresh, "_publish_view_manifest", crash_on_second)
    with pytest.raises(RuntimeError, match="between two"):
        lake.tick()
    monkeypatch.undo()

    up_tick = LakeLineage(lake.table_dir("repo_files")).last_tick()["tick"]
    assert published == [lake.table_dir("repo_stats")]
    assert _upstream_tick(lake, "repo_stats") == up_tick
    for v in ("lang_stats", "sessions"):
        assert _upstream_tick(lake, v) == before

    healed = lake.tick()  # no WAL left: the base idles, the views heal
    assert healed["repo_files"] is None and healed["repo_stats"] is None
    for v in ("lang_stats", "sessions"):
        assert healed[v]["buckets"] == len(_advanced(lake, before)) > 0
        assert _upstream_tick(lake, v) == up_tick
    _assert_views_match_oracle(lake, tail_wal)


def test_spec_change_recomputes_only_that_view(ray_session, tail_wal, tmp_path):
    """Changing one view's definition makes the next pass recompute every
    bucket of that view, while the other views of the same pass stay
    incremental."""
    lake = MultiTableLake(str(tmp_path / "ml"), _specs(tail_wal))
    lake.tick(len(tail_wal.segments) - 1)
    applied = _upstream_tick(lake, "repo_stats")

    changed = [
        {**a, "out": "n_rows"} if a["out"] == "n_files" else a for a in LANG_AGGS
    ]
    lake = MultiTableLake(lake.lake_dir, _specs(tail_wal, lang_aggs=changed))
    r = lake.tick()
    k = len(_advanced(lake, applied))
    assert 0 < k < BUCKETS
    assert r["lang_stats"]["buckets"] == BUCKETS
    assert r["repo_stats"]["buckets"] == r["sessions"]["buckets"] == k
    # one pass: every view reports the pass's own task count
    assert len({r[v]["tasks"] for v in VIEWS}) == 1

    lake = MultiTableLake(lake.lake_dir, _specs(tail_wal))  # back to the oracle's spec
    assert lake.tick()["lang_stats"]["buckets"] == BUCKETS
    _assert_views_match_oracle(lake, tail_wal)


def test_one_read_per_touched_bucket_per_pass(
    ray_session, tail_wal, tmp_path, monkeypatch
):
    """A steady-state pass reads no bucket: each touched bucket's state is
    the one the tick's stage 2 merged and handed over. A cold pass — here a
    view left behind under ``tolerate_locked`` — reads each bucket the
    hand-over lacks once, in the union of the projections of the views that
    need it. Every view reads back ``Table.equals`` to a view refreshed on
    its own."""
    from etl_ray.engine import apply, partitioning
    from etl_ray.engine.lock import writer_lock

    lake = MultiTableLake(str(tmp_path / "ml"), _specs(tail_wal))
    eng = lake.engine("repo_files")
    reads = []
    real = apply.read_bucket_state

    def spy(man, columns=None, **kw):
        reads.append((man["bucket"], tuple(columns)))
        return real(man, columns=columns, **kw)

    def one_pass(handed=None):
        reads.clear()
        with monkeypatch.context() as m:
            m.setattr(apply, "read_bucket_state", spy)
            # tasks run in this process, so the spy sees their reads
            m.setattr(partitioning, "task_refs", inline_task_refs)
            return lake._refresh_views_of("repo_files", handed=handed)

    cols = lake.view_columns("repo_files")
    r = eng.tick(len(tail_wal.segments) - 2, view_columns=cols)
    first = one_pass(r.view_states)
    assert reads == []  # the first tick merged (and handed over) every bucket
    assert all(first[v]["buckets"] == BUCKETS for v in VIEWS)
    assert one_pass() == dict.fromkeys(VIEWS)  # current: nothing to build
    assert reads == []

    behind = _upstream_tick(lake, "lang_stats")
    with writer_lock(lake.table_dir("lang_stats"), "test-maintenance"):
        assert lake.tick(1, tolerate_locked=True)["lang_stats"] is None
    applied = _upstream_tick(lake, "repo_stats")
    r = eng.tick(view_columns=cols)
    touched = _advanced(lake, applied)
    assert set(r.view_states) == touched
    again = one_pass(r.view_states)
    assert all(again[v]["buckets"] == len(touched) for v in ("repo_stats", "sessions"))
    lagging = _advanced(lake, behind)
    assert again["lang_stats"]["buckets"] == len(lagging) > len(touched)
    kind, spec, _ = view_job(lake.spec("lang_stats"), "")
    cols = (*VIEW_KINDS[kind].need(spec), "deleted")
    assert sorted(reads) == [(b, cols) for b in sorted(lagging - touched)]

    # the fused pass writes what one view's own refresh writes
    up = lake.table_dir("repo_files")
    for s in lake.specs[1:]:
        solo_dir = str(tmp_path / f"solo-{s.name}")
        tables.refresh_view(s, up, solo_dir)
        kind, spec, _ = view_job(s, solo_dir)
        fused = _pa_table(lake.read_view(s.name))
        solo = _pa_table(VIEW_KINDS[kind].read(spec, solo_dir))
        assert fused.equals(solo), s.name
    _assert_views_match_oracle(lake, tail_wal)


def _pa_table(ds):
    import pyarrow as pa
    import ray

    return pa.concat_tables(ray.get(ds.to_arrow_refs()))


def test_refresh_profile_recorded_and_in_status(ray_session, tail_wal, tmp_path):
    """Each ``_view.json`` records the pass that published it, and
    ``status()`` shows it."""
    lake = MultiTableLake(str(tmp_path / "ml"), _specs(tail_wal))
    r = lake.tick()
    st = lake.status()
    for v in VIEWS:
        with open(os.path.join(lake.table_dir(v), "_view.json")) as fh:
            mf = json.load(fh)
        prof = {k: mf[k] for k in tables.REFRESH_PROFILE}
        assert prof == {k: r[v][k] for k in tables.REFRESH_PROFILE}
        assert prof["refresh_s"] > 0 and prof["partial_rows"] > 0
        assert prof["buckets"] == BUCKETS and prof["tasks"] >= 1
        assert {k: st[v][k] for k in tables.REFRESH_PROFILE} == prof


def test_locked_view_yields_none_others_refresh(ray_session, tail_wal, tmp_path):
    """Under ``tolerate_locked`` a view whose writer lock is held yields
    None for the round; the pass still refreshes the other views, and the
    locked one catches up once released."""
    from etl_ray.engine.lock import WriterLockError, writer_lock

    lake = MultiTableLake(str(tmp_path / "ml"), _specs(tail_wal))
    with writer_lock(lake.table_dir("lang_stats"), "test-maintenance"):
        r = lake.tick(tolerate_locked=True)
        assert r["lang_stats"] is None
        assert r["repo_stats"]["buckets"] == r["sessions"]["buckets"] == BUCKETS
        with pytest.raises(WriterLockError):
            lake.tick()
    assert lake.tick()["lang_stats"]["buckets"] == BUCKETS
    _assert_views_match_oracle(lake, tail_wal)
