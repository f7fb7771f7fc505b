"""Stage 2 folds each touched bucket once and hands the view refresh what it
merged: a delta write merges keys, lsn, deleted and the views' columns only
(never the payload) and appends just the delta rows that won, and every
merge returns its bucket's state projected to the views' columns — the
exact table a read of the new chain would give."""

from __future__ import annotations

import os

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from etl_ray.engine import ReplayEngine
from etl_ray.engine.apply import chain_key, read_bucket_state
from etl_ray.engine.changelog import committed_changelog_parts
from etl_ray.engine.export import final_state
from etl_ray.engine.lineage import LakeLineage
from etl_ray.wal import WalInfo, generate_wal

VIEW_COLS = ["repo", "lang", "commit_ts", "size_bytes", "lsn"]


@pytest.fixture(scope="module")
def evo_wal(tmp_path_factory):
    """Eight segments; ``size_bytes`` lands at 30% of the log at int32 and
    widens to int64 at 60%."""
    return generate_wal(
        str(tmp_path_factory.mktemp("wal_evo")), seed=21, n_events=4_000,
        n_repos=8, paths_per_repo=50, dup_rate=0.03, delete_rate=0.08,
        ooo_window=100, evolve_at_frac=0.3, widen_at_frac=0.6,
        segment_rows=500, content_min=16, content_max=128, days_span=4,
    )


def _check_handed(eng: ReplayEngine, r) -> None:
    lin = LakeLineage(eng.lake_dir)
    assert r.tick == lin.last_tick()["tick"]
    mans = {m["bucket"]: m for m in lin.all_bucket_manifests()}
    assert set(r.view_states) == {b for b, m in mans.items() if m["tick"] == r.tick}
    for b, (key, state) in r.view_states.items():
        assert key == chain_key(mans[b])
        assert state.equals(read_bucket_state(mans[b], columns=[*VIEW_COLS, "deleted"]))


@pytest.mark.parametrize("threshold", [0, 2, 8])
def test_handed_state_equals_a_read_of_the_new_chain(
    ray_session, evo_wal, tmp_path, threshold, crash_at
):
    """At every tick — across both schema evolutions and a redo of a tick
    that crashed between bucket publishes — each handed state
    ``Table.equals`` a projected read of its bucket's new manifest, row
    order included. A tick asked for no columns hands nothing over."""
    eng = ReplayEngine(
        evo_wal.wal_dir, str(tmp_path / "lake"), num_buckets=4, concurrency=2,
        delta_threshold=threshold,
    )
    crash_tick = len(evo_wal.segments) // 2
    for i in range(len(evo_wal.segments) - 1):
        if i == crash_tick:
            with crash_at("manifest.bucket", after=1):
                with pytest.raises(RuntimeError, match="injected crash"):
                    eng.tick(1, view_columns=VIEW_COLS)
        _check_handed(eng, eng.tick(1, view_columns=VIEW_COLS))
    r = eng.tick(1)
    assert r.buckets_touched and r.view_states is None
    assert eng.tick(view_columns=VIEW_COLS) is None


def _with_late_segment(src: WalInfo, dst: str) -> WalInfo:
    """A copy of ``src`` in which one event of a key that is written again
    later moves out of the first segment into a new last one: when it
    arrives, its key's committed winner has a higher lsn."""
    import shutil

    shutil.copytree(src.wal_dir, dst)
    wal = WalInfo.load(dst)
    for s in wal.segments:
        s["file"] = os.path.join(dst, os.path.basename(s["file"]))
    first = pq.read_table(wal.segments[0]["file"])
    rest = pd.concat(pq.read_table(s["file"]).to_pandas() for s in wal.segments[1:])
    later = set(zip(rest["repo"], rest["path"]))
    df = first.to_pandas()
    late = next(
        i for i, r in df.iterrows()
        if r["op"] != "delete" and (r["repo"], r["path"]) in later
    )
    pq.write_table(first.take([i for i in range(first.num_rows) if i != late]),
                   wal.segments[0]["file"])
    moved = first.slice(late, 1)
    seq = wal.segments[-1]["seqno"] + 1
    f = os.path.join(dst, f"seg-{seq:08d}.parquet")
    pq.write_table(moved, f)
    lsn, ts = moved["lsn"][0].as_py(), moved["commit_ts"][0].value
    wal.segments[0]["rows"] -= 1
    wal.segments.append({
        **wal.segments[0], "file": f, "seqno": seq, "rows": 1, "min_lsn": lsn,
        "max_lsn": lsn, "min_ts_us": ts, "max_ts_us": ts,
    })
    wal.save()
    return WalInfo.load(dst)


def _export(lake: str) -> pa.Table:
    import ray

    refs = final_state(lake, with_sha=True).to_arrow_refs()
    return pa.concat_tables(ray.get(refs)).sort_by(
        [("repo", "ascending"), ("path", "ascending")]
    )


def _feed(lake: str) -> pa.Table:
    parts = committed_changelog_parts(lake)
    return pa.concat_tables(
        pq.ParquetFile(p["file"]).read_row_groups(p["rgs"]) for p in parts
    )


@pytest.mark.parametrize("threshold", [0, 2, 8])
def test_late_event_changes_neither_export_nor_feed(
    ray_session, tmp_path, threshold
):
    """A late event whose lsn is below its key's committed winner leaves the
    export and the change feed as they were; on a delta write it appends
    no row either."""
    src = generate_wal(
        str(tmp_path / "wal0"), seed=4, n_events=2_000, n_repos=6,
        paths_per_repo=40, dup_rate=0.0, delete_rate=0.05, segment_rows=500,
        content_min=16, content_max=64, days_span=3,
    )
    wal = _with_late_segment(src, str(tmp_path / "wal"))
    lake = str(tmp_path / "lake")
    eng = ReplayEngine(
        wal.wal_dir, lake, num_buckets=4, concurrency=2, emit_changelog=True,
        delta_threshold=threshold,
    )
    eng.tick(len(wal.segments) - 1)
    export, feed = _export(lake), _feed(lake)

    r = eng.tick()
    assert r.events == 1 and r.buckets_touched == 1
    assert _export(lake).equals(export)
    assert _feed(lake).equals(feed)
    lin = LakeLineage(lake)
    assert lin.last_tick()["changelog_rows"] == 0
    (man,) = [m for m in lin.all_bucket_manifests() if m["tick"] == r.tick]
    if threshold:
        assert pq.ParquetFile(man["delta_files"][-1]).metadata.num_rows == 0
