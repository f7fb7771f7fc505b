"""Change data feed (CDC-out, ``engine/changelog.py``): folding the feed
reconstructs the live state exactly; per-key op sequences are legal
(insert → update* → delete → insert …); crash-redo produces an identical
feed; GDPR erasure purges the subject from feed history; retention GC."""

from __future__ import annotations

import os

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from etl_ray.engine import ReplayEngine, ticklog
from etl_ray.engine.export import final_state


def _feed_df(lake: str, **kw) -> pd.DataFrame:
    from etl_ray.engine.changelog import committed_changelog_parts

    parts = committed_changelog_parts(lake, **kw)
    if not parts:
        return pd.DataFrame()
    frames = []
    for p in parts:
        pf = pq.ParquetFile(p["file"])
        frames.append(pf.read_row_groups(p["rgs"]).to_pandas())
        pf.close()
    df = pd.concat(frames, ignore_index=True)
    return df.sort_values(["tick", "lsn", "repo", "path"]).reset_index(drop=True)


def _fold_feed(df: pd.DataFrame) -> pd.DataFrame:
    """Downstream-consumer fold: last (tick, lsn) per key wins; drop keys
    whose final record is a delete/erase."""
    last = (
        df.sort_values(["tick", "lsn"], kind="mergesort")
        .groupby(["repo", "path"], as_index=False)
        .tail(1)
    )
    live = last[~last["change_op"].isin(["delete", "erase"])]
    return live.sort_values(["repo", "path"]).reset_index(drop=True)


@pytest.fixture(scope="module")
def feed_lake(ray_session, small_wal, tmp_path_factory):
    lake = str(tmp_path_factory.mktemp("feed_lake") / "lake")
    eng = ReplayEngine(
        small_wal.wal_dir, lake, num_buckets=8, concurrency=2, emit_changelog=True
    )
    res = eng.replay_all(segments_per_tick=2)
    assert len(res) >= 2, "feed semantics need a multi-tick replay"
    return lake


def test_feed_reconstructs_final_state(feed_lake):
    feed = _feed_df(feed_lake)
    assert (feed["change_op"] != "erase").all()
    live = _fold_feed(feed)
    state = (
        final_state(feed_lake)
        .to_pandas()
        .sort_values(["repo", "path"])
        .reset_index(drop=True)
    )
    assert len(live) == len(state)
    for col in ["repo", "path", "commit", "lsn", "content"]:
        assert (
            live[col].reset_index(drop=True).astype(object)
            == state[col].reset_index(drop=True).astype(object)
        ).all(), col
    # the tick manifests account for every feed row
    from etl_ray.engine.lineage import LakeLineage

    ticks = LakeLineage(feed_lake).all_ticks()
    assert sum(t.get("changelog_rows", 0) for t in ticks) == len(feed)


def test_per_key_op_sequences_are_legal(feed_lake):
    feed = _feed_df(feed_lake)
    # delete after-images carry no payload
    dels = feed[feed["change_op"] == "delete"]
    assert dels["content"].isna().all()
    bad = 0
    for _, g in feed.groupby(["repo", "path"]):
        ops = g.sort_values(["tick", "lsn"]).change_op.tolist()
        if ops[0] not in ("insert", "delete"):  # delete of a never-seen key ok
            bad += 1
        for prev, cur in zip(ops, ops[1:]):
            # live keys update/delete; only a tombstoned key re-inserts
            if prev == "delete" and cur == "update":
                bad += 1
            if prev in ("insert", "update") and cur == "insert":
                bad += 1
    assert bad == 0


def test_incremental_consumer_view(feed_lake):
    """A downstream per-lang live-file count maintained from the feed alone
    matches the same view recomputed from the full state."""
    live = _fold_feed(_feed_df(feed_lake))
    got = live.groupby("lang").size().sort_index()
    state = final_state(feed_lake).to_pandas()
    exp = state.groupby("lang").size().sort_index()
    pd.testing.assert_series_equal(got, exp)


def test_crash_redo_feed_identical(ray_session, small_wal, tmp_path, crash_at):
    clean = str(tmp_path / "clean")
    ReplayEngine(
        small_wal.wal_dir, clean, num_buckets=8, concurrency=2, emit_changelog=True
    ).replay_all(segments_per_tick=2)

    crashy = str(tmp_path / "crashy")
    eng = ReplayEngine(
        small_wal.wal_dir, crashy, num_buckets=8, concurrency=2, emit_changelog=True
    )
    with crash_at("manifest.bucket", after=3):
        with pytest.raises(RuntimeError, match="injected crash"):
            eng.replay_all(segments_per_tick=2)
    # resume with a fresh engine: the crashed tick redoes (wiping its
    # half-written feed dir) and the final feed is byte-identical
    ReplayEngine(
        small_wal.wal_dir, crashy, num_buckets=8, concurrency=2, emit_changelog=True
    ).replay_all(segments_per_tick=2)
    a, b = _feed_df(clean), _feed_df(crashy)
    pd.testing.assert_frame_equal(a, b)


def test_erase_purges_feed_history(ray_session, small_wal, tmp_path):
    lake = str(tmp_path / "lake")
    ReplayEngine(
        small_wal.wal_dir, lake, num_buckets=8, concurrency=2, emit_changelog=True
    ).replay_all(segments_per_tick=2)
    state = final_state(lake).to_pandas()
    victims = [tuple(r) for r in state[["repo", "path"]].head(3).to_numpy()]

    from etl_ray.engine.maintenance import erase_keys

    res = erase_keys(lake, victims)
    assert res["changelog_rows_purged"] > 0
    feed = _feed_df(lake)
    vic = set(victims)
    subject = feed[[tuple(r) in vic for r in feed[["repo", "path"]].to_numpy()]]
    # the ONLY remaining subject rows are key-only erase records
    assert (subject["change_op"] == "erase").all()
    assert len(subject) == len(victims)
    assert subject["content"].isna().all() and subject["commit"].isna().all()
    assert (subject["tick"] == res["tick"]).all()
    # consumers folding the feed drop the subject
    assert not any(
        tuple(r) in vic for r in _fold_feed(feed)[["repo", "path"]].to_numpy()
    )


def test_feed_retention_gc(ray_session, small_wal, tmp_path):
    lake = str(tmp_path / "lake")
    eng = ReplayEngine(
        small_wal.wal_dir, lake, num_buckets=8, concurrency=2,
        emit_changelog=True, changelog_retain=1,
    )
    res = eng.replay_all(segments_per_tick=1)
    assert len(res) >= 3
    kept = sorted({k for p in ticklog.parts(lake, ticklog.FEED) for k in p["keys"]})
    last = res[-1].tick
    assert kept and min(kept) >= last - 1, kept


def test_fold_feed_dataset_equals_state(feed_lake):
    """The distributed consumer fold (changelog.fold_feed) reproduces the
    live state exactly — same rows as the engine's own export."""
    from etl_ray.engine.changelog import fold_feed

    got = (
        fold_feed(feed_lake, num_partitions=4)
        .to_pandas()
        .sort_values(["repo", "path"])
        .reset_index(drop=True)
    )
    state = (
        final_state(feed_lake)
        .to_pandas()
        .sort_values(["repo", "path"])
        .reset_index(drop=True)
    )
    assert len(got) == len(state)
    for col in ["repo", "path", "commit", "lsn", "content"]:
        assert (got[col].astype(object) == state[col].astype(object)).all(), col


def test_purge_distributed_path(ray_session, small_wal, tmp_path):
    """The feed erasure (one ``run_tasks`` path for any part count) removes
    exactly the subjects' rows that a lake copy holds, and nothing else."""
    import shutil

    lake = str(tmp_path / "lake")
    ReplayEngine(
        small_wal.wal_dir, lake, num_buckets=8, concurrency=2, emit_changelog=True
    ).replay_all(segments_per_tick=1)
    state = final_state(lake).to_pandas()
    victims = [tuple(r) for r in state[["repo", "path"]].head(5).to_numpy()]

    lake2 = str(tmp_path / "lake2")
    shutil.copytree(lake, lake2)

    removed = ticklog.erase(lake, ticklog.FEED, victims)
    before = _feed_df(lake2)
    hit = pd.Series(
        [tuple(r) in set(victims) for r in before[["repo", "path"]].to_numpy()]
    )
    assert removed == int(hit.sum()) > 0
    pd.testing.assert_frame_equal(
        _feed_df(lake), before[~hit.to_numpy()].reset_index(drop=True)
    )


def test_feed_tick_range_filters(feed_lake):
    """from_tick/to_tick bound the feed; union of disjoint ranges == whole."""
    whole = _feed_df(feed_lake)
    ticks = sorted(whole["tick"].unique())
    assert len(ticks) >= 2
    lo = _feed_df(feed_lake, to_tick=ticks[0])
    hi = _feed_df(feed_lake, from_tick=ticks[0] + 1)
    assert set(lo["tick"].unique()) == {ticks[0]}
    assert set(hi["tick"].unique()) == set(ticks[1:])
    both = (
        pd.concat([lo, hi], ignore_index=True)
        .sort_values(["tick", "lsn", "repo", "path"])
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(both, whole)


def test_feed_matches_duckdb_oracle(feed_lake, small_wal):
    """Independent SQL oracle for the feed: for each committed tick T with
    WAL prefix P_T, the per-key winners of P_T that differ from P_{T-1}'s
    (by winning LSN) are exactly the tick's feed rows — ops included."""
    import duckdb

    from etl_ray.engine.lineage import LakeLineage

    con = duckdb.connect()

    def winners(through_seqno):
        files = [s["file"] for s in small_wal.segments if s["seqno"] <= through_seqno]
        if not files:
            return pd.DataFrame(columns=["repo", "path", "lsn", "deleted"])
        fl = ", ".join(f"'{f}'" for f in files)
        return con.execute(
            f"""
            SELECT repo, path, lsn, (op = 'delete') AS deleted FROM (
                SELECT *, row_number() OVER (
                    PARTITION BY repo, path ORDER BY lsn DESC) rn
                FROM read_parquet([{fl}], union_by_name=true)
                WHERE op IN ('insert','update','delete')
                  AND repo IS NOT NULL AND path IS NOT NULL AND lsn IS NOT NULL
            ) WHERE rn = 1
            """
        ).df()

    ticks = LakeLineage(feed_lake).all_ticks()
    prev_seq = None
    checked = 0
    for t in ticks:
        if not t.get("segments"):
            continue
        cur = winners(t["through_seqno"]).set_index(["repo", "path"])
        prev = (
            winners(prev_seq)
            if prev_seq is not None
            else pd.DataFrame(columns=["repo", "path", "lsn", "deleted"])
        ).set_index(["repo", "path"])
        prev_seq = t["through_seqno"]
        j = cur.join(prev, rsuffix="_p", how="left")
        changed = j[j["lsn"] != j["lsn_p"].fillna(-1)] if "lsn_p" in j else j
        prev_live = (~changed["deleted_p"].fillna(True).astype(bool)) if "deleted_p" in changed else pd.Series(False, index=changed.index)
        exp_op = pd.Series(
            ["delete" if d else ("update" if pl else "insert")
             for d, pl in zip(changed["deleted"], prev_live)],
            index=changed.index,
        )
        exp = (
            changed.assign(change_op=exp_op)[["lsn", "change_op"]]
            .reset_index()
            .sort_values(["repo", "path"])
            .reset_index(drop=True)
        )
        got = _feed_df(feed_lake, from_tick=t["tick"], to_tick=t["tick"])[
            ["repo", "path", "lsn", "change_op"]
        ].sort_values(["repo", "path"]).reset_index(drop=True)
        pd.testing.assert_frame_equal(
            got, exp.astype({"lsn": "int64"}), obj=f"tick {t['tick']}"
        )
        checked += 1
    assert checked >= 2


def test_ranged_fold_keeps_delete_markers(feed_lake):
    """A ranged fold is an incremental MERGE table: per-key latest record
    INCLUDING tombstones — merging it onto the pre-range state reproduces
    the final live state (dropping them would keep deleted keys alive)."""
    from etl_ray.engine.changelog import fold_feed

    whole = _feed_df(feed_lake)
    ticks = sorted(whole["tick"].unique())
    assert len(ticks) >= 2
    cut = ticks[1]  # fold ticks >= cut as the increment

    inc = fold_feed(feed_lake, from_tick=cut, num_partitions=4).to_pandas()
    assert "change_op" in inc.columns, "ranged fold must keep ops"
    # the fixture (delete_rate=0.06, multi-tick) must actually exercise
    # delete retention — a vacuous pass here would hide a regression
    assert (inc["change_op"] == "delete").any(), "fixture lacks post-cut deletes"
    # consumer merge: pre-range live state + increment (LWW, deletes win)
    base = _fold_feed(whole[whole["tick"] < cut])
    merged = pd.concat(
        [base.assign(change_op="insert"), inc], ignore_index=True
    )
    live = (
        merged.sort_values("lsn", kind="mergesort")
        .groupby(["repo", "path"], as_index=False)
        .tail(1)
    )
    live = live[~live["change_op"].isin(["delete", "erase"])]
    state = final_state(feed_lake).to_pandas()
    assert len(live) == len(state)
    got = live.sort_values(["repo", "path"])["lsn"].to_numpy()
    exp = state.sort_values(["repo", "path"])["lsn"].to_numpy()
    assert (got == exp).all()


def test_compact_feed(ray_session, small_wal, tmp_path):
    """VERDICT r3 #8: `compact --feed` merges per-(tick, bucket) parts into
    fewer parts (one row group per tick, indexed in the footer) with NO
    change to what consumers see: full and tick-ranged reads identical, fold
    still equals live state, retention/audit/erasure still work, re-run
    no-ops."""
    from etl_ray.engine.changelog import (
        committed_changelog_parts,
        feed_covers_from_start,
        fold_feed,
    )

    lake = str(tmp_path / "lake")
    ReplayEngine(
        small_wal.wal_dir, lake, num_buckets=8, concurrency=2, emit_changelog=True
    ).replay_all(segments_per_tick=1)

    def canon(df):
        cols = ["tick", "lsn", "repo", "path", "change_op", "deleted"]
        return df[cols].sort_values(cols).reset_index(drop=True)

    before = canon(_feed_df(lake))
    ranged_before = canon(_feed_df(lake, from_tick=1, to_tick=2))
    n_small = len(ticklog.parts(lake, ticklog.FEED))

    res = ticklog.compact(lake, ticklog.FEED)
    assert res["keys"] >= 3 and res["parts_merged"] == n_small
    n_after = len(ticklog.parts(lake, ticklog.FEED))
    on_disk = os.listdir(os.path.join(lake, "_changelog"))
    assert len(on_disk) == n_after, f"tick parts absorbed: {on_disk}"
    assert n_after < n_small, "fewer files is the point"

    pd.testing.assert_frame_equal(canon(_feed_df(lake)), before)
    # ranged read goes through row-group pruning on the compacted run
    pd.testing.assert_frame_equal(
        canon(_feed_df(lake, from_tick=1, to_tick=2)), ranged_before
    )
    assert feed_covers_from_start(lake)

    # consumer fold over the compacted feed still equals the live state
    folded = (
        fold_feed(lake).to_pandas().sort_values(["repo", "path"]).reset_index(drop=True)
    )
    state = (
        final_state(lake).to_pandas().sort_values(["repo", "path"]).reset_index(drop=True)
    )
    assert len(folded) == len(state)
    assert (folded["lsn"].to_numpy() == state["lsn"].to_numpy()).all()

    # the offline audit runs green over the compacted layout
    from etl_ray.engine.lineage import LakeLineage
    from etl_ray.engine.quality import TickContext, check_feed_consistency

    lin = LakeLineage(lake)
    mans = lin.all_bucket_manifests()
    ctx = TickContext(
        lineage=lin, tick=lin.last_tick()["tick"], events=0, segments=[],
        new_manifests=mans, prev_manifests={m["bucket"]: m for m in mans},
        prev_tick=lin.last_tick(),
    )
    assert check_feed_consistency(ctx) == []

    # GDPR purge rewrites compacted groups and keeps the index exact
    subj = (str(before["repo"].iloc[0]), str(before["path"].iloc[0]))
    removed = ticklog.erase(lake, ticklog.FEED, [subj])
    assert removed > 0
    after_purge = _feed_df(lake)
    hit = (after_purge["repo"] == subj[0]) & (after_purge["path"] == subj[1])
    assert not hit.any()
    pd.testing.assert_frame_equal(
        canon(_feed_df(lake, from_tick=1, to_tick=2)),
        ranged_before[
            ~((ranged_before["repo"] == subj[0]) & (ranged_before["path"] == subj[1]))
        ].reset_index(drop=True),
    )

    # second compact is a no-op; retention drops a compacted part only when
    # its whole range is below the cutoff
    assert ticklog.compact(lake, ticklog.FEED)["keys"] == 0
    spans = {
        p["file"]: (min(p["keys"]), max(p["keys"]))
        for p in ticklog.parts(lake, ticklog.FEED)
    }
    straddler, (_, cut) = next((f, s) for f, s in spans.items() if s[0] < s[1])
    dropped = ticklog.drop_below(lake, ticklog.FEED, cut)
    assert dropped == sum(top < cut for _, top in spans.values())
    assert os.path.exists(straddler)
    hi = lin.last_tick()["tick"]
    assert ticklog.drop_below(lake, ticklog.FEED, hi + 1) == n_after - dropped
    assert committed_changelog_parts(lake) == []


def test_erase_heals_a_crash_mid_purge_of_a_compacted_feed(
    ray_session, tmp_path, monkeypatch
):
    """A crash right after an erasure renames a rewritten compacted feed
    part must not tear the part from its tick index: the subject is a
    tick's only row of its bucket, so the part's row groups shift. A re-run
    of the erasure then leaves full and ranged reads equal to an uncrashed
    erasure's."""
    import shutil

    import ray

    from etl_ray.__main__ import main
    from etl_ray.engine import partitioning
    from etl_ray.engine.changelog import read_changelog
    from etl_ray.engine.maintenance import erase_keys
    from etl_ray.engine.partitioning import bucket_of
    from etl_ray.wal import generate_wal

    # small ticks over many buckets: most buckets get a row or two a tick
    wal = generate_wal(
        str(tmp_path / "wal"), seed=13, n_events=1_200, n_repos=8,
        paths_per_repo=60, segment_rows=200, content_min=16, content_max=64,
        days_span=3,
    )
    lake = str(tmp_path / "lake")
    ReplayEngine(
        wal.wal_dir, lake, num_buckets=32, concurrency=2, emit_changelog=True
    ).replay_all(segments_per_tick=1)
    assert main(["compact", "--lake", lake, "--feed"]) == 0
    feed = _feed_df(lake)
    feed["bucket"] = bucket_of(
        pa.array(feed["repo"]), pa.array(feed["path"]), 32
    ).to_numpy()
    alone = feed.groupby(["tick", "bucket"]).filter(lambda g: len(g) == 1)
    assert len(alone), "fixture needs a tick whose bucket holds one feed row"
    subject = (alone["repo"].iloc[0], alone["path"].iloc[0])

    clean = str(tmp_path / "clean")
    shutil.copytree(lake, clean)
    erase_keys(clean, [subject])

    # run the feed's tasks in process, and crash right after the first
    # rename that publishes a rewritten feed part
    monkeypatch.setattr(
        partitioning, "task_refs",
        lambda fn, chunks, *a: [ray.put(fn(c, *a)) for c in chunks],
    )
    real_replace = os.replace

    def crash_after_feed_rename(src, dst, *a, **kw):
        real_replace(src, dst, *a, **kw)
        if os.path.join(lake, "_changelog") in str(dst) and str(dst).endswith(".parquet"):
            raise RuntimeError("crash after the feed part rename")

    with monkeypatch.context() as m:
        m.setattr(os, "replace", crash_after_feed_rename)
        with pytest.raises(RuntimeError, match="crash after the feed part rename"):
            erase_keys(lake, [subject])
    erase_keys(lake, [subject])

    def canon(df):
        return df.sort_values(sorted(c for c in df.columns if c != "content")).reset_index(drop=True)

    for rng in ((None, None), (1, 2)):
        got = canon(read_changelog(lake, *rng).to_pandas())
        exp = canon(read_changelog(clean, *rng).to_pandas())
        pd.testing.assert_frame_equal(got, exp)
