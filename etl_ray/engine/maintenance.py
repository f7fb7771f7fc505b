"""Lake maintenance operations: targeted erasure and derivative snapshots.

- :func:`erase_keys` — the GDPR delete-request analog
  (``gdpr_delete_request.sql:8,62-68``: transactional removal of a user's
  rows): injects synthetic delete tombstones through the SAME merge/commit
  path as normal CDC events (a maintenance mini-tick), so exactly-once,
  lineage and resume semantics all hold. The erasure LSN is taken above the
  current high watermark so no late in-flight event can resurrect the rows.

- :func:`snapshot_derivatives` — the daily/monthly derivative-table analog
  (``insert_user_history_derivates.sql:6-23``: filter the state snapshot by
  recency into ``_daily`` / ``_monthly``): filters the live lake state by
  last-modified day into recency-bounded derivative Parquet tables.
"""

from __future__ import annotations

import os

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from . import ticklog
from .apply import DELETED_COL, MergeApplier
from .lineage import LakeLineage, json_writer, parquet_writer, publish
from .partitioning import bucket_of
from .replay import target_schema_ser, tick_spill_dir


ERASE_LSN_GAP = 1 << 20  # tombstone headroom over in-flight (bounded-late) events


def _settle_crashed_replay(lineage: LakeLineage, last: dict, op: str) -> None:
    """Run before ``op`` writes anything. A replay attempt of the next tick
    that crashed or was aborted — its shuffle dir (``replay.tick_spill_dir``,
    which only a commit removes) marks it — has already written that tick's
    log parts (feed, agg log, quarantine); ``op``'s commit under the same
    tick id would make them committed, and the redo would write them again
    under the next id. An attempt that published no bucket manifest (a
    quality-gate abort, a crash before the first publish) is dropped here,
    parts and shuffle, so ``op`` goes on; one that published some owns the
    tick id (its parts hold the only copy of those buckets' feed rows), so
    ``op`` raises until the next replay tick redoes it. A crashed
    maintenance op leaves no replay shuffle, so re-running it stays
    allowed."""
    import shutil

    tick = last["tick"] + 1
    spill = tick_spill_dir(lineage.lake_dir, tick)
    if not os.path.isdir(spill):
        return
    if any(m["tick"] > last["tick"] for m in lineage.all_bucket_manifests()):
        raise RuntimeError(
            f"{op}: replay tick {tick} crashed after publishing bucket "
            "manifests; run the next replay tick first (it redoes tick "
            f"{tick}), then re-run {op}"
        )
    for log in (ticklog.FEED, ticklog.AGGLOG, ticklog.QUARANTINE):
        ticklog.begin_tick(lineage.lake_dir, log, tick)
    shutil.rmtree(spill, ignore_errors=True)


def erase_keys(
    lake_dir: str,
    keys: list[tuple[str, str]],
    *,
    lsn_gap: int = ERASE_LSN_GAP,
    erase_map_fields: list[str] | None = None,
) -> dict:
    from .lock import writer_lock

    with writer_lock(lake_dir, "erase"):
        return _erase_keys_locked(
            lake_dir, keys, lsn_gap=lsn_gap, erase_map_fields=erase_map_fields
        )


def _erase_keys_locked(
    lake_dir: str,
    keys: list[tuple[str, str]],
    *,
    lsn_gap: int = ERASE_LSN_GAP,
    erase_map_fields: list[str] | None = None,
) -> dict:
    """Remove the given (repo, path) keys from the live state by applying
    delete tombstones (driver-side mini-tick: the key list is small by
    definition of a deletion request). Returns per-bucket apply stats.

    The tombstone LSN is placed ``lsn_gap`` ABOVE the applied watermark so
    WAL events already emitted but not yet applied (bounded lateness —
    within the gap) cannot out-rank it and resurrect the erased rows;
    genuinely NEW events beyond the gap legitimately re-create the key.
    Tombstones go to the buckets of the lake's own committed bucket count:
    any other count would leave the key live in its real bucket."""
    lineage = LakeLineage(lake_dir)
    lineage.recover()
    last = lineage.last_tick()
    if last is None:
        raise RuntimeError("cannot erase from an empty lake (no committed tick)")
    _settle_crashed_replay(lineage, last, "erase")
    tick_id = last["tick"] + 1
    # anchor the tombstone gap on the TRUE WAL high-LSN, not the (possibly
    # already erase-inflated) applied watermark — otherwise repeated erasures
    # stack gaps (k·lsn_gap after k erasures) and later compaction loses its
    # lateness protection entirely. Successive erasures step by +1 above the
    # applied watermark so later delete-requests still out-rank earlier ones.
    erase_lsn = max(
        last["applied_through_lsn"] + 1, last["wal_through_lsn"] + lsn_gap
    )

    repos = pa.array([k[0] for k in keys], pa.string())
    paths = pa.array([k[1] for k in keys], pa.string())
    n = len(keys)
    # state-shaped tombstone rows (the lake's unified schema, as the bucket
    # manifests record it — delta files included)
    from .apply import bucket_schemas
    from .schema_evo import unify_schemas

    target = unify_schemas(bucket_schemas(lineage.all_bucket_manifests()))
    cols = {}
    for f in target:
        if f.name == "repo":
            cols[f.name] = repos
        elif f.name == "path":
            cols[f.name] = paths
        elif f.name == "lsn":
            cols[f.name] = pa.array([erase_lsn] * n, pa.int64())
        elif f.name == DELETED_COL:
            cols[f.name] = pa.array([True] * n, pa.bool_())
        else:
            cols[f.name] = pa.nulls(n, f.type)
    deltas = pa.table(cols)
    buckets = bucket_of(deltas["repo"], deltas["path"], last["num_buckets"])

    applier = MergeApplier(
        lake_dir, tick_id, target_schema_ser(deltas.schema)
    )
    applied = 0
    for b in pc.unique(buckets).to_pylist():
        prev_man = lineage.bucket_manifest(int(b))
        part = deltas.filter(pc.equal(buckets, b))
        d, _ = applier._apply_one(int(b), part)
        if prev_man is not None:
            # the erase mini-tick runs without folds configured; carry the
            # bucket's fold LSN-tail sidecar reference (the fold watermark
            # rides through apply_bucket) so fold dedup state survives the
            # erasure (the tail file itself is GC-kept via this ref)
            d["fold_file"] = prev_man["fold_file"]
        lineage.publish_bucket(d)
        applied += part.num_rows
    # the per-tick logs forget the subject: the change data feed's retained
    # history (then key-only erase records tell downstream consumers to
    # forget too — the feed must not republish the data it is erasing) and
    # the quarantine (a bad_op row keeps its key and content). A crash
    # before the tick publish loses the erase records for consumers (the
    # redo wipes the uncommitted tick's parts): like any failed
    # delete-request, erase_keys MUST be re-run to completion — it is
    # idempotent, and the re-run re-appends the records under its own tick.
    feed_purged = ticklog.erase(lake_dir, ticklog.FEED, keys)
    if ticklog.exists(lake_dir, ticklog.FEED):
        from .changelog import append_erase_records

        append_erase_records(lake_dir, tick_id, keys, erase_lsn, target)
    quarantine_purged = ticklog.erase(lake_dir, ticklog.QUARANTINE, keys)
    # erasure does NOT advance the WAL: only applied_through_lsn moves
    lineage.publish_maintenance_tick(
        last, "erasure", applied_through_lsn=erase_lsn, events=n,
        buckets_touched=len(pc.unique(buckets)),
    )
    # the subject's narrow event rows go from the agg log too, and the
    # daily aggregates they fed are recomputed without them (re-running an
    # interrupted erasure finishes this, like the feed purge above)
    from .aggregates import erase_from_agglog

    agglog = erase_from_agglog(lineage, keys, last["tz_offset_minutes"])
    map_removed = 0
    if erase_map_fields:
        # the GDPR delete-request also removes the subject's pseudonym-map
        # rows (gdpr_delete_request.sql:62-68) — the stored hashes become
        # irreversible
        from . import gdpr

        for f in erase_map_fields:
            # a bare field name is only unambiguous for the key columns; any
            # other pseudonymized column needs an explicit "field=value" so
            # the delete-request can never silently remove zero mapping rows
            # (the gdpr_delete_request.sql completeness invariant)
            if "=" in f:
                fname, _, fval = f.partition("=")
                map_removed += gdpr.erase_from_map(lake_dir, fname, [fval])
            elif f == "repo":
                map_removed += gdpr.erase_from_map(lake_dir, f, [k[0] for k in keys])
            elif f == "path":
                map_removed += gdpr.erase_from_map(lake_dir, f, [k[1] for k in keys])
            else:
                raise ValueError(
                    f"--map-field {f!r}: subject values are only derivable "
                    "from the erase keys for 'repo'/'path'; pass an explicit "
                    f"'{f}=<value>' pair for other pseudonymized fields"
                )
    lineage.gc()
    return {
        "erased": applied,
        "tick": tick_id,
        "erase_lsn": erase_lsn,
        "map_rows_removed": map_removed,
        "changelog_rows_purged": feed_purged,
        "quarantine_rows_purged": quarantine_purged,
        **agglog,
    }


def snapshot_derivatives(
    lake_dir: str,
    out_dir: str,
    *,
    daily_days: int = 1,
    monthly_days: int = 30,
    step_us_per_lsn: int,
) -> dict:
    """Write ``daily/`` and ``monthly/`` derivative tables: live rows whose
    last modification falls within the trailing window, measured against the
    lake's high watermark. Recency is derived from each row's applied LSN
    via the log's time step (``step_us_per_lsn`` — commit_ts is monotone
    with LSN, so lsn distance × step = event-time distance)."""
    from .export import final_state

    lineage = LakeLineage(lake_dir)
    last = lineage.last_tick()
    if last is None:
        raise RuntimeError("empty lake")
    # erasure ticks inflate applied_through_lsn by lsn_gap; recency windows
    # must anchor on the true WAL position
    hi_lsn = last["wal_through_lsn"]
    us_day = 86_400_000_000

    os.makedirs(out_dir, exist_ok=True)
    out = {}
    for name, window_days in (("daily", daily_days), ("monthly", monthly_days)):
        # streaming: distributed filter + partitioned parquet write — the
        # live table never materializes on the driver (it is the full lake)
        lo_lsn = hi_lsn - (window_days * us_day) // step_us_per_lsn
        ds = final_state(lake_dir).map_batches(
            lambda t, lo=lo_lsn: t.filter(pc.greater_equal(t["lsn"], lo)),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
        d = os.path.join(out_dir, name)
        tmp = d + ".tmp"
        import glob as _glob
        import shutil

        shutil.rmtree(tmp, ignore_errors=True)
        shutil.rmtree(d + ".old", ignore_errors=True)
        ds.write_parquet(tmp)
        # row count from parquet footers (metadata-only read, no data decode)
        out[name] = sum(
            pq.ParquetFile(f).metadata.num_rows
            for f in _glob.glob(os.path.join(tmp, "*.parquet"))
        )
        # the live snapshot stays readable until the replacement is fully
        # written: move it aside only now, swap in, then drop the old copy —
        # a mid-write crash leaves the previous snapshot published
        if os.path.exists(d):
            os.replace(d, d + ".old")
        os.replace(tmp, d)
        shutil.rmtree(d + ".old", ignore_errors=True)
    return out


def rebucket(lake_dir: str, new_num_buckets: int) -> dict:
    from .lock import writer_lock

    with writer_lock(lake_dir, "rebucket"):
        return _rebucket_locked(lake_dir, new_num_buckets)


def _rebucket_locked(lake_dir: str, new_num_buckets: int) -> dict:
    """Change the lake's bucket count — the partition-evolution operation a
    growing lake needs (bucket count is otherwise fixed at creation; at
    100× data growth the original count under-parallelizes every stage).

    Distributed re-partition using the engine's own indexed-spill shape:
    one map pass over the committed state files writes per-NEW-bucket
    parquet row groups, then each of ``min(new buckets, CPUs)`` tasks
    folds + key-sorts the state files of its contiguous chunk of new
    buckets (both passes are ``partitioning.run_tasks`` fan-outs).
    Fold-tail sidecars are UNIONed into every new bucket (an LSN tail hit
    always means 'this exact event already folded', so the union stays
    exact while keys move buckets).

    Crash-safe via a rollback marker: the old manifest snapshot is
    persisted BEFORE any manifest changes; ``LakeLineage.recover()`` (run
    at every tick start and rebucket start) rolls a half-published attempt
    back to the old layout. The tick manifest is the commit point, as
    everywhere else."""
    import numpy as np

    from .schema_evo import unify_schemas

    lineage = LakeLineage(lake_dir)
    lineage.recover()
    last = lineage.last_tick()
    if last is None:
        raise RuntimeError("empty lake")
    _settle_crashed_replay(lineage, last, "rebucket")
    tick_id = last["tick"] + 1
    old_manifests = lineage.all_bucket_manifests()
    from .apply import bucket_files, bucket_schemas

    files = [f for m in old_manifests for f in bucket_files(m)]
    target = unify_schemas(bucket_schemas(old_manifests))
    nb = new_num_buckets

    spill_dir = os.path.join(lake_dir, "_shuffle", f"rebucket-{tick_id:06d}")
    import shutil

    shutil.rmtree(spill_dir, ignore_errors=True)
    os.makedirs(spill_dir, exist_ok=True)

    from .partitioning import run_tasks, spilled_items

    items = spilled_items(run_tasks(_rebucket_spill, files, target, nb, spill_dir))

    # fold-tail union (exact: LSNs are globally unique per event); the new
    # fold watermark is the MIN over old buckets — a lower horizon only
    # keeps more tail entries, never over-prunes
    fold_hi = min((m["fold_through_lsn"] for m in old_manifests), default=0)
    tail_union = None
    old_tails = [m["fold_file"] for m in old_manifests if m["fold_file"]]
    if old_tails:
        t = pa.concat_tables(pq.read_table(f) for f in old_tails)
        tail_union = pa.table(
            {"lsn": pa.array(np.unique(t["lsn"].to_numpy()), pa.int64())}
        )
    new_manifests = run_tasks(
        _rebucket_write_chunk, items, lake_dir, tick_id, tail_union, fold_hi
    )

    # rollback marker BEFORE any manifest mutation (the recovery anchor)
    publish(
        lineage.rebucket_marker_path,
        json_writer({"tick": tick_id, "old_manifests": old_manifests}),
        point="rebucket.marker",
    )
    for m in new_manifests:
        lineage.publish_bucket(m)
    new_ids = {m["bucket"] for m in new_manifests}
    for m in old_manifests:
        if m["bucket"] not in new_ids:
            lineage.remove_bucket_manifest(m["bucket"])
    tick = lineage.publish_maintenance_tick(
        last, "rebucket", num_buckets=nb, buckets_touched=len(new_manifests)
    )
    os.remove(lineage.rebucket_marker_path)
    lineage.gc()
    shutil.rmtree(spill_dir, ignore_errors=True)
    return {
        "tick": tick_id,
        "num_buckets": nb,
        "buckets": len(new_manifests),
        "state_rows": tick["state_rows"],
    }


def _rebucket_spill(
    files: list[str], target: pa.Schema, nb: int, spill_dir: str
) -> list[dict]:
    """Rebucket's producer task: each old state file of the chunk spilled
    on the new bucket count; returns the spill descriptors. Files are read
    directly: a path-inferring reader would hive-parse the buckets/b=00017/
    layout into a phantom string column `b` (the OLD bucket id) baked into
    every rewritten state file."""
    from .partitioning import spill_buckets
    from .schema_evo import align_to

    return [
        r
        for f in files
        for r in spill_buckets(
            align_to(pq.ParquetFile(f).read(), target), nb, spill_dir
        ).to_pylist()
    ]


def _rebucket_write_chunk(
    items: list[dict], lake_dir: str, tick_id: int, tail_union, fold_hi: int
) -> list[dict]:
    """Rebucket's writer task: per new bucket of the chunk, fold its spilled
    rows (a delta-mode source repeats touched keys across base+delta files;
    a no-op on an already-folded rewrite lake), key-sort and write the new
    base, plus the fold-tail union; returns the bucket manifests."""
    from .apply import bucket_manifest, fold_tail_path
    from .dedup import last_writer
    from .partitioning import read_row_groups

    out = []
    for it in items:
        bucket = it["bucket"]
        t = last_writer(read_row_groups({}, it["files"], it["rgs"]))  # key-sorted
        out_path = LakeLineage(lake_dir).bucket_state_path(bucket, tick_id)
        publish(out_path, parquet_writer(t, compression="zstd"), point="rebucket.state")
        fold_file = None
        if tail_union is not None:
            fold_file = fold_tail_path(out_path)
            write = parquet_writer(tail_union, compression="snappy")
            publish(fold_file, write, point="rebucket.fold_tail")
        out.append(
            bucket_manifest(
                bucket, tick_id, t, data_file=out_path, delta_files=[],
                written=[out_path, *([fold_file] if fold_file else [])],
                fold_file=fold_file, fold_through_lsn=fold_hi,
            )
        )
    return out


def compact_tombstones(
    lake_dir: str,
    *,
    keep_after_lsn: int | None = None,
    lateness_bound: int = ERASE_LSN_GAP,
) -> dict:
    from .lock import writer_lock

    with writer_lock(lake_dir, "compact"):
        return _compact_tombstones_locked(
            lake_dir, keep_after_lsn=keep_after_lsn, lateness_bound=lateness_bound
        )


def _compact_tombstones_locked(
    lake_dir: str,
    *,
    keep_after_lsn: int | None = None,
    lateness_bound: int = ERASE_LSN_GAP,
) -> dict:
    """Drop tombstones whose delete-LSN is at or below the safe watermark
    (the documented GC policy: a tombstone only needs to outlive the maximum
    possible lateness of the log; below the low watermark no event can
    arrive that it would still need to shadow).

    The default watermark is ``wal_through_lsn − lateness_bound``: the
    WAL delivers bounded-out-of-order events across segment boundaries, so a
    tombstone within the lateness bound of the high watermark may still need
    to shadow a late lower-LSN update arriving in a later tick — collecting
    it would resurrect the erased key. Pass ``lateness_bound=0`` (or an
    explicit ``keep_after_lsn``) only when the WAL source is fully consumed
    and closed. Rewrites only buckets that actually shrink.
    """
    lineage = LakeLineage(lake_dir)
    lineage.recover()
    last = lineage.last_tick()
    if last is None:
        raise RuntimeError("empty lake")
    _settle_crashed_replay(lineage, last, "compact")
    if keep_after_lsn is None:
        # derive from the TRUE WAL high-LSN: applied_through_lsn is inflated
        # by lsn_gap per erasure tick, which would silently zero (then turn
        # negative) the lateness protection and let late lower-LSN updates
        # resurrect erased keys
        watermark = last["wal_through_lsn"] - lateness_bound
    else:
        watermark = keep_after_lsn
    tick_id = last["tick"] + 1

    from .apply import bucket_manifest, read_bucket_state

    removed = rewritten = 0
    for man in lineage.all_bucket_manifests():
        t = read_bucket_state(man)  # folded view in delta mode
        dead = pc.and_(t[DELETED_COL], pc.less_equal(t["lsn"], watermark))
        n_dead = pc.sum(dead).as_py() or 0
        if n_dead == 0 and not man["delta_files"]:
            continue
        kept = t.filter(pc.invert(dead))
        out_path = lineage.bucket_state_path(man["bucket"], tick_id)
        write = parquet_writer(kept, compression="zstd")
        publish(out_path, write, point="compact.state")
        # compaction always lands as a fresh BASE: the delta chain resets;
        # the watermark stays (dropping tombstones applies no event)
        lineage.publish_bucket(
            bucket_manifest(
                man["bucket"], tick_id, kept, data_file=out_path,
                delta_files=[], written=[out_path], fold_file=man["fold_file"],
                fold_through_lsn=man["fold_through_lsn"],
                applied_lsn=man["applied_lsn"],
            )
        )
        removed += n_dead
        rewritten += 1
    # explicit tick record: a compaction tick must not inherit the previous
    # tick's segments/buckets_touched fields (it would masquerade as a
    # segment-processing tick in lineage and in the feed audit's coverage scan)
    lineage.publish_maintenance_tick(last, "compaction", buckets_touched=rewritten)
    lineage.gc()
    return {"tombstones_removed": removed, "buckets_rewritten": rewritten, "tick": tick_id}
