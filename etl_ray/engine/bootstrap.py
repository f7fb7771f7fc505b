"""Bootstrap: initialize a lake from an existing table snapshot, then tail
the WAL — the snapshot-then-stream attach every CDC system needs (Debezium's
initial-snapshot phase; the reference's one-off backfill loads before daily
incremental loads take over).

Semantics: the snapshot's rows become the lake's tick-0 state. If the
snapshot carries a per-row ``lsn`` column (e.g. it was itself exported from
a CDC fold), per-key ordering versus later out-of-order WAL events is exact
— replay after bootstrap byte-matches a full-WAL replay. Without one, every
row gets ``default_lsn`` and intra-snapshot ordering is flattened: a WAL
event only overrides a snapshot row if its LSN exceeds ``default_lsn``
(document/choose it as the snapshot's high watermark).

Aggregates start EMPTY: a snapshot has no event stream, so day partitions
cover post-bootstrap activity only (deterministic — the agg-log fast path
sees a complete log of every post-bootstrap segment tick). When the full
WAL is actually available, ``recompute-aggs --day`` heals any day from it.
The change data feed likewise starts at the bootstrap point: snapshot rows
never enter it, so ``fold_feed`` alone cannot reconstruct a bootstrapped
lake — consumers seed from the snapshot (or an ``export``) and apply the
feed from there; the ``feed_consistency`` audit check skips bootstrap
lakes for exactly this reason.

Pipeline: ``Ray Data parquet read of the snapshot → prep (lsn/deleted) →
spill on the bucket (the engine's one shuffle, ``partitioning.spill``) →
MergeApplier.apply_spilled in consumer tasks (no prior state) → publish
manifests + tick 0`` — the engine's own apply/commit path, so two-phase
crash safety and exactly-once re-run semantics hold unchanged.
"""

from __future__ import annotations

import os
import shutil

import pyarrow as pa

from .apply import DELETED_COL, MergeApplier
from .lineage import LakeLineage
from .lock import writer_lock
from .partitioning import BUCKET_COL, run_spilled, spill_buckets, spilled_items


def bootstrap_lake(
    lake_dir: str,
    table_path: str,
    *,
    num_buckets: int = 32,
    through_seqno: int = -1,
    default_lsn: int = 0,
    concurrency: int | tuple[int, int] | None = None,
    hive_partitioning: bool = False,
) -> dict:
    """Import ``table_path`` (parquet file/dir with at least repo, path
    columns) as the lake's initial state. ``through_seqno`` is the WAL
    segment the snapshot corresponds to — replay resumes strictly after it.
    Refuses a non-empty lake (bootstrap is an attach, not a merge).

    ``hive_partitioning=True`` materializes ``key=value`` directory
    components as real columns — for snapshots whose partition columns live
    only in the directory names (Spark/Hive exports). Default False: a
    copied lake layout (``buckets/b=*/``) must not gain a phantom column."""
    import ray.data

    from .replay import target_schema_ser

    with writer_lock(lake_dir, "bootstrap"):
        lineage = LakeLineage(lake_dir)
        if lineage.last_tick() is not None:
            raise RuntimeError(
                "bootstrap requires an empty lake (found committed ticks); "
                "use replay to continue an existing lake"
            )

        spill_dir = os.path.join(lake_dir, "_shuffle", "bootstrap")
        shutil.rmtree(spill_dir, ignore_errors=True)  # crashed-run leftovers
        os.makedirs(spill_dir)

        def prep_spill(t: pa.Table) -> pa.Table:
            if BUCKET_COL in t.schema.names:
                t = t.drop_columns([BUCKET_COL])
            if "lsn" in t.schema.names:
                t = t.set_column(
                    t.schema.get_field_index("lsn"),
                    "lsn",
                    t["lsn"].cast(pa.int64()),
                )
            else:
                t = t.append_column(
                    "lsn", pa.array([default_lsn] * t.num_rows, pa.int64())
                )
            if DELETED_COL not in t.schema.names:
                t = t.append_column(
                    DELETED_COL, pa.array([False] * t.num_rows, pa.bool_())
                )
            return spill_buckets(t, num_buckets, spill_dir)

        if hive_partitioning:
            src = ray.data.read_parquet(table_path)
        else:
            src = ray.data.read_parquet(table_path, partitioning=None)
        # default partitioning=None: a snapshot under key=value directories
        # (date=…, or a copy of a lake's own buckets/b=*/ layout) must
        # not hive-infer phantom columns into the tick-0 state;
        # hive_partitioning=True opts in for genuinely partitioned exports
        items = spilled_items(
            src.map_batches(prep_spill, batch_format="pyarrow").take_all()
        )
        # state schema = source schema with lsn forced int64 and the
        # tombstone flag appended (what prep emits, minus the bucket key)
        base = src.schema().base_schema
        fields = []
        for f in base:
            if f.name == BUCKET_COL:
                continue
            fields.append(
                pa.field("lsn", pa.int64()) if f.name == "lsn" else f
            )
        names = {f.name for f in fields}
        if "lsn" not in names:
            fields.append(pa.field("lsn", pa.int64()))
        if DELETED_COL not in names:
            fields.append(pa.field(DELETED_COL, pa.bool_()))
        schema_ser = target_schema_ser(pa.schema(fields))

        def apply(batch: pa.Table) -> pa.Table:
            return MergeApplier(lake_dir, 0, schema_ser).apply_spilled(batch)

        cap = concurrency[1] if isinstance(concurrency, tuple) else concurrency
        manifests = (
            run_spilled(items, apply, max_tasks=cap).take_all() if items else []
        )
        shutil.rmtree(spill_dir, ignore_errors=True)

        rows = 0
        max_lsn = int(default_lsn)
        for m in manifests:
            lineage.publish_bucket(dict(m))
            rows += int(m["rows"])
            max_lsn = max(max_lsn, int(m["applied_lsn"]))
        lineage.publish_tick(
            {
                "tick": 0,
                "through_seqno": int(through_seqno),
                "applied_through_lsn": max_lsn,
                "wal_through_lsn": max_lsn,
                "segments": [],
                "events": rows,
                "buckets_touched": len(manifests),
                "state_rows": rows,
                "live_rows": rows,
                "num_buckets": num_buckets,
                # a snapshot has no event stream: aggregates start empty, and
                # the first replay tick's offset is the one they use
                "tz_offset_minutes": 0,
                "kind": "bootstrap",
                "retained_through_tick": 0,
            }
        )
        return {
            "rows": rows,
            "buckets": len(manifests),
            "through_seqno": int(through_seqno),
            "max_lsn": max_lsn,
        }
