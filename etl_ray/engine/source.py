"""WAL segment discovery and schema-aligned reads.

Analog of the reference's load reader + readiness sensors: read only the
partitions in range (``mod_load_data_get_data.sql:10-32``) after checking
source manifests (``apps_flyer.py:209-257`` GCS sensors → here, the WAL's
``_segments.json``).

Segments may carry different (additively-evolving) schemas; every segment's
row groups are promoted to the unified target schema as they are read, so
the rest of the pipeline sees one stable schema. The change feed's parts
are read the same way (:func:`parts_dataset`). These two readers are the
only ``from_items`` → ``map_batches`` pipelines outside ``partitioning``.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.parquet as pq
import ray.data

from ..wal import WalInfo
from .schema_evo import align_to, unify_schemas


def pending_segments(wal: WalInfo, through_seqno: int, max_segments: int | None = None) -> list[dict]:
    segs = [s for s in wal.segments if s["seqno"] > through_seqno]
    segs.sort(key=lambda s: s["seqno"])
    if max_segments is not None:
        segs = segs[:max_segments]
    return segs


def target_schema_for(segments: list[dict]) -> pa.Schema:
    """Unified envelope schema across the segment group (cheap: footer reads
    on the driver, one per distinct schema fingerprint)."""
    schemas: list[pa.Schema] = []
    seen: set[tuple] = set()
    for s in segments:
        key = (
            s.get("has_size_bytes", False),
            s.get("has_meta", False),
            s.get("size_bytes_int32", False),
        )
        if key in seen:
            continue
        seen.add(key)
        schemas.append(pq.read_schema(s["file"]))
    return unify_schemas(schemas)


def read_segments_indexed(
    segments: list[dict],
    target: pa.Schema,
    *,
    num_blocks: int,
    columns: list[str] | None = None,
) -> ray.data.Dataset:
    """Descriptor-driven segment reader: one Dataset of (file, row-group
    range) work items, each task reading its row groups directly with
    ``pq.ParquetFile`` and aligning to ``target``.

    Why not ``ray.data.read_parquet``: its dataset CONSTRUCTION does
    driver-side metadata prefetch + in-memory-size sampling (it reads real
    data on the driver) — ~2.5 s per tick on a 17-segment WAL, pure serial
    overhead the tick pays before the first task runs. The WAL manifest
    already knows per-segment row counts, and segments are written with 32k
    row groups precisely so readers can split them; footer reads here are
    one cheap metadata fetch per file."""
    if columns is not None:
        target = pa.schema([f for f in target if f.name in set(columns)])

    total_rows = max(sum(s["rows"] for s in segments), 1)
    # apportion num_blocks across files by row share (largest remainder),
    # then split each file into its k EVENLY-sized contiguous rg ranges
    # (blocks cannot span files); even sizes pack scheduling waves tightly
    nb = max(num_blocks, len(segments))
    quota = [s["rows"] * nb / total_rows for s in segments]
    ks = [max(1, int(q)) for q in quota]
    rem = sorted(
        range(len(segments)), key=lambda i: quota[i] - int(quota[i]), reverse=True
    )
    for i in rem:
        if sum(ks) >= nb:
            break
        ks[i] += 1
    items = []
    for s, k in zip(segments, ks):
        md = pq.ParquetFile(s["file"]).metadata  # footer only
        n_rgs = md.num_row_groups
        k = min(n_rgs, k)
        bounds = [round(j * n_rgs / k) for j in range(k + 1)]
        for lo, hi in zip(bounds, bounds[1:]):
            if hi > lo:
                items.append({"file": s["file"], "rg_start": lo, "rg_end": hi})

    def read_item(batch: pa.Table) -> pa.Table:
        outs = []
        for i in range(batch.num_rows):
            f = batch["file"][i].as_py()
            lo, hi = batch["rg_start"][i].as_py(), batch["rg_end"][i].as_py()
            pf = pq.ParquetFile(f)
            avail = set(pf.schema_arrow.names)
            cols = [c for c in (columns or target.names) if c in avail]
            t = pf.read_row_groups(list(range(lo, hi)), columns=cols)
            outs.append(align_to(t, target))
        return pa.concat_tables(outs)

    return ray.data.from_items(items, override_num_blocks=len(items)).map_batches(
        read_item, batch_format="pyarrow", batch_size=None, zero_copy_batch=True
    )


def parts_dataset(parts: list[dict], columns: list[str] | None = None):
    """LAZY Ray Dataset over per-tick log parts (``ticklog.parts``; the
    change feed streams it, the feed fold and audit spill it, the
    quarantine export writes it): ``min(parts, cluster CPUs)`` blocks, each
    task reading its contiguous chunk of parts' indexed row groups aligned
    to the parts' unified schema (mid-stream evolution)."""
    from .partitioning import fan_out

    if not parts:
        return ray.data.from_items([])

    uni = unify_schemas([pq.read_schema(p["file"]) for p in parts])
    if columns:
        uni = pa.schema([f for f in uni if f.name in set(columns)])

    def read_part(batch):
        # one table per part, not one per chunk: Ray Data cuts the yields
        # into blocks of its target size, so a chunk's task never holds its
        # whole feed range at once
        for row in batch.to_pylist():
            pf = pq.ParquetFile(row["file"])
            cols = (
                [c for c in columns if c in pf.schema_arrow.names]
                if columns
                else None
            )
            t = pf.read_row_groups([int(r) for r in row["rgs"]], columns=cols)
            pf.close()
            yield align_to(t, uni).select(uni.names)

    return ray.data.from_items(parts, override_num_blocks=fan_out(len(parts))).map_batches(
        read_part, batch_format="pyarrow", batch_size=None
    )
