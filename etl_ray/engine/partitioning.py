"""Stable hash partitioning of the CDC key space.

The shuffle key for the whole engine is ``hash(repo, path) % num_buckets``
(SURVEY.md §4: one partitioning key, reused by every stage so state is never
re-shuffled between ticks). The hash must be stable across processes and
Python versions — we use pandas' vectorized siphash
(``pd.util.hash_pandas_object``) with its fixed default key, not Python's
salted ``hash()``.

The same file format is the engine's ONE shuffle. A producer tags each row
with a group (``hash(keys) % G``), sorts by group and writes one parquet
file with one row group per group (:func:`write_bucket_rgs`), returning
``(bucket, file, rg)`` descriptors; ``min(groups, cluster CPUs)`` consumer
tasks each read only their groups' row groups (:func:`run_spilled`,
:func:`read_spilled`). Bootstrap, the GDPR map merge and the change-feed
fold use both halves; replay, rebucket and the feed audit use the producer
and descriptors with their own consumers. View partials keep one row group
each, with per-group row ranges (``views.core``).

Every fan-out over buckets, files or days follows one sizing rule,
:func:`fan_out`: ``min(items, cluster CPUs)`` tasks, each over a
contiguous chunk (:func:`cpu_chunks`) — plain Ray tasks where the driver
only needs counters or manifests (replay's appliers, view refresh, the
aggregate recompute, rebucket's writers, the feed audit) or a few small
blocks (view reads: the task refs become a Dataset through
``ray.data.from_arrow_refs``; on a 1-core VM one aggregate-view read takes
36-42 ms this way, against 65-77 ms through a Ray Data pipeline);
:func:`run_spilled` for a Dataset result whose consumers take it one bucket
at a time (export, rebucket's producer, the change feed, feed and agg-log
compaction) — there ``from_arrow_refs`` would add one metadata task per
yield, and an export built that way took 0.50 s against 0.39 s (1-core VM,
one run).

Skew note: hot repos (Zipf head) are handled *before* this shuffle by the
per-batch last-writer pre-reduction in ``dedup.reduce_batch`` — a hot key
contributes at most one row per input batch to the shuffle, which is the
moral equivalent of salted sub-keys (each batch is a salt cell) followed by a
salt-merge in the bucket applier. An explicit (bucket, salt) two-stage path
is available via ``salt_of`` for pipelines whose reduction is not
batch-associative.
"""

from __future__ import annotations

import os
import uuid

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

BUCKET_COL = "__bucket"


def stable_hash64(*string_arrays: pa.ChunkedArray | pa.Array) -> np.ndarray:
    """Vectorized stable uint64 hash of the element-wise concatenation of
    one or more Arrow string columns (0x1f-separated)."""
    joined = (
        string_arrays[0]
        if len(string_arrays) == 1
        else pc.binary_join_element_wise(*string_arrays, "\x1f")
    )
    ser = joined.to_pandas()
    return pd.util.hash_pandas_object(ser, index=False).to_numpy()


def bucket_of(repo: pa.ChunkedArray, path: pa.ChunkedArray, num_buckets: int) -> pa.Array:
    h = stable_hash64(repo, path)
    return pa.array((h % np.uint64(num_buckets)).astype(np.int32))


def with_bucket(table: pa.Table, num_buckets: int) -> pa.Table:
    return table.append_column(
        BUCKET_COL, bucket_of(table["repo"], table["path"], num_buckets)
    )


def hash_groups(table: pa.Table, keys: list[str], num_groups: int) -> np.ndarray:
    """``stable_hash64(keys) % num_groups`` per row (keys cast to string;
    null keys hash alike, so they share a group)."""
    h = stable_hash64(*(pc.cast(table[k], pa.string()) for k in keys))
    return (h % np.uint64(num_groups)).astype(np.int64)


def write_bucket_rgs(data: pa.Table, codes, path: str) -> tuple[list, list, list]:
    """Indexed shuffle file: one parquet, one ROW GROUP per bucket run
    (input must be sorted by bucket). Readers fetch only their row group —
    no per-(task, bucket) tiny-file explosion. Returns (buckets, rgs, rows);
    zero rows write a schema-only file.

    ``row_group_size`` covers each whole run: pyarrow splits at ~1M rows by
    default, which would strand a big run's tail in an unindexed group.
    Readers pick row groups by index, never by value, so the file carries
    no statistics and no dictionary pages: both cost per row group and
    saved nothing measurable in size (one 14k-row stage-1 batch: 12.7 vs
    12.8 MB, write 15 vs 22 ms).
    """
    codes = np.asarray(codes)
    bounds = np.flatnonzero(np.diff(codes)) + 1
    starts = np.concatenate([[0], bounds]) if len(codes) else []
    ends = np.concatenate([bounds, [len(codes)]])
    buckets_out, rgs_out, rows_out = [], [], []
    writer = pq.ParquetWriter(
        path + ".tmp", data.schema, compression="snappy",
        use_dictionary=False, write_statistics=False,
    )
    try:
        for rg, (s, e) in enumerate(zip(starts, ends)):
            writer.write_table(data.slice(s, e - s), row_group_size=e - s)
            buckets_out.append(int(codes[s]))
            rgs_out.append(rg)
            rows_out.append(int(e - s))
    finally:
        writer.close()
    os.replace(path + ".tmp", path)
    return buckets_out, rgs_out, rows_out


def spill(table: pa.Table, codes: np.ndarray, spill_dir: str) -> pa.Table:
    """Producer half of the shuffle: sort ``table`` by its rows' group
    ``codes`` and write it as one indexed file under ``spill_dir``. Returns
    one ``(bucket, file, rg)`` descriptor row per group present."""
    order = np.argsort(codes, kind="stable")
    f = os.path.join(spill_dir, f"part-{uuid.uuid4().hex}.parquet")
    groups, rgs, _ = write_bucket_rgs(table.take(order), codes[order], f)
    return pa.table(
        {
            "bucket": pa.array(groups, pa.int32()),
            "file": pa.array([f] * len(groups), pa.string()),
            "rg": pa.array(rgs, pa.int32()),
        }
    )


def spill_buckets(table: pa.Table, num_buckets: int, spill_dir: str) -> pa.Table:
    """:func:`spill` on the engine's bucket, ``hash(repo, path) % num_buckets``."""
    codes = bucket_of(table["repo"], table["path"], num_buckets).to_numpy()
    return spill(table, codes, spill_dir)


def read_row_groups(
    pf_cache: dict[str, pq.ParquetFile], files: list[str], rgs: list[int]
) -> pa.Table | None:
    """Concat the given (file, row group) pairs of spill files; ``pf_cache``
    keeps the open file handles across calls. Files written from
    differently-shaped batches concat under permissive promotion."""
    parts = []
    for f, rg in zip(files, rgs):
        pf = pf_cache.get(f)
        if pf is None:
            pf = pf_cache[f] = pq.ParquetFile(f)
        parts.append(pf.read_row_group(rg))
    return pa.concat_tables(parts, promote_options="permissive") if parts else None


def cluster_cpus() -> int:
    """CPUs of the live Ray cluster; the host's when Ray is not up (yet),
    so sizing never raises outside a Ray session."""
    import ray

    if ray.is_initialized():
        return int(ray.cluster_resources().get("CPU", 1))
    return int(os.cpu_count() or 1)


def fan_out(n: int, max_tasks: int | None = None) -> int:
    """The engine's one fan-out rule: ``n`` items run as ``min(n, cluster
    CPUs[, max_tasks])`` tasks. Per-item tasks cost Ray dispatch per
    bucket; per-chunk tasks cost it per CPU."""
    return min(n, cluster_cpus(), max_tasks or n)


def cpu_chunks(items: list, max_tasks: int | None = None) -> list[list]:
    """``items`` cut into :func:`fan_out` contiguous chunks of near-equal
    size (sizes differ by at most one), one task each."""
    n = fan_out(len(items), max_tasks)
    bounds = [i * len(items) // n for i in range(n + 1)] if n else []
    return [items[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


def spilled_items(descriptors) -> list[dict]:
    """Collect producer descriptor rows into one consumer item per group:
    ``{"bucket": g, "files": [...], "rgs": [...]}``, sorted by group."""
    by_group: dict[int, tuple[list, list]] = {}
    for r in descriptors:
        files, rgs = by_group.setdefault(int(r["bucket"]), ([], []))
        files.append(r["file"])
        rgs.append(int(r["rg"]))
    return [
        {"bucket": g, "files": f, "rgs": r} for g, (f, r) in sorted(by_group.items())
    ]


def read_spilled(items: pa.Table) -> pa.Table:
    """All rows of a consumer's groups (a non-empty batch of
    :func:`spilled_items`), with one row-group read per spill file."""
    by_file: dict[str, list[int]] = {}
    for files, rgs in zip(items["files"].to_pylist(), items["rgs"].to_pylist()):
        for f, rg in zip(files, rgs):
            by_file.setdefault(f, []).append(rg)
    return pa.concat_tables(
        [pq.ParquetFile(f).read_row_groups(sorted(r)) for f, r in by_file.items()],
        promote_options="permissive",
    )


def run_spilled(items: list[dict], fn, *, max_tasks: int | None = None):
    """Consumer half of the shuffle, and the engine's Dataset fan-out over
    any item list: ``fn(batch)`` over ``min(items, cluster
    CPUs[, max_tasks])`` tasks, each handed a contiguous batch of ``items``
    (read spill groups with :func:`read_spilled`, or per item); ``fn``
    returns an Arrow table or a pandas frame. Returns the MATERIALIZED
    Dataset: its schema is then known without a second execution
    (``to_arrow_refs``/``schema()`` re-run a lazy pipeline), and the spill
    files may go as soon as this returns."""
    import ray.data

    return (
        ray.data.from_items(
            items, override_num_blocks=max(fan_out(len(items), max_tasks), 1)
        )
        .map_batches(fn, batch_format="pyarrow", batch_size=None)
        .materialize()
    )


def salt_of(lsn: pa.ChunkedArray, n_salts: int, window: int = 1 << 16) -> pa.Array:
    """Optional explicit salt for hot-key splitting: events of one key land in
    ``n_salts`` sub-cells by LSN window; sub-cells are reduced independently
    then merged (max-LSN wins) — correct because LWW is associative."""
    v = lsn.to_numpy() if hasattr(lsn, "to_numpy") else np.asarray(lsn)
    return pa.array(((v // window) % n_salts).astype(np.int32))
