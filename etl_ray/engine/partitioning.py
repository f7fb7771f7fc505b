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
tasks each read only their groups' row groups (:func:`read_row_groups`,
:func:`read_spilled`). Replay, bootstrap, rebucket, the GDPR map, the feed
audit and the change-feed fold each pair the producer with consumers of
their own. View partials keep one row group each, with per-group row
ranges (``views.core``).

Every fan-out over buckets, files or days follows one sizing rule,
:func:`fan_out` (``min(items, cluster CPUs)`` tasks, each over a contiguous
:func:`cpu_chunks` chunk), and runs through :func:`run_tasks` or
:func:`task_refs` (one cached plain Ray task handle per module-level
function) when it returns counters, manifests or refs. :func:`run_spilled`
is only for a Dataset whose consumer takes it one bucket at a time (export,
the change-feed fold), where ``from_arrow_refs`` would add one metadata task
per yield (an export built that way took 0.50 s against 0.39 s, 1-core VM,
one run).
"""

from __future__ import annotations

import functools
import os
import uuid

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from .lineage import publish

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

    def write(tmp: str) -> None:
        with pq.ParquetWriter(
            tmp, data.schema, compression="snappy",
            use_dictionary=False, write_statistics=False,
        ) as writer:
            for s, e in zip(starts, ends):
                writer.write_table(data.slice(s, e - s), row_group_size=e - s)

    publish(path, write, point="shuffle.spill")
    return (
        [int(codes[s]) for s in starts],
        list(range(len(starts))),
        [int(e - s) for s, e in zip(starts, ends)],
    )


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


@functools.cache
def _task(fn):
    """The one ``ray.remote(num_cpus=1)`` handle of ``fn``: a fresh handle
    re-pickles and re-exports the function on every fan-out (~2 ms); a
    cached one re-exports only when a new Ray job starts."""
    import ray

    return ray.remote(num_cpus=1)(fn)


def task_refs(fn, chunks: list, *args) -> list:
    """One plain Ray task ``fn(chunk, *args)`` per chunk; returns their
    refs. ``fn`` must be a module-level function (one cached handle each)."""
    task = _task(fn)
    return [task.remote(c, *args) for c in chunks]


def run_tasks(fn, items: list, *args, max_tasks: int | None = None) -> list:
    """The engine's fan-out for counters and manifests: ``fn(chunk, *args)``
    over the :func:`cpu_chunks` of ``items``, each returning a list; the
    lists concatenated in item order. Empty ``items`` start no task.
    ``ray.get`` is looked up on the ``ray`` module at call time."""
    import ray

    refs = task_refs(fn, cpu_chunks(items, max_tasks), *args)
    return [r for part in ray.get(refs) for r in part]


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
    """The engine's Dataset fan-out, for consumers that take the result one
    bucket at a time: ``fn(batch)`` over ``min(items, cluster
    CPUs[, max_tasks])`` tasks, each handed a contiguous batch of ``items``
    (read spill groups with :func:`read_spilled`, or per item); ``fn``
    returns or yields Arrow tables. Returns the MATERIALIZED
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
