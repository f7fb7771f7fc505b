"""Final-state export: the live lake table as a Dataset, plus content sha256.

The per-row ``content`` sha256 is the correctness invariant (BASELINE.json);
the hashing stage is the direct descendant of the reference's pseudonymizer
(``mod_load_data_gdpr.sql:39,52``: ``TO_BASE64(SHA256(CAST(col AS STRING)))``
per configured column) — a stateless pass over Arrow tables.

One path for both state modes: ``min(buckets, cluster CPUs)`` tasks, each
reading its contiguous chunk of bucket manifests with the engine's own
merge-on-read (``apply.read_bucket_state``: a direct read of a rewrite-mode
base, the LWW fold of a delta chain), aligning, filtering tombstones and
hashing in the same task. The Dataset comes back materialized: a lazy plan
runs again whenever a consumer asks for its schema (``to_arrow_refs`` does),
so the sha pass would run twice or more.
"""

from __future__ import annotations

import hashlib
import os

import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from .apply import DELETED_COL
from .lineage import LakeLineage
from .schema_evo import align_to, unify_schemas


def sha256_column(col: pa.ChunkedArray | pa.Array, *, out_name: str = "content_sha256") -> pa.Array:
    """Hex sha256 per row; null in → null out. Tight loop over Arrow buffers
    (no vectorized sha exists in numpy/pyarrow; hashlib's C core per row)."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    out: list[str | None] = []
    sha = hashlib.sha256
    for v in col:
        buf = v.as_buffer() if v.is_valid else None
        out.append(sha(buf).hexdigest() if buf is not None else None)
    return pa.array(out, pa.string())


def add_content_sha(batch: pa.Table) -> pa.Table:
    return batch.append_column("content_sha256", sha256_column(batch["content"]))


def _as_of_manifests(lineage: LakeLineage, as_of_tick: int) -> list[dict]:
    """Per bucket, a pseudo-manifest describing its exact content as of
    ``as_of_tick``: the newest committed BASE state with tick <= as_of_tick
    plus, in a delta-mode lake, the delta files in (base_tick, as_of_tick]
    (folded by the same merge-on-read LWW as live reads). Requires the lake
    to have been replayed with ``retain_ticks`` covering the point (see
    ``LakeLineage.gc``). Buckets whose first write postdates ``as_of_tick``
    are (correctly) absent. A ``rebucket`` rewrites the whole key space
    under new bucket ids and resets time-travel history — as-of reads are
    valid only back to the latest rebucket.

    A historical chain's schema is not the one its live manifest records,
    so each pseudo-manifest embeds the union of its chain files' footers
    (the only footer reads of a schema sweep)."""
    import glob
    import re

    import pyarrow.parquet as pq

    from .apply import schema_b64

    last = lineage.last_tick()
    if last is None:
        raise FileNotFoundError(f"no committed ticks under {lineage.lake_dir}")
    if as_of_tick > last["tick"]:
        raise ValueError(f"as_of_tick {as_of_tick} is in the future (last: {last['tick']})")
    retained = last["retained_through_tick"]
    if as_of_tick < retained:
        raise ValueError(
            f"as_of_tick {as_of_tick} predates retained history "
            f"(earliest exact point: {retained}; replay with retain_ticks, "
            "and note that maintenance ops — erase/compact/rebucket — purge "
            "history, erasure deliberately so: retained states would keep "
            "the erased subject's rows)"
        )
    out = []
    for bdir in sorted(glob.glob(os.path.join(lineage.buckets_dir, "b=*"))):
        bases, deltas = [], []
        for f in glob.glob(os.path.join(bdir, "state-t*.parquet")):
            if f.endswith(".fold.parquet"):
                continue
            if f.endswith(".delta.parquet"):
                m = re.search(r"state-t(\d+)\.delta\.parquet$", f)
                if m:
                    deltas.append((int(m.group(1)), f))
            else:
                m = re.search(r"state-t(\d+)\.parquet$", f)
                if m and int(m.group(1)) <= as_of_tick:
                    bases.append((int(m.group(1)), f))
        if not bases:
            continue
        base_tick, base = max(bases)
        chain = [
            f for t, f in sorted(deltas) if base_tick < t <= as_of_tick
        ]
        schema = unify_schemas([pq.read_schema(f) for f in [base, *chain]])
        out.append(
            {
                "bucket": int(os.path.basename(bdir)[len("b="):]),
                "data_file": base,
                "delta_files": chain,
                "schema_b64": schema_b64(schema),
            }
        )
    return out


def final_state(
    lake_dir: str,
    *,
    with_sha: bool = False,
    include_tombstones: bool = False,
    as_of_tick: int | None = None,
) -> ray.data.Dataset:
    """MATERIALIZED Dataset over the committed lake state (manifest-listed
    files only — uncommitted staging files are invisible, per the 2-phase
    commit). ``as_of_tick`` time-travels to a past commit point (requires
    the lake to have been replayed with ``retain_ticks`` covering it).

    ``min(buckets, cluster CPUs)`` tasks each run, per bucket of their
    contiguous chunk: ``read_bucket_state`` (a live export publishes the
    delta-chain fold cache; an as-of chain differs from the live manifest
    and would self-invalidate at once, so it does not), ``align_to`` the
    unified schema, the tombstone filter (unless ``include_tombstones``)
    and ``add_content_sha`` (if ``with_sha``).

    The result is held in Ray's object store, which spills to disk beyond
    its memory budget. Materializing costs no extra residency for the
    ``to_arrow_refs`` consumers, which hold every block anyway, and runs
    the pipeline once: a lazy plan re-executes to fetch its schema (at 16
    buckets the sha stage used to run 33 times)."""
    from .apply import bucket_schemas, read_bucket_state
    from .partitioning import run_spilled

    lineage = LakeLineage(lake_dir)
    if as_of_tick is None:
        lineage.last_tick()  # refuses a lake written before the current format
        manifests = lineage.all_bucket_manifests()
    else:
        manifests = _as_of_manifests(lineage, as_of_tick)
    if not manifests:
        raise FileNotFoundError(f"no committed bucket manifests under {lake_dir}")

    # schema evolution: old buckets may predate new columns — unify + align
    # to the union of the schemas the bucket manifests record
    target = unify_schemas(bucket_schemas(manifests))
    publish = as_of_tick is None
    # only what read_bucket_state needs, one shape for every manifest kind
    items = [
        {
            "bucket": m["bucket"],
            "data_file": m["data_file"],
            "delta_files": m["delta_files"],
        }
        for m in manifests
    ]

    def export_chunk(batch: pa.Table):
        # one table per bucket: Ray Data cuts the yields into blocks of its
        # target size, so a task holds one bucket plus one block, not its
        # whole chunk of the lake
        for m in batch.to_pylist():
            t = align_to(read_bucket_state(m, publish_cache=publish), target)
            t = t.select(target.names)
            if not include_tombstones:
                t = t.filter(pc.equal(t[DELETED_COL], False)).drop_columns([DELETED_COL])
            yield add_content_sha(t) if with_sha else t

    return run_spilled(items, export_chunk)
