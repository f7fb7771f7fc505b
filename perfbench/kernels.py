"""Single-process kernel pass: the data-plane kernels the replay tick runs,
timed in the benchmark's main process on a fixed slice of the workload's own WAL, with no Ray
scheduling in the way. Each kernel runs ``repeats`` times; the median is
reported as rows (or MB) per second.
"""

from __future__ import annotations

import glob
import os
import statistics
import time

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

SLICE_ROWS = 20_000
KERNEL_TICK = 999_999  # tick id for the merge kernel's scratch output


def _rate(fn, units: float, repeats: int, before=None) -> float:
    secs = []
    for _ in range(repeats):
        if before is not None:
            before()  # untimed reset between repeats
        t0 = time.perf_counter()
        fn()
        secs.append(time.perf_counter() - t0)
    return units / statistics.median(secs)


def _longest_chain(manifests: list[dict]) -> dict:
    return max(
        manifests, key=lambda m: (len(m.get("delta_files") or []), m["rows"], -m["bucket"])
    )


def kernel_pass(
    wal, lake_dir: str, scratch_dir: str, *, num_buckets: int, state_mode: str,
    repeats: int = 5,
) -> dict[str, float]:
    """``lake_dir`` is a committed lake built from ``wal`` (the merge and
    merge-on-read kernels use its largest/longest bucket). Returns
    per-layer metric name -> rate."""
    from etl_ray.engine.apply import (
        MergeApplier,
        deltas_to_state_shape,
        read_bucket_state,
    )
    from etl_ray.engine.dedup import last_writer
    from etl_ray.engine.enrich import LangEnricher
    from etl_ray.engine.export import sha256_column
    from etl_ray.engine.lineage import LakeLineage
    from etl_ray.engine.partitioning import BUCKET_COL, with_bucket, write_bucket_rgs
    from etl_ray.engine.quality import split_valid
    from etl_ray.engine.replay import deltas_schema, target_schema_ser
    from etl_ray.engine.source import target_schema_for

    os.makedirs(scratch_dir, exist_ok=True)
    # fixed slice: the head of the last segment (it carries every evolved
    # column, so the kernels see the widest schema the lake holds)
    raw = pq.read_table(wal.segments[-1]["file"]).slice(0, SLICE_ROWS)
    n = raw.num_rows
    valid, _bad = split_valid(raw)
    enricher = LangEnricher()
    enriched = enricher(valid)
    deltas = deltas_to_state_shape(last_writer(enriched))

    def spill():
        b = with_bucket(deltas, num_buckets)
        b = b.take(pc.sort_indices(b, sort_keys=[(BUCKET_COL, "ascending")]))
        write_bucket_rgs(
            b.drop_columns([BUCKET_COL]),
            b[BUCKET_COL].to_numpy(),
            os.path.join(scratch_dir, "spill.parquet"),
        )

    content_mb = pc.sum(pc.binary_length(valid["content"])).as_py() / 1e6
    out = {
        "quality.split_valid_rows_per_s": _rate(lambda: split_valid(raw), n, repeats),
        "enrich.lang_rows_per_s": _rate(lambda: enricher(valid), valid.num_rows, repeats),
        "dedup.last_writer_rows_per_s": _rate(
            lambda: last_writer(enriched), enriched.num_rows, repeats
        ),
        "partitioning.spill_rows_per_s": _rate(spill, deltas.num_rows, repeats),
        "export.sha256_mb_per_s": _rate(
            lambda: sha256_column(valid["content"]), content_mb, repeats
        ),
    }

    # merge: one bucket's slice deltas into its committed state, in process
    manifests = LakeLineage(lake_dir).all_bucket_manifests()
    man = max(manifests, key=lambda m: (m["rows"], -m["bucket"]))
    bucket = man["bucket"]
    b = with_bucket(deltas, num_buckets)
    mine = b.filter(pc.equal(b[BUCKET_COL], bucket)).drop_columns([BUCKET_COL])
    spill_file = os.path.join(scratch_dir, f"merge-b{bucket}.parquet")
    _, rgs, _ = write_bucket_rgs(mine, [bucket] * mine.num_rows, spill_file)
    applier = MergeApplier(
        lake_dir, KERNEL_TICK,
        target_schema_ser(deltas_schema(target_schema_for(wal.segments))),
        state_mode=state_mode,
    )
    desc = pa.table(
        {
            "bucket": pa.array([bucket], pa.int32()),
            "files": pa.array([[spill_file] * len(rgs)], pa.list_(pa.string())),
            "rgs": pa.array([rgs], pa.list_(pa.int32())),
        }
    )
    out["apply.merge_rows_per_s"] = _rate(
        lambda: applier.apply_spilled(desc), man["rows"] + mine.num_rows, repeats
    )

    # merge-on-read of the longest chain, fold cache removed so the fold runs
    chain = _longest_chain(manifests)
    bdir = os.path.dirname(chain["data_file"])

    def drop_fold_cache():
        for f in glob.glob(os.path.join(bdir, "foldcache-*.parquet")):
            os.remove(f)

    out["apply.read_bucket_state_rows_per_s"] = _rate(
        lambda: read_bucket_state(chain), chain["rows"], repeats, before=drop_fold_cache
    )
    return out
