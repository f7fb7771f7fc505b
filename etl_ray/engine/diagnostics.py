"""Operational diagnostics: partition-skew report for a committed lake.

The engine's scale story leans on hash partitioning by (repo, path) with
per-batch pre-reduction absorbing hot keys (partitioning.py); this report is
the ops-side check that the story holds for a given lake: per-bucket row
distribution (from lineage manifests — free), hot-repo top-k (per-bucket
counts of one narrow column), and a recommendation when imbalance crosses
thresholds (rebucket for too-few buckets, salt cells for a dominant single
key).

Reference analog: the reference sizes/monitors its per-app BigQuery day
partitions by row count in ops dashboards; a bucketed lake needs the
equivalent per hash partition.
"""

from __future__ import annotations

import collections

import numpy as np

from .lineage import LakeLineage
from .partitioning import run_tasks


def _repo_counts(mans: list[dict]) -> list[collections.Counter]:
    """Skew-report task: live rows per repo over the chunk's buckets."""
    import pyarrow.compute as pc

    from .apply import read_bucket_state

    counts: collections.Counter = collections.Counter()
    for man in mans:
        t = read_bucket_state(man, columns=["repo", "deleted"])
        vc = pc.value_counts(t.filter(pc.invert(t["deleted"]))["repo"])
        values, n = vc.field("values").to_pylist(), vc.field("counts").to_pylist()
        counts.update(dict(zip(values, n)))
    return [counts]


def skew_report(lake_dir: str, *, top_k: int = 20) -> dict:
    """Bucket-size distribution + hot-repo top-k for the live state.

    Bucket stats come from the committed manifests (no data read). The
    hot-key scan is ``run_tasks`` over the buckets: each task reads only
    the ``repo``/``deleted`` columns and returns live rows per repo, so
    the driver sums |repos|-sized counters, never |state| rows, and takes
    the top k (ties by repo name)."""
    lineage = LakeLineage(lake_dir)
    mans = lineage.all_bucket_manifests()
    if not mans:
        return {"buckets": 0}
    rows = np.array([m["rows"] for m in mans], np.int64)
    live = np.array([m["live_rows"] for m in mans], np.int64)
    # mean over the lake's CONFIGURED bucket count, not just the touched
    # buckets — untouched buckets have no manifest, and ignoring them hides
    # exactly the skew this report exists to surface (few hot keys → few
    # manifests, all similar-sized → imbalance falsely reads 1.0)
    last = lineage.last_tick()
    nb = last["num_buckets"] if last is not None else len(mans)
    mean = float(rows.sum()) / max(nb, 1)
    stats = {
        "buckets": len(mans),
        "num_buckets": nb,
        "state_rows": int(rows.sum()),
        "live_rows": int(live.sum()),
        "bucket_rows_min": int(rows.min()),
        "bucket_rows_median": float(np.median(rows)),
        "bucket_rows_max": int(rows.max()),
        "bucket_rows_p99": float(np.percentile(rows, 99)),
        # max/mean: 1.0 = perfectly even; >2 = one straggler bucket slows
        # every barrier stage to ~imbalance× the even wall time
        "imbalance_max_over_mean": round(float(rows.max()) / mean, 3) if mean else 0.0,
        "hottest_bucket": int(mans[int(rows.argmax())]["bucket"]),
    }

    counts = sum(run_tasks(_repo_counts, mans), collections.Counter())
    top = sorted(counts.items(), key=lambda rc: (-rc[1], rc[0]))[:top_k]
    stats["top_repos"] = [{"repo": r, "live_rows": c} for r, c in top]
    if stats["top_repos"]:
        frac = stats["top_repos"][0]["live_rows"] / max(1, stats["live_rows"])
        stats["hottest_repo_fraction"] = round(frac, 4)

    recs = []
    if stats["imbalance_max_over_mean"] > 2.0:
        if stats.get("hottest_repo_fraction", 0) > 1.0 / nb:
            recs.append(
                "a single repo dominates its bucket: split it with salt "
                "cells (partitioning.salt_of) or key on (repo, path) shards"
            )
        else:
            recs.append(
                f"bucket imbalance {stats['imbalance_max_over_mean']}x: "
                f"rebucket to a higher count (python -m etl_ray rebucket)"
            )
    stats["recommendations"] = recs
    return stats
