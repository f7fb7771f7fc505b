"""The CDC replay engine: source → dedup → merge-apply → two-phase commit.

Stage map (see SURVEY.md §7.1):

- ``source``        segment discovery + schema-grouped parquet reads   [S1,S5,S8]
- ``partitioning``  stable hash(repo, path) bucketing                  [shuffle key]
- ``dedup``         per-batch + per-bucket last-writer-wins reduction  [D1,D2,D5]
- ``enrich``        lang tagging from path extension (broadcast dim)   [M5,J3,ST6]
- ``apply``         apply_bucket: LWW upsert/delete + schema evolution [A5,J4,J5,D4]
- ``lineage``       bucket/tick manifests, watermarks, GC, resume      [ST4,ST5]
- ``aggregates``    incremental per-changed-day rollups                [A7,A8,A9]
- ``metrics``       pluggable MetricSpec surface                       [A6]
- ``export``        final-state dataset + content sha256               [M2]
- ``replay``        the tick loop (the "DAG")                          [§3.1]
"""

from .replay import ReplayEngine  # noqa: F401
