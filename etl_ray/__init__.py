"""etl_ray — a Ray-Data-native CDC / incremental-ingest engine.

Re-expresses the semantics of the reference ETL (an Airflow + BigQuery SQL +
PySpark pipeline for event analytics — dedup, incremental stateful upsert,
schema evolution, idempotent partition commits, enrichment joins, rolling
aggregates, data-quality invariants) as an idiomatic Ray Data engine:

- ``ray.data.Dataset`` pipelines with ``map_batches`` over zero-copy Arrow,
- plain Ray tasks over contiguous bucket chunks for the stateful merge
  (state stays partitioned by bucket on the lake),
- an indexed on-disk spill for the (single) hash shuffle,
- two-phase Parquet lake commits with per-partition lineage manifests.

Layout:

- ``etl_ray.wal``        — deterministic CDC-log (WAL/binlog) generator
- ``etl_ray.oracle``     — DuckDB/pyarrow fold oracle for correctness
- ``etl_ray.engine``     — the replay engine (source → dedup → apply → commit)
- ``etl_ray.ops``        — general operator library (joins, dedup families,
                            text analysis, similarity search, multimodal stubs)
"""

__version__ = "0.1.0"
