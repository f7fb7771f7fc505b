"""Derived VIEW tables of a multi-table lake.

A view is maintained incrementally from an upstream table's bucket-level
lineage (the reference's aggregation-table cascade,
``DAG_external_source.py:132-224``, re-expressed at bucket grain): a
two-level aggregate where per-bucket partials are recomputed ONLY for
buckets whose manifest tick advanced since the view's last refresh, and the
final rows are a small reduce over partial rows at read time. Partial grain
is bounded by aggregate grain, not event count, so a refresh touches
O(changed buckets) state files.

Modules: ``refresh`` (the view-kind table and the one refresh pass per
source), ``aggregate`` and ``session`` (one kind record each), ``core``
(the record type, the shared field rules, partial-file I/O and the
read-side reduce) and ``encoding`` (the packed first/last cells).
"""
