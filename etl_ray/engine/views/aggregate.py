"""Aggregate views: incrementally maintained two-level aggregates.

``view="aggregate"`` is the generic, config-driven form (GROUP BY columns +
an aggregate field list) — the engine-side equivalent of the reference's
semantic-layer materialized tables, which are likewise generated from a
per-app metric config (``materialized_fields_config.py:22-66``,
``app_config.py:209-221``). ``view="repo_stats"`` is a preset of the same
kind. Partials are per-bucket, recomputed only for buckets whose manifest
tick advanced; the read is a small reduce over partial rows.
"""

from __future__ import annotations

import dataclasses

from .core import (
    ViewKind,
    _combine,
    _read_plan,
    _read_spans,
    _reduce_riders,
    _run_read,
    _view_manifest,
    _write_partial,
    check_fields,
)
from .encoding import _enc_types_load, _enc_types_payload, _extremal_fields

# the repo_stats preset, expressed in the generic aggregate-view spec — the
# reference's semantic layer is exactly this shape: config-driven
# materialized tables of (metric name, select expression) fields
# (``lib/app_config/materialized_fields_config.py:22-66``)
REPO_STATS_AGG = {
    "group_by": ["repo"],
    "aggs": [
        {"out": "live_files", "fn": "count"},
        # size_bytes arrives via additive schema evolution — optional lets
        # the view refresh before the column exists upstream
        {
            "out": "total_bytes", "col": "size_bytes", "fn": "sum",
            "default": 0, "optional": True,
        },
        {"out": "last_lsn", "col": "lsn", "fn": "max"},
    ],
}


def _agg_spec_of(spec) -> dict:
    return {
        "group_by": list(spec.view_group_by),
        "aggs": [dict(a) for a in spec.view_aggs],
    }


def _agg_check(spec) -> None:
    if not spec.view_group_by:
        raise ValueError(f"aggregate view {spec.name!r} needs group_by columns")
    if not spec.view_aggs:
        raise ValueError(f"aggregate view {spec.name!r} needs aggs")
    check_fields(spec, "output", spec.view_group_by)


def _agg_validate_types(agg_spec: dict, col_types: dict) -> None:
    import pyarrow as pa

    def _packable(t, *, as_value: bool) -> bool:
        return (
            pa.types.is_integer(t)
            or pa.types.is_timestamp(t)
            or pa.types.is_date(t)
            or pa.types.is_floating(t)
            or pa.types.is_boolean(t)
            or (as_value and (pa.types.is_string(t) or pa.types.is_binary(t)))
        )

    for a in _extremal_fields(agg_spec):
        bt = col_types[a["by"]]
        if not _packable(bt, as_value=False):
            raise ValueError(
                f"first/last order key {a['by']!r} has unorderable "
                f"type {bt} (need numeric/temporal)"
            )
        vt = col_types[a["col"]]
        if not _packable(vt, as_value=True):
            raise ValueError(
                f"first/last value column {a['col']!r} has unpackable "
                f"type {vt} (need string/binary/numeric/temporal)"
            )


def _agg_partial_of_state(
    t: "pa.Table", agg_spec: dict, out_path: str, num_groups: int
) -> int:
    """One bucket's partial of a derived aggregate view from its committed
    state ``t`` (read once per refresh pass, already cast to the unified
    upstream types — :func:`_partials_chunk`), hash-grouped on the view key
    into ``num_groups`` (:func:`_write_partial`). Idempotent; atomic
    publish."""
    import pyarrow as pa
    import pyarrow.compute as pc

    group_by = agg_spec["group_by"]
    live = t.filter(pc.invert(pc.coalesce(t["deleted"], pa.scalar(False))))
    out = _combine(live, agg_spec).sort_by([(k, "ascending") for k in group_by])
    return _write_partial(out, group_by, num_groups, out_path)


def _agg_read_chunk(spans, group_by, aggs, enc_types) -> "pa.Table":
    """One read task: the final reduce of its hash groups' partial rows."""
    return _reduce_riders(_read_spans(spans), group_by, aggs, enc_types)


def read_agg_view(agg_spec: dict, view_dir: str):
    """The view as a Ray Dataset: final reduce over the hash-grouped
    partials (aggregate-grain rows only — the combiner half was done at
    refresh) in one round of plain read tasks (:func:`_read_plan`; a
    group's rows all sit in one hash group): :func:`_reduce_riders` per
    task."""
    import pyarrow as pa
    import ray.data

    group_by = agg_spec["group_by"]
    aggs = agg_spec["aggs"]
    mf = _view_manifest(view_dir)
    enc_types = _enc_types_load(mf.get("enc_types"))
    schema, chunks = _read_plan(view_dir, mf.get("hash_groups"))
    if schema is None:
        # an unrefreshed view has no partials and no recorded types; surface
        # the declared shape (string keys, int64 metrics, float64 means,
        # manifest types — else string — for first/last)
        cols = {k: pa.array([], pa.string()) for k in group_by}
        for a in aggs:
            if a["fn"] in ("first", "last"):
                cols[a["out"]] = pa.array([], enc_types.get(a["out"], pa.string()))
            else:
                cols[a["out"]] = pa.array(
                    [], pa.float64() if a["fn"] == "mean" else pa.int64()
                )
        return ray.data.from_arrow(pa.table(cols))
    if not chunks:  # every partial empty: the typed empty reduce
        return ray.data.from_arrow(
            _reduce_riders(schema.empty_table(), group_by, aggs, enc_types)
        )
    return _run_read(_agg_read_chunk, chunks, group_by, aggs, enc_types)


AGGREGATE = ViewKind(
    fields=("view_group_by", "view_aggs"),
    spec_of=_agg_spec_of,
    check=_agg_check,
    need=lambda agg: list(
        dict.fromkeys(
            [
                *agg["group_by"],
                *(v for a in agg["aggs"] for k in ("col", "by") if (v := a.get(k))),
            ]
        )
    ),
    optional=lambda agg: {
        a["col"] for a in agg["aggs"] if a.get("col") and a.get("optional")
    },
    missing=(
        "view columns {missing} not in the upstream table (has: {has}; mark a "
        'column arriving later via schema evolution "optional")'
    ),
    validate=_agg_validate_types,
    # exact Arrow value types of first/last outputs (decode side)
    extras=lambda agg, col_types: {"enc_types": _enc_types_payload(agg, col_types)},
    build=_agg_partial_of_state,
    read=read_agg_view,
)

#: the aggregate kind over the preset spec: it takes no view fields
REPO_STATS = dataclasses.replace(
    AGGREGATE, fields=(), spec_of=lambda spec: REPO_STATS_AGG, check=lambda spec: None
)
