"""The shared core of the derived views: the kind record, the field rules
both kinds' ``aggs`` lists share, partial-file I/O and the read-side
reduce.

Each partial is ONE row group of rows sorted by ``hash(view key) % G`` (G =
the upstream bucket count), with each hash group's row range in the footer.
A read is one round of ``min(groups, CPUs)`` plain Ray tasks, each over a
contiguous chunk of groups: a task reads every partial once, slices its
groups' rows (one contiguous range per file) and reduces them — a view key
lives in one hash group, so no shuffle and no Ray Data pipeline.
"""

from __future__ import annotations

import glob
import json
import os
from dataclasses import dataclass

from .encoding import _dec_extreme, _enc_extreme, _extremal_fields

# supported aggregate functions of both view kinds; sum/count/min/max are
# distributive (exact under the two-level partial/reduce), mean decomposes
# into sum+count. first/last are argmin/argmax by an order key ("by"): the
# value of "col" on the group's row with the smallest/largest "by" — the
# reference's rank-1 fact rollups (first event per user:
# ``insert_registration.sql:18-41``; session winner rows:
# ``insert_sessions.sql:36-83``) as view aggregates, kept distributive by
# the packed cells of :mod:`.encoding`.
AGG_FNS = ("sum", "count", "min", "max", "mean", "first", "last")


@dataclass(frozen=True)
class ViewKind:
    """Everything the engine does differently per view kind, in one record
    (``refresh.VIEW_KINDS``). ``spec_of`` and ``check`` take the
    :class:`~etl_ray.engine.tables.TableSpec`; every other field takes the
    normalized spec ``spec_of`` returns (the ``spec_hash`` input)."""

    fields: tuple  # the TableSpec view fields this kind takes
    spec_of: object  # TableSpec -> normalized spec
    check: object  # TableSpec -> None; raises on a bad definition
    need: object  # spec -> [upstream column] the partial reads
    # spec -> {column} that may be absent upstream (schema evolution); it
    # pins to an int64 placeholder until it lands
    optional: object
    missing: str  # required-column error, formatted with {missing} and {has}
    validate: object  # (spec, col_types) -> None; raises on unusable types
    extras: object  # (spec, col_types) -> decode metadata for _view.json
    build: object  # (state, spec, out_path, num_groups) -> partial rows
    read: object  # (spec, view_dir) -> the view as a Ray Dataset


def check_fields(spec, noun: str, reserved, order_by: str | None = None) -> None:
    """The rules of a view's ``aggs`` list, one copy for aggregate outputs
    and session riders: an identifier name outside the reserved ``__``
    partial-column prefix, a known fn, a ``col`` for every fn but count, an
    order key for first/last (``by``; with ``order_by`` — the session ts —
    that column is implied and no other may be named), and no name twice or
    in ``reserved``. Messages name the view kind and ``noun``."""
    where = f"{spec.view} view {spec.name!r}"
    outs = []
    for a in spec.view_aggs:
        out, fn = a.get("out"), a.get("fn")
        if not out or not str(out).isidentifier():
            raise ValueError(f"{where}: bad {noun} name {out!r}")
        if out.startswith("__"):
            raise ValueError(
                f"{where}: {noun} name {out!r} uses the reserved '__' "
                "partial-column prefix"
            )
        if fn not in AGG_FNS:
            raise ValueError(
                f"{where}: {noun} fn must be one of {', '.join(AGG_FNS)}, got {fn!r}"
            )
        if fn != "count" and not a.get("col"):
            raise ValueError(f"{where}: {noun} {out!r} ({fn}) needs col")
        if fn in ("first", "last"):
            by = a.get("by")
            if order_by is None and not by:
                raise ValueError(
                    f"{where}: {noun} {out!r} ({fn}) needs an order key ('by')"
                )
            if order_by is not None and by not in (None, order_by):
                raise ValueError(
                    f"{where}: {noun} {out!r} orders by the ts column "
                    f"{order_by!r} — omit 'by'"
                )
        outs.append(out)
    clash = {o for o in outs if outs.count(o) > 1} | (set(outs) & set(reserved))
    if clash:
        raise ValueError(f"{where}: duplicate/reserved {noun} names {sorted(clash)}")


def spec_hash(obj: dict) -> str:
    """The 16-hex digest ``_view.json`` records for a normalized spec
    (``spec_hash``) and for the upstream column types (``types_hash``)."""
    import hashlib

    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


def _view_manifest(view_dir: str) -> dict:
    p = os.path.join(view_dir, "_view.json")
    if not os.path.exists(p):
        return {}
    with open(p) as f:
        return json.load(f)


def _publish_view_manifest(view_dir: str, obj: dict) -> None:
    p = os.path.join(view_dir, "_view.json")
    with open(p + ".tmp", "w") as f:
        json.dump(obj, f)
    os.replace(p + ".tmp", p)


_GROUPS_META = b"etl_ray.hash_groups"
#: the partial layout every ``_view.json`` records (``partial_layout``): a
#: view refreshed under another layout is recomputed in full
PARTIAL_LAYOUT = "row-ranges"


def _write_partial(out, keys: list[str], num_groups: int, out_path: str) -> int:
    """Write one bucket's partial: rows sorted (stably) by ``hash(keys) %
    num_groups`` in ONE row group, and ``{"hash_groups": G, "ranges":
    {group: [start, rows]}}`` in the footer metadata. Atomic (tmp +
    rename). Returns the row count."""
    import numpy as np
    import pyarrow.parquet as pq

    from ..partitioning import hash_groups

    codes = hash_groups(out, keys, num_groups)
    order = np.argsort(codes, kind="stable")
    groups, starts, rows = np.unique(
        codes[order], return_index=True, return_counts=True
    )
    ranges = {int(g): [int(s), int(n)] for g, s, n in zip(groups, starts, rows)}
    meta = json.dumps({"hash_groups": num_groups, "ranges": ranges})
    out = out.take(order).replace_schema_metadata({_GROUPS_META: meta})
    # readers slice by the footer ranges, never by value: no statistics and
    # no dictionary pages (``partitioning.write_bucket_rgs``)
    pq.write_table(
        out, out_path + ".tmp", row_group_size=max(out.num_rows, 1),
        compression="snappy", use_dictionary=False, write_statistics=False,
    )
    os.replace(out_path + ".tmp", out_path)
    return out.num_rows


def _partial_files(view_dir: str) -> list[str]:
    return sorted(glob.glob(os.path.join(view_dir, "partials", "b=*.parquet")))


def _read_plan(view_dir: str, num_groups: int | None):
    """The read of a view, planned from its partial footers: ``(schema,
    chunks)`` — the partial schema (None without partials) and one span
    list ``[(file, start, rows)]`` per read task, over ``cpu_chunks`` of
    the hash groups present. A contiguous chunk of groups is ONE
    contiguous row range of each file. A non-empty partial written for
    another group count than ``_view.json`` records, or in another layout,
    raises — the view needs a refresh."""
    import pyarrow.parquet as pq

    from ..partitioning import cpu_chunks

    schema, by_group = None, {}
    for f in _partial_files(view_dir):
        md = pq.read_metadata(f)
        if schema is None:
            schema = md.schema.to_arrow_schema().remove_metadata()
        if md.num_rows == 0:
            continue  # nothing to read, whatever its layout
        meta = json.loads((md.metadata or {}).get(_GROUPS_META, b"{}"))
        got = meta.get("hash_groups")  # None: written before the indexed layout
        if got is None or got != num_groups:
            raise ValueError(
                f"view partial {f} was written for {got} hash groups but "
                f"_view.json records {num_groups}; refresh the view"
            )
        if "ranges" not in meta:
            raise ValueError(
                f"view partial {f} predates the one-row-group layout; "
                "refresh the view"
            )
        for g, (start, rows) in meta["ranges"].items():
            by_group.setdefault(int(g), []).append((f, start, rows))
    chunks = []
    for groups in cpu_chunks(sorted(by_group)):
        spans: dict[str, list] = {}
        for g in groups:
            for f, start, rows in by_group[g]:
                span = spans.setdefault(f, [start, 0])
                span[1] += rows
        chunks.append([(f, s, n) for f, (s, n) in sorted(spans.items())])
    return schema, chunks


def _read_spans(spans) -> "pa.Table":
    """A read task's rows: each partial opened and read ONCE, sliced to
    the task's span of it."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    return pa.concat_tables(
        [pq.ParquetFile(f).read().slice(s, n) for f, s, n in spans],
        promote_options="permissive",
    )


def _run_read(refs):
    """The view as a MATERIALIZED Dataset over its read tasks' refs (one
    ``partitioning.task_refs`` task per chunk), gathered by
    ``ray.data.from_arrow_refs`` — which waits for every task (it fetches
    each block's metadata) before it returns. ``materialize`` records those
    blocks as the plan's output, so a consumer's ``to_arrow_refs`` starts
    no streaming executor (half the cost of one)."""
    import ray.data

    return ray.data.from_arrow_refs(refs).materialize()


def _partial_plan(agg_spec: dict) -> tuple[list, list[tuple[str, str | None, str]]]:
    """The Arrow group_by aggregate list (deduped) and, per declared field,
    the partial columns it lands in: [(partial_col, src_col, arrow_fn)].
    count(*) uses ([], 'count_all'); mean decomposes into sum + count."""
    pairs: list[tuple[str | None, str]] = []  # unique (src_col|None, arrow fn)
    fields: list[tuple[str, str | None, str]] = []

    def want(col: str | None, fn: str) -> None:
        if (col, fn) not in pairs:
            pairs.append((col, fn))

    for a in agg_spec["aggs"]:
        fn, col = a["fn"], a.get("col")
        if fn == "mean":
            want(col, "sum")
            want(col, "count")
            fields.append((f"__s_{a['out']}", col, "sum"))
            fields.append((f"__c_{a['out']}", col, "count"))
        elif fn == "count" and col is None:
            want(None, "count_all")
            fields.append((a["out"], None, "count_all"))
        elif fn in ("first", "last"):
            # aggregates over the packed (order, value) cell appended by
            # _agg_partial_of_state, not over a raw upstream column
            enc_col = f"__enc_{a['out']}"
            arrow_fn = "min" if fn == "first" else "max"
            want(enc_col, arrow_fn)
            fields.append((f"__e_{a['out']}", enc_col, arrow_fn))
        else:
            arrow_fn = "count" if fn == "count" else fn
            want(col, arrow_fn)
            fields.append((a["out"], col, arrow_fn))
    arrow_aggs = [([], fn) if col is None else (col, fn) for col, fn in pairs]
    return arrow_aggs, fields


def _combine(t, agg_spec: dict) -> "pa.Table":
    """The partial-side half of every declared aggregate (both view kinds):
    each first/last field's packed (order, value) cell, then ONE Arrow
    ``group_by(agg_spec["group_by"])`` into the partial columns of
    :func:`_partial_plan`. Returns the group columns, then the partial
    columns, in no particular row order."""
    import pyarrow as pa

    for a in _extremal_fields(agg_spec):
        t = t.append_column(f"__enc_{a['out']}", _enc_extreme(t[a["by"]], t[a["col"]]))
    arrow_aggs, fields = _partial_plan(agg_spec)
    group_by = agg_spec["group_by"]
    g = t.group_by(group_by).aggregate(arrow_aggs)
    cols = {k: g[k] for k in group_by}
    for partial_col, src_col, fn in fields:
        cols[partial_col] = g["count_all" if src_col is None else f"{src_col}_{fn}"]
    return pa.table(cols)


def _reduce_riders(table, group_cols, aggs, enc_types, extra_aggs=()) -> "pa.Table":
    """The read-side half of every declared aggregate (both view kinds):
    ONE Arrow ``group_by(group_cols)`` over the partial columns of
    :func:`_partial_plan` plus ``extra_aggs`` ((col, arrow fn), each landing
    under ``col``), then the finish — mean = sum/count (NULL on zero
    count), first/last decoded from the winning packed cell, a NULL-typed
    metric as int64, ``default`` via coalesce. An all-NULL ``sum`` stays
    NULL (Arrow's ``min_count=1``, as SQL SUM). Output groups come in order
    of first appearance."""
    import pyarrow as pa
    import pyarrow.compute as pc

    reduce_aggs = list(extra_aggs)
    for a in aggs:
        fn, out = a["fn"], a["out"]
        if fn == "mean":
            reduce_aggs += [(f"__s_{out}", "sum"), (f"__c_{out}", "sum")]
        elif fn in ("count", "sum"):
            reduce_aggs.append((out, "sum"))  # counts re-sum across partials
        elif fn in ("first", "last"):
            # winner-of-winners: min/max of the packed cell across partials
            reduce_aggs.append((f"__e_{out}", "min" if fn == "first" else "max"))
        else:
            reduce_aggs.append((out, fn))  # min/max are idempotent
    g = table.group_by(group_cols, use_threads=False).aggregate(reduce_aggs)
    g = g.rename_columns(
        [n if n in group_cols else n.rsplit("_", 1)[0] for n in g.schema.names]
    )
    cols = {c: g[c] for c in (*group_cols, *(c for c, _ in extra_aggs))}
    for a in aggs:
        if a["fn"] == "mean":
            c = pc.cast(g[f"__c_{a['out']}"], pa.float64())
            s = pc.cast(g[f"__s_{a['out']}"], pa.float64())
            zero = pc.equal(c, 0.0)
            v = pc.if_else(
                zero,
                pa.scalar(None, pa.float64()),
                pc.divide(s, pc.if_else(zero, pa.scalar(1.0), c)),
            )
        elif a["fn"] in ("first", "last"):
            v = _dec_extreme(g[f"__e_{a['out']}"], enc_types.get(a["out"], pa.string()))
        else:
            v = g[a["out"]].combine_chunks()
            if pa.types.is_null(v.type):
                # an optional rider's column has not arrived upstream
                # yet: surface the declared int64 metric type
                v = v.cast(pa.int64())
        if a.get("default") is not None:
            v = pc.coalesce(v, pa.scalar(a["default"], v.type))
        cols[a["out"]] = v
    return pa.table(cols)
