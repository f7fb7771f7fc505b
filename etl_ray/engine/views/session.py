"""Session views: gap-based sessionization as a maintained view (the
reference's sessions fact table, ``insert_sessions.sql:36-83``).

Sessions are algebraically mergeable: each bucket's partial holds per-key
session FRAGMENTS (session_start, session_end, n_events) of its own rows;
the read-side reduce interval-merges fragments per key with the same gap
rule. This is exact: adding rows can only shrink gaps, so union sessions
never split inside a fragment, and two fragments belong to one session iff
their coverage intervals come within ``gap`` of each other — which the
classic sorted interval-merge (running max of session_end per key)
computes. Optional rider aggregates are per-session rollup columns (the
reference's FIRST/LAST_VALUE + AVG columns inside each session row).
"""

from __future__ import annotations

from .aggregate import _agg_validate_types
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
from .encoding import _enc_types_load, _enc_types_payload

#: the output columns every session view has besides its key and riders
SESSION_COLS = ("session_start", "session_end", "n_events", "session_seq")
#: the gap of a session view that names none
DEFAULT_GAP_MINUTES = 30.0


def _sess_spec_of(spec) -> dict:
    out = {
        "key": list(spec.view_key),
        "ts": spec.view_ts,
        "gap_minutes": (
            DEFAULT_GAP_MINUTES if spec.gap_minutes is None else spec.gap_minutes
        ),
    }
    if spec.view_aggs:
        # normalize first/last riders to an explicit order key (the ts
        # column) so the partial/read sides share one spec shape
        out["aggs"] = [
            {**a, "by": spec.view_ts} if a.get("fn") in ("first", "last")
            else dict(a)
            for a in spec.view_aggs
        ]
    return out


def _sess_check(spec) -> None:
    name = spec.name
    if not spec.view_key:
        raise ValueError(f"session view {name!r} needs key columns")
    if not spec.view_ts:
        raise ValueError(f"session view {name!r} needs a ts column")
    if not (_sess_spec_of(spec)["gap_minutes"] > 0):
        raise ValueError(f"session view {name!r}: gap_minutes must be > 0")
    clash = set(SESSION_COLS) & set(spec.view_key)
    if clash:
        raise ValueError(
            f"session view {name!r}: key columns collide with output names "
            f"{sorted(clash)}"
        )
    if spec.view_ts in spec.view_key:
        raise ValueError(
            f"session view {name!r}: ts column {spec.view_ts!r} cannot also "
            "be a key column"
        )
    check_fields(spec, "rider", [*SESSION_COLS, *spec.view_key], spec.view_ts)


def _sess_rider_spec(sess_spec: dict) -> dict:
    """The riders as a per-fragment aggregate spec — reuses the aggregate
    view's partial-plan/extremal-encoding machinery verbatim."""
    return {"group_by": ["__frag"], "aggs": sess_spec.get("aggs") or []}


_TS_UNITS_PER_MINUTE = {
    "s": 60, "ms": 60_000, "us": 60_000_000, "ns": 60_000_000_000,
}


def _gap_in_ts_units(ts_type, gap_minutes: float) -> float:
    """Exact float, NOT rounded to the unit grid. Both halves of the
    algorithm compare integer ts differences with this one value
    (:func:`_session_starts`), so session splits cannot depend on physical
    bucket placement."""
    import pyarrow as pa

    if not pa.types.is_timestamp(ts_type):
        raise ValueError(
            f"session view ts column must be a timestamp, got {ts_type}"
        )
    return gap_minutes * _TS_UNITS_PER_MINUTE[ts_type.unit]


def _adjacent_neq(col) -> "np.ndarray":
    """Null-safe "value differs from the previous row" mask (length n-1)
    for one sorted Arrow column — null == null, matching SQL GROUP BY."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    n = len(col)
    a, b = col.slice(1), col.slice(0, n - 1)
    neq = pc.fill_null(pc.not_equal(a, b), False).to_numpy(zero_copy_only=False)
    an = pc.is_null(a).to_numpy(zero_copy_only=False)
    bn = pc.is_null(b).to_numpy(zero_copy_only=False)
    return neq | (an != bn)


def _session_starts(t, key: list[str], start: str, end: str, gap: float):
    """THE session-break rule, shared by the fragment cut (one event per
    row: ``start`` is ``end``) and the read-side merge (fragments). Sorts
    ``t`` by (key, start, end) and returns ``(sorted, new, key_new)``: row
    i opens a session (``new``) when it opens a key (``key_new``; null ==
    null) or its start lies more than ``gap`` ts units past the running max
    of ``end`` over the key's earlier rows. That running max is ONE
    ``np.maximum.accumulate`` for all keys: ``end`` is replaced by its rank
    in [0, n) and key j's ranks are offset by j * n, so no key's values
    reach into the next key's — and the offsets stay below n² < 2⁶³."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    cols = list(dict.fromkeys([*key, start, end]))
    s = t.take(pc.sort_indices(t, sort_keys=[(c, "ascending") for c in cols]))
    n = s.num_rows
    key_new = np.ones(n, dtype=bool)
    if n > 1:
        key_new[1:] = False
        for k in key:
            key_new[1:] |= _adjacent_neq(s[k])
    lo, hi = (
        pc.cast(s[c], pa.int64()).to_numpy(zero_copy_only=False) for c in (start, end)
    )
    ends, rank = np.unique(hi, return_inverse=True)
    off = (np.cumsum(key_new) - 1) * n
    run_end = ends[np.maximum.accumulate(off + rank) - off]
    new = key_new.copy()
    new[1:] |= (lo[1:] - run_end[:-1]) > gap
    return s, new, key_new


def _session_partial_of_state(
    t: "pa.Table", sess_spec: dict, out_path: str, num_groups: int
) -> int:
    """One bucket's session fragments from its committed state ``t``. Same
    contract as ``_agg_partial_of_state``; rows with a null ts are skipped
    (they belong to no session — the SQL analog filters ``ts IS NOT
    NULL``)."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    key, ts = sess_spec["key"], sess_spec["ts"]
    rider_spec = _sess_rider_spec(sess_spec)
    gap = _gap_in_ts_units(t.schema.field(ts).type, sess_spec["gap_minutes"])
    live = t.filter(
        pc.and_(
            pc.invert(pc.coalesce(t["deleted"], pa.scalar(False))),
            pc.is_valid(t[ts]),
        )
    )
    s, new_frag, _ = _session_starts(live, key, ts, ts, gap)
    n = s.num_rows
    first_rows = np.flatnonzero(new_frag)
    starts = pa.array(first_rows)
    ends = pa.array(np.r_[first_rows[1:], n] - 1)
    cols = {
        **{k: pc.take(s[k], starts) for k in key},
        "session_start": pc.take(s[ts], starts),
        "session_end": pc.take(s[ts], ends),
        "n_events": pa.array(np.diff(np.r_[first_rows, n]).astype(np.int64)),
    }
    if rider_spec["aggs"]:
        # per-fragment rider rollups: the aggregate view's partial half
        # (same partial plan, same packed cells for first/last) per fragment
        st = s.append_column(
            "__frag", pa.array((np.cumsum(new_frag) - 1).astype(np.int64))
        )
        g = _combine(st, rider_spec).sort_by("__frag")
        cols.update(zip(g.column_names[1:], g.columns[1:]))
    return _write_partial(pa.table(cols), key, num_groups, out_path)


def _sess_validate_types(sess_spec: dict, col_types: dict) -> None:
    import pyarrow as pa

    rider_spec = _sess_rider_spec(sess_spec)
    _gap_in_ts_units(col_types[sess_spec["ts"]], sess_spec["gap_minutes"])
    _agg_validate_types(rider_spec, col_types)
    # sum/mean riders take numeric columns, min/max also temporal ones;
    # string values ride first/last (packed cells carry nulls safely)
    for a in rider_spec["aggs"]:
        fn = a["fn"]
        if fn not in ("sum", "mean", "min", "max"):
            continue
        t = col_types[a["col"]]
        ok = (
            pa.types.is_integer(t)
            or pa.types.is_floating(t)
            or pa.types.is_boolean(t)
            or (
                fn in ("min", "max")
                and (pa.types.is_timestamp(t) or pa.types.is_date(t))
            )
        )
        if not ok:
            kinds = "numeric/temporal" if fn in ("min", "max") else "numeric"
            raise ValueError(
                f"session rider {a['out']!r}: {fn} needs a {kinds} "
                f"column, got {t} (use first/last for string values)"
            )


def _session_schema(sess_spec: dict, mf: dict, footer) -> "pa.Schema":
    """The session view's ONE output schema: key and session-bound types
    from a partial footer (``footer``; None without partials falls back to
    string keys and the manifest's ts type), riders from their partial
    type, float64 for means and the manifest's ``enc_types`` for
    first/last. Every read block, empty or not, is cast to it."""
    import pyarrow as pa

    def ftype(name, default):
        if footer is not None and name in footer.names:
            return footer.field(name).type
        return default

    ts_type = pa.timestamp(mf.get("ts_unit", "us"), tz=mf.get("ts_tz"))
    enc_types = _enc_types_load(mf.get("enc_types"))
    fields = [(k, ftype(k, pa.string())) for k in sess_spec["key"]]
    fields += [
        ("session_start", ftype("session_start", ts_type)),
        ("session_end", ftype("session_end", ts_type)),
        ("n_events", pa.int64()),
    ]
    for a in _sess_rider_spec(sess_spec)["aggs"]:
        if a["fn"] == "mean":
            fields.append((a["out"], pa.float64()))
        elif a["fn"] in ("first", "last"):
            fields.append((a["out"], enc_types.get(a["out"], pa.string())))
        else:
            fields.append((a["out"], ftype(a["out"], pa.int64())))
    fields.append(("session_seq", pa.int64()))
    return pa.schema(fields)


def _session_read_chunk(spans, key, riders, enc_types, gap, schema) -> "pa.Table":
    """One read task: merges ALL its keys' fragments in Arrow and numpy.
    One sort and one running max of session_end label every fragment with
    its session (:func:`_session_starts`, the rule that cut the fragments),
    then one Arrow ``group_by`` on that label reduces the session bounds and
    the riders (:func:`_reduce_riders`, shared with the aggregate view)."""
    import numpy as np
    import pyarrow as pa

    bounds = [
        *((k, "first") for k in key),
        ("session_start", "min"),
        ("session_end", "max"),
        ("n_events", "sum"),
    ]
    s, new, key_new = _session_starts(
        _read_spans(spans), key, "session_start", "session_end", gap
    )
    sid = np.cumsum(new) - 1
    # a session's ordinal within its key: its id minus the id the key opens with
    seq = (sid - sid[key_new][np.cumsum(key_new) - 1] + 1)[new]
    s = s.append_column("__sid", pa.array(sid))
    out = _reduce_riders(s, ["__sid"], riders, enc_types, bounds)
    out = out.append_column("session_seq", pa.array(seq))
    return out.select(schema.names).cast(schema)


def read_session_view(sess_spec: dict, view_dir: str):
    """The session view as a Ray Dataset: per-key interval merge of the
    per-bucket fragments, in one round of plain read tasks over the
    hash-grouped partials (:func:`_read_plan`; a key's fragments all sit
    in one hash group), :func:`_session_read_chunk` per task. Every block,
    empty or not, has the one schema of :func:`_session_schema`. Output
    grain: one row per (key, session) with session_start/end, n_events,
    riders, session_seq."""
    import ray.data

    mf = _view_manifest(view_dir)
    footer, chunks = _read_plan(view_dir, mf.get("hash_groups"))
    schema = _session_schema(sess_spec, mf, footer)
    if not chunks:
        # NB: Ray's to_pandas() yields zero COLUMNS for any empty dataset —
        # pandas consumers of a possibly-empty view must rebuild their frame
        # (schema() and write_parquet are fine)
        return ray.data.from_arrow(schema.empty_table())
    riders = _sess_rider_spec(sess_spec)["aggs"]
    enc_types = _enc_types_load(mf.get("enc_types"))
    gap = _gap_in_ts_units(schema.field("session_start").type, sess_spec["gap_minutes"])
    return _run_read(
        _session_read_chunk, chunks, sess_spec["key"], riders, enc_types, gap, schema
    )


SESSION = ViewKind(
    fields=("view_key", "view_ts", "gap_minutes", "view_aggs"),
    spec_of=_sess_spec_of,
    check=_sess_check,
    need=lambda sess: list(
        dict.fromkeys(
            [
                *sess["key"], sess["ts"],
                *(a["col"] for a in sess.get("aggs") or [] if a.get("col")),
            ]
        )
    ),
    optional=lambda sess: set(),
    missing="session-view columns {missing} not in the upstream table (has: {has})",
    validate=_sess_validate_types,
    extras=lambda sess, col_types: {
        "ts_unit": str(col_types[sess["ts"]].unit),
        "ts_tz": col_types[sess["ts"]].tz,
        "enc_types": _enc_types_payload(_sess_rider_spec(sess), col_types),
    },
    build=_session_partial_of_state,
    read=read_session_view,
)
