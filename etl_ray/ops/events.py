"""Event-stream operators over the ``events`` table — the direct analogs of
the reference's core event pipeline (dedup windows, sessionization, per-user
daily metrics, rolling activity, pseudonymization, JSON probing).

Streaming semantics note (guide §"Streaming-shaped workloads"): Ray Data has
no event-time watermarks; these ops treat ``events`` as an ordered, keyed log
— partition by ``user_id``, order by ``(ts, event_id)`` inside each group —
exactly the reference's window-function-within-partition-key pattern
(SURVEY.md §2.6: every ORDER BY in the reference lives inside an OVER()).
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from .common import epoch_us, keep_extreme, partial_groupby, read, round_cols

ORDER = ["ts", "event_id"]  # total per-user order (analog of the tstamp triple)


def events_dedup_first(sf_dir: str) -> pd.DataFrame:
    """First event per (user_id, event_type) by (ts, event_id) — the core
    rank-1 dedup (D1: ``mod_load_data_get_data.sql:16,21-32``), expressed as
    per-batch pre-reduction + grouped selection (associative min)."""
    ds = read(sf_dir, "events", columns=["event_id", "user_id", "event_type", "ts"])
    out = keep_extreme(ds, ["user_id", "event_type"], ORDER, keep="first")
    df = out.to_pandas()
    df["ts_us"] = epoch_us(df["ts"])
    return (
        df[["user_id", "event_type", "event_id", "ts_us"]]
        .sort_values(["user_id", "event_type"])
        .reset_index(drop=True)
    )


def events_latest_per_user(sf_dir: str) -> pd.DataFrame:
    """Last-writer-wins per user (D4/D5 MERGE-upsert winner:
    ``update_user_map.sql:208-269``)."""
    ds = read(sf_dir, "events", columns=["event_id", "user_id", "event_type", "ts", "value"])
    out = keep_extreme(ds, ["user_id"], ORDER, keep="last")
    df = out.to_pandas()
    df["ts_us"] = epoch_us(df["ts"])
    df = round_cols(df, {"value": 6})
    return (
        df[["user_id", "event_id", "event_type", "ts_us", "value"]]
        .sort_values("user_id")
        .reset_index(drop=True)
    )


def user_daily_activity(sf_dir: str) -> pd.DataFrame:
    """Per-user daily metrics (A2: ``insert_user_history.sql:45-69``):
    events, distinct event types, total value. Distinct counts are exact via
    a (user, day, type)-grain partial, summed at (user, day) — the same
    additive-intermediate trick as the engine's aggregates."""
    ds = read(sf_dir, "events", columns=["user_id", "event_type", "ts", "value"])

    def derive(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "user_id": t["user_id"],
                "day": pc.strftime(t["ts"], format="%Y-%m-%d"),
                "event_type": t["event_type"],
                "value": t["value"],
            }
        )

    ds = ds.map_batches(derive, batch_format="pyarrow", zero_copy_batch=True)
    inter = partial_groupby(
        ds,
        ["user_id", "day", "event_type"],
        {"total_value": ("value", "sum")},
        count_col="events",
    )

    # second level at (user, day): the (user, day, type) rows re-sum, and
    # their non-null-type count is the exact COUNT(DISTINCT event_type)
    inter = inter.map_batches(
        lambda t: t.append_column(
            "typed", pc.cast(pc.is_valid(t["event_type"]), pa.int64())
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    out = partial_groupby(
        inter,
        ["user_id", "day"],
        {
            "events": ("events", "sum"),
            "distinct_types": ("typed", "sum"),
            "total_value": ("total_value", "sum"),
        },
    )
    df = round_cols(out.to_pandas(), {"total_value": 6})
    return df.sort_values(["user_id", "day"]).reset_index(drop=True)


def user_daily_activity_local(sf_dir: str, tz_offset_minutes: int = 330) -> pd.DataFrame:
    """Timezone-aware local-date derivation (M6: the reference computes the
    event's LOCAL day from UTC via the app's timezone before partitioning —
    ``get_local_date_from_utc_datetime``,
    ``/root/reference/etl/dags/lib/utils.py:59-62``; applied in
    ``operators/bigquery.py:25-28``). Fixed-offset variant (+05:30 default):
    the day key truncates ``ts`` AFTER shifting by the app offset, so day
    boundaries fall at local midnight, not UTC midnight."""
    ds = read(sf_dir, "events", columns=["user_id", "ts", "value"])
    off = pa.scalar(tz_offset_minutes * 60 * 1_000_000, pa.duration("us"))

    def derive(t: pa.Table) -> pa.Table:
        local = pc.add(t["ts"], off)
        return pa.table(
            {
                "user_id": t["user_id"],
                "local_day": pc.strftime(local, format="%Y-%m-%d"),
                "value": t["value"],
            }
        )

    ds = ds.map_batches(derive, batch_format="pyarrow", zero_copy_batch=True)
    out = partial_groupby(
        ds,
        ["user_id", "local_day"],
        {"total_value": ("value", "sum")},
        count_col="events",
    )
    df = round_cols(out.to_pandas(), {"total_value": 6})
    return df.sort_values(["user_id", "local_day"]).reset_index(drop=True)[
        ["user_id", "local_day", "events", "total_value"]
    ]


SESSION_GAP_US = 30 * 60 * 1_000_000


def sessionize(sf_dir: str) -> pd.DataFrame:
    """30-minute-gap sessionization (A1: ``insert_sessions.sql:36-83``
    FIRST/LAST_VALUE rollup per session): per-user sorted fold in
    ``map_groups``; session boundaries = gap > 30 min."""
    ds = read(sf_dir, "events", columns=["event_id", "user_id", "ts", "value"])

    def build_sessions(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(ORDER, kind="mergesort")
        us = epoch_us(g["ts"]).to_numpy()
        new = np.ones(len(g), dtype=np.int64)
        new[1:] = (np.diff(us) > SESSION_GAP_US).astype(np.int64)
        seq = np.cumsum(new)
        out = (
            g.assign(session_seq=seq, ts_us=us)
            .groupby("session_seq", as_index=False)
            .agg(
                n_events=("event_id", "size"),
                start_us=("ts_us", "min"),
                end_us=("ts_us", "max"),
                total_value=("value", "sum"),
            )
        )
        out.insert(0, "user_id", g["user_id"].iloc[0])
        out["duration_us"] = out["end_us"] - out["start_us"]
        # metadata-free Arrow out: the pandas schema metadata dict makes
        # block schemas unhashable and Ray's unify logs a warning per block
        import pyarrow as pa

        return pa.Table.from_pandas(out, preserve_index=False).replace_schema_metadata(None)

    out = ds.groupby("user_id").map_groups(build_sessions, batch_format="pandas")
    df = round_cols(out.to_pandas(), {"total_value": 6})
    return df.sort_values(["user_id", "session_seq"]).reset_index(drop=True)[
        ["user_id", "session_seq", "n_events", "start_us", "end_us", "duration_us", "total_value"]
    ]


def rolling_active_days(sf_dir: str) -> pd.DataFrame:
    """Trailing-7-day distinct active days per user per active day (A3:
    ``insert_user_history.sql:122-131``). Per-user sorted day list +
    ``searchsorted`` window count — no 7× rescan."""
    ds = read(sf_dir, "events", columns=["user_id", "ts"])

    def derive(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "user_id": t["user_id"],
                "day": pc.strftime(t["ts"], format="%Y-%m-%d"),
            }
        )

    ds = ds.map_batches(derive, batch_format="pyarrow", zero_copy_batch=True)
    # pre-distinct per batch, then exact distinct days per user in the group
    ds = ds.map_batches(
        lambda df: df.drop_duplicates(["user_id", "day"]), batch_format="pandas"
    )

    def window(g: pd.DataFrame) -> pd.DataFrame:
        days = np.sort(g["day"].unique())
        ordinals = pd.to_datetime(pd.Series(days)).map(pd.Timestamp.toordinal).to_numpy()
        lo = np.searchsorted(ordinals, ordinals - 6, side="left")
        active = np.arange(1, len(days) + 1) - lo
        return pd.DataFrame(
            {"user_id": g["user_id"].iloc[0], "day": days, "active_7d": active.astype("int64")}
        )

    out = ds.groupby("user_id").map_groups(window, batch_format="pandas")
    return out.to_pandas().sort_values(["user_id", "day"]).reset_index(drop=True)


def event_gap_stats(sf_dir: str) -> pd.DataFrame:
    """Per-user inter-event-gap stats (A11 sequence-gap loss analog:
    ``event_loss.yaml:14-19``): LAG over (user ORDER BY ts, id)."""
    ds = read(sf_dir, "events", columns=["event_id", "user_id", "ts"])

    def gaps(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(ORDER, kind="mergesort")
        us = epoch_us(g["ts"]).to_numpy()
        d = np.diff(us)
        return pd.DataFrame(
            {
                "user_id": [g["user_id"].iloc[0]],
                "n_gaps": [int(len(d))],
                "max_gap_us": [int(d.max()) if len(d) else 0],
                "sum_gap_us": [int(d.sum()) if len(d) else 0],
            }
        )

    out = ds.groupby("user_id").map_groups(gaps, batch_format="pandas")
    return out.to_pandas().sort_values("user_id").reset_index(drop=True)


def events_pseudonymized(sf_dir: str) -> pd.DataFrame:
    """GDPR pseudonymizer (M2: ``mod_load_data_gdpr.sql:39,52`` —
    ``SHA256(CAST(col AS STRING))`` per configured PII column): stateless
    ``map_batches``, hex sha256 of the user id."""
    ds = read(sf_dir, "events", columns=["event_id", "user_id", "event_type"])

    def pseudo(t: pa.Table) -> pa.Table:
        uid = t["user_id"].to_pylist()
        sha = [hashlib.sha256(str(u).encode()).hexdigest() for u in uid]
        return pa.table(
            {
                "event_id": t["event_id"],
                "user_sha": pa.array(sha, pa.string()),
                "event_type": t["event_type"],
            }
        )

    out = ds.map_batches(pseudo, batch_format="pyarrow", zero_copy_batch=True)
    return out.to_pandas().sort_values("event_id").reset_index(drop=True)


def events_json_extract(sf_dir: str) -> pd.DataFrame:
    """JSON payload probe (M5: ``update_user_map.sql:36-37`` JSON_VALUE):
    extract ``props.k``, aggregate per event_type. Parsing is per-batch
    (stdlib json over the column), aggregation two-stage."""
    ds = read(sf_dir, "events", columns=["event_type", "props"])

    def extract(t: pa.Table) -> pa.Table:
        ks = [json.loads(p)["k"] if p is not None else None for p in t["props"].to_pylist()]
        return pa.table(
            {"event_type": t["event_type"], "k": pa.array(ks, pa.int64())}
        )

    ds = ds.map_batches(extract, batch_format="pyarrow", zero_copy_batch=True)
    out = partial_groupby(
        ds, ["event_type"], {"sum_k": ("k", "sum"), "max_k": ("k", "max")}, count_col="n"
    )
    df = out.to_pandas()
    df["sum_k"] = df["sum_k"].astype("int64")
    df["max_k"] = df["max_k"].astype("int64")
    return df.sort_values("event_type").reset_index(drop=True)[
        ["event_type", "n", "sum_k", "max_k"]
    ]


def events_cleaned(sf_dir: str) -> pd.DataFrame:
    """Filter + null-default projection (M1/M8:
    ``mod_load_data_get_data.sql:19-20`` sandbox/exclusion filter +
    ``IFNULL`` coalescing): drop 'error' events and an excluded-user list
    (broadcast small side), default null values to 0."""
    import ray

    excluded_ref = ray.put({u for u in range(0, 15, 5)})  # deterministic fixture list

    def clean(t: pa.Table) -> pa.Table:
        excluded = pa.array(sorted(ray.get(excluded_ref)), pa.int64())
        keep = pc.invert(pc.equal(t["event_type"], "error"))
        not_excl = pc.invert(pc.is_in(t["user_id"], value_set=excluded))
        t = t.filter(pc.and_(keep, not_excl))
        return pa.table(
            {
                "event_id": t["event_id"],
                "user_id": t["user_id"],
                "event_type": t["event_type"],
                "value": pc.fill_null(t["value"], 0.0),
            }
        )

    ds = read(sf_dir, "events", columns=["event_id", "user_id", "event_type", "value"])
    out = ds.map_batches(clean, batch_format="pyarrow", zero_copy_batch=True)
    df = round_cols(out.to_pandas(), {"value": 6})
    return df.sort_values("event_id").reset_index(drop=True)


def user_state_fold(sf_dir: str) -> pd.DataFrame:
    """Incremental per-user state snapshot (the A5 user_history fold analog:
    ``insert_user_history.sql:227-299`` — additive totals, first/last dims,
    payer transitions) computed by replaying each user's events in
    (ts, event_id) order inside ``map_groups``.

    In the CDC engine the same fold runs incrementally in the MergeApplier;
    here it is the one-shot batch equivalent with a SQL oracle."""
    ds = read(sf_dir, "events", columns=["event_id", "user_id", "event_type", "ts", "value"])

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(ORDER, kind="mergesort")
        days = g["ts"].dt.strftime("%Y-%m-%d")
        purchases = g[g["event_type"] == "purchase"]
        return pd.DataFrame(
            {
                "user_id": [g["user_id"].iloc[0]],
                "total_events": [len(g)],
                "total_value": [round(g["value"].sum(), 6)],
                "first_seen_day": [days.iloc[0]],
                "last_seen_day": [days.iloc[-1]],
                "days_active": [days.nunique()],
                "is_payer": [len(purchases) > 0],
                "payer_since_day": [
                    purchases["ts"].dt.strftime("%Y-%m-%d").iloc[0]
                    if len(purchases)
                    else None
                ],
                "last_event_type": [g["event_type"].iloc[-1]],
            }
        )

    out = ds.groupby("user_id").map_groups(fold, batch_format="pandas")
    return out.to_pandas().sort_values("user_id").reset_index(drop=True)


TUMBLE_US = 6 * 3600 * 1_000_000  # 6h windows
SLIDE_SIZE_US = 12 * 3600 * 1_000_000  # 12h window ...
SLIDE_HOP_US = 6 * 3600 * 1_000_000  # ... hopping every 6h


def tumbling_window_counts(sf_dir: str) -> pd.DataFrame:
    """Tumbling event-time windows (streaming-window custom operator, guide
    §streaming-shaped workloads): assign window id per batch, two-stage
    grouped aggregate. No watermark needed for a closed log; in the engine
    the same op runs per-changed-window like the daily aggregates."""
    ds = read(sf_dir, "events", columns=["event_type", "ts", "value"])

    def assign(t: pa.Table) -> pa.Table:
        us = t["ts"].cast(pa.int64())
        win = pc.multiply(pc.divide(us, TUMBLE_US), TUMBLE_US)  # int floor-div
        return pa.table(
            {
                "window_start_us": win,
                "event_type": t["event_type"],
                "value": t["value"],
            }
        )

    ds = ds.map_batches(assign, batch_format="pyarrow", zero_copy_batch=True)
    out = partial_groupby(
        ds,
        ["window_start_us", "event_type"],
        {"total_value": ("value", "sum")},
        count_col="events",
    )
    df = round_cols(out.to_pandas(), {"total_value": 6})
    return df.sort_values(["window_start_us", "event_type"]).reset_index(drop=True)[
        ["window_start_us", "event_type", "events", "total_value"]
    ]


def sliding_window_counts(sf_dir: str) -> pd.DataFrame:
    """Sliding (hopping) windows: each event replicates into
    size/hop = 2 overlapping windows (the flat-map expansion), then a
    grouped aggregate per window."""
    ds = read(sf_dir, "events", columns=["ts", "value"])
    k = SLIDE_SIZE_US // SLIDE_HOP_US  # 2

    def expand(t: pa.Table) -> pa.Table:
        if isinstance(t["ts"], pa.ChunkedArray):
            us = t["ts"].combine_chunks().cast(pa.int64()).to_numpy()
        else:
            us = t["ts"].cast(pa.int64()).to_numpy()
        parts = []
        for i in range(k):
            # window start = floor((us - i*hop)/size)*size + i*hop —
            # numpy floor_divide is a TRUE floor (pc.divide truncates toward
            # zero, which diverges from the oracle for pre-epoch-adjacent ts)
            s = (
                np.floor_divide(us - i * SLIDE_HOP_US, SLIDE_SIZE_US) * SLIDE_SIZE_US
                + i * SLIDE_HOP_US
            )
            parts.append(
                pa.table(
                    {"window_start_us": pa.array(s, pa.int64()), "value": t["value"]}
                )
            )
        return pa.concat_tables(parts)

    ds = ds.map_batches(expand, batch_format="pyarrow", zero_copy_batch=True)
    out = partial_groupby(
        ds, ["window_start_us"], {"total_value": ("value", "sum")}, count_col="events"
    )
    df = round_cols(out.to_pandas(), {"total_value": 6})
    return df.sort_values("window_start_us").reset_index(drop=True)[
        ["window_start_us", "events", "total_value"]
    ]
