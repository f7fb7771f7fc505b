"""Correctness checks of one workload cycle against the DuckDB oracle.

Every check returns ``None`` on a match or a one-line reason. The caller
counts each check as one attempted operation and each reason as a failure;
none of this runs inside a timed region.

- final state: per-row ``content_sha256`` of the export against
  ``oracle.expected_final_state`` over the consumed WAL prefix;
- daily aggregates: ``lang_daily_agg`` / ``repo_daily_agg`` against
  ``oracle.expected_lang_daily`` / ``expected_repo_daily``;
- views: each view's rows against DuckDB over the exported state.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pandas as pd
import pyarrow as pa

SESSION_GAP_MINUTES = 45

# DuckDB truth of each view over the exported live state (table ``state``)
VIEW_ORACLE_SQL = {
    "repo_stats": """
        SELECT repo,
               COUNT(*) AS live_files,
               COALESCE(SUM(size_bytes), 0) AS total_bytes,
               MAX(lsn) AS last_lsn
        FROM state GROUP BY repo
    """,
    "registration": """
        SELECT repo,
               COUNT(*) AS live_files,
               arg_min(path, lsn) AS first_path,
               arg_max(commit_ts, lsn) AS last_ts
        FROM state GROUP BY repo
    """,
    "sessions": f"""
        WITH b AS (
            SELECT repo, path, lsn, commit_ts,
                   CASE WHEN commit_ts - LAG(commit_ts) OVER (
                            PARTITION BY repo ORDER BY commit_ts)
                        > INTERVAL {SESSION_GAP_MINUTES} MINUTE
                        THEN 1 ELSE 0 END AS brk
            FROM state WHERE commit_ts IS NOT NULL
        ), c AS (
            SELECT *, SUM(brk) OVER (PARTITION BY repo ORDER BY commit_ts
                                     ROWS UNBOUNDED PRECEDING) AS g
            FROM b
        )
        SELECT repo,
               MIN(commit_ts) AS session_start,
               MAX(commit_ts) AS session_end,
               COUNT(*) AS n_events,
               arg_min(path, commit_ts) AS first_path,
               AVG(lsn) AS mean_lsn,
               COUNT(*) AS changes,
               ROW_NUMBER() OVER (PARTITION BY repo ORDER BY MIN(commit_ts))
                   AS session_seq
        FROM c GROUP BY repo, g
    """,
}

VIEW_SORT_KEYS = {
    "repo_stats": ["repo"],
    "registration": ["repo"],
    "sessions": ["repo", "session_start"],
}


def wal_prefix(wal, through_seqno: int):
    """The WAL as the lake saw it after committing ``through_seqno``."""
    return dataclasses.replace(
        wal, segments=[s for s in wal.segments if s["seqno"] <= through_seqno]
    )


def _frame(t: pa.Table, keys: list[str]) -> pd.DataFrame:
    """Arrow -> pandas with timestamps as int64 microseconds, rows sorted."""
    cols = {}
    for name in t.column_names:
        col = t[name]
        if pa.types.is_timestamp(col.type):
            col = col.cast(pa.timestamp("us")).cast(pa.int64())
        cols[name] = col
    df = pa.table(cols).to_pandas()
    return df.sort_values(keys, kind="mergesort").reset_index(drop=True)


def _compare(got: pd.DataFrame, exp: pd.DataFrame, what: str) -> str | None:
    if len(got) != len(exp):
        return f"{what}: {len(got)} rows, oracle has {len(exp)}"
    missing = [c for c in exp.columns if c not in got.columns]
    if missing:
        return f"{what}: missing columns {missing}"
    for c in exp.columns:
        g, e = got[c].to_numpy(), exp[c].to_numpy()
        if g.dtype.kind == "f" or e.dtype.kind == "f":
            ok = np.allclose(
                g.astype("float64"), e.astype("float64"), rtol=1e-9, equal_nan=True
            )
        else:
            ok = [None if pd.isna(x) else x for x in g.tolist()] == [
                None if pd.isna(x) else x for x in e.tolist()
            ]
        if not ok:
            return f"{what}: column {c!r} differs from the oracle"
    return None


def check_final_state(got: pa.Table, expected: pa.Table) -> str | None:
    g = got.select(["repo", "path", "lsn", "content_sha256"]).sort_by(
        [("repo", "ascending"), ("path", "ascending")]
    )
    e = expected.select(["repo", "path", "lsn", "content_sha256"])
    if g.num_rows != e.num_rows:
        return f"final state: {g.num_rows} rows, oracle has {e.num_rows}"
    for c in g.column_names:
        if not g[c].equals(e[c]):
            return f"final state: column {c!r} differs from the oracle"
    return None


def expected_daily(wal) -> dict[str, pd.DataFrame]:
    from etl_ray.oracle import expected_lang_daily, expected_repo_daily

    return {
        "lang_daily_agg": expected_lang_daily(wal).to_pandas(),
        "repo_daily_agg": expected_repo_daily(wal).to_pandas(),
    }


def check_daily_aggs(lake_dir: str, expected: dict[str, pd.DataFrame]) -> list[str | None]:
    import pyarrow.parquet as pq

    from etl_ray.engine.lineage import LakeLineage

    lin = LakeLineage(lake_dir)
    out = []
    for table, exp in expected.items():
        # what ``aggregates.read_agg`` returns, minus the day files that hold
        # no rows: those carry null-typed columns (a day whose events all
        # cancelled out), which ``pa.concat_tables`` refuses to mix in
        parts = [pq.read_table(f) for f in lin.agg_day_files(table)]
        parts = [t for t in parts if t.num_rows]
        keys = list(exp.columns[:2])  # (day, lang) / (day, repo)
        if not parts:
            out.append(f"{table}: empty" if len(exp) else None)
            continue
        got = pa.concat_tables(parts)
        got_df = got.to_pandas().sort_values(keys).reset_index(drop=True)
        exp_df = exp.sort_values(keys).reset_index(drop=True)
        out.append(_compare(got_df[list(exp.columns)], exp_df, table))
    return out


def check_views(state: pa.Table, views: dict[str, pa.Table]) -> list[str | None]:
    import duckdb

    con = duckdb.connect()
    try:
        con.register(
            "state", state.select(["repo", "path", "lsn", "size_bytes", "commit_ts"])
        )
        out = []
        for name, got in views.items():
            keys = VIEW_SORT_KEYS[name]
            exp = _frame(con.execute(VIEW_ORACLE_SQL[name]).arrow(), keys)
            out.append(_compare(_frame(got, keys), exp, f"view {name}"))
        return out
    finally:
        con.close()
