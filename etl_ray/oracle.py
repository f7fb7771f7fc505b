"""DuckDB fold oracle for the CDC log.

Computes, independently of the engine, the expected final lake state (one
live row per ``(repo, path)``, last-writer-wins by ``lsn``, deletes removing
the key) and the expected derived aggregates. Used by pytest to assert
per-row ``content`` sha256 equality — the correctness invariant from
BASELINE.json.

The fold mirrors the reference's ``unique_events`` dedup
(``mod_load_data_get_data.sql:16,21-32``: ROW_NUMBER over the per-key order,
keep rank 1) with the order reversed (last writer instead of first arrival),
plus the MERGE-upsert semantics of ``update_user_map.sql:208-269``.
"""

from __future__ import annotations

import duckdb
import pyarrow as pa

from .wal import WalInfo


def _wal_rel(
    con: duckdb.DuckDBPyConnection, wal: WalInfo, through_seqno: int | None = None
) -> list[dict]:
    segs = [
        s
        for s in wal.segments
        if through_seqno is None or s["seqno"] <= through_seqno
    ]
    files = ", ".join(f"'{s['file']}'" for s in segs)
    con.execute(
        f"""
        CREATE OR REPLACE TEMP VIEW wal AS
        SELECT * FROM read_parquet([{files}], union_by_name=true)
        """
    )
    return segs


def expected_final_state(
    wal: WalInfo, *, with_sha: bool = True, through_seqno: int | None = None
) -> pa.Table:
    """Expected live table, sorted by (repo, path). ``through_seqno`` bounds
    the fold to a segment prefix — the oracle for a time-travel (as-of-tick)
    read, since a tick manifest records exactly its ``through_seqno``.

    Columns: repo, path, commit, lang, content, size_bytes, lsn
    [+ content_sha256 when ``with_sha``].
    """
    con = duckdb.connect()
    segs = _wal_rel(con, wal, through_seqno)
    sha = ", sha256(content) AS content_sha256" if with_sha else ""
    # a WAL generated with evolve_at_frac>=1 never has the evolved column
    size_expr = (
        "CAST(size_bytes AS BIGINT)"
        if any(s.get("has_size_bytes") for s in segs)
        else "CAST(NULL AS BIGINT)"
    )
    # second (struct-typed) evolution: meta struct<author, msg>
    meta_expr = ", meta" if any(s.get("has_meta") for s in segs) else ""
    tbl = con.execute(
        f"""
        SELECT repo, path, "commit", lang, content,
               {size_expr} AS size_bytes, lsn{meta_expr}{sha}
        FROM (
            SELECT *, row_number() OVER (
                PARTITION BY repo, path ORDER BY lsn DESC) AS rn
            FROM wal
            WHERE op IN ('insert','update','delete')
              AND repo IS NOT NULL AND path IS NOT NULL AND lsn IS NOT NULL
        )
        WHERE rn = 1 AND op <> 'delete'
        ORDER BY repo, path
        """
    ).arrow()
    con.close()
    return tbl


def _without_keys(keys) -> str:
    """SQL filter dropping the events of (repo, path) ``keys`` — the oracle
    of an erasure."""
    pairs = " OR ".join(
        "(repo = '{}' AND path = '{}')".format(*(v.replace("'", "''") for v in k))
        for k in keys
    )
    return f"AND NOT ({pairs})" if keys else ""


def expected_lang_daily(
    wal: WalInfo, tz_offset_minutes: int = 0, exclude_keys=()
) -> pa.Table:
    """Expected (day, lang) aggregate over distinct-LSN events (no dup double
    counting): files_changed, bytes, distinct_repos. ``tz_offset_minutes``
    moves the day boundary to a per-table local midnight; the events of
    the (repo, path) ``exclude_keys`` are left out (an erasure)."""
    con = duckdb.connect()
    _wal_rel(con, wal)
    tbl = con.execute(
        f"""
        WITH valid AS (
            SELECT * FROM wal
            WHERE op IN ('insert','update','delete')
              AND repo IS NOT NULL AND path IS NOT NULL AND lsn IS NOT NULL
              {_without_keys(exclude_keys)}
        ),
        uniq AS (
            SELECT * FROM (
                SELECT *, row_number() OVER (PARTITION BY lsn ORDER BY lsn) rn
                FROM valid) WHERE rn = 1
        )
        SELECT strftime(commit_ts + INTERVAL {int(tz_offset_minutes)} MINUTE,
                        '%Y-%m-%d') AS day, lang,
               COUNT(*) AS files_changed,
               CAST(COALESCE(SUM(length(content)), 0) AS BIGINT) AS bytes,
               COUNT(DISTINCT repo) AS distinct_repos
        FROM uniq
        WHERE op <> 'delete'
        GROUP BY 1, 2
        ORDER BY 1, 2
        """
    ).arrow()
    con.close()
    return tbl


def expected_repo_daily(
    wal: WalInfo, tz_offset_minutes: int = 0, exclude_keys=()
) -> pa.Table:
    """Expected (day, repo) aggregate over distinct-LSN events:
    events, upserts, deletes, distinct_paths. ``tz_offset_minutes`` and
    ``exclude_keys`` as in :func:`expected_lang_daily`."""
    con = duckdb.connect()
    _wal_rel(con, wal)
    tbl = con.execute(
        f"""
        WITH valid AS (
            SELECT * FROM wal
            WHERE op IN ('insert','update','delete')
              AND repo IS NOT NULL AND path IS NOT NULL AND lsn IS NOT NULL
              {_without_keys(exclude_keys)}
        ),
        uniq AS (
            SELECT * FROM (
                SELECT *, row_number() OVER (PARTITION BY lsn ORDER BY lsn) rn
                FROM valid) WHERE rn = 1
        )
        SELECT strftime(commit_ts + INTERVAL {int(tz_offset_minutes)} MINUTE,
                        '%Y-%m-%d') AS day, repo,
               COUNT(*) AS events,
               COUNT(*) FILTER (op <> 'delete') AS upserts,
               COUNT(*) FILTER (op = 'delete') AS deletes,
               COUNT(DISTINCT path) AS distinct_paths
        FROM uniq
        GROUP BY 1, 2
        ORDER BY 1, 2
        """
    ).arrow()
    con.close()
    return tbl


def expected_repo_live_files(wal: WalInfo) -> pa.Table:
    """Expected (repo, live_files) snapshot after full replay."""
    con = duckdb.connect()
    _wal_rel(con, wal)
    tbl = con.execute(
        """
        SELECT repo, COUNT(*) AS live_files
        FROM (
            SELECT *, row_number() OVER (
                PARTITION BY repo, path ORDER BY lsn DESC) AS rn
            FROM wal
            WHERE op IN ('insert','update','delete')
              AND repo IS NOT NULL AND path IS NOT NULL AND lsn IS NOT NULL
        )
        WHERE rn = 1 AND op <> 'delete'
        GROUP BY repo
        ORDER BY repo
        """
    ).arrow()
    con.close()
    return tbl
