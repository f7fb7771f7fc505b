"""Driver contract for the graft builder (Ray Data target).

``entry()`` runs the flagship CDC replay on sf0.001; ``queries()`` exposes
one callable per implemented operator/pipeline (SURVEY.md §2);
``oracle_sql()`` gives the DuckDB-equivalent SQL for every SQL-expressible
query (same column names; floats rounded identically; timestamps as int64
epoch-us; days as 'YYYY-MM-DD' strings — see etl_ray/ops/common.py).

Ray is initialised by the driver BEFORE this module is imported: nothing
here calls ``ray.init()`` / ``ray.shutdown()``.
"""

from __future__ import annotations

import os
import shutil
from collections.abc import Callable
from typing import Any

# ---------------------------------------------------------------------------
# CDC flagship: deterministic WAL sized by scale factor, replayed to a lake
# ---------------------------------------------------------------------------

_SCRATCH = "/tmp/etl_ray"


def _sf_tag(sf_dir: str) -> str:
    return os.path.basename(os.path.normpath(sf_dir)) or "sf"


def _wal_events_for(sf_dir: str) -> int:
    override = os.environ.get("GRAFT_CDC_EVENTS")
    if override:
        return int(override)
    tag = _sf_tag(sf_dir)
    try:
        sf = float(tag.replace("sf", ""))
    except ValueError:
        sf = 0.001
    return int(min(max(20_000_000 * sf, 20_000), 4_000_000))


def _ensure_wal(sf_dir: str):
    from etl_ray.wal import generate_wal

    n = _wal_events_for(sf_dir)
    # bench.py --scaling --micro overrides content sizes (cache-resident,
    # compute-dominated config); the dir key carries them so the two WAL
    # shapes coexist under _SCRATCH
    cmin = int(os.environ.get("GRAFT_CDC_CONTENT_MIN", "64"))
    cmax = int(os.environ.get("GRAFT_CDC_CONTENT_MAX", "2048"))
    suffix = "" if (cmin, cmax) == (64, 2048) else f"-c{cmin}x{cmax}"
    wal_dir = os.path.join(_SCRATCH, f"wal-{_sf_tag(sf_dir)}-{n}{suffix}")
    return generate_wal(
        wal_dir,
        seed=42,
        n_events=n,
        n_repos=max(50, n // 2_000),
        paths_per_repo=400,
        dup_rate=0.02,
        delete_rate=0.05,
        ooo_window=2_000,
        evolve_at_frac=0.6,
        segment_rows=max(10_000, n // 16),
        content_min=cmin,
        content_max=cmax,
        days_span=30,
    )


def _ensure_wal_b(sf_dir: str):
    """Second, smaller WAL stream (different seed/shape) — the 'sessions'
    table of the multi-table lake. Pure pandas/numpy, like _ensure_wal."""
    from etl_ray.wal import generate_wal

    n = max(5_000, _wal_events_for(sf_dir) // 8)
    wal_dir = os.path.join(_SCRATCH, f"walb-{_sf_tag(sf_dir)}-{n}")
    return generate_wal(
        wal_dir,
        seed=137,
        n_events=n,
        n_repos=max(10, n // 1_000),
        paths_per_repo=150,
        dup_rate=0.02,
        delete_rate=0.05,
        ooo_window=800,
        evolve_at_frac=0.5,
        segment_rows=max(2_500, n // 4),
        content_min=48,
        content_max=512,
        days_span=7,
    )


_REPLAY_CACHE: dict[str, tuple] = {}


def _replay(sf_dir: str):
    """Replay the WAL for this sf into a fresh lake; return (wal, lake_dir).
    Memoized per process (keyed by sf tag AND event count, since
    GRAFT_CDC_EVENTS can change between calls) so the cdc_* queries share
    one replay."""
    tag = f"{_sf_tag(sf_dir)}-{_wal_events_for(sf_dir)}"
    if tag in _REPLAY_CACHE:
        return _REPLAY_CACHE[tag]
    from etl_ray.engine import ReplayEngine

    wal = _ensure_wal(sf_dir)
    lake = os.path.join(_SCRATCH, f"lake-{tag}-{wal.n_base_events}")
    shutil.rmtree(lake, ignore_errors=True)
    eng = ReplayEngine(wal.wal_dir, lake, num_buckets=32, concurrency=4)
    eng.replay_all()
    _REPLAY_CACHE[tag] = (wal, lake)
    return wal, lake


def cdc_final_state(sf_dir: str):
    """The flagship pipeline (north rule): CDC log → hash-partitioned LWW
    replay with tombstones, schema evolution, 2-phase commits → live table
    with per-row content sha256 (driver-oracled via the DuckDB LWW fold over
    the WAL segment files — see ``oracle_sql()``)."""
    from etl_ray.engine.export import final_state

    _, lake = _replay(sf_dir)
    ds = final_state(lake, with_sha=True)
    df = ds.to_pandas()
    # content itself is carried by the sha; commit_ts is a function of lsn
    df = df[["repo", "path", "commit", "lang", "size_bytes", "lsn", "content_sha256"]]
    # float64, not nullable Int64: the driver hashes the oracle's DuckDB frame
    # (float64 for this column) and pandas Int64 `252` != float64 `252.0`.
    df["size_bytes"] = df["size_bytes"].astype("float64")
    return df.sort_values(["repo", "path"]).reset_index(drop=True)


def cdc_lang_daily(sf_dir: str):
    from etl_ray.engine.aggregates import read_agg
    from etl_ray.engine.lineage import LakeLineage

    _, lake = _replay(sf_dir)
    df = read_agg(LakeLineage(lake), "lang_daily_agg").to_pandas()
    return df.sort_values(["day", "lang"]).reset_index(drop=True)


_LOCAL_TZ_OFFSET_MIN = 330  # IST-like per-table offset; moves day boundaries


def cdc_lang_daily_local(sf_dir: str):
    """Engine-side LOCAL-day aggregation (the reference closes day partitions
    on each app's local midnight, ``lib/utils.py:59-62``): a dedicated replay
    with ``tz_offset_minutes=330`` whose agg-log day derivation shifts to the
    table's local midnight; oracled via ``+ INTERVAL 330 MINUTE``."""
    from etl_ray.engine import ReplayEngine
    from etl_ray.engine.aggregates import read_agg
    from etl_ray.engine.lineage import LakeLineage

    tag = f"{_sf_tag(sf_dir)}-{_wal_events_for(sf_dir)}-local"
    if tag not in _REPLAY_CACHE:
        wal = _ensure_wal(sf_dir)
        lake = os.path.join(_SCRATCH, f"lake-{tag}")
        shutil.rmtree(lake, ignore_errors=True)
        eng = ReplayEngine(
            wal.wal_dir, lake, num_buckets=16, concurrency=4,
            tz_offset_minutes=_LOCAL_TZ_OFFSET_MIN,
        )
        eng.replay_all()
        _REPLAY_CACHE[tag] = (wal, lake)
    _, lake = _REPLAY_CACHE[tag]
    df = read_agg(LakeLineage(lake), "lang_daily_agg").to_pandas()
    return df.sort_values(["day", "lang"]).reset_index(drop=True)


def cdc_repo_daily(sf_dir: str):
    from etl_ray.engine.aggregates import read_agg
    from etl_ray.engine.lineage import LakeLineage

    _, lake = _replay(sf_dir)
    df = read_agg(LakeLineage(lake), "repo_daily_agg").to_pandas()
    return df.sort_values(["day", "repo"]).reset_index(drop=True)


# ---------------------------------------------------------------------------


def cdc_repo_live_files(sf_dir: str):
    """Per-repo live-file snapshot from the materialized lake state (A9-style
    re-aggregation from state; pytest-oracled against the DuckDB log fold)."""
    from etl_ray.engine.export import final_state
    from etl_ray.ops.common import partial_groupby

    _, lake = _replay(sf_dir)
    ds = final_state(lake)
    out = partial_groupby(
        ds.map_batches(lambda t: t.select(["repo"]), batch_format="pyarrow"),
        ["repo"],
        {},
        count_col="live_files",
    )
    return out.to_pandas().sort_values("repo").reset_index(drop=True)


def cdc_fold_state(sf_dir: str):
    """Per-key state-fold metrics (the reference's user_history_formula
    surface, ``user_history_parser.py:129-167``): replay with DEFAULT_FOLDS
    into a dedicated lake — one tick, so the fold order is exact global LSN
    order and the result matches the DuckDB window fold in ``oracle_sql``."""
    from etl_ray.engine import ReplayEngine
    from etl_ray.engine.export import final_state
    from etl_ray.engine.folds import DEFAULT_FOLDS

    tag = f"fold-{_sf_tag(sf_dir)}-{_wal_events_for(sf_dir)}"
    if tag not in _REPLAY_CACHE:
        wal = _ensure_wal(sf_dir)
        lake = os.path.join(_SCRATCH, f"lake-{tag}")
        shutil.rmtree(lake, ignore_errors=True)
        eng = ReplayEngine(
            wal.wal_dir, lake, num_buckets=32, concurrency=4,
            folds=DEFAULT_FOLDS, aggregate=False,
        )
        eng.replay_all()
        _REPLAY_CACHE[tag] = (wal, lake)
    _, lake = _REPLAY_CACHE[tag]
    df = final_state(lake).to_pandas()
    cols = ["repo", "path", "change_count", "days_active", "last_day", "reactivations"]
    df = df[cols].astype({c: "int64" for c in cols[2:]})
    return df.sort_values(["repo", "path"]).reset_index(drop=True)


def _multi_lake(sf_dir: str):
    """One multi-table lake per sf (memoized): two base tables from two WAL
    streams plus the incrementally-maintained repo_stats view — the
    reference's N-apps-×-M-event-types deployment unit
    (``dag.py:41-48``, ``app_config.py:95-103``) as one replay loop."""
    from etl_ray.engine.tables import MultiTableLake, TableSpec

    tag = f"multi-{_sf_tag(sf_dir)}-{_wal_events_for(sf_dir)}"
    if tag in _REPLAY_CACHE:
        return _REPLAY_CACHE[tag][1]
    wal_a = _ensure_wal(sf_dir)
    wal_b = _ensure_wal_b(sf_dir)
    lake_dir = os.path.join(_SCRATCH, f"lake-{tag}")
    shutil.rmtree(lake_dir, ignore_errors=True)
    specs = [
        TableSpec(
            name="repo_files", wal_dir=wal_a.wal_dir, num_buckets=16,
            concurrency=4, aggregate=False,
        ),
        TableSpec(
            name="sessions", wal_dir=wal_b.wal_dir, num_buckets=8,
            concurrency=4, aggregate=False,
        ),
        TableSpec(name="repo_stats", view="repo_stats", source="repo_files"),
        # registration-style fact view: first/last event metadata per repo
        # (the reference's first-event-per-user rollup,
        # ``insert_registration.sql:18-41``, as incremental view aggregates)
        TableSpec(
            name="registration", view="aggregate", source="repo_files",
            view_group_by=["repo"],
            view_aggs=[
                {"out": "live_files", "fn": "count"},
                {"out": "first_lsn", "col": "lsn", "fn": "min"},
                {"out": "first_path", "col": "path", "fn": "first", "by": "lsn"},
                {"out": "first_commit", "col": "commit", "fn": "first", "by": "lsn"},
                {"out": "last_path", "col": "path", "fn": "last", "by": "lsn"},
                {"out": "last_ts", "col": "commit_ts", "fn": "last", "by": "lsn"},
            ],
        ),
        # gap-based session view: maximal runs of live-row commit_ts per
        # repo with gaps <= 180 min (the reference's sessions fact table,
        # ``insert_sessions.sql:36-83``, maintained incrementally)
        TableSpec(
            name="activity_sessions", view="session", source="repo_files",
            view_key=["repo"], view_ts="commit_ts", gap_minutes=180,
            # rider rollups inside each session row (the reference's
            # FIRST/LAST_VALUE columns, ``insert_sessions.sql:36-43``)
            view_aggs=[
                {"out": "first_path", "col": "path", "fn": "first"},
                {"out": "last_path", "col": "path", "fn": "last"},
                {"out": "max_lsn", "col": "lsn", "fn": "max"},
            ],
        ),
    ]
    lake = MultiTableLake(lake_dir, specs)
    lake.replay_all()
    _REPLAY_CACHE[tag] = (None, lake)
    return lake


def cdc_multi_repo_stats(sf_dir: str):
    """Derived-view table of the multi-table lake: per-repo live-file stats
    maintained INCREMENTALLY from the upstream table's bucket lineage
    (two-level aggregate; per-bucket partials recomputed only for advanced
    buckets). Oracled via the DuckDB LWW fold over the same WAL."""
    lake = _multi_lake(sf_dir)
    df = lake.read_view("repo_stats").to_pandas()
    df = df.astype(
        {"live_files": "int64", "total_bytes": "int64", "last_lsn": "int64"}
    )
    return df.sort_values("repo").reset_index(drop=True)


def cdc_multi_second_table(sf_dir: str):
    """Second base table ('sessions') of the multi-table lake, replayed in
    the same loop from its own WAL stream with its own spec — final state
    with per-row content sha256, oracled over the second WAL's segments."""
    from etl_ray.engine.export import final_state

    lake = _multi_lake(sf_dir)
    df = final_state(lake.table_dir("sessions"), with_sha=True).to_pandas()
    df = df[["repo", "path", "commit", "lsn", "content_sha256"]]
    return df.sort_values(["repo", "path"]).reset_index(drop=True)


def cdc_registration_view(sf_dir: str):
    """Registration-style fact view (first/last by order key as view
    aggregates): first/last event metadata per repo, maintained
    incrementally from the upstream table's bucket lineage. Reference
    semantics: ``insert_registration.sql:18-41`` (first event per user with
    rider columns), ``insert_sessions.sql:36-83`` (rank-1 winner rows)."""
    lake = _multi_lake(sf_dir)
    df = lake.read_view("registration").to_pandas()
    from etl_ray.ops.common import epoch_us

    df["last_ts_us"] = epoch_us(df["last_ts"])
    df = df.drop(columns=["last_ts"]).astype(
        {"live_files": "int64", "first_lsn": "int64", "last_ts_us": "int64"}
    )
    return df.sort_values("repo").reset_index(drop=True)


def cdc_session_view(sf_dir: str):
    """Gap-based session view: per-repo activity sessions over the live
    state's commit_ts (180-min gap), maintained incrementally as per-bucket
    session fragments + a per-key interval-merge read. Reference semantics:
    ``insert_sessions.sql:36-83`` (gap sessionization fact table)."""
    lake = _multi_lake(sf_dir)
    df = lake.read_view("activity_sessions").to_pandas()
    cols = [
        "repo", "session_seq", "session_start_us", "session_end_us",
        "n_events", "first_path", "last_path", "max_lsn",
    ]
    if df.empty:
        # Ray's to_pandas drops columns on an empty Dataset; rebuild typed
        import pandas as pd

        str_cols = {"repo", "first_path", "last_path"}
        return pd.DataFrame(
            {c: pd.Series([], dtype="object" if c in str_cols else "int64")
             for c in cols}
        )
    from etl_ray.ops.common import epoch_us

    df["session_start_us"] = epoch_us(df["session_start"])
    df["session_end_us"] = epoch_us(df["session_end"])
    df = df.drop(columns=["session_start", "session_end"]).astype(
        {
            "n_events": "int64", "session_seq": "int64",
            "session_start_us": "int64", "session_end_us": "int64",
            "max_lsn": "int64",
        }
    )
    return df.sort_values(["repo", "session_start_us"]).reset_index(drop=True)[cols]


def entry() -> Any:
    """Flagship pipeline on /root/testdata/sf0.001; driver checks rows>=0."""
    return cdc_final_state("/root/testdata/sf0.001")


def queries() -> dict[str, Callable[[str], Any]]:
    from etl_ray.ops import dedup_text as dd
    from etl_ray.ops import events as ev
    from etl_ray.ops import multimodal as mm
    from etl_ray.ops import relational as rel
    from etl_ray.ops import similarity as sim
    from etl_ray.ops import sketch as sk
    from etl_ray.ops import text as tx

    return {
        # CDC engine (pytest-oracled via DuckDB fold; rows-only here)
        "cdc_final_state": cdc_final_state,
        "cdc_lang_daily": cdc_lang_daily,
        "cdc_lang_daily_local": cdc_lang_daily_local,
        "cdc_repo_daily": cdc_repo_daily,
        "cdc_repo_live_files": cdc_repo_live_files,
        "cdc_fold_state": cdc_fold_state,
        # multi-table lake (TableSpec registry, one replay loop)
        "cdc_multi_repo_stats": cdc_multi_repo_stats,
        "cdc_multi_second_table": cdc_multi_second_table,
        "cdc_registration_view": cdc_registration_view,
        "cdc_session_view": cdc_session_view,
        # relational ops
        "q1_pricing_summary": rel.q1_pricing_summary,
        "revenue_by_region": rel.revenue_by_region,
        "customers_without_orders": rel.customers_without_orders,
        "top_orders": rel.top_orders,
        "part_brand_union": rel.part_brand_union,
        "monthly_order_totals": rel.monthly_order_totals,
        "latest_order_per_customer": rel.latest_order_per_customer,
        "orders_asof_last_event": rel.orders_asof_last_event,
        "order_lineitem_join": rel.order_lineitem_join,
        "events_csv_roundtrip": rel.events_csv_roundtrip,
        # event-stream ops
        "events_dedup_first": ev.events_dedup_first,
        "events_latest_per_user": ev.events_latest_per_user,
        "user_daily_activity": ev.user_daily_activity,
        "user_daily_activity_local": ev.user_daily_activity_local,
        "sessionize": ev.sessionize,
        "rolling_active_days": ev.rolling_active_days,
        "event_gap_stats": ev.event_gap_stats,
        "events_pseudonymized": ev.events_pseudonymized,
        "events_json_extract": ev.events_json_extract,
        "events_cleaned": ev.events_cleaned,
        "user_state_fold": ev.user_state_fold,
        "tumbling_window_counts": ev.tumbling_window_counts,
        # sliding_window_counts retired from the registry (the driver judges
        # at most 50 entries; tumbling covers the window family here) — the
        # op + its DuckDB-oracle pytest remain (tests/test_retired_ops.py)
        # entity_union_by_name rotated out of the 50-entry judged registry
        # (D7 union-align stays covered by part_brand_union) to admit
        # cdc_registration_view; op + DuckDB-oracle pytest remain
        # (tests/test_retired_ops.py).
        # text analysis
        "doc_token_stats": tx.doc_token_stats,
        "lang_doc_summary": tx.lang_doc_summary,
        "doc_fingerprint": tx.doc_fingerprint,
        "doc_quality_scores": tx.doc_quality_scores,
        "doc_lang_id": tx.doc_lang_id,
        # doc_winnow_fingerprints retired from the registry (50-entry judged
        # window; doc_fingerprint covers the fingerprint family) — op +
        # DuckDB-oracle pytest remain (tests/test_retired_ops.py)
        # dedup families
        "doc_exact_dedup": dd.doc_exact_dedup,
        "doc_dup_groups": dd.doc_dup_groups,
        # doc_minhash_signatures retired from the registry (redundant with
        # doc_minhash_lsh_pairs, which consumes the signatures internally):
        # the driver judges at most 50 entries and round 2 silently dropped
        # the 51st (events_sample). The op + pytest coverage remain.
        "doc_minhash_lsh_pairs": dd.doc_minhash_lsh_pairs,
        "doc_simhash": dd.doc_simhash,
        "doc_ngram_jaccard_topk": dd.doc_ngram_jaccard_matrix,
        # similarity search
        "emb_knn_bruteforce": sim.emb_knn_bruteforce,
        "emb_lsh_buckets": sim.emb_lsh_buckets,
        "emb_cosine_dup_pairs": sim.emb_cosine_dup_pairs,
        "emb_lsh_ann": sim.emb_lsh_ann,
        # emb_ivf_ann retired from the registry to stay within the driver's
        # 50-entry judged window with everything oracled: its iterative
        # k-means training has no SQL equivalent (rows-only check), while
        # cdc_lang_daily_local (engine-side local-day aggregation) is fully
        # oracleable. The IVF op + its recall/determinism pytest remain.
        "emb_label_centroid_norm": sim.emb_label_centroid_norm,
        # multimodal plumbing
        "media_features": mm.media_features,
        # sketches + deterministic sampling
        "events_approx_distinct_users": sk.events_approx_distinct_users,
        # lineitem_approx_distinct_parts rotated out of the 50-entry judged
        # registry (same KMV sketch as events_approx_distinct_users, second
        # input table) to admit cdc_session_view; op + DuckDB-oracle pytest
        # remain (tests/test_retired_ops.py).
        "events_sample": sk.events_sample,
    }


def _cdc_oracle_sql() -> dict[str, str]:
    """DuckDB oracle SQL for the flagship cdc_* queries: the LWW fold /
    distinct-LSN aggregates expressed directly over the WAL segment parquet
    files (the same fold as ``etl_ray/oracle.py``, emitted as SQL strings).

    The WAL path is deterministic per (sf, event count), so the file list can
    be resolved at ``oracle_sql()`` call time; the WAL is generated here if
    missing (pure pandas/numpy — no Ray needed) so the SQL is runnable
    regardless of whether the Ray queries ran first. The driver compares at
    sf=0.01."""
    sf_dir = os.environ.get("GRAFT_ORACLE_SF_DIR", "/root/testdata/sf0.01")
    wal = _ensure_wal(sf_dir)
    files = ", ".join(f"'{f}'" for f in wal.segment_files)
    wal_src = f"read_parquet([{files}], union_by_name=true)"
    size_expr = (
        "CAST(size_bytes AS BIGINT)"
        if any(s.get("has_size_bytes") for s in wal.segments)
        else "CAST(NULL AS BIGINT)"
    )
    uniq = (
        "SELECT * FROM (SELECT *, row_number() OVER "
        f"(PARTITION BY lsn ORDER BY lsn) AS _rn FROM {wal_src}) WHERE _rn = 1"
    )
    walb = _ensure_wal_b(sf_dir)
    files_b = ", ".join(f"'{f}'" for f in walb.segment_files)
    walb_src = f"read_parquet([{files_b}], union_by_name=true)"
    return {
        "cdc_final_state": f"""
            SELECT repo, path, "commit", lang, {size_expr} AS size_bytes,
                   lsn, sha256(content) AS content_sha256
            FROM (
                SELECT *, row_number() OVER (
                    PARTITION BY repo, path ORDER BY lsn DESC) AS rn
                FROM {wal_src}
            )
            WHERE rn = 1 AND op <> 'delete'
            ORDER BY repo, path
        """,
        "cdc_lang_daily": f"""
            WITH uniq AS ({uniq})
            SELECT strftime(commit_ts, '%Y-%m-%d') AS day, lang,
                   CAST(COUNT(*) AS BIGINT) AS files_changed,
                   CAST(COALESCE(SUM(length(content)), 0) AS BIGINT) AS bytes,
                   CAST(COUNT(DISTINCT repo) AS BIGINT) AS distinct_repos,
                   CAST(MAX(length(content)) AS DOUBLE) AS max_file_bytes
            FROM uniq
            WHERE op <> 'delete'
            GROUP BY 1, 2 ORDER BY 1, 2
        """,
        "cdc_lang_daily_local": f"""
            WITH uniq AS ({uniq})
            SELECT strftime(commit_ts + INTERVAL {_LOCAL_TZ_OFFSET_MIN} MINUTE,
                            '%Y-%m-%d') AS day, lang,
                   CAST(COUNT(*) AS BIGINT) AS files_changed,
                   CAST(COALESCE(SUM(length(content)), 0) AS BIGINT) AS bytes,
                   CAST(COUNT(DISTINCT repo) AS BIGINT) AS distinct_repos,
                   CAST(MAX(length(content)) AS DOUBLE) AS max_file_bytes
            FROM uniq
            WHERE op <> 'delete'
            GROUP BY 1, 2 ORDER BY 1, 2
        """,
        "cdc_repo_daily": f"""
            WITH uniq AS ({uniq})
            SELECT strftime(commit_ts, '%Y-%m-%d') AS day, repo,
                   CAST(COUNT(*) AS BIGINT) AS events,
                   CAST(COUNT(*) FILTER (op <> 'delete') AS BIGINT) AS upserts,
                   CAST(COUNT(*) FILTER (op = 'delete') AS BIGINT) AS deletes,
                   CAST(COUNT(DISTINCT path) AS BIGINT) AS distinct_paths
            FROM uniq
            GROUP BY 1, 2 ORDER BY 1, 2
        """,
        "cdc_repo_live_files": f"""
            SELECT repo, CAST(COUNT(*) AS BIGINT) AS live_files
            FROM (
                SELECT *, row_number() OVER (
                    PARTITION BY repo, path ORDER BY lsn DESC) AS rn
                FROM {wal_src}
            )
            WHERE rn = 1 AND op <> 'delete'
            GROUP BY repo ORDER BY repo
        """,
        "cdc_multi_repo_stats": f"""
            SELECT repo,
                   CAST(COUNT(*) AS BIGINT) AS live_files,
                   CAST(COALESCE(SUM({size_expr}), 0) AS BIGINT) AS total_bytes,
                   CAST(MAX(lsn) AS BIGINT) AS last_lsn
            FROM (
                SELECT *, row_number() OVER (
                    PARTITION BY repo, path ORDER BY lsn DESC) AS rn
                FROM {wal_src}
            )
            WHERE rn = 1 AND op <> 'delete'
            GROUP BY repo ORDER BY repo
        """,
        "cdc_multi_second_table": f"""
            SELECT repo, path, "commit", lsn, sha256(content) AS content_sha256
            FROM (
                SELECT *, row_number() OVER (
                    PARTITION BY repo, path ORDER BY lsn DESC) AS rn
                FROM {walb_src}
            )
            WHERE rn = 1 AND op <> 'delete'
            ORDER BY repo, path
        """,
        "cdc_registration_view": f"""
            SELECT repo,
                   CAST(COUNT(*) AS BIGINT) AS live_files,
                   CAST(MIN(lsn) AS BIGINT) AS first_lsn,
                   arg_min(path, lsn) AS first_path,
                   arg_min("commit", lsn) AS first_commit,
                   arg_max(path, lsn) AS last_path,
                   CAST(epoch_us(arg_max(commit_ts, lsn)) AS BIGINT) AS last_ts_us
            FROM (
                SELECT *, row_number() OVER (
                    PARTITION BY repo, path ORDER BY lsn DESC) AS rn
                FROM {wal_src}
            )
            WHERE rn = 1 AND op <> 'delete'
            GROUP BY repo ORDER BY repo
        """,
        "cdc_session_view": f"""
            WITH live AS (
                SELECT repo, path, lsn, commit_ts FROM (
                    SELECT *, row_number() OVER (
                        PARTITION BY repo, path ORDER BY lsn DESC) AS rn
                    FROM {wal_src}
                )
                WHERE rn = 1 AND op <> 'delete' AND commit_ts IS NOT NULL
            ), b AS (
                SELECT repo, path, lsn, commit_ts,
                       CASE WHEN commit_ts - LAG(commit_ts) OVER (
                                PARTITION BY repo ORDER BY commit_ts)
                            > INTERVAL 180 MINUTE THEN 1 ELSE 0 END AS brk
                FROM live
            ), c AS (
                SELECT repo, path, lsn, commit_ts,
                       SUM(brk) OVER (PARTITION BY repo ORDER BY commit_ts
                                      ROWS UNBOUNDED PRECEDING) AS g
                FROM b
            )
            SELECT repo,
                   CAST(ROW_NUMBER() OVER (PARTITION BY repo
                            ORDER BY MIN(commit_ts)) AS BIGINT) AS session_seq,
                   CAST(epoch_us(MIN(commit_ts)) AS BIGINT) AS session_start_us,
                   CAST(epoch_us(MAX(commit_ts)) AS BIGINT) AS session_end_us,
                   CAST(COUNT(*) AS BIGINT) AS n_events,
                   first(path ORDER BY commit_ts, path) AS first_path,
                   first(path ORDER BY commit_ts DESC, path DESC) AS last_path,
                   CAST(MAX(lsn) AS BIGINT) AS max_lsn
            FROM c GROUP BY repo, g ORDER BY repo, session_start_us
        """,
        "cdc_fold_state": f"""
            WITH uniq AS ({uniq}),
            e AS (SELECT repo, path, lsn,
                         epoch_us(commit_ts) // 86400000000 AS day_num,
                         (op = 'delete') AS del FROM uniq),
            w AS (SELECT *, lag(day_num) OVER (
                      PARTITION BY repo, path ORDER BY lsn) AS lag_day FROM e)
            SELECT repo, path,
              CAST(COUNT(*) AS BIGINT) AS change_count,
              CAST(COUNT(DISTINCT day_num) AS BIGINT) AS days_active,
              CAST(MAX(day_num) AS BIGINT) AS last_day,
              CAST(COALESCE(SUM(CASE WHEN day_num - lag_day > 7
                                THEN 1 ELSE 0 END), 0) AS BIGINT) AS reactivations
            FROM w GROUP BY repo, path
            HAVING first(del ORDER BY lsn DESC) = false
            ORDER BY repo, path
        """,
    }


def _simhash_oracle_sql() -> str:
    """DuckDB replica of ``ops/dedup_text.SimHasher``: sha-derived 64-bit
    token hashes (first 16 hex chars), per-occurrence ±1 bit votes, bit 63
    handled via two's complement so the BIGINT result matches numpy's
    ``view(int64)``."""
    return r"""
        WITH toks AS (
          SELECT doc_id, w, COUNT(*) AS cnt FROM (
            SELECT doc_id,
                   unnest(string_split(regexp_replace(lower(text), '\s+', ' ', 'g'), ' ')) AS w
            FROM documents) GROUP BY doc_id, w),
        uhh AS (SELECT w, substr(sha256('sh:11:' || w), 1, 16) AS h
                FROM (SELECT DISTINCT w FROM toks)),
        bits AS (SELECT w, tb.b,
                 ((strpos('0123456789abcdef', substr(h, CAST(16 - tb.b // 4 AS INT), 1)) - 1)
                  >> CAST(tb.b % 4 AS INT)) & 1 AS bit
                 FROM uhh, range(64) tb(b)),
        votes AS (SELECT t.doc_id, bits.b, SUM(t.cnt * (2 * bits.bit - 1)) AS v
                  FROM toks t JOIN bits USING (w) GROUP BY t.doc_id, bits.b)
        SELECT doc_id,
               CAST(SUM(CASE WHEN v > 0 AND b < 63 THEN (CAST(1 AS BIGINT) << CAST(b AS INT)) ELSE 0 END)
                  - SUM(CASE WHEN v > 0 AND b = 63 THEN CAST(1 AS BIGINT) << 62 ELSE 0 END) * 2
                AS BIGINT) AS simhash
        FROM votes GROUP BY doc_id ORDER BY doc_id
    """


def _minhash_lsh_oracle_sql() -> str:
    """DuckDB replica of ``ops/dedup_text.doc_minhash_lsh_pairs``: the
    sha-derived permutation/band constants are computed here and inlined as
    literals; signatures use HUGEINT to emulate numpy's uint64 wraparound
    ((a·x + b) mod 2^64 mod (2^61−1)); band/cell partitioning, pair dedup
    and the exact shingle-hash Jaccard verification mirror the Ray pipeline
    exactly (defaults: 64 perms, 16×4 bands, max_bucket 64, threshold
    0.5)."""
    from etl_ray.ops.dedup_text import band_hash_constants, minhash_perm_constants

    a, b = minhash_perm_constants(64, 7)
    c = band_hash_constants(16, 4, 7)
    perms = ", ".join(f"({i}, {int(a[i])}, {int(b[i])})" for i in range(64))
    bandc = ", ".join(
        f"({bi}, {r}, {int(c[bi, r])})" for bi in range(16) for r in range(4)
    )
    xh_expr = " + ".join(
        f"CAST(strpos('0123456789abcdef', substr(gh, {j}, 1)) - 1 AS BIGINT) * {16 ** (8 - j)}"
        for j in range(1, 9)
    )
    return rf"""
        WITH words AS (
          SELECT doc_id, string_split(regexp_replace(lower(text), '\s+', ' ', 'g'), ' ') AS ws
          FROM documents),
        gr AS (
          SELECT doc_id,
                 ws[CAST(i AS INT)] || ' ' || ws[CAST(i AS INT) + 1] || ' ' || ws[CAST(i AS INT) + 2] AS g
          FROM (SELECT doc_id, ws, unnest(range(1, len(ws) - 1)) AS i FROM words WHERE len(ws) >= 3)
          UNION ALL
          SELECT doc_id, array_to_string(ws, ' ') AS g FROM words WHERE len(ws) < 3),
        sh AS (
          SELECT DISTINCT doc_id, xh FROM (
            SELECT doc_id, {xh_expr} AS xh FROM (SELECT doc_id, sha256(g) AS gh FROM gr))),
        perms(perm, a, bb) AS (VALUES {perms}),
        sigs AS (
          SELECT doc_id, perm,
                 MIN(((CAST(a AS HUGEINT) * xh + bb) % 18446744073709551616) % 2305843009213693951) AS s
          FROM sh, perms GROUP BY doc_id, perm),
        bandc(band, r, c) AS (VALUES {bandc}),
        folded AS (
          SELECT doc_id, perm // 4 AS band, perm % 4 AS r,
                 xor(CAST(s AS BIGINT), CAST(s AS BIGINT) >> 31) & 2147483647 AS t
          FROM sigs),
        bh AS (SELECT doc_id, folded.band, SUM(t * c) AS band_hash
               FROM folded JOIN bandc ON bandc.band = folded.band AND bandc.r = folded.r
               GROUP BY doc_id, folded.band),
        bsz AS (SELECT doc_id, band, band_hash,
                       COUNT(*) OVER (PARTITION BY band, band_hash) AS n FROM bh),
        cells AS (SELECT doc_id, band, band_hash,
                  CASE WHEN n <= 64 THEN CAST(0 AS BIGINT)
                       ELSE (doc_id * 2654435761) % 4294967296 % CAST(ceil(n / 64.0) AS BIGINT)
                  END AS cell FROM bsz),
        cand AS (SELECT DISTINCT x.doc_id AS doc_a, y.doc_id AS doc_b
                 FROM cells x JOIN cells y
                   ON x.band = y.band AND x.band_hash = y.band_hash AND x.cell = y.cell
                  AND x.doc_id < y.doc_id),
        sizes AS (SELECT doc_id, COUNT(*) AS ns FROM sh GROUP BY doc_id),
        inter AS (SELECT cand.doc_a, cand.doc_b, COUNT(*) AS i
                  FROM cand JOIN sh sa ON sa.doc_id = cand.doc_a
                            JOIN sh sb ON sb.doc_id = cand.doc_b AND sb.xh = sa.xh
                  GROUP BY cand.doc_a, cand.doc_b),
        j AS (SELECT doc_a, doc_b,
                     floor(CAST(i AS DOUBLE) / (za.ns + zb.ns - i) * 1e6 + 0.5) / 1e6 AS jaccard
              FROM inter JOIN sizes za ON za.doc_id = doc_a
                         JOIN sizes zb ON zb.doc_id = doc_b)
        SELECT doc_a, doc_b, jaccard FROM j WHERE jaccard >= 0.5 ORDER BY doc_a, doc_b
    """


# shared CTE: sha-derived ±1 sign hyperplanes (8 planes × 64 dims, seed 5)
# over floor(v·1024) integer quantization — bit-identical to
# etl_ray.ops.similarity.lsh_plane_signs / lsh_codes
_LSH_CODES_CTE = """
            WITH planes AS (
              SELECT p, d,
                     CASE WHEN strpos('01234567',
                              substr(sha256('lsh:5:' || p || ':' || d), 1, 1)) > 0
                          THEN 1 ELSE -1 END AS s
              FROM range(8) tp(p), range(64) td(d)
            ),
            qv AS (
              SELECT e.vec_id, td.d,
                     CAST(floor(CAST(e.embedding[CAST(td.d AS INT) + 1] AS DOUBLE)
                                * 1024) AS BIGINT) AS q
              FROM embeddings e, range(64) td(d)
            ),
            dots AS (
              SELECT qv.vec_id, planes.p, SUM(qv.q * planes.s) AS dot
              FROM qv JOIN planes USING (d) GROUP BY qv.vec_id, planes.p
            ),
            codes AS (
              SELECT vec_id,
                     CAST(SUM(CASE WHEN dot > 0 THEN 1 << CAST(p AS INT)
                              ELSE 0 END) AS BIGINT) AS bucket
              FROM dots GROUP BY vec_id
            )"""


def oracle_sql() -> dict[str, str]:
    return {
        **_cdc_oracle_sql(),
        "q1_pricing_summary": """
            SELECT l_returnflag, l_linestatus,
                   ROUND(SUM(l_quantity), 2) AS sum_qty,
                   ROUND(SUM(l_extendedprice), 2) AS sum_base_price,
                   ROUND(SUM(FLOOR(l_extendedprice * (1 - l_discount) * 100.0 + 0.5) / 100.0), 2) AS sum_disc_price,
                   ROUND(SUM(FLOOR((FLOOR(l_extendedprice * (1 - l_discount) * 100.0 + 0.5) / 100.0) * (1 + l_tax) * 100.0 + 0.5) / 100.0), 2) AS sum_charge,
                   COUNT(*) AS count_order,
                   ROUND(SUM(l_quantity) / COUNT(*), 6) AS avg_qty,
                   ROUND(SUM(l_extendedprice) / COUNT(*), 6) AS avg_price,
                   ROUND(SUM(l_discount) / COUNT(*), 6) AS avg_disc
            FROM lineitem
            WHERE l_shipdate <= TIMESTAMP '1998-09-02'
            GROUP BY 1, 2 ORDER BY 1, 2
        """,
        "revenue_by_region": """
            SELECT r_name AS region, n_name AS nation,
                   ROUND(SUM(o_totalprice), 2) AS revenue, COUNT(*) AS orders
            FROM orders
            JOIN customer ON o_custkey = c_custkey
            JOIN nation ON c_nationkey = n_nationkey
            JOIN region ON n_regionkey = r_regionkey
            GROUP BY 1, 2 ORDER BY 1, 2
        """,
        "customers_without_orders": """
            SELECT c_custkey, c_name FROM customer
            WHERE c_custkey NOT IN (
                SELECT DISTINCT o_custkey FROM orders WHERE o_totalprice > 450000.0)
            ORDER BY c_custkey
        """,
        "top_orders": """
            SELECT o_orderkey, o_custkey, ROUND(o_totalprice, 2) AS o_totalprice
            FROM orders ORDER BY o_totalprice DESC, o_orderkey LIMIT 10
        """,
        "part_brand_union": """
            SELECT p_brand, COUNT(*) AS n FROM (
                SELECT p_brand FROM part WHERE p_size > 25
                UNION ALL
                SELECT p_brand FROM part WHERE p_retailprice > 1500.0
            ) GROUP BY 1 ORDER BY 1
        """,
        "monthly_order_totals": """
            SELECT strftime(o_orderdate, '%Y-%m-01') AS month,
                   ROUND(SUM(o_totalprice), 2) AS revenue, COUNT(*) AS orders
            FROM orders GROUP BY 1 ORDER BY 1
        """,
        "latest_order_per_customer": """
            SELECT o_custkey, o_orderkey,
                   strftime(o_orderdate, '%Y-%m-%d') AS o_orderdate,
                   ROUND(o_totalprice, 2) AS o_totalprice
            FROM (SELECT *, row_number() OVER (
                      PARTITION BY o_custkey
                      ORDER BY o_orderdate DESC, o_orderkey DESC) AS rn
                  FROM orders)
            WHERE rn = 1 ORDER BY o_custkey
        """,
        "orders_asof_last_event": """
            WITH o AS (
                SELECT o_custkey, o_orderkey, o_orderdate FROM (
                    SELECT *, row_number() OVER (
                        PARTITION BY o_custkey, o_orderdate
                        ORDER BY o_orderkey DESC) AS rn
                    FROM orders)
                WHERE rn = 1
            )
            SELECT e.event_id, e.user_id, epoch_us(e.ts) AS ts_us, o.o_orderkey
            FROM events e
            ASOF LEFT JOIN o ON e.user_id = o.o_custkey AND e.ts >= o.o_orderdate
            ORDER BY e.event_id
        """,
        "order_lineitem_join": """
            SELECT o_orderkey, ROUND(o_totalprice, 2) AS o_totalprice,
                   ROUND(SUM(FLOOR(l_extendedprice * (1 - l_discount) * 100.0 + 0.5) / 100.0), 2)
                       AS line_revenue,
                   COUNT(*) AS n_lines
            FROM orders JOIN lineitem ON o_orderkey = l_orderkey
            GROUP BY o_orderkey, o_totalprice ORDER BY o_orderkey
        """,
        "events_csv_roundtrip": """
            SELECT event_type, COUNT(*) AS n, ROUND(SUM(value), 6) AS total_value
            FROM events GROUP BY 1 ORDER BY 1
        """,
        "events_dedup_first": """
            SELECT user_id, event_type, event_id, epoch_us(ts) AS ts_us
            FROM (SELECT *, row_number() OVER (
                      PARTITION BY user_id, event_type
                      ORDER BY ts, event_id) AS rn
                  FROM events)
            WHERE rn = 1 ORDER BY user_id, event_type
        """,
        "events_latest_per_user": """
            SELECT user_id, event_id, event_type, epoch_us(ts) AS ts_us,
                   ROUND(value, 6) AS value
            FROM (SELECT *, row_number() OVER (
                      PARTITION BY user_id ORDER BY ts DESC, event_id DESC) AS rn
                  FROM events)
            WHERE rn = 1 ORDER BY user_id
        """,
        "user_daily_activity": """
            SELECT user_id, strftime(ts, '%Y-%m-%d') AS day,
                   COUNT(*) AS events,
                   COUNT(DISTINCT event_type) AS distinct_types,
                   ROUND(SUM(value), 6) AS total_value
            FROM events GROUP BY 1, 2 ORDER BY 1, 2
        """,
        "user_daily_activity_local": """
            SELECT user_id,
                   strftime(ts + INTERVAL 330 MINUTE, '%Y-%m-%d') AS local_day,
                   COUNT(*) AS events, ROUND(SUM(value), 6) AS total_value
            FROM events GROUP BY 1, 2 ORDER BY 1, 2
        """,
        "sessionize": """
            WITH base AS (
                SELECT user_id, event_id, ts, value,
                       CASE WHEN lag(ts) OVER w IS NULL
                                 OR epoch_us(ts) - lag(epoch_us(ts)) OVER w > 1800000000
                            THEN 1 ELSE 0 END AS new_s
                FROM events
                WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
            ), s AS (
                SELECT *, CAST(SUM(new_s) OVER (
                    PARTITION BY user_id ORDER BY ts, event_id
                    ROWS UNBOUNDED PRECEDING) AS BIGINT) AS session_seq
                FROM base
            )
            SELECT user_id, session_seq, COUNT(*) AS n_events,
                   MIN(epoch_us(ts)) AS start_us, MAX(epoch_us(ts)) AS end_us,
                   MAX(epoch_us(ts)) - MIN(epoch_us(ts)) AS duration_us,
                   ROUND(SUM(value), 6) AS total_value
            FROM s GROUP BY 1, 2 ORDER BY 1, 2
        """,
        "rolling_active_days": """
            WITH d AS (SELECT DISTINCT user_id, date_trunc('day', ts) AS dd FROM events)
            SELECT user_id, strftime(dd, '%Y-%m-%d') AS day,
                   CAST(COUNT(*) OVER (
                       PARTITION BY user_id ORDER BY dd
                       RANGE BETWEEN INTERVAL 6 DAYS PRECEDING AND CURRENT ROW
                   ) AS BIGINT) AS active_7d
            FROM d ORDER BY 1, 2
        """,
        "event_gap_stats": """
            WITH g AS (
                SELECT user_id,
                       epoch_us(ts) - lag(epoch_us(ts)) OVER (
                           PARTITION BY user_id ORDER BY ts, event_id) AS gap
                FROM events)
            SELECT user_id, COUNT(gap) AS n_gaps,
                   CAST(COALESCE(MAX(gap), 0) AS BIGINT) AS max_gap_us,
                   CAST(COALESCE(SUM(gap), 0) AS BIGINT) AS sum_gap_us
            FROM g GROUP BY 1 ORDER BY 1
        """,
        "events_pseudonymized": """
            SELECT event_id, sha256(CAST(user_id AS VARCHAR)) AS user_sha, event_type
            FROM events ORDER BY event_id
        """,
        "events_json_extract": """
            SELECT event_type, COUNT(*) AS n,
                   CAST(SUM(CAST(regexp_extract(props, '"k":\\s*(\\d+)', 1) AS BIGINT)) AS BIGINT) AS sum_k,
                   CAST(MAX(CAST(regexp_extract(props, '"k":\\s*(\\d+)', 1) AS BIGINT)) AS BIGINT) AS max_k
            FROM events GROUP BY 1 ORDER BY 1
        """,
        "events_cleaned": """
            SELECT event_id, user_id, event_type,
                   ROUND(COALESCE(value, 0), 6) AS value
            FROM events
            WHERE event_type <> 'error' AND user_id NOT IN (0, 5, 10)
            ORDER BY event_id
        """,
        "tumbling_window_counts": """
            SELECT CAST(floor(epoch_us(ts) / 21600000000) * 21600000000 AS BIGINT)
                       AS window_start_us,
                   event_type, COUNT(*) AS events, ROUND(SUM(value), 6) AS total_value
            FROM events GROUP BY 1, 2 ORDER BY 1, 2
        """,
        "user_state_fold": """
            SELECT user_id,
                   COUNT(*) AS total_events,
                   ROUND(SUM(value), 6) AS total_value,
                   strftime(MIN(ts), '%Y-%m-%d') AS first_seen_day,
                   strftime(MAX(ts), '%Y-%m-%d') AS last_seen_day,
                   COUNT(DISTINCT strftime(ts, '%Y-%m-%d')) AS days_active,
                   COUNT(*) FILTER (event_type = 'purchase') > 0 AS is_payer,
                   MIN(strftime(ts, '%Y-%m-%d')) FILTER (event_type = 'purchase')
                       AS payer_since_day,
                   first(event_type ORDER BY ts DESC, event_id DESC)
                       AS last_event_type
            FROM events GROUP BY user_id ORDER BY user_id
        """,
        "doc_token_stats": """
            SELECT doc_id, lang, length(text) AS n_chars,
                   CAST(length(string_split_regex(trim(text), '\\s+')) AS BIGINT) AS n_tokens,
                   CAST(length(list_distinct(string_split_regex(trim(text), '\\s+'))) AS BIGINT) AS distinct_tokens
            FROM documents ORDER BY doc_id
        """,
        "lang_doc_summary": """
            SELECT lang, COUNT(*) AS docs,
                   CAST(SUM(length(text)) AS BIGINT) AS total_chars,
                   CAST(MAX(length(text)) AS BIGINT) AS max_chars,
                   ROUND(CAST(SUM(length(text)) AS DOUBLE) / COUNT(*), 6) AS avg_chars
            FROM documents GROUP BY 1 ORDER BY 1
        """,
        "doc_fingerprint": """
            SELECT doc_id,
                   sha256(lower(regexp_replace(text, '\\s+', ' ', 'g'))) AS fp
            FROM documents ORDER BY doc_id
        """,
        "doc_dup_groups": """
            SELECT doc_id,
                   MIN(doc_id) OVER (PARTITION BY text) AS canonical_id,
                   COUNT(*) OVER (PARTITION BY text) AS group_size
            FROM documents ORDER BY doc_id
        """,
        "doc_quality_scores": """
            WITH w AS (
                SELECT doc_id, length(text) AS chars,
                       regexp_extract_all(lower(text), '[a-z0-9_]+') AS words
                FROM documents
            ), s AS (
                SELECT doc_id, chars,
                       length(words) AS n_words,
                       length(list_filter(words, x -> list_contains(
                           ['the','and','of','a','to','in','is','it','on','for',
                            'la','el','de','y','en','le','et','der','die','und'],
                           x))) AS stop_n,
                       length(list_distinct(words)) AS uniq_n
                FROM w
            )
            , q AS (
                SELECT doc_id, n_words,
                       FLOOR(stop_n / GREATEST(n_words, 1) * 1000000.0 + 0.5) / 1000000.0 AS stop_ratio,
                       FLOOR(uniq_n / GREATEST(n_words, 1) * 1000000.0 + 0.5) / 1000000.0 AS frac_unique,
                       FLOOR((chars - GREATEST(n_words - 1, 0)) / GREATEST(n_words, 1)
                             * 1000000.0 + 0.5) / 1000000.0 AS mean_word_len
                FROM s
            )
            SELECT doc_id,
                   CAST(n_words AS BIGINT) AS n_words,
                   stop_ratio, frac_unique, mean_word_len,
                   FLOOR((0.5 * LEAST(GREATEST(frac_unique, 0), 1)
                          + 0.3 * (1 - stop_ratio)
                          + 0.2 * (LEAST(n_words, 200) / 200.0))
                         * 1000000.0 + 0.5) / 1000000.0 AS quality
            FROM q ORDER BY doc_id
        """,
        "doc_exact_dedup": """
            SELECT doc_id, lang, source FROM (
                SELECT doc_id, lang, source,
                       row_number() OVER (PARTITION BY text ORDER BY doc_id) AS rn
                FROM documents)
            WHERE rn = 1 ORDER BY doc_id
        """,
        "doc_ngram_jaccard_topk": """
            WITH d AS (
                SELECT doc_id,
                       list_distinct(CASE WHEN len(w) < 3
                           THEN [array_to_string(w, ' ')]
                           ELSE [array_to_string(w[i:i+2], ' ')
                                 FOR i IN range(1, len(w) - 1)] END) AS grams
                FROM (SELECT doc_id,
                             string_split(regexp_replace(lower(text), '\\s+', ' ', 'g'), ' ') AS w
                      FROM documents)
            ), q AS (
                SELECT doc_id AS query_id, grams AS qg FROM d WHERE doc_id < 5
            ), p AS (
                SELECT q.query_id, d.doc_id,
                       FLOOR(CASE WHEN length(qg) + length(grams)
                                       - length(list_intersect(qg, grams)) = 0
                             THEN 0.0
                             ELSE CAST(length(list_intersect(qg, grams)) AS DOUBLE)
                                  / (length(qg) + length(grams)
                                     - length(list_intersect(qg, grams))) END
                             * 1000000.0 + 0.5) / 1000000.0 AS jaccard
                FROM q, d WHERE d.doc_id <> q.query_id
            ), r AS (
                SELECT *, CAST(row_number() OVER (
                    PARTITION BY query_id ORDER BY jaccard DESC, doc_id)
                    AS BIGINT) AS rank
                FROM p
            )
            SELECT query_id, doc_id, jaccard, rank FROM r
            WHERE rank <= 5 ORDER BY query_id, rank
        """,
        # lang-ID: profiles (top-300 trigrams of the 50 smallest doc_ids per
        # lang) and the integer-quantized overlap argmax are replicated
        # exactly — scoring terms quantize to a 1e-9 grid and sum as ints in
        # BOTH engines, so float summation order cannot flip the argmax
        "doc_lang_id": r"""
            WITH norm AS (
              SELECT doc_id, lang,
                     ' ' || regexp_replace(lower(text), '\s+', ' ', 'g') || ' ' AS s,
                     ' ' || regexp_replace(lower(substr(text, 1, 2000)), '\s+', ' ', 'g') || ' ' AS sq
              FROM documents),
            samp AS (SELECT doc_id, lang, s FROM (
                SELECT doc_id, lang, s,
                       row_number() OVER (PARTITION BY lang ORDER BY doc_id) AS rn FROM norm)
              WHERE rn <= 50),
            pg AS (
              SELECT lang, substr(s, CAST(i AS INT), 3) AS g, COUNT(*) AS c
              FROM (SELECT lang, s, unnest(range(1, len(s) - 1)) AS i FROM samp)
              GROUP BY lang, g),
            topg AS (SELECT lang, g, c,
                            row_number() OVER (PARTITION BY lang ORDER BY c DESC, g) AS rn
                     FROM pg),
            prof AS (SELECT lang, g,
                            CAST(c AS DOUBLE) / SUM(c) OVER (PARTITION BY lang) AS p
                     FROM topg WHERE rn <= 300),
            dg AS (
              SELECT doc_id, substr(sq, CAST(i AS INT), 3) AS g, COUNT(*) AS c
              FROM (SELECT doc_id, sq, unnest(range(1, len(sq) - 1)) AS i FROM norm)
              GROUP BY doc_id, g),
            dt AS (SELECT doc_id, greatest(len(sq) - 2, 1) AS total FROM norm),
            scores AS (SELECT dg.doc_id, prof.lang,
                SUM(CAST(floor(least(CAST(dg.c AS DOUBLE) / dt.total, prof.p) * 1e9 + 0.5) AS BIGINT)) AS s
              FROM dg JOIN dt USING (doc_id) JOIN prof ON prof.g = dg.g
              GROUP BY dg.doc_id, prof.lang),
            langs AS (SELECT DISTINCT lang FROM samp),
            allsc AS (SELECT n.doc_id, l.lang, COALESCE(sc.s, 0) AS s
              FROM (SELECT doc_id FROM norm) n CROSS JOIN langs l
              LEFT JOIN scores sc ON sc.doc_id = n.doc_id AND sc.lang = l.lang),
            pred AS (SELECT doc_id, lang AS pred_lang FROM (
                SELECT doc_id, lang,
                       row_number() OVER (PARTITION BY doc_id ORDER BY s DESC, lang) AS rn
                FROM allsc) WHERE rn = 1)
            SELECT d.doc_id, d.lang, p.pred_lang, (p.pred_lang = d.lang) AS match
            FROM documents d JOIN pred p USING (doc_id) ORDER BY doc_id
        """,
        "doc_simhash": _simhash_oracle_sql(),
        "doc_minhash_lsh_pairs": _minhash_lsh_oracle_sql(),
        # --- emb-LSH family: the sha-derived ±1 hyperplanes over
        # floor(v·1024) integer quantization make the codes EXACT integer
        # arithmetic in both engines (etl_ray/ops/similarity.py
        # lsh_plane_signs/lsh_codes) — the CTE below reproduces them
        # bit-for-bit in DuckDB
        "emb_lsh_buckets": f"""
            {_LSH_CODES_CTE}
            SELECT bucket, CAST(COUNT(*) AS BIGINT) AS n_vecs
            FROM codes GROUP BY bucket ORDER BY bucket
        """,
        "emb_lsh_ann": f"""
            {_LSH_CODES_CTE},
            q AS (SELECT c.vec_id AS query_id, c.bucket AS qcode, e.embedding AS qe
                  FROM codes c JOIN embeddings e USING (vec_id)
                  WHERE c.vec_id < 5),
            -- multi-probe: candidate iff Hamming(code, qcode) <= 1
            s AS (SELECT q.query_id, c.vec_id AS neighbor_id,
                         ROUND(list_cosine_similarity(
                             q.qe::DOUBLE[], e.embedding::DOUBLE[]), 6) AS cos
                  FROM q JOIN codes c
                    ON xor(q.qcode, c.bucket) IN (0,1,2,4,8,16,32,64,128)
                   AND c.vec_id <> q.query_id
                  JOIN embeddings e ON e.vec_id = c.vec_id),
            r AS (SELECT *, CAST(row_number() OVER (
                      PARTITION BY query_id ORDER BY cos DESC, neighbor_id)
                      AS BIGINT) AS rank
                  FROM s)
            SELECT query_id, neighbor_id, rank, cos FROM r
            WHERE rank <= 5 ORDER BY query_id, rank
        """,
        "emb_cosine_dup_pairs": f"""
            {_LSH_CODES_CTE},
            sized AS (SELECT vec_id, bucket,
                             COUNT(*) OVER (PARTITION BY bucket) AS n
                      FROM codes),
            -- deterministic salt-cap cells for oversized buckets (Knuth
            -- multiplicative hash), mirroring bucket_pairs in similarity.py
            cells AS (SELECT vec_id, bucket,
                             CASE WHEN n <= 256 THEN CAST(0 AS BIGINT)
                                  ELSE (vec_id * 2654435761) % 4294967296
                                       % CAST(ceil(n / 256.0) AS BIGINT)
                             END AS cell
                      FROM sized),
            p AS (SELECT a.vec_id AS vec_a, b.vec_id AS vec_b,
                         ROUND(list_cosine_similarity(
                             ea.embedding::DOUBLE[], eb.embedding::DOUBLE[]),
                             6) AS cos
                  FROM cells a
                  JOIN cells b ON a.bucket = b.bucket AND a.cell = b.cell
                              AND a.vec_id < b.vec_id
                  JOIN embeddings ea ON ea.vec_id = a.vec_id
                  JOIN embeddings eb ON eb.vec_id = b.vec_id)
            SELECT vec_a, vec_b, cos FROM p WHERE cos >= 0.9
            ORDER BY vec_a, vec_b
        """,
        "emb_knn_bruteforce": """
            WITH q AS (SELECT vec_id AS query_id, embedding AS qe
                       FROM embeddings WHERE vec_id < 5),
            s AS (SELECT q.query_id, e.vec_id AS neighbor_id,
                         ROUND(list_cosine_similarity(
                             q.qe::DOUBLE[], e.embedding::DOUBLE[]), 6) AS cos
                  FROM q, embeddings e WHERE e.vec_id <> q.query_id),
            r AS (SELECT *, CAST(row_number() OVER (
                      PARTITION BY query_id ORDER BY cos DESC, neighbor_id)
                      AS BIGINT) AS rank
                  FROM s)
            SELECT query_id, neighbor_id, rank, cos FROM r
            WHERE rank <= 5 ORDER BY query_id, rank
        """,
        "events_approx_distinct_users": """
            -- KMV sketch is exact below its k=1024 capacity; the events
            -- table has 150 distinct users per 10k rows, so this holds at
            -- the driver's sf=0.01 (NOT at sf>=0.07 where distinct>k)
            SELECT 'user_id' AS key,
                   CAST(COUNT(DISTINCT user_id) AS DOUBLE) AS approx_distinct
            FROM events
        """,
        "media_features": """
            -- the deterministic fake decoder's features are sha256-derived:
            -- width/height/checksum from digest bytes [0:2],[2:4],[4:12]
            WITH m AS (
                SELECT doc_id AS media_id, source AS media_type,
                       length(text) AS n_bytes, sha256(text) AS h
                FROM documents
            ), g AS (
                SELECT media_id, media_type, n_bytes,
                    list_sum([(strpos('0123456789abcdef', h[i]) - 1)
                              * (16 ** (4 - i)) FOR i IN range(1, 5)]) AS w4,
                    list_sum([(strpos('0123456789abcdef', h[i + 4]) - 1)
                              * (16 ** (4 - i)) FOR i IN range(1, 5)]) AS h4,
                    list_sum([(strpos('0123456789abcdef', h[i + 8]) - 1)
                              * (16 ** (4 - i)) FOR i IN range(1, 5)]) AS c1,
                    list_sum([(strpos('0123456789abcdef', h[i + 12]) - 1)
                              * (16 ** (4 - i)) FOR i IN range(1, 5)]) AS c2,
                    list_sum([(strpos('0123456789abcdef', h[i + 16]) - 1)
                              * (16 ** (4 - i)) FOR i IN range(1, 5)]) AS c3,
                    list_sum([(strpos('0123456789abcdef', h[i + 20]) - 1)
                              * (16 ** (4 - i)) FOR i IN range(1, 5)]) AS c4
                FROM m
            )
            SELECT media_id, media_type, CAST(n_bytes AS BIGINT) AS n_bytes,
                   CAST(CAST(w4 AS BIGINT) % 1920 + 1 AS BIGINT) AS width,
                   CAST(CAST(h4 AS BIGINT) % 1080 + 1 AS BIGINT) AS height,
                   CAST((((CAST(c1 AS HUGEINT) * 65536 + CAST(c2 AS HUGEINT))
                           * 65536 + CAST(c3 AS HUGEINT)) * 65536
                           + CAST(c4 AS HUGEINT))
                        % CAST(4611686018427387904 AS HUGEINT) AS BIGINT) AS checksum
            FROM g ORDER BY media_id
        """,
        "emb_label_centroid_norm": """
            SELECT label, COUNT(*) AS n,
                   ROUND(SUM(sqrt(list_inner_product(
                       embedding::DOUBLE[], embedding::DOUBLE[]))) / COUNT(*), 6) AS avg_norm
            FROM embeddings GROUP BY 1 ORDER BY 1
        """,
        "events_sample": f"""
            -- deterministic Bernoulli sample: sha256(event_id) 8-byte
            -- big-endian prefix < 0.1 * 2^64 (hex digest parsed to HUGEINT)
            WITH h AS (
                SELECT event_id, user_id, event_type,
                       sha256(CAST(event_id AS VARCHAR)) AS d
                FROM events
            ), v AS (
                SELECT *,
                    ((CAST(list_sum([(strpos('0123456789abcdef', d[i]) - 1)
                          * (16 ** (4 - i)) FOR i IN range(1, 5)]) AS HUGEINT) * 65536
                       + CAST(list_sum([(strpos('0123456789abcdef', d[i + 4]) - 1)
                          * (16 ** (4 - i)) FOR i IN range(1, 5)]) AS HUGEINT)) * 65536
                       + CAST(list_sum([(strpos('0123456789abcdef', d[i + 8]) - 1)
                          * (16 ** (4 - i)) FOR i IN range(1, 5)]) AS HUGEINT)) * 65536
                       + CAST(list_sum([(strpos('0123456789abcdef', d[i + 12]) - 1)
                          * (16 ** (4 - i)) FOR i IN range(1, 5)]) AS HUGEINT) AS hv
                FROM h
            )
            SELECT event_id, user_id, event_type FROM v
            WHERE hv < CAST({int(0.1 * 2**64)} AS HUGEINT)
            ORDER BY event_id
        """,
    }
