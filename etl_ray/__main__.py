"""CLI entrypoint — the ``ray job submit`` surface.

Examples::

    # generate a log, replay it, export + verify
    python -m etl_ray gen  --wal /tmp/wal --events 1000000
    python -m etl_ray replay --wal /tmp/wal --lake /tmp/lake --buckets 64
    python -m etl_ray verify --wal /tmp/wal --lake /tmp/lake

    ray job submit -- python -m etl_ray replay --wal <shared>/wal --lake <shared>/lake

Owns its Ray session (guarded init; the pytest/driver paths never reach
here)."""

from __future__ import annotations

import argparse
import json
import os
import sys


def _fresh_out_dir(p, out: str, atomic_hint: bool = False) -> None:
    """Refuse writes into a non-empty existing directory: Ray writers name
    files with per-execution prefixes and never clean the target, so a
    re-run would silently MIX two runs' files (and inflate row counts)."""
    if os.path.isdir(out) and os.listdir(out):
        hint = " (or use --atomic, which swaps atomically)" if atomic_hint else ""
        p.error(
            f"--out {out!r} exists and is not empty; write to a fresh directory{hint}"
        )


def _count_written_rows(out_dir: str) -> int:
    """Rows in the files THIS run just wrote (the out dir is guaranteed
    fresh by _fresh_out_dir). parquet: footer metadata. jsonl: physical
    lines (string newlines are \\n-escaped by the JSON writer). csv: a
    streaming pyarrow.csv pass — content columns contain quoted embedded
    newlines, so raw byte counting would over-count."""
    rows = 0
    for fn in os.listdir(out_dir):
        fp = os.path.join(out_dir, fn)
        if fn.endswith(".parquet"):
            import pyarrow.parquet as _pq

            rows += _pq.ParquetFile(fp).metadata.num_rows
        elif fn.endswith(".jsonl"):
            with open(fp, "rb") as f:
                rows += sum(
                    ch.count(b"\n") for ch in iter(lambda: f.read(1 << 20), b"")
                )
        elif fn.endswith(".csv"):
            if os.path.getsize(fp) == 0:
                continue  # a 0-byte part (empty block) is 0 rows, not an error
            from pyarrow import csv as _pacsv

            with _pacsv.open_csv(fp) as reader:
                for batch in reader:
                    rows += batch.num_rows
    return rows


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(prog="etl_ray")
    sub = p.add_subparsers(dest="cmd", required=True)

    g = sub.add_parser("gen", help="generate a deterministic CDC WAL")
    g.add_argument("--wal", required=True)
    g.add_argument("--events", type=int, default=1_000_000)
    g.add_argument("--seed", type=int, default=42)
    g.add_argument("--repos", type=int, default=500)
    g.add_argument(
        "--malform-rate",
        type=float,
        default=0.0,
        help="fraction of events emitted malformed (unknown op / null key) "
        "to exercise the quarantine path",
    )

    r = sub.add_parser("replay", help="replay pending WAL segments into the lake")
    r.add_argument("--wal", required=True)
    r.add_argument("--lake", required=True)
    r.add_argument("--buckets", type=int, default=64)
    r.add_argument("--segments-per-tick", type=int, default=None)
    r.add_argument(
        "--no-aggregates",
        action="store_true",
        help="skip the daily aggregate recompute; the agg log is still kept, "
        "so a later tick or recompute-aggs --day computes any day from it",
    )
    r.add_argument("--num-cpus", type=int, default=None)
    r.add_argument(
        "--folds",
        action="store_true",
        help="maintain the default per-key state-fold metrics "
        "(change_count + 7-day activity fold)",
    )
    r.add_argument(
        "--pseudonym-field",
        action="append",
        default=None,
        help="maintain the GDPR pseudonym map for this column; repeatable",
    )
    r.add_argument(
        "--retain-ticks",
        type=int,
        default=0,
        help="keep per-bucket state history for this many ticks so "
        "'export --as-of-tick' can time-travel (default 0: current only)",
    )
    r.add_argument(
        "--tz-offset-minutes",
        type=int,
        default=0,
        help="aggregate day boundaries at this local-midnight offset "
        "instead of UTC (per-table timezone)",
    )
    r.add_argument(
        "--changelog",
        action="store_true",
        help="emit the change data feed (per-tick insert/update/delete "
        "after-images under lake/_changelog/) for downstream consumers",
    )
    r.add_argument(
        "--changelog-retain",
        type=int,
        default=None,
        help="drop feed directories older than this many ticks (default: keep all)",
    )
    r.add_argument(
        "--delta-threshold",
        type=int,
        default=None,
        help="bucket state layout: a touched bucket appends one "
        "O(touched-keys) delta file per tick and folds into a fresh base "
        "once it holds this many (merge-on-read, same LWW semantics, far "
        "less write amplification); 0 (default) rewrites the full bucket "
        "each touched tick",
    )
    r.add_argument(
        "--state-mode",
        choices=["rewrite", "delta"],
        default=None,
        help="older spelling of --delta-threshold: 'rewrite' is 0, 'delta' "
        "is --delta-threshold (default 8)",
    )
    r.add_argument(
        "--ext-map",
        default=None,
        help="path to a JSON ext→lang overlay of the built-in enrichment "
        "dim; re-read at every tick start and re-broadcast on content "
        "change (live dim refresh for --follow tails)",
    )
    r.add_argument(
        "--deadline-minutes",
        type=float,
        default=None,
        help="wall-clock budget for this run; checked BETWEEN ticks, so an "
        "abort always leaves the lake at a committed tick (exit code 3, "
        "deadline_exceeded in the ops event trail)",
    )

    v = sub.add_parser("verify", help="check lake state against the DuckDB oracle")
    v.add_argument("--wal", required=True)
    v.add_argument("--lake", required=True)
    v.add_argument(
        "--as-of-tick",
        type=int,
        default=None,
        help="verify a time-travel read: the oracle folds only the WAL "
        "prefix that tick committed (through_seqno); needs --retain-ticks "
        "history and no intervening erasure/maintenance tick",
    )
    v.add_argument(
        "--aggs",
        action="store_true",
        help="also check lang_daily_agg / repo_daily_agg against the "
        "DuckDB aggregate oracle (UTC-day lakes)",
    )

    e = sub.add_parser("erase", help="GDPR-style targeted key erasure")
    e.add_argument("--lake", required=True)
    e.add_argument(
        "--key",
        action="append",
        required=True,
        help="repo:path pair; repeatable",
    )
    e.add_argument(
        "--map-field",
        action="append",
        default=None,
        help="also remove the subjects' pseudonym-map rows; 'repo'/'path' "
        "derive values from --key, any other field needs 'field=value'; "
        "repeatable",
    )

    c = sub.add_parser("compact", help="GC tombstones below the lateness watermark")
    c.add_argument("--lake", required=True)
    c.add_argument(
        "--keep-after-lsn",
        type=int,
        default=None,
        help="explicit GC watermark (tombstones with lsn <= this are dropped)",
    )
    c.add_argument(
        "--lateness",
        type=int,
        default=None,
        help="lateness bound subtracted from the applied watermark "
        "(default 2^20; pass 0 only when the WAL is fully consumed and closed)",
    )
    c.add_argument(
        "--agglog",
        action="store_true",
        help="instead: consolidate the day-indexed agg log to one file per "
        "day (O(days) metadata)",
    )
    c.add_argument(
        "--feed",
        action="store_true",
        help="instead: merge the change data feed's per-(tick, bucket) "
        "part files into per-bucket runs (one row group per tick, sidecar "
        "tick index — ranged reads stay exact)",
    )

    r.add_argument(
        "--follow",
        action="store_true",
        help="live-tail mode: keep ticking as sealed segments appear; exits "
        "after --idle-timeout seconds without new data",
    )
    r.add_argument("--idle-timeout", type=float, default=10.0)

    rb = sub.add_parser("rebucket", help="change the lake's bucket count (crash-safe)")
    rb.add_argument("--lake", required=True)
    rb.add_argument("--buckets", type=int, required=True)

    st = sub.add_parser("status", help="lineage summary of a lake")
    st.add_argument("--lake", required=True)
    st.add_argument(
        "--history",
        action="store_true",
        help="also list one line per committed tick (events, rows, feed, "
        "quarantine) — the ops throughput trail",
    )
    st.add_argument(
        "--events",
        type=int,
        nargs="?",
        const=50,
        default=None,
        metavar="N",
        help="also list the last N ops/alert events (tick failures, "
        "quality failures, deadline breaches; default 50)",
    )

    ex = sub.add_parser(
        "export", help="write the live (or as-of) state as partitioned parquet"
    )
    ex.add_argument("--lake", required=True)
    ex.add_argument("--out", required=True)
    ex.add_argument(
        "--as-of-tick",
        type=int,
        default=None,
        help="time-travel to this committed tick (needs replay --retain-ticks)",
    )
    ex.add_argument("--with-sha", action="store_true")
    ex.add_argument(
        "--format",
        choices=["parquet", "csv", "jsonl"],
        default="parquet",
        help="output format (csv/jsonl stream the same partitioned write)",
    )
    ex.add_argument(
        "--atomic",
        action="store_true",
        help="publish the output directory atomically (write to a staging "
        "dir, swap in only when complete — readers never see a partial "
        "or mid-overwrite export)",
    )

    au = sub.add_parser(
        "audit", help="run the AUDIT data-quality corpus against a lake's state"
    )
    au.add_argument("--lake", required=True)

    bs = sub.add_parser(
        "bootstrap",
        help="initialize an EMPTY lake from an existing parquet table "
        "snapshot, then tail the WAL with replay (snapshot-then-stream)",
    )
    bs.add_argument("--table", required=True, help="parquet file/dir to import")
    bs.add_argument("--lake", required=True)
    bs.add_argument("--buckets", type=int, default=64)
    bs.add_argument(
        "--through-seqno",
        type=int,
        default=-1,
        help="WAL segment seqno the snapshot corresponds to; replay resumes after it",
    )
    bs.add_argument(
        "--default-lsn",
        type=int,
        default=0,
        help="LSN stamped on snapshot rows when the table has no lsn column "
        "(choose the snapshot's high watermark)",
    )
    bs.add_argument(
        "--hive-partitioning",
        action="store_true",
        help="materialize key=value directory components as real columns "
        "(Spark/Hive-partitioned snapshots whose partition column lives "
        "only in the path)",
    )

    ra = sub.add_parser(
        "recompute-aggs",
        help="re-aggregate specific local day partitions from the lake's agg "
        "log at the last tick's tz offset (repair / late-data heal, the "
        "reference's D-2/D-1/D0 cascade on demand)",
    )
    ra.add_argument("--lake", required=True)
    ra.add_argument(
        "--day", action="append", required=True, help="YYYY-MM-DD; repeatable"
    )

    sk = sub.add_parser(
        "skew", help="partition-skew report: bucket histogram + hot-repo top-k"
    )
    sk.add_argument("--lake", required=True)
    sk.add_argument("--top", type=int, default=20)

    qr = sub.add_parser(
        "quarantine",
        help="export quarantined (malformed) rows with their reasons — the "
        "dead-letter inspection surface",
    )
    qr.add_argument("--lake", required=True)
    qr.add_argument("--out", required=True)
    qr.add_argument("--tick", type=int, default=None, help="one tick only")
    qr.add_argument(
        "--table",
        default=None,
        help="multi-table lakes: export one logical table's quarantine "
        "(lake/tables/<name>)",
    )

    tb = sub.add_parser(
        "tables-replay",
        help="multi-table lake: replay every table of a TableSpec config "
        "through one loop (per-app/per-event fan-out)",
    )
    tb.add_argument("--lake", required=True)
    tb.add_argument("--config", required=True, help="JSON: {\"tables\": [...]}")
    tb.add_argument("--segments-per-tick", type=int, default=None)
    tb.add_argument(
        "--follow",
        action="store_true",
        help="live-tail: poll every table's WAL manifest for new sealed "
        "segments until all idle for --idle-timeout",
    )
    tb.add_argument("--poll-interval", type=float, default=1.0)
    tb.add_argument("--idle-timeout", type=float, default=10.0)
    tb.add_argument(
        "--deadline-minutes",
        type=float,
        default=None,
        help="wall-clock budget; aborts BETWEEN rounds (exit 3, alert event)",
    )

    ts = sub.add_parser("tables-status", help="per-table lineage of a multi-table lake")
    ts.add_argument("--lake", required=True)
    ts.add_argument("--config", required=True)
    ts.add_argument(
        "--events",
        type=int,
        nargs="?",
        const=50,
        default=None,
        metavar="N",
        help="also list each table's last N ops/alert events plus the "
        "lake-level trail (deadline breaches land there)",
    )

    te = sub.add_parser(
        "tables-erase",
        help="GDPR erasure across a multi-table lake: every base table "
        "(or --table subset), then refresh the touched sources' views",
    )
    te.add_argument("--lake", required=True)
    te.add_argument("--config", required=True)
    te.add_argument(
        "--key", action="append", required=True, help="repo:path (repeatable)"
    )
    te.add_argument("--table", action="append", default=None)
    te.add_argument(
        "--map-field", action="append", default=None,
        help="also scrub this field through the pseudonym map",
    )

    tx = sub.add_parser(
        "tables-export",
        help="export one table of a multi-table lake (base state or "
        "derived view) as parquet",
    )
    tx.add_argument("--lake", required=True)
    tx.add_argument("--config", required=True)
    tx.add_argument("--table", required=True)
    tx.add_argument("--out", required=True)
    tx.add_argument("--with-sha", action="store_true")

    cl = sub.add_parser(
        "changelog", help="export the change data feed (committed ticks only)"
    )
    cl.add_argument("--lake", required=True)
    cl.add_argument("--out", required=True)
    cl.add_argument("--from-tick", type=int, default=None)
    cl.add_argument("--to-tick", type=int, default=None)
    cl.add_argument(
        "--fold",
        action="store_true",
        help="materialize the feed as a live-state table (distributed "
        "last-writer-wins fold) instead of exporting the raw change stream",
    )

    args = p.parse_args(argv)

    if args.cmd == "gen":
        from etl_ray.wal import generate_wal

        info = generate_wal(
            args.wal,
            seed=args.seed,
            n_events=args.events,
            n_repos=args.repos,
            malform_rate=args.malform_rate,
        )
        print(json.dumps({"segments": len(info.segments), "events": info.n_events}))
        return 0

    import ray

    # Embedding safety: only shut down a Ray runtime this call started.
    # Host processes (pytest session fixtures, library callers) that invoke
    # main() in-process own their Ray session — tearing it down here kills
    # every subsequent Ray user in that process.
    _ray_started_here = not ray.is_initialized()
    if _ray_started_here:
        kwargs = {"include_dashboard": False, "ignore_reinit_error": True, "logging_level": "ERROR"}
        if args.cmd == "replay" and args.num_cpus:
            kwargs["num_cpus"] = args.num_cpus
        ray.init(address="local", **kwargs)
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    try:
        if args.cmd == "replay":
            from etl_ray.engine import ReplayEngine

            folds = None
            if args.folds:
                from etl_ray.engine.folds import DEFAULT_FOLDS

                folds = DEFAULT_FOLDS
            from etl_ray.engine.apply import resolve_delta_threshold

            try:
                threshold = resolve_delta_threshold(
                    args.state_mode, args.delta_threshold
                )
            except ValueError as e:
                p.error(str(e))
            eng = ReplayEngine(
                args.wal,
                args.lake,
                num_buckets=args.buckets,
                aggregate=not args.no_aggregates,
                folds=folds,
                pseudonym_fields=args.pseudonym_field,
                retain_ticks=args.retain_ticks,
                tz_offset_minutes=args.tz_offset_minutes,
                emit_changelog=args.changelog,
                changelog_retain=args.changelog_retain,
                deadline_minutes=args.deadline_minutes,
                ext_map_path=args.ext_map,
                delta_threshold=threshold,
            )
            from etl_ray.engine.replay import DeadlineExceededError

            deadline_hit = None
            try:
                if args.follow:
                    results = eng.follow(
                        idle_timeout_s=args.idle_timeout,
                        segments_per_tick=args.segments_per_tick,
                    )
                else:
                    results = eng.replay_all(
                        segments_per_tick=args.segments_per_tick
                    )
            except DeadlineExceededError as e:
                deadline_hit = str(e)
                results = []  # committed ticks are durable; trail has them
            print(
                json.dumps(
                    [
                        {
                            "tick": t.tick,
                            "events": t.events,
                            "live_rows": t.live_rows,
                            "seconds": round(t.seconds, 2),
                        }
                        for t in results
                    ]
                )
            )
            if deadline_hit:
                print(json.dumps({"deadline_exceeded": deadline_hit}))
                return 3
        elif args.cmd == "erase":
            from etl_ray.engine.maintenance import erase_keys

            keys = []
            for kv in args.key:
                repo, _, path = kv.partition(":")
                if not path:
                    p.error(f"--key must be repo:path, got {kv!r}")
                keys.append((repo, path))
            print(json.dumps(erase_keys(args.lake, keys, erase_map_fields=args.map_field)))
        elif args.cmd == "compact":
            if args.feed:
                from etl_ray.engine.changelog import compact_changelog

                res = compact_changelog(args.lake)
                res.pop("run", None)
                print(json.dumps(res))
            elif args.agglog:
                from etl_ray.engine.maintenance import compact_agglog

                print(json.dumps(compact_agglog(args.lake)))
            else:
                from etl_ray.engine.maintenance import compact_tombstones

                kw = {"keep_after_lsn": args.keep_after_lsn}
                if args.lateness is not None:
                    kw["lateness_bound"] = args.lateness
                print(json.dumps(compact_tombstones(args.lake, **kw)))
        elif args.cmd == "tables-replay":
            from etl_ray.engine.replay import DeadlineExceededError
            from etl_ray.engine.tables import MultiTableLake, load_config

            lake = MultiTableLake(args.lake, load_config(args.config))
            deadline_hit = None
            try:
                if args.follow:
                    rounds = lake.follow(
                        poll_interval_s=args.poll_interval,
                        idle_timeout_s=args.idle_timeout,
                        segments_per_tick=args.segments_per_tick,
                        deadline_minutes=args.deadline_minutes,
                    )
                else:
                    rounds = lake.replay_all(
                        segments_per_tick=args.segments_per_tick,
                        deadline_minutes=args.deadline_minutes,
                    )
            except DeadlineExceededError as e:
                deadline_hit = str(e)
                rounds = []  # committed per-table ticks are durable
            out = []
            for r in rounds:
                out.append(
                    {
                        name: (
                            res.__dict__
                            if hasattr(res, "__dict__") and not isinstance(res, dict)
                            else res
                        )
                        for name, res in r.items()
                    }
                )
            print(json.dumps(out))
            if deadline_hit:
                print(json.dumps({"deadline_exceeded": deadline_hit}))
                return 3
        elif args.cmd == "tables-status":
            from etl_ray.engine.tables import MultiTableLake, load_config

            lake = MultiTableLake(args.lake, load_config(args.config))
            out = lake.status()
            if args.events is not None:
                from etl_ray.engine.alerts import read_events

                for s in lake.specs:
                    out[s.name]["events"] = read_events(
                        lake.table_dir(s.name), last=args.events
                    )
                # lake-level trail: multi-table deadline breaches emit here
                out["_lake"] = {
                    "events": read_events(args.lake, last=args.events)
                }
            print(json.dumps(out))
        elif args.cmd == "tables-erase":
            from etl_ray.engine.tables import MultiTableLake, load_config

            keys = []
            for kv in args.key:
                repo, _, path = kv.partition(":")
                if not path:
                    p.error(f"--key must be repo:path, got {kv!r}")
                keys.append((repo, path))
            lake = MultiTableLake(args.lake, load_config(args.config))
            print(
                json.dumps(
                    lake.erase(
                        keys, tables=args.table, erase_map_fields=args.map_field
                    )
                )
            )
        elif args.cmd == "tables-export":
            from etl_ray.engine.tables import MultiTableLake, load_config

            lake = MultiTableLake(args.lake, load_config(args.config))
            s = lake.spec(args.table)
            if s.is_view:
                ds = lake.read_view(args.table)
                if args.with_sha:
                    p.error("--with-sha applies to base tables only")
            else:
                from etl_ray.engine.export import final_state

                ds = final_state(lake.table_dir(args.table), with_sha=args.with_sha)
            if os.path.exists(args.out) and os.listdir(args.out):
                p.error(f"--out {args.out} exists and is not empty")
            ds.write_parquet(args.out)
            import pyarrow.parquet as pq_

            rows = sum(
                pq_.ParquetFile(os.path.join(args.out, f)).metadata.num_rows
                for f in os.listdir(args.out)
                if f.endswith(".parquet")
            )
            print(json.dumps({"table": args.table, "rows": rows, "out": args.out}))
        elif args.cmd == "status":
            from etl_ray.engine.alerts import read_events
            from etl_ray.engine.lineage import LakeLineage

            lin = LakeLineage(args.lake)
            last = lin.last_tick()
            mans = lin.all_bucket_manifests()
            print(
                json.dumps(
                    {
                        "last_tick": last,
                        "buckets": len(mans),
                        "state_rows": sum(m["rows"] for m in mans),
                        "live_rows": sum(m["live_rows"] for m in mans),
                        "min_applied_lsn": min(
                            (m["applied_lsn"] for m in mans), default=None
                        ),
                        "max_applied_lsn": max(
                            (m["applied_lsn"] for m in mans), default=None
                        ),
                        "ticks": len(lin.all_ticks()),
                        **(
                            {
                                "history": [
                                    {
                                        "tick": t["tick"],
                                        "kind": t.get("kind", "replay"),
                                        "segments": len(t["segments"]),
                                        "events": t["events"],
                                        "live_rows": t["live_rows"],
                                        "changelog_rows": t.get("changelog_rows"),
                                        "quarantined_rows": t.get("quarantined_rows"),
                                    }
                                    for t in lin.all_ticks()
                                ]
                            }
                            if args.history
                            else {}
                        ),
                        **(
                            {"events": read_events(args.lake, last=args.events)}
                            if args.events is not None
                            else {}
                        ),
                    }
                )
            )
        elif args.cmd == "audit":
            from etl_ray.engine.lineage import LakeLineage
            from etl_ray.engine.quality import AUDIT_CHECKS, TickContext, run_checks

            lin = LakeLineage(args.lake)
            last = lin.last_tick()
            mans = lin.all_bucket_manifests()
            # offline audit: the committed state is both 'new' and 'prev'
            # (manifest-delta checks no-op; the uniqueness scan does the work)
            ctx = TickContext(
                lineage=lin,
                tick=(last or {}).get("tick", -1),
                events=0,
                segments=[],
                new_manifests=mans,
                prev_manifests={m["bucket"]: m for m in mans},
                prev_tick=last,
            )
            rep = run_checks(
                [c for c in AUDIT_CHECKS if c.name != "deltas_conserved"], ctx
            )
            print(json.dumps(rep.summary()))
            return 1 if rep.failed_mandatory else 0
        elif args.cmd == "export":
            from etl_ray.engine.export import final_state

            ds = final_state(
                args.lake, with_sha=args.with_sha, as_of_tick=args.as_of_tick
            )
            # streaming partitioned write — one file per block, resumable by
            # re-running into a fresh dir
            def _write(d):
                if args.format == "csv":
                    # meta struct columns are not CSV-representable
                    drop = [
                        f.name
                        for f in ds.schema().base_schema
                        if pa.types.is_nested(f.type)
                    ]
                    (ds.drop_columns(drop) if drop else ds).write_csv(d)
                elif args.format == "jsonl":
                    ds.write_json(d)
                    # Ray names blocks *.json; honor the advertised format
                    for jf in os.listdir(d):
                        if jf.endswith(".json"):
                            os.rename(
                                os.path.join(d, jf),
                                os.path.join(d, jf[: -len(".json")] + ".jsonl"),
                            )
                else:
                    ds.write_parquet(d)

            import pyarrow as pa

            if args.atomic:
                import shutil as _sh

                staging = args.out.rstrip("/") + ".staging"
                _sh.rmtree(staging, ignore_errors=True)
                _write(staging)
                old = args.out.rstrip("/") + ".old"
                _sh.rmtree(old, ignore_errors=True)
                if os.path.isdir(args.out):
                    os.rename(args.out, old)  # swap window: rename+rename
                os.rename(staging, args.out)
                _sh.rmtree(old, ignore_errors=True)
            else:
                _fresh_out_dir(p, args.out, atomic_hint=True)
                _write(args.out)
            # count from the WRITTEN files — ds.count() would re-execute the
            # whole export pipeline (incl. the per-row sha stage) a 2nd time
            print(json.dumps({"rows": _count_written_rows(args.out), "out": args.out}))
        elif args.cmd == "bootstrap":
            from etl_ray.engine.bootstrap import bootstrap_lake

            print(
                json.dumps(
                    bootstrap_lake(
                        args.lake,
                        args.table,
                        num_buckets=args.buckets,
                        through_seqno=args.through_seqno,
                        default_lsn=args.default_lsn,
                        hive_partitioning=args.hive_partitioning,
                    )
                )
            )
        elif args.cmd == "recompute-aggs":
            from etl_ray.engine import aggregates
            from etl_ray.engine.lineage import LakeLineage
            from etl_ray.engine.lock import writer_lock

            lin = LakeLineage(args.lake)
            last = lin.last_tick()
            if last is None:
                p.error("lake has no committed tick")
            with writer_lock(args.lake, "recompute-aggs"):
                res = aggregates.recompute_days_from_agglog(
                    lin, set(args.day), tz_offset_minutes=last["tz_offset_minutes"]
                )
            print(json.dumps(res))
        elif args.cmd == "skew":
            from etl_ray.engine.diagnostics import skew_report

            print(json.dumps(skew_report(args.lake, top_k=args.top)))
        elif args.cmd == "quarantine":
            import glob as _g
            import re as _re

            import pyarrow.parquet as _pq

            qlake = args.lake
            if args.table:
                from etl_ray.engine.tables import TABLE_NAME_RE

                if not _re.fullmatch(TABLE_NAME_RE, args.table):
                    p.error(f"bad table name {args.table!r}")
                qlake = os.path.join(args.lake, "tables", args.table)
            pat = (
                f"tick-{args.tick:06d}" if args.tick is not None else "tick-*"
            )
            files = sorted(
                _g.glob(os.path.join(qlake, "_quarantine", pat, "*.parquet"))
            )
            n = 0
            if files:
                import ray.data as _rd

                from etl_ray.engine.schema_evo import align_to, unify_schemas

                _fresh_out_dir(p, args.out)
                # quarantine parts are aligned to each TICK's own target
                # schema; under mid-stream evolution the cross-tick set is
                # heterogeneous — unify first, align every batch, so the
                # combined read can't fail or mis-align columns
                uni = unify_schemas([_pq.read_schema(f) for f in files])
                ds = _rd.read_parquet(files, partitioning=None).map_batches(
                    lambda t, _s=uni: align_to(t, _s),
                    batch_format="pyarrow",
                    zero_copy_batch=True,
                )
                ds.write_parquet(args.out)
                n = _count_written_rows(args.out)
            print(json.dumps({"rows": n, "out": args.out}))
        elif args.cmd == "changelog":
            from etl_ray.engine.changelog import (
                committed_changelog_parts,
                fold_feed,
                read_changelog,
            )

            parts = committed_changelog_parts(
                args.lake, args.from_tick, args.to_tick
            )
            n = 0
            if parts:
                _fresh_out_dir(p, args.out)
                ds = (
                    fold_feed(args.lake, args.from_tick, args.to_tick)
                    if args.fold
                    else read_changelog(args.lake, args.from_tick, args.to_tick)
                )
                ds.write_parquet(args.out)
                n = _count_written_rows(args.out)
            print(json.dumps({"rows": n, "out": args.out, "fold": args.fold}))
        elif args.cmd == "rebucket":
            from etl_ray.engine.maintenance import rebucket

            print(json.dumps(rebucket(args.lake, args.buckets)))
        elif args.cmd == "verify":
            import pandas as pd

            from etl_ray.engine.export import final_state
            from etl_ray.oracle import expected_final_state
            from etl_ray.wal import WalInfo

            got = (
                final_state(args.lake, with_sha=True, as_of_tick=args.as_of_tick)
                .to_pandas()
                .sort_values(["repo", "path"])
                .reset_index(drop=True)
            )
            through = None
            if args.as_of_tick is not None:
                from etl_ray.engine.lineage import LakeLineage

                ticks = {t["tick"]: t for t in LakeLineage(args.lake).all_ticks()}
                if args.as_of_tick not in ticks:
                    p.error(
                        f"--as-of-tick {args.as_of_tick}: no committed tick "
                        f"manifest (have {sorted(ticks)})"
                    )
                through = ticks[args.as_of_tick]["through_seqno"]
            exp = expected_final_state(
                WalInfo.load(args.wal), through_seqno=through
            ).to_pandas()
            ok = len(got) == len(exp) and bool(
                (got["content_sha256"].to_numpy() == exp["content_sha256"].to_numpy()).all()
            )
            out = {"rows": len(got), "oracle_rows": len(exp), "sha256_match": ok}
            if args.aggs:
                from etl_ray.engine.aggregates import read_agg
                from etl_ray.engine.lineage import LakeLineage
                from etl_ray.oracle import expected_lang_daily, expected_repo_daily

                lin = LakeLineage(args.lake)
                tzoff = lin.last_tick()["tz_offset_minutes"]
                gl_t = read_agg(lin, "lang_daily_agg")
                gr_t = read_agg(lin, "repo_daily_agg")
                el = expected_lang_daily(
                    WalInfo.load(args.wal), tz_offset_minutes=tzoff
                ).to_pandas()
                er = expected_repo_daily(
                    WalInfo.load(args.wal), tz_offset_minutes=tzoff
                ).to_pandas()
                if gl_t.num_rows == 0 or gr_t.num_rows == 0:
                    # empty==empty is a genuine match (e.g. a WAL with no
                    # agg-relevant events); only a NON-empty oracle makes
                    # empty tables a failure (e.g. a bootstrap-seeded lake)
                    aggs_ok = len(el) == 0 and len(er) == 0
                    out["aggs_match"] = bool(aggs_ok)
                    if not aggs_ok:
                        out["aggs_note"] = "aggregate tables empty or missing"
                    ok = ok and aggs_ok
                    print(json.dumps(out))
                    return 0 if ok else 1
                gl = (
                    gl_t
                    .to_pandas()
                    .sort_values(["day", "lang"])
                    .reset_index(drop=True)
                )
                cols_l = ["day", "lang", "files_changed", "bytes", "distinct_repos"]
                gr = (
                    gr_t
                    .to_pandas()
                    .sort_values(["day", "repo"])
                    .reset_index(drop=True)
                )
                cols_r = list(er.columns)
                aggs_ok = (
                    len(gl) == len(el)
                    and gl[cols_l].astype(object).equals(el[cols_l].astype(object))
                    and len(gr) == len(er)
                    and gr[cols_r].astype(object).equals(er[cols_r].astype(object))
                )
                out["aggs_match"] = bool(aggs_ok)
                ok = ok and aggs_ok
            print(json.dumps(out))
            return 0 if ok else 1
    finally:
        if _ray_started_here:
            ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
