"""The replay loop: WAL segments → deduped deltas → merge appliers → commit.

One *tick* = the reference's one Airflow DAG run (``DAG_user_history.py``'s
daily chain, SURVEY.md §3.1), compressed into two stages with exactly ONE
shuffle between them — stage 1 a Ray Data pipeline over the segments,
stage 2 plain Ray tasks over the spilled buckets:

  discover pending segments (lineage watermark)                    [sensor/ST4]
  → descriptor-driven segment reads, align (schema evolution)      [S1/§1.3]
  → fused task stage: lang enrich → per-batch last-writer          [M5/D1 partial,
      pre-reduction (the combiner: a hot key sends ≤1 row per       skew/salt]
      batch to the shuffle) → op→tombstone shaping → bucket id
  → the ONE shuffle: shared-FS spill (indexed shuffle files, one
      parquet row group per bucket)                                 [S2 shape]
  → appliers: ``run_tasks`` plain tasks over the touched buckets,
      state read from the committed manifests — only keys, lsn,
      deleted and the views' columns on a delta write: stateful LWW
      upsert/delete/evolve, ``apply.apply_bucket``; asked for view
      columns, each hands back its bucket's merged projection       [A5/J4/J5]
  → driver: publish bucket manifests, re-aggregate touched days,
    publish tick manifest (the commit point), GC                   [S2/S3/ST4]

Crash anywhere before the tick manifest → previous tick stays authoritative
and the re-run is a no-op-idempotent re-apply (exactly-once by idempotence).
Ticks are strictly serial, like ``depends_on_past=True`` day runs.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

import pyarrow as pa

from ..wal import WalInfo
from . import aggregates, ticklog
from .apply import chain_key, deltas_to_state_shape
from .dedup import last_writer
from .enrich import LangEnricher
from .lineage import LakeLineage
from .partitioning import cluster_cpus, fan_out, run_tasks
from .source import pending_segments, read_segments_indexed, target_schema_for


def _merge_chunk(chunk: list[dict], view_columns, *applier_args) -> list[tuple]:
    """One applier task (replay's stage 2, bootstrap): a ``MergeApplier``
    over a chunk of spill descriptors; returns their (bucket manifest, view
    state) pairs (``MergeApplier.apply_spilled``)."""
    from .apply import MergeApplier

    return MergeApplier(*applier_args).apply_spilled(chunk, view_columns)


class DeadlineExceededError(RuntimeError):
    """The run's wall-clock budget ran out (checked BETWEEN ticks, so the
    lake is always at a committed tick when this raises). Reference analog:
    the DAG-level deadline sensor that fails the run after 8 h
    (``etl/plugins/operators/deadline.py:29-38``, wired at
    ``DAG_user_history.py:98-105``)."""


def check_deadline(
    lake_dir: str,
    started: float,
    deadline_s: float | None,
    ticks_done: int,
    callbacks=(),
    scope: str = "run",
) -> None:
    """Raise between ticks once a ``scope`` ("run": one table's replay,
    "lake": a multi-table loop) has spent its budget, after emitting ONE
    ``deadline_exceeded`` event shape to the lake's ops trail. Every call
    site is at a committed tick, so an abort never loses or tears work —
    the next run resumes from the watermark."""
    if deadline_s is None:
        return
    elapsed = time.monotonic() - started
    if elapsed <= deadline_s:
        return
    from .alerts import emit_event

    emit_event(
        lake_dir,
        "deadline_exceeded",
        {
            "deadline_s": deadline_s,
            "elapsed_s": round(elapsed, 3),
            "ticks_completed": ticks_done,
        },
        (callbacks,) if callable(callbacks) else tuple(callbacks),
    )
    raise DeadlineExceededError(
        f"{scope} budget {deadline_s:.0f}s exceeded after {elapsed:.1f}s "
        f"({ticks_done} ticks committed); every table is at its last "
        "committed tick — rerun to resume"
    )


@dataclass
class TickResult:
    tick: int
    segments: int
    events: int
    buckets_touched: int
    state_rows: int
    live_rows: int
    seconds: float
    # asked for view columns: {bucket: (apply.chain_key, merged state
    # projected to them and ``deleted``)} of every bucket this tick merged
    view_states: dict | None = field(default=None, repr=False, compare=False)


class ReplayEngine:
    """Drives serial ticks over a WAL directory into a lake directory.

    ``num_buckets`` is the fixed partition count of the lake (choose ≈ 2–4×
    total cluster CPUs at scale); ``concurrency`` (an int, or the ``hi`` of
    a ``(lo, hi)`` pair) caps the stage-2 applier task count.
    """

    def __init__(
        self,
        wal_dir: str,
        lake_dir: str,
        *,
        num_buckets: int = 32,
        concurrency: int | tuple[int, int] | None = None,
        aggregate: bool = True,  # False skips only the day recompute
        checks: list | None = None,  # quality.CheckSpec list; None = defaults
        folds: list | None = None,  # folds.FoldSpec list; default: none
        pseudonym_fields: list[str] | None = None,  # gdpr map fields
        tz_offset_minutes: int = 0,  # per-table local-day boundary for aggs
        retain_ticks: int = 0,  # >0: keep state history for as-of reads
        emit_changelog: bool = False,  # CDC-out feed (engine/changelog.py)
        changelog_retain: int | None = None,  # feed retention in ticks
        deadline_minutes: float | None = None,  # per-run wall-clock budget
        on_event=None,  # alert callback(s): see engine/alerts.py
        ext_map_path: str | None = None,  # versioned enrichment dim (JSON)
        dims: list | None = None,  # named broadcast dims (enrich.DimSpec)
        delta_threshold: int | None = None,  # see apply.resolve_delta_threshold
        state_mode: str | None = None,  # its older spelling
    ):
        from .apply import resolve_delta_threshold

        # retain_ticks works at every threshold: a rewrite keeps whole
        # per-tick state images; a delta chain reconstructs an as-of point
        # by folding the newest base <= T plus the deltas in (base, T] (GC
        # keeps dereferenced chain segments inside the window — lineage.gc)
        self.delta_threshold = resolve_delta_threshold(state_mode, delta_threshold)
        # Versioned broadcast dimension (the reference refreshes its
        # currency/GeoIP dims on side-DAGs — DAG_get_currencies_data.py:33-63,
        # DAG_update_geoip_db.py:32-51): a JSON overlay of the built-in
        # ext→lang map, re-read at every tick start. On content change the
        # map is re-broadcast (ray.put once per VERSION, read per task) so
        # a long-running follow() tags subsequent ticks with the new dim.
        # Appliers need no invalidation: they read committed STATE, which
        # a dim change never rewrites (LWW — only new events carry the new
        # tags).
        self.ext_map_path = ext_map_path
        self._dim_version: str | None = None
        self._dim_ref = None
        # named multi-dim enrichment (VAT/currency-style, as-of capable):
        # same versioning contract as the ext map, one ref per dim VERSION
        from .enrich import DimSpec

        self.dims = [
            d if isinstance(d, DimSpec) else DimSpec.from_config(d)
            for d in (dims or [])
        ]
        if len({d.name for d in self.dims}) != len(self.dims):
            raise ValueError("duplicate dim names")
        self._dims_versions: dict[str, str] = {}
        self._dims_refs: dict[str, object] = {}
        self.deadline_s = (
            deadline_minutes * 60.0 if deadline_minutes is not None else None
        )
        if on_event is None:
            self.event_callbacks: tuple = ()
        elif callable(on_event):
            self.event_callbacks = (on_event,)
        else:
            self.event_callbacks = tuple(on_event)
        self.pseudonym_fields = pseudonym_fields or []
        self.tz_offset_minutes = int(tz_offset_minutes)
        self.retain_ticks = int(retain_ticks)
        self.emit_changelog = bool(emit_changelog)
        self.changelog_retain = changelog_retain
        from .quality import DEFAULT_CHECKS

        self.checks = DEFAULT_CHECKS if checks is None else checks
        self.folds = folds or []
        self.wal = WalInfo.load(wal_dir)
        self.lake_dir = lake_dir
        self.lineage = LakeLineage(lake_dir)
        self.num_buckets = num_buckets
        self.concurrency = concurrency
        self.aggregate = aggregate
        # exact-once fold dedup window: the log's declared out-of-order
        # bound (duplicates re-emit within it), with margin
        p = self.wal.params or {}
        self.fold_lateness = 2 * int(p.get("ooo_window", 1 << 14)) + 16

    def _refresh_dim(self) -> str | None:
        """Reload the enrichment dim if its content changed; returns the
        current version tag (sha256 prefix of the file bytes, recorded in
        the tick manifest for lineage)."""
        if not self.ext_map_path:
            return None
        import json as _json

        from ..wal import EXT_TO_LANG
        from .enrich import versioned_broadcast

        ver, ref = versioned_broadcast(
            self.ext_map_path,
            self._dim_version,
            lambda raw: {**EXT_TO_LANG, **_json.loads(raw)},
        )
        if ref is not None:
            self._dim_ref = ref
            self._dim_version = ver
        return ver

    def _refresh_dims(self) -> dict[str, str]:
        """Hash-version every named dim file; re-broadcast (ray.put once
        per version) the ones whose content changed since the last tick.
        Returns {dim name: version} for the tick manifest."""
        if not self.dims:
            return {}
        from .enrich import load_dim_payload, versioned_broadcast

        versions = {}
        for spec in self.dims:
            ver, ref = versioned_broadcast(
                spec.path,
                self._dims_versions.get(spec.name),
                lambda raw, spec=spec: load_dim_payload(spec, raw=raw),
            )
            if ref is not None:
                self._dims_refs[spec.name] = ref
                self._dims_versions[spec.name] = ver
            versions[spec.name] = ver
        return versions

    def _make_enricher(self):
        if self._dim_ref is not None:
            lang = LangEnricher(ext_map_ref=self._dim_ref)
        else:
            lang = LangEnricher()
        if self.dims:
            from .enrich import MultiDimEnricher

            return MultiDimEnricher(
                lang, [(s, self._dims_refs[s.name]) for s in self.dims]
            )
        return lang

    # ------------------------------------------------------------------

    def _spill_apply(
        self, ds, tick_id: int, schema_ser: bytes, view_columns: list[str] | None
    ):
        """The tick's one shuffle, over shared FS (the shape a multi-node
        lake engine actually wants): stage 1 tasks append each pre-reduced
        batch's rows to per-bucket delta files under
        ``lake/_shuffle/tick-N/`` (the lake directory IS the shared storage
        on a real cluster — this is an external shuffle, like Spark's, with
        parquet+zstd as the wire format); stage 2 is ``run_tasks`` applier
        tasks over (bucket, files) descriptors — content bytes never transit
        the object store, and stage-2 parallelism is min(buckets, CPUs[,
        concurrency]) regardless of input block sizing. Crash-safe: the
        spill dir is wiped and rebuilt on tick redo. Returns the (bucket
        manifest, state projected to ``view_columns`` or None) pairs.
        """
        import shutil
        import uuid

        spill_dir = tick_spill_dir(self.lake_dir, tick_id)
        shutil.rmtree(spill_dir, ignore_errors=True)
        os.makedirs(spill_dir, exist_ok=True)

        nb = self.num_buckets
        enrich = self._make_enricher()
        # capture plain values, NOT self: the closure ships to every task and
        # self would drag along the WAL manifest
        lineage = self.lineage
        folds_active = bool(self.folds)
        lake_dir = self.lake_dir

        from .partitioning import spill_buckets

        def stage1(batch: pa.Table) -> pa.Table:
            """Fused stage-1 task: enrich → (a) append the narrow agg-log
            projection (pre-reduction — aggregates need every distinct LSN;
            written whether or not this run aggregates, so the log always
            covers every replayed event) → (b) per-batch last-writer
            pre-reduction → tombstone shape → ONE shuffle file with one
            parquet ROW GROUP per bucket (an indexed shuffle file): bucket
            readers fetch only their row group — no per-(task,bucket)
            tiny-file explosion."""
            empty_desc = pa.table(
                {
                    "bucket": pa.array([], pa.int32()),
                    "file": pa.array([], pa.string()),
                    "rg": pa.array([], pa.int32()),
                    "ffile": pa.array([], pa.string()),
                    "frg": pa.array([], pa.int32()),
                }
            )
            if batch.num_rows == 0:
                return empty_desc
            from .quality import split_valid

            batch, bad = split_valid(batch)
            # bad rows are ROUTED, not dropped (event_quality semantics): the
            # per-tick quarantine log, wiped with the tick on a crash-redo
            ticklog.write(
                lake_dir, ticklog.QUARANTINE, tick_id, uuid.uuid4().hex, bad,
                pa.repeat(tick_id, bad.num_rows),
            )
            if batch.num_rows == 0:
                return empty_desc
            batch = enrich(batch)
            aggregates.append_agglog(lineage, tick_id, batch)
            fold_lookup: dict[int, int] = {}
            ffile = ""
            if folds_active:
                # second stream: the UNREDUCED narrow fold projection (the
                # data stream below is pre-reduced to per-key winners, but
                # folds need every distinct event) — same bucket layout,
                # own file, ~2% of the content bytes
                from .folds import fold_delta_projection

                fdesc = spill_buckets(fold_delta_projection(batch), nb, spill_dir)
                if fdesc.num_rows:
                    ffile = fdesc["file"][0].as_py()
                fold_lookup = dict(
                    zip(fdesc["bucket"].to_pylist(), fdesc["rg"].to_pylist())
                )

            # transient shuffle data: cheap codec (snappy)
            desc = spill_buckets(deltas_to_state_shape(last_writer(batch)), nb, spill_dir)
            buckets = desc["bucket"].to_pylist()
            ffiles = [ffile if b in fold_lookup else "" for b in buckets]
            frgs = [fold_lookup.get(b, -1) for b in buckets]
            return desc.append_column("ffile", pa.array(ffiles, pa.string())).append_column(
                "frg", pa.array(frgs, pa.int32())
            )

        spill_ds = ds.map_batches(
            stage1, batch_format="pyarrow", batch_size=None, zero_copy_batch=True
        )
        t_sp = time.perf_counter()
        shards = spill_ds.take_all()
        if os.environ.get("ETL_RAY_DEBUG"):
            print(f"[etl-ray] stage1 spill: {time.perf_counter() - t_sp:.2f}s", flush=True)

        # orchestration evidence for the scaling bench: how many independent
        # tasks each stage actually ran (stage 1 = one spill file per task
        # batch; stage 2 = one work item per touched bucket, run as
        # ``last_stage2_tasks`` chunk tasks)
        self.last_stage1_tasks = len({r["file"] for r in shards})

        by_bucket: dict[int, tuple[list[str], list[int], list[str], list[int]]] = {}
        for r in shards:
            files, rgs, ffiles, frgs = by_bucket.setdefault(
                int(r["bucket"]), ([], [], [], [])
            )
            files.append(r["file"])
            rgs.append(int(r["rg"]))
            if r.get("ffile"):
                ffiles.append(r["ffile"])
                frgs.append(int(r["frg"]))
        items = [
            {"bucket": b, "files": fr[0], "rgs": fr[1], "ffiles": fr[2], "frgs": fr[3]}
            for b, fr in sorted(by_bucket.items())
        ]
        conc = self.concurrency
        cap = conc[1] if isinstance(conc, tuple) else conc
        self.last_stage2_items = len(items)
        self.last_stage2_tasks = fan_out(len(items), cap)
        if not items:
            return []
        t_ap = time.perf_counter()
        out = run_tasks(
            _merge_chunk, items, view_columns, self.lake_dir, tick_id, schema_ser,
            self.folds, self.fold_lateness, self.emit_changelog,
            self.delta_threshold, max_tasks=cap,
        )
        if os.environ.get("ETL_RAY_DEBUG"):
            print(
                f"[etl-ray] apply ({len(items)} buckets, {self.last_stage2_tasks} tasks): "
                f"{time.perf_counter() - t_ap:.2f}s",
                flush=True,
            )
        return out

    def tick(
        self, max_segments: int | None = None, *, view_columns: list[str] | None = None
    ) -> TickResult | None:
        """Commit the next tick (up to ``max_segments`` WAL segments); None
        when no segment is pending. With ``view_columns`` (a lake passes the
        columns its views of this table read) the result's ``view_states``
        holds every merged bucket's state projected to them, for that tick's
        view refresh."""
        # single-writer guard: held per tick (re-acquired each tick, which
        # refreshes the TTL for long replays); the pending-segment check
        # below needs no lock (it only reads the WAL manifest)
        from .alerts import emit_event
        from .lock import WriterLockError, writer_lock
        from .quality import DataQualityError

        try:
            with writer_lock(self.lake_dir, "replay"):
                return self._tick_locked(max_segments, view_columns)
        except WriterLockError:
            raise  # interleaving with maintenance, not a failure — no alert
        except DataQualityError as e:
            emit_event(
                self.lake_dir, "quality_failure", {"error": str(e)},
                self.event_callbacks,
            )
            raise
        except Exception as e:
            emit_event(
                self.lake_dir, "tick_failure",
                {"error": f"{type(e).__name__}: {e}"},
                self.event_callbacks,
            )
            raise

    def _tick_locked(
        self, max_segments: int | None, view_columns: list[str] | None
    ) -> TickResult | None:
        t0 = time.perf_counter()
        last = self.lineage.last_tick()
        through = last["through_seqno"] if last else -1
        tick_id = (last["tick"] + 1) if last else 0
        # the bucket count is a property of the LAKE, not the run: resuming
        # with a different value would scatter a key's updates away from its
        # committed state row (duplicate live keys). Adopt the lake's value.
        if last is not None:
            self.num_buckets = last["num_buckets"]
        segs = pending_segments(self.wal, through, max_segments)
        if not segs:
            return None

        dim_version = self._refresh_dim()  # re-broadcast the dim if it changed
        dim_versions = self._refresh_dims()  # named multi-dim refresh
        self.lineage.recover()  # roll back any crashed rebucket attempt
        self.lineage.gc(self.retain_ticks)  # drop uncommitted staging from any crashed run

        # crashed-attempt log parts: the agg log and the quarantine are
        # rebuilt with the tick; the feed keeps them iff this redo is the
        # same attempt (see ticklog.begin_tick)
        ticklog.begin_tick(self.lake_dir, ticklog.AGGLOG, tick_id)
        ticklog.begin_tick(self.lake_dir, ticklog.QUARANTINE, tick_id)
        ticklog.begin_tick(
            self.lake_dir, ticklog.FEED, tick_id,
            {"segments": [s["seqno"] for s in segs], "num_buckets": self.num_buckets}
            if self.emit_changelog
            else None,
        )

        target = target_schema_for(segs)
        # one block per segment by default; split WITHIN segments (the WAL
        # writes 32k-row groups) only in the degenerate few-large-segments
        # case — finer than ~256k-row blocks multiplies spill-file row-group
        # fragments per bucket and slows the appliers more than the extra
        # read parallelism gains
        cpus = cluster_cpus()
        total_rows = sum(s["rows"] for s in segs)
        nb = max(len(segs), min(cpus, total_rows // 262_144))
        if nb >= cpus and nb % cpus:
            # round up to whole scheduling waves: 17 tasks on 8 CPUs is 3
            # waves with a 1-task straggler tail; 24 evenly-sized tasks is 3
            # full waves at ideal utilization. Only when blocks stay coarse —
            # finer than ~200k rows multiplies per-bucket spill row-group
            # fragments and slows the appliers more than it gains.
            cand = ((nb + cpus - 1) // cpus) * cpus
            if total_rows // cand >= 200_000:
                nb = cand
        ds = read_segments_indexed(segs, target, num_blocks=nb)
        schema_ser = target_schema_ser(deltas_schema(target))
        if os.environ.get("ETL_RAY_DEBUG"):
            print(f"[etl-ray] tick setup: {time.perf_counter() - t0:.2f}s", flush=True)
        applied = self._spill_apply(ds, tick_id, schema_ser, view_columns)
        manifests = [m for m, _ in applied]

        quarantined = ticklog.rows(self.lake_dir, ticklog.QUARANTINE, tick_id)
        changelog_rows = (
            ticklog.rows(self.lake_dir, ticklog.FEED, tick_id)
            if self.emit_changelog
            else 0
        )

        # ---- data-quality gate: runs BEFORE anything is published, so a
        # failing mandatory check leaves the previous tick fully
        # authoritative (test.py:39-64 / test_framework.py semantics) ----
        events = sum(s["rows"] for s in segs)
        quality_summary = None
        if self.checks:
            from .quality import DataQualityError, TickContext, run_checks

            ctx = TickContext(
                lineage=self.lineage,
                tick=tick_id,
                events=events,
                segments=segs,
                new_manifests=[dict(m) for m in manifests],
                prev_manifests={
                    m["bucket"]: m for m in self.lineage.all_bucket_manifests()
                },
                prev_tick=last,
                quarantined=quarantined,
            )
            t_q = time.perf_counter()
            qrep = run_checks(self.checks, ctx)
            if qrep.failed_mandatory:
                raise DataQualityError(
                    f"tick {tick_id} aborted before commit; mandatory "
                    f"data-quality checks failed: {qrep.summary()}"
                )
            quality_summary = qrep.summary()
            if os.environ.get("ETL_RAY_DEBUG"):
                print(f"[etl-ray] quality gate: {time.perf_counter() - t_q:.2f}s", flush=True)

        # ---- two-phase commit: publish bucket manifests, then the tick ----
        state_rows = live_rows = 0
        for m in manifests:
            self.lineage.publish_bucket(dict(m))
        for m in self.lineage.all_bucket_manifests():
            state_rows += m["rows"]
            live_rows += m["live_rows"]

        if self.aggregate:
            t_ag = time.perf_counter()
            days = aggregates.days_of_segments(segs, self.tz_offset_minutes)
            aggregates.recompute_days_from_agglog(
                self.lineage, days, tz_offset_minutes=self.tz_offset_minutes,
                through_tick=tick_id,
            )
            if os.environ.get("ETL_RAY_DEBUG"):
                print(
                    f"[etl-ray] aggregates ({len(days)} days): "
                    f"{time.perf_counter() - t_ag:.2f}s",
                    flush=True,
                )

        if self.pseudonym_fields:
            # MERGE the tick's distinct PII values into the pseudonym map
            # (mod_load_data_gdpr.sql semantics); idempotent, so a crash
            # between here and the tick publish re-merges harmlessly
            from . import gdpr

            gdpr.update_map_from_segments(
                self.lake_dir, segs, target, self.pseudonym_fields
            )

        prev_hi = last["applied_through_lsn"] if last else 0
        prev_wal = last["wal_through_lsn"] if last else 0
        self.lineage.publish_tick(
            {
                "tick": tick_id,
                "through_seqno": segs[-1]["seqno"],
                # never regress the watermark (an erasure tick may sit above
                # the log's own max LSN)
                "applied_through_lsn": max(prev_hi, max(s["max_lsn"] for s in segs)),
                # true WAL high-LSN, unaffected by erasure inflation — the
                # compaction/lateness watermark derives from THIS
                "wal_through_lsn": max(prev_wal, max(s["max_lsn"] for s in segs)),
                "segments": [s["seqno"] for s in segs],
                "events": events,
                "buckets_touched": len(manifests),
                "state_rows": state_rows,
                "live_rows": live_rows,
                "num_buckets": self.num_buckets,
                "quarantined_rows": quarantined,
                "tz_offset_minutes": self.tz_offset_minutes,
                # earliest tick an as-of read can still serve exactly: gc
                # keeps [tick - retain_ticks, tick] plus per-bucket boundary
                # states; monotone (history once dropped never comes back)
                "retained_through_tick": (
                    max(last["retained_through_tick"], tick_id - self.retain_ticks)
                    if self.retain_ticks > 0 and last
                    else tick_id
                ),
                "quality": quality_summary,
                "changelog": self.emit_changelog,
                "changelog_rows": changelog_rows,
                # state bytes written by this tick's appliers (base rewrites
                # + appended deltas + fold tails) — the base+delta win shows
                # up here as bytes/tick dropping from O(bucket) to O(touched)
                "state_bytes_written": int(
                    sum(m["bytes_written"] for m in manifests)
                ),
                "delta_threshold": self.delta_threshold,
                # enrichment-dim lineage: which dim version(s) tagged this tick
                "dim_version": dim_version,
                "dim_versions": dim_versions or None,
            }
        )
        self.lineage.gc(self.retain_ticks)
        if self.changelog_retain is not None:
            ticklog.drop_below(self.lake_dir, ticklog.FEED, tick_id - self.changelog_retain)
        if os.environ.get("ETL_RAY_DEBUG"):
            print(f"[etl-ray] tick total: {time.perf_counter() - t0:.2f}s", flush=True)
        import shutil

        shutil.rmtree(os.path.join(self.lake_dir, "_shuffle"), ignore_errors=True)
        return TickResult(
            tick=tick_id,
            segments=len(segs),
            events=events,
            buckets_touched=len(manifests),
            state_rows=state_rows,
            live_rows=live_rows,
            seconds=time.perf_counter() - t0,
            view_states=(
                None
                if view_columns is None
                else {m["bucket"]: (chain_key(m), v) for m, v in applied}
            ),
        )

    def replay_all(self, *, segments_per_tick: int | None = None) -> list[TickResult]:
        out = []
        started = time.monotonic()
        while True:
            r = self.tick(segments_per_tick)
            if r is None:
                break
            out.append(r)
            # budget checked BETWEEN ticks: the first tick always runs (a
            # run does at least one unit of work, like the reference's
            # deadline sensor failing an in-flight run, deadline.py:29-38)
            check_deadline(
                self.lake_dir, started, self.deadline_s, len(out), self.event_callbacks
            )
        return out

    def follow(
        self,
        *,
        poll_interval_s: float = 1.0,
        idle_timeout_s: float = 10.0,
        max_ticks: int | None = None,
        segments_per_tick: int | None = None,
    ) -> list[TickResult]:
        """Live-tail mode: keep ticking as the WAL's segment manifest grows
        (the reference's sensor-poll loop, ``event_partition.py:41-66`` —
        here the WAL manifest is the sealer, see ``watermark`` for the
        sealing policy itself). Reloads the manifest each poll; returns
        once no new sealed segment arrives within ``idle_timeout_s`` (the
        force-close analog) or after ``max_ticks``."""
        from .lock import WriterLockError

        results: list[TickResult] = []
        started = time.monotonic()
        idle_since = started
        while True:
            self.wal = WalInfo.load(self.wal.wal_dir)  # new sealed segments?
            try:
                r = self.tick(segments_per_tick)
            except WriterLockError:
                # a maintenance op (erase/compact/rebucket) holds the lake —
                # that's interleaving, not failure: retry next poll. The
                # idle clock keeps running so a PERMANENTLY held lock still
                # ends the tail at idle_timeout instead of spinning forever.
                if time.monotonic() - idle_since >= idle_timeout_s:
                    break
                time.sleep(poll_interval_s)
                continue
            if r is not None:
                results.append(r)
                idle_since = time.monotonic()
                if max_ticks is not None and len(results) >= max_ticks:
                    break
                # budget checked between ticks (first tick always runs) —
                # a pathological backlog can't tail past the run's SLA
                check_deadline(
                    self.lake_dir, started, self.deadline_s, len(results),
                    self.event_callbacks,
                )
            else:
                if time.monotonic() - idle_since >= idle_timeout_s:
                    break
                time.sleep(poll_interval_s)
        return results


def tick_spill_dir(lake_dir: str, tick: int) -> str:
    """A replay tick's shuffle files: present from the tick's stage 1 until
    it commits, so it also marks a crashed, uncommitted replay attempt."""
    return os.path.join(lake_dir, "_shuffle", f"tick-{tick:06d}")


def deltas_schema(envelope: pa.Schema) -> pa.Schema:
    """Schema of delta rows after op→tombstone shaping (what appliers see)."""
    fields = [f for f in envelope if f.name != "op"]
    fields.append(pa.field("deleted", pa.bool_()))
    return pa.schema(fields)


def target_schema_ser(schema: pa.Schema) -> bytes:
    return schema.serialize().to_pybytes()
