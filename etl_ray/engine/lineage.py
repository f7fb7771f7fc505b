"""Per-partition lineage manifests and the two-phase commit protocol.

Reference analogs: the skip-if-already-loaded guard
(``mod_load_data_declare.sql:30-36``), the temp-table → INSERT SELECT → DROP
two-phase write (``spark_job_data_locker.py:447-469``), and the datasource
freshness PUT (``lib/datasource.py:22-24``).

Lake layout (lake format ``LAKE_FORMAT``)::

    lake/
      buckets/b=00017/state-t000003.parquet        bucket base state as of tick 3
      buckets/b=00017/state-t000005.delta.parquet  tick 5's touched-key rows
                                                   (delta chains, apply.py)
      _manifests/bucket-00017.json   one bucket's commit record, every field
                                     of apply.MANIFEST_SCHEMA (built only by
                                     apply.bucket_manifest): applied_lsn,
                                     rows, live_rows, data_file, delta_files,
                                     fold_file, schema_b64, ...
      _ticks/tick-000005.json        the lake's commit record: tick,
                                     through_seqno, applied_through_lsn,
                                     wal_through_lsn, num_buckets,
                                     tz_offset_minutes, retained_through_tick,
                                     row counts, kind (ticks that replay no
                                     segment), and the ``lake_format`` stamp
      _agglog/t000005-<token>.parquet  narrow event log (commit_ts, lang, repo,
                                       path, op, lsn, nbytes) of one stage-1
                                       task, sorted by commit_ts: one row
                                       group per UTC-day run, and
      _agglog/t000005-<token>.json     its {UTC day: row group} index
      _aggs/<table>/day=YYYY-MM-DD.parquet     per-day aggregate partitions

``applied_through_lsn`` is the highest LSN applied (an erasure tick lifts it
above the log); ``wal_through_lsn`` is the log's own high LSN, which the
lateness and compaction watermarks derive from.

Only the tick manifest is stamped: it is the commit point and every lake
has one. ``publish_tick`` stamps it and refuses one that lacks a field of
``TICK_FIELDS``; ``last_tick``/``all_ticks`` refuse an unstamped one, so
every reader may index any of those fields. A lake written before the
current format is replayed from its WAL into a new lake, not read.

Commit protocol (crash-safe on a POSIX FS; on a real cluster this directory
is shared storage and the driver is the single committer):

1. bucket appliers write ``state-t{tick}.parquet`` via tmp + ``os.replace``
   (atomic rename). Old tick's files are untouched.
2. after the whole Dataset execution succeeds, the driver atomically
   publishes each bucket manifest (tmp + rename), then
3. publishes the tick manifest — the single commit point.
4. files no longer referenced by any bucket manifest are GC'd on the next
   tick start.

A crash anywhere before (3) leaves the previous tick authoritative; re-running
the tick re-applies the same deltas, which is a no-op by LWW monotonicity —
exactly-once by idempotence, as in the reference's delete-partition-then-insert
(``insert_user_history.sql:301-311``).
"""

from __future__ import annotations

import glob
import json
import os
import re

#: version of the lake layout above; bumped when a reader starts to rely on
#: a field or file layout that an older writer did not produce (2: the agg
#: log carries commit_ts and is indexed by UTC day)
LAKE_FORMAT = 2

#: fields every tick manifest carries (``publish_tick`` enforces them)
TICK_FIELDS = frozenset(
    {
        "tick", "through_seqno", "applied_through_lsn",
        "wal_through_lsn", "num_buckets", "tz_offset_minutes",
        "retained_through_tick", "segments", "events", "state_rows",
        "live_rows",
    }
)


def _atomic_write_json(path: str, obj: dict) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(obj, f)
    os.replace(tmp, path)


def _read_tick(path: str) -> dict:
    with open(path) as f:
        tick = json.load(f)
    if tick.get("lake_format") != LAKE_FORMAT:
        raise ValueError(
            f"{path}: tick manifest written before lake format {LAKE_FORMAT}; "
            "replay the WAL into a new lake"
        )
    return tick


class LakeLineage:
    def __init__(self, lake_dir: str):
        self.lake_dir = lake_dir
        self.buckets_dir = os.path.join(lake_dir, "buckets")
        self.manifests_dir = os.path.join(lake_dir, "_manifests")
        self.ticks_dir = os.path.join(lake_dir, "_ticks")
        self.aggs_dir = os.path.join(lake_dir, "_aggs")
        for d in (self.buckets_dir, self.manifests_dir, self.ticks_dir, self.aggs_dir):
            os.makedirs(d, exist_ok=True)

    # -- bucket state files --------------------------------------------------

    def bucket_dir(self, bucket: int) -> str:
        d = os.path.join(self.buckets_dir, f"b={bucket:05d}")
        os.makedirs(d, exist_ok=True)
        return d

    def bucket_state_path(self, bucket: int, tick: int) -> str:
        return os.path.join(self.bucket_dir(bucket), f"state-t{tick:06d}.parquet")

    def bucket_delta_path(self, bucket: int, tick: int) -> str:
        """Appended tick delta in base+delta mode (see apply.read_bucket_state)."""
        return os.path.join(self.bucket_dir(bucket), f"state-t{tick:06d}.delta.parquet")

    # -- bucket manifests ----------------------------------------------------

    def _bucket_manifest_path(self, bucket: int) -> str:
        return os.path.join(self.manifests_dir, f"bucket-{bucket:05d}.json")

    def bucket_manifest(self, bucket: int) -> dict | None:
        p = self._bucket_manifest_path(bucket)
        if not os.path.exists(p):
            return None
        with open(p) as f:
            return json.load(f)

    def all_bucket_manifests(self) -> list[dict]:
        out = []
        for p in sorted(glob.glob(os.path.join(self.manifests_dir, "bucket-*.json"))):
            with open(p) as f:
                out.append(json.load(f))
        return out

    def publish_bucket(self, manifest: dict) -> None:
        _atomic_write_json(self._bucket_manifest_path(manifest["bucket"]), manifest)

    def remove_bucket_manifest(self, bucket: int) -> None:
        p = self._bucket_manifest_path(bucket)
        if os.path.exists(p):
            os.remove(p)

    # -- rebucket rollback marker (see maintenance.rebucket) ------------------

    @property
    def rebucket_marker_path(self) -> str:
        return os.path.join(self.lake_dir, "_rebucket.json")

    def recover(self) -> bool:
        """Roll back a crashed rebucket: if the marker exists but its tick
        manifest does not, the old manifest snapshot is re-published (and
        any half-published new manifests for since-removed bucket ids are
        deleted); if the tick WAS committed, only the marker is cleaned.
        Returns True if a rollback happened."""
        p = self.rebucket_marker_path
        if not os.path.exists(p):
            return False
        with open(p) as f:
            marker = json.load(f)
        committed = os.path.exists(
            os.path.join(self.ticks_dir, f"tick-{marker['tick']:06d}.json")
        )
        if not committed:
            old = {m["bucket"]: m for m in marker["old_manifests"]}
            for m in self.all_bucket_manifests():
                if m["bucket"] not in old:
                    self.remove_bucket_manifest(m["bucket"])
            for m in old.values():
                self.publish_bucket(m)
        os.remove(p)
        return not committed

    # -- tick manifests (the commit point) -----------------------------------

    def last_tick(self) -> dict | None:
        ticks = sorted(glob.glob(os.path.join(self.ticks_dir, "tick-*.json")))
        return _read_tick(ticks[-1]) if ticks else None

    def all_ticks(self) -> list[dict]:
        return [
            _read_tick(p)
            for p in sorted(glob.glob(os.path.join(self.ticks_dir, "tick-*.json")))
        ]

    def publish_tick(self, tick: dict) -> None:
        missing = TICK_FIELDS - tick.keys()
        if missing:
            raise ValueError(f"tick manifest lacks {sorted(missing)}")
        _atomic_write_json(
            os.path.join(self.ticks_dir, f"tick-{tick['tick']:06d}.json"),
            {**tick, "lake_format": LAKE_FORMAT},
        )

    def publish_maintenance_tick(self, last: dict, kind: str, **fields) -> dict:
        """Commit a maintenance op (erasure, rebucket, compaction): the tick
        after ``last`` consumes no WAL segment, so it carries the lake's WAL
        position, bucket count and tz offset forward, and counts rows over
        the bucket manifests as now published. It ends time-travel history:
        the op rewrote state in place. ``fields`` add or override (an
        erasure's ``applied_through_lsn``, a rebucket's ``num_buckets``)."""
        manifests = self.all_bucket_manifests()
        tick = {
            "tick": last["tick"] + 1,
            "kind": kind,
            "through_seqno": last["through_seqno"],
            "applied_through_lsn": last["applied_through_lsn"],
            "wal_through_lsn": last["wal_through_lsn"],
            "num_buckets": last["num_buckets"],
            "tz_offset_minutes": last["tz_offset_minutes"],
            "retained_through_tick": last["tick"] + 1,
            "segments": [],
            "events": 0,
            "state_rows": sum(m["rows"] for m in manifests),
            "live_rows": sum(m["live_rows"] for m in manifests),
            **fields,
        }
        self.publish_tick(tick)
        return tick

    # -- GC -------------------------------------------------------------------

    def gc(self, retain_ticks: int = 0) -> int:
        """Delete bucket state files not referenced by the current manifests.
        Returns number of files removed. Only called at tick start, so any
        in-flight staging files belong to a tick that will re-run anyway.

        ``retain_ticks > 0`` enables time travel: for every bucket, keep (a)
        the current state, (b) every state written within the last
        ``retain_ticks`` committed ticks, and (c) the newest state OLDER than
        that window — the boundary state, which IS the bucket's content for
        any as-of point inside the window when the bucket wasn't rewritten
        since. With those three classes retained, ``final_state(...,
        as_of_tick=T)`` is exact for every T in the window."""
        live = set()
        for m in self.all_bucket_manifests():
            live.add(m["data_file"])
            live.update(m["delta_files"])  # base+delta chains (apply.py)
            if m["fold_file"]:
                live.add(m["fold_file"])  # fold LSN-tail sidecar
        cutoff = None
        if retain_ticks > 0:
            last = self.last_tick()
            if last is not None:
                cutoff = last["tick"] - retain_ticks
        removed = 0
        for bdir in glob.glob(os.path.join(self.buckets_dir, "b=*")):
            all_files = sorted(glob.glob(os.path.join(bdir, "state-t*.parquet")))
            # .fold.parquet LSN-tail sidecars ride with their base state file
            folds = [f for f in all_files if f.endswith(".fold.parquet")]
            deltas = [f for f in all_files if f.endswith(".delta.parquet")]
            files = [
                f
                for f in all_files
                if not f.endswith((".fold.parquet", ".delta.parquet"))
            ]
            keep = set(f for f in files if f in live)
            boundary_tick = None
            if cutoff is not None:
                below = []
                for f in files:
                    t = int(re.search(r"state-t(\d+)\.parquet$", f).group(1))
                    if t >= cutoff:
                        keep.add(f)
                    else:
                        below.append((t, f))
                if below:
                    # boundary state: the newest base OLDER than the window
                    # IS the bucket's content for any as-of point inside it
                    # the bucket wasn't rewritten since
                    boundary_tick, bf = max(below)
                    keep.add(bf)
            # tick deltas (base+delta layout): live by manifest reference,
            # plus — inside a time-travel window — every delta at or after
            # the boundary base, so an as-of chain (newest base <= T, deltas
            # (base, T]) stays reconstructible for every T in the window
            for f in deltas:
                t = int(re.search(r"state-t(\d+)\.delta\.parquet$", f).group(1))
                retained = cutoff is not None and t >= (
                    boundary_tick if boundary_tick is not None else cutoff
                )
                if f in live or retained:
                    keep.add(f)
                else:
                    os.remove(f)
                    removed += 1
            for f in files:
                if f not in keep:
                    os.remove(f)
                    removed += 1
            for f in folds:
                base = f[: -len(".fold.parquet")] + ".parquet"
                if f not in live and base not in keep:
                    os.remove(f)
                    removed += 1
        for p in glob.glob(os.path.join(self.buckets_dir, "b=*", "*.tmp")):
            os.remove(p)
            removed += 1
        # fold caches (apply.read_bucket_state): keep only the cache keyed
        # by each bucket's CURRENT chain tuple; anything else is a stale
        # key (chain advanced / compacted) and regenerates on demand
        from .apply import bucket_files as _bfiles
        from .apply import chain_cache_path as _ccp

        valid_caches = set()
        for m in self.all_bucket_manifests():
            bf = _bfiles(m)
            if len(bf) > 1:
                try:
                    valid_caches.add(_ccp(bf))
                except OSError:
                    pass
        for p in glob.glob(
            os.path.join(self.buckets_dir, "b=*", "foldcache-*.parquet")
        ):
            if p not in valid_caches:
                try:
                    os.remove(p)
                except FileNotFoundError:
                    continue  # an exporter's self-delete won the race
                removed += 1
        return removed

    # -- narrow agg log (per-day projection of the event stream) --------------
    #
    # Layout: one parquet per stage-1 task per tick with one ROW GROUP per
    # UTC-day run, plus a sidecar ``.json`` index {day: row_group} — the
    # same indexed-spill-file trick as the data shuffle. A wide-day tick
    # (full history replay / backfill) writes tasks×1 files instead of
    # tasks×days tiny ones. Rows carry ``commit_ts``, so a reader derives
    # any local day from the UTC days it overlaps (aggregates.local_day).

    def agglog_dir(self) -> str:
        d = os.path.join(self.lake_dir, "_agglog")
        os.makedirs(d, exist_ok=True)
        return d

    def agglog_part_path(self, tick: int, token: str) -> str:
        return os.path.join(self.agglog_dir(), f"t{tick:06d}-{token}.parquet")

    def agglog_days_rgs(self, days: set[str]) -> dict[str, list[tuple[str, int]]]:
        """(parquet file, row group) pairs holding each day's log rows, from
        ONE pass over the ``t*.json`` index files for any number of days."""
        for d in days:
            if not re.fullmatch(r"\d{4}-\d{2}-\d{2}", d):
                raise ValueError(f"bad day partition: {d!r}")
        out: dict[str, list[tuple[str, int]]] = {d: [] for d in days}
        for idx in sorted(glob.glob(os.path.join(self.agglog_dir(), "t*.json"))):
            with open(idx) as f:
                file_days = json.load(f)
            pqf = idx[: -len(".json")] + ".parquet"
            for d, rg in file_days.items():
                if d in out:
                    out[d].append((pqf, rg))
        return out

    def gc_agglog_tick(self, tick: int) -> int:
        """Remove agg-log files written by a crashed attempt of ``tick``
        (they would otherwise double-count; re-run rewrites them)."""
        removed = 0
        pats = [
            os.path.join(self.lake_dir, "_agglog", f"t{tick:06d}-*"),
            os.path.join(self.lake_dir, "_agglog", "*.tmp"),
        ]
        for pat in pats:
            for p in glob.glob(pat):
                os.remove(p)
                removed += 1
        return removed

    # -- aggregate partitions -------------------------------------------------

    def agg_day_path(self, table: str, day: str) -> str:
        d = os.path.join(self.aggs_dir, table)
        os.makedirs(d, exist_ok=True)
        if not re.fullmatch(r"\d{4}-\d{2}-\d{2}", day):
            raise ValueError(f"bad day partition: {day!r}")
        return os.path.join(d, f"day={day}.parquet")

    def agg_day_files(self, table: str) -> list[str]:
        return sorted(glob.glob(os.path.join(self.aggs_dir, table, "day=*.parquet")))
