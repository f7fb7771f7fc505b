"""Multi-table lakes: a TableSpec registry driving N logical tables.

The reference's unit of deployment is N apps × M event types generated from
config — per-app DAGs are stamped out of ``app_config`` entries
(``etl/dags/user_history/user_history/dag.py:41-48``,
``lib/app_config/app_config.py:95-103,209-221``, per-app wiring at
``DAG_user_history.py:151-154``). The engine-side equivalent: one lake holds
N co-resident logical tables under ``lake/tables/<name>/``, each a full
single-table lake (own buckets, manifests, ticks, aggregates, feed) with its
own :class:`TableSpec` (WAL source, bucket count, tz offset, folds, checks,
pseudonym fields), all driven through ONE replay loop. Ticks commit
per-table: a crash that lands table A's tick but not table B's leaves A
committed and B at its previous tick, and the re-run no-ops A (watermark)
while completing B — cross-table exactly-once by per-table idempotence.

Derived VIEW tables are maintained incrementally from an upstream table's
bucket-level lineage (the reference's aggregation-table cascade,
``DAG_external_source.py:132-224``, re-expressed at bucket grain): a
two-level aggregate where per-bucket partials are recomputed ONLY for
buckets whose manifest tick advanced since the view's last refresh, and the
final rows are a small reduce over partial rows at read time. Partial grain
is (bucket × repo) — bounded by aggregate grain, not event count — so a
refresh touches O(changed buckets) state files. Each partial is already the
engine's shuffle file (``partitioning.spill`` layout): rows sorted by
``hash(view key) % G`` (G = the upstream bucket count), one row group per
hash group, the ``{group: rg}`` index in the footer — so a read is one pass
of ``min(G, CPUs)`` consumer tasks and needs no shuffle.
"""

from __future__ import annotations

import glob
import json
import os
from dataclasses import dataclass, field

VIEW_KINDS = ("repo_stats", "aggregate", "session")

#: table names become directories under lake/tables/ — one pattern shared
#: by config validation and every CLI surface that builds such a path
TABLE_NAME_RE = r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}"

# supported aggregate-view functions; sum/count/min/max are distributive
# (exact under the two-level partial/reduce), mean decomposes into sum+count.
# first/last are argmin/argmax by an order key ("by"): the value of "col" on
# the group's row with the smallest/largest "by" — the reference's rank-1
# fact rollups (first event per user: ``insert_registration.sql:18-41``;
# session winner rows: ``insert_sessions.sql:36-83``) as view aggregates.
# They stay distributive by encoding (order, value) into ONE lexicographically
# sortable binary cell, so partial and reduce are both plain min/max.
AGG_FNS = ("sum", "count", "min", "max", "mean", "first", "last")

# the repo_stats preset, expressed in the generic aggregate-view spec — the
# reference's semantic layer is exactly this shape: config-driven
# materialized tables of (metric name, select expression) fields
# (``lib/app_config/materialized_fields_config.py:22-66``)
REPO_STATS_AGG = {
    "group_by": ["repo"],
    "aggs": [
        {"out": "live_files", "fn": "count"},
        # size_bytes arrives via additive schema evolution — optional lets
        # the view refresh before the column exists upstream
        {
            "out": "total_bytes", "col": "size_bytes", "fn": "sum",
            "default": 0, "optional": True,
        },
        {"out": "last_lsn", "col": "lsn", "fn": "max"},
    ],
}


@dataclass
class TableSpec:
    """One logical table of a multi-table lake.

    Base tables (``wal_dir`` set) replay their own WAL through a full
    :class:`~etl_ray.engine.replay.ReplayEngine`. View tables (``view`` +
    ``source`` set) are derived incrementally from another table's state.
    """

    name: str
    wal_dir: str | None = None
    num_buckets: int = 32
    concurrency: int | tuple[int, int] | None = None
    tz_offset_minutes: int = 0
    aggregate: bool = True
    folds: list = field(default_factory=list)
    checks: list | None = None
    pseudonym_fields: list[str] = field(default_factory=list)
    emit_changelog: bool = False
    retain_ticks: int = 0
    view: str | None = None  # derived-view kind, see VIEW_KINDS
    source: str | None = None  # upstream table name (views only)
    # per-table bucket layout: delta files per bucket before a base fold,
    # 0 = rewrite (apply.resolve_delta_threshold; state_mode is its older
    # spelling, "rewrite" | "delta")
    state_mode: str | None = None
    delta_threshold: int | None = None
    # view="aggregate" only: GROUP BY columns and the aggregate field list —
    # [{"out": name, "fn": sum|count|min|max|mean, "col": src, "default": v}]
    # ("col" optional for count = COUNT(*); "default" fills an all-null group)
    view_group_by: list[str] = field(default_factory=list)
    view_aggs: list = field(default_factory=list)
    # named broadcast enrichment dims (enrich.DimSpec config dicts):
    # [{"name": ..., "path": ..., "key": ..., "as_of": ...?}] — versioned +
    # re-broadcast on change, as-of pick when the dim file is date-versioned
    dims: list = field(default_factory=list)
    # view="session" only: gap-based sessionization of the upstream state
    # (the reference's sessions fact table, ``insert_sessions.sql:36-83``,
    # as a continuously maintained view): one output row per (key, session),
    # where a session is a maximal run of ``ts`` values per key with
    # consecutive gaps <= gap_minutes
    view_key: list[str] = field(default_factory=list)
    view_ts: str | None = None
    gap_minutes: float = 30.0

    @property
    def is_view(self) -> bool:
        return self.view is not None

    def validate(self) -> None:
        # table name becomes a directory under lake/tables/ — it must not
        # escape it ('..', '.', separators) or collide with lake metadata
        import re

        if not re.fullmatch(TABLE_NAME_RE, self.name or ""):
            raise ValueError(f"bad table name {self.name!r}")
        if self.is_view:
            if self.view not in VIEW_KINDS:
                raise ValueError(
                    f"table {self.name!r}: unknown view kind {self.view!r} "
                    f"(have: {', '.join(VIEW_KINDS)})"
                )
            if not self.source:
                raise ValueError(f"view table {self.name!r} needs a source table")
            if self.wal_dir:
                raise ValueError(f"view table {self.name!r} cannot also have a WAL")
            if self.view == "aggregate":
                if not self.view_group_by:
                    raise ValueError(
                        f"aggregate view {self.name!r} needs group_by columns"
                    )
                if not self.view_aggs:
                    raise ValueError(f"aggregate view {self.name!r} needs aggs")
                outs = []
                for a in self.view_aggs:
                    out, fn = a.get("out"), a.get("fn")
                    if not out or not str(out).isidentifier():
                        raise ValueError(
                            f"aggregate view {self.name!r}: bad output name {out!r}"
                        )
                    if out.startswith("__"):
                        raise ValueError(
                            f"aggregate view {self.name!r}: output name {out!r} "
                            "uses the reserved '__' partial-column prefix"
                        )
                    if fn not in AGG_FNS:
                        raise ValueError(
                            f"aggregate view {self.name!r}: fn must be one of "
                            f"{', '.join(AGG_FNS)}, got {fn!r}"
                        )
                    if fn != "count" and not a.get("col"):
                        raise ValueError(
                            f"aggregate view {self.name!r}: {out!r} ({fn}) needs col"
                        )
                    if fn in ("first", "last") and not a.get("by"):
                        raise ValueError(
                            f"aggregate view {self.name!r}: {out!r} ({fn}) needs "
                            "an order key ('by')"
                        )
                    outs.append(out)
                dupes = {o for o in outs if outs.count(o) > 1}
                if dupes or set(outs) & set(self.view_group_by):
                    raise ValueError(
                        f"aggregate view {self.name!r}: duplicate output names "
                        f"{sorted(dupes | (set(outs) & set(self.view_group_by)))}"
                    )
            if self.view == "session":
                if not self.view_key:
                    raise ValueError(
                        f"session view {self.name!r} needs key columns"
                    )
                if not self.view_ts:
                    raise ValueError(
                        f"session view {self.name!r} needs a ts column"
                    )
                if not (self.gap_minutes > 0):
                    raise ValueError(
                        f"session view {self.name!r}: gap_minutes must be > 0"
                    )
                clash = (
                    {"session_start", "session_end", "n_events", "session_seq"}
                    & set(self.view_key)
                )
                if clash:
                    raise ValueError(
                        f"session view {self.name!r}: key columns collide "
                        f"with output names {sorted(clash)}"
                    )
                if self.view_ts in self.view_key:
                    raise ValueError(
                        f"session view {self.name!r}: ts column "
                        f"{self.view_ts!r} cannot also be a key column"
                    )
                # optional rider aggregates: per-session rollup columns
                # (the reference's FIRST/LAST_VALUE + AVG columns inside
                # each session row, ``insert_sessions.sql:36-83``)
                outs = []
                for a in self.view_aggs:
                    out, fn = a.get("out"), a.get("fn")
                    if not out or not str(out).isidentifier():
                        raise ValueError(
                            f"session view {self.name!r}: bad rider name {out!r}"
                        )
                    if out.startswith("__"):
                        raise ValueError(
                            f"session view {self.name!r}: rider name {out!r} "
                            "uses the reserved '__' partial-column prefix"
                        )
                    if fn not in AGG_FNS:
                        raise ValueError(
                            f"session view {self.name!r}: rider fn must be "
                            f"one of {', '.join(AGG_FNS)}, got {fn!r}"
                        )
                    if fn != "count" and not a.get("col"):
                        raise ValueError(
                            f"session view {self.name!r}: rider {out!r} "
                            f"({fn}) needs col"
                        )
                    if fn in ("first", "last") and a.get("by") not in (
                        None, self.view_ts,
                    ):
                        raise ValueError(
                            f"session view {self.name!r}: rider {out!r} "
                            "orders by the session ts column — omit 'by'"
                        )
                    outs.append(out)
                reserved = {
                    "session_start", "session_end", "n_events", "session_seq",
                    *self.view_key,
                }
                dupes = {o for o in outs if outs.count(o) > 1}
                if dupes or set(outs) & reserved:
                    raise ValueError(
                        f"session view {self.name!r}: duplicate/reserved "
                        f"rider names "
                        f"{sorted(dupes | (set(outs) & reserved))}"
                    )
        elif not self.wal_dir:
            raise ValueError(f"base table {self.name!r} needs wal_dir")
        if self.dims:
            if self.is_view:
                raise ValueError(
                    f"view table {self.name!r} cannot have enrichment dims"
                )
            from .enrich import DimSpec

            for d in self.dims:
                if not isinstance(d, DimSpec):
                    DimSpec.from_config(d)  # shape check, raises on typos
        from .apply import resolve_delta_threshold

        try:
            resolve_delta_threshold(self.state_mode, self.delta_threshold)
        except ValueError as e:
            raise ValueError(f"table {self.name!r}: {e}") from None


_CONFIG_KEYS = frozenset(
    {
        "name", "wal", "buckets", "concurrency", "tz_offset_minutes",
        "aggregate", "folds", "pseudonym_fields", "changelog", "retain_ticks",
        "view", "source", "state_mode", "delta_threshold",
        "group_by", "aggs", "dims", "key", "ts", "gap_minutes",
    }
)


def spec_from_config(entry: dict) -> TableSpec:
    """One config-file entry → TableSpec. Accepted keys mirror the replay
    CLI flags; ``"folds": true`` resolves to the default fold set. Unknown
    keys are rejected — a typo'd key must not silently build a different
    lake than configured."""
    unknown = set(entry) - _CONFIG_KEYS
    if unknown:
        raise ValueError(
            f"unknown table-config keys {sorted(unknown)} "
            f"(accepted: {', '.join(sorted(_CONFIG_KEYS))})"
        )
    conc = entry.get("concurrency")
    if isinstance(conc, list):
        conc = tuple(conc)
    folds = entry.get("folds", [])
    if folds is True or folds == "default":
        from .folds import DEFAULT_FOLDS

        folds = list(DEFAULT_FOLDS)
    spec = TableSpec(
        name=entry["name"],
        wal_dir=entry.get("wal"),
        num_buckets=int(entry.get("buckets", 32)),
        concurrency=conc,
        tz_offset_minutes=int(entry.get("tz_offset_minutes", 0)),
        aggregate=bool(entry.get("aggregate", True)),
        folds=folds,
        pseudonym_fields=list(entry.get("pseudonym_fields", [])),
        emit_changelog=bool(entry.get("changelog", False)),
        retain_ticks=int(entry.get("retain_ticks", 0)),
        view=entry.get("view"),
        source=entry.get("source"),
        state_mode=entry.get("state_mode"),
        delta_threshold=entry.get("delta_threshold"),
        view_group_by=list(entry.get("group_by", [])),
        view_aggs=[dict(a) for a in entry.get("aggs", [])],
        dims=[dict(d) for d in entry.get("dims", [])],
        view_key=list(entry.get("key", [])),
        view_ts=entry.get("ts"),
        gap_minutes=float(entry.get("gap_minutes", 30.0)),
    )
    spec.validate()
    return spec


def load_config(path: str) -> list[TableSpec]:
    with open(path) as f:
        cfg = json.load(f)
    return [spec_from_config(e) for e in cfg["tables"]]


class MultiTableLake:
    """N logical tables under one lake directory, one replay loop.

    ``tick()`` advances every table once, in spec order (base tables first
    is the caller's responsibility when a view depends on a base — specs
    are processed in the given order). Each table commits independently
    under its own writer lock, so per-table crash/resume semantics are
    exactly the single-table engine's.
    """

    def __init__(self, lake_dir: str, specs: list[TableSpec]):
        names = [s.name for s in specs]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate table names in {names}")
        by_name = {s.name: s for s in specs}
        for s in specs:
            s.validate()
            if s.is_view:
                if s.source not in by_name:
                    raise ValueError(
                        f"view {s.name!r} sources unknown table {s.source!r}"
                    )
                if by_name[s.source].is_view:
                    raise ValueError(
                        f"view {s.name!r} cannot source another view ({s.source!r})"
                    )
        self.lake_dir = lake_dir
        self.specs = specs
        self._engines: dict[str, object] = {}
        os.makedirs(os.path.join(lake_dir, "tables"), exist_ok=True)
        # the registry is ops metadata (status CLI), not the source of truth
        # — the specs passed in are. Overwritten on every construction.
        reg = {
            "tables": [
                {
                    "name": s.name,
                    "wal": s.wal_dir,
                    "buckets": s.num_buckets,
                    "view": s.view,
                    "source": s.source,
                    "tz_offset_minutes": s.tz_offset_minutes,
                    "changelog": s.emit_changelog,
                }
                for s in specs
            ]
        }
        tmp = os.path.join(lake_dir, "_tables.json.tmp")
        with open(tmp, "w") as f:
            json.dump(reg, f, indent=1)
        os.replace(tmp, os.path.join(lake_dir, "_tables.json"))

    def table_dir(self, name: str) -> str:
        return os.path.join(self.lake_dir, "tables", name)

    def spec(self, name: str) -> TableSpec:
        for s in self.specs:
            if s.name == name:
                return s
        raise KeyError(name)

    def engine(self, name: str):
        """The (lazily created, cached) ReplayEngine of a base table."""
        if name not in self._engines:
            from .replay import ReplayEngine

            s = self.spec(name)
            if s.is_view:
                raise ValueError(f"{name!r} is a view, not a base table")
            self._engines[name] = ReplayEngine(
                s.wal_dir,
                self.table_dir(name),
                num_buckets=s.num_buckets,
                concurrency=s.concurrency,
                aggregate=s.aggregate,
                checks=s.checks,
                folds=s.folds,
                pseudonym_fields=s.pseudonym_fields,
                tz_offset_minutes=s.tz_offset_minutes,
                retain_ticks=s.retain_ticks,
                emit_changelog=s.emit_changelog,
                state_mode=s.state_mode,
                delta_threshold=s.delta_threshold,
                dims=s.dims,
            )
        return self._engines[name]

    def tick(
        self, max_segments: int | None = None, *, tolerate_locked: bool = False
    ) -> dict:
        """One pass over all tables: base tables tick, views refresh.
        Returns {name: TickResult | refresh-dict | None}. With
        ``tolerate_locked`` (the live-tail mode), a table whose writer lock
        is held by a maintenance op yields None for THIS round while the
        other tables still commit — their results must not be lost to one
        table's lock."""
        from .lock import WriterLockError

        out = {}
        for s in self.specs:
            try:
                if s.is_view:
                    out[s.name] = refresh_view(
                        s, self.table_dir(s.source), self.table_dir(s.name)
                    )
                else:
                    out[s.name] = self.engine(s.name).tick(max_segments)
            except WriterLockError:
                if not tolerate_locked:
                    raise
                out[s.name] = None
        return out

    def replay_all(
        self,
        *,
        segments_per_tick: int | None = None,
        deadline_minutes: float | None = None,
        on_event=(),
    ) -> list[dict]:
        """Drain every table's WAL. ``deadline_minutes`` aborts BETWEEN
        rounds — every table at a committed tick — with the same alert/
        exception contract as the single-table run."""
        import time as _time

        deadline_s = (
            deadline_minutes * 60.0 if deadline_minutes is not None else None
        )
        started = _time.monotonic()
        rounds = []
        while True:
            r = self.tick(segments_per_tick)
            if all(v is None for v in r.values()):
                break
            rounds.append(r)
            if deadline_s is not None:
                self._check_deadline(started, deadline_s, len(rounds), on_event)
        return rounds

    def _check_deadline(
        self, started: float, deadline_s: float, rounds_done: int, on_event=()
    ) -> None:
        """Raise between rounds once the lake run's budget is spent (same
        event payload shape as ``ReplayEngine._check_deadline`` so ops
        tooling sees ONE schema for the ``deadline_exceeded`` kind)."""
        import time as _time

        from .replay import DeadlineExceededError

        elapsed = _time.monotonic() - started
        if elapsed <= deadline_s:
            return
        from .alerts import emit_event

        emit_event(
            self.lake_dir,
            "deadline_exceeded",
            {
                "deadline_s": deadline_s,
                "elapsed_s": round(elapsed, 3),
                "ticks_completed": rounds_done,
            },
            (on_event,) if callable(on_event) else tuple(on_event),
        )
        raise DeadlineExceededError(
            f"lake budget {deadline_s:.0f}s exceeded after {elapsed:.1f}s "
            f"({rounds_done} rounds); every table is at a committed tick — "
            "rerun to resume"
        )

    def follow(
        self,
        *,
        poll_interval_s: float = 1.0,
        idle_timeout_s: float = 10.0,
        max_rounds: int | None = None,
        segments_per_tick: int | None = None,
        deadline_minutes: float | None = None,
        on_event=(),
    ) -> list[dict]:
        """Live-tail the whole lake: every poll reloads each base table's
        WAL manifest and ticks all tables (views refresh after their
        sources, in spec order — the multi-table form of the reference's
        per-app sensor-poll DAG schedule). Ends when NO table progresses
        within ``idle_timeout_s``, after ``max_rounds`` productive rounds,
        or — between rounds, with every table at a committed tick — when
        the ``deadline_minutes`` wall-clock budget runs out (alert event in
        the lake-level ops trail, same contract as the single-table run)."""
        import time as _time

        from ..wal import WalInfo

        deadline_s = (
            deadline_minutes * 60.0 if deadline_minutes is not None else None
        )
        rounds: list[dict] = []
        started = _time.monotonic()
        idle_since = started
        while True:
            for s in self.specs:
                if not s.is_view:
                    eng = self.engine(s.name)
                    eng.wal = WalInfo.load(eng.wal.wal_dir)  # new segments?
            # a locked table (maintenance op) yields None for the round
            # while the others commit — interleaving must not discard their
            # results or stall the tail (tolerate_locked)
            r = self.tick(segments_per_tick, tolerate_locked=True)
            if any(v is not None for v in r.values()):
                rounds.append(r)
                idle_since = _time.monotonic()
                if max_rounds is not None and len(rounds) >= max_rounds:
                    break
                if deadline_s is not None:
                    self._check_deadline(
                        started, deadline_s, len(rounds), on_event
                    )
            else:
                if _time.monotonic() - idle_since >= idle_timeout_s:
                    break
                _time.sleep(poll_interval_s)
        return rounds

    def read_view(self, name: str):
        s = self.spec(name)
        if not s.is_view:
            raise ValueError(f"{name!r} is not a view")
        if s.view == "session":
            return read_session_view(_sess_spec_of(s), self.table_dir(name))
        return read_agg_view(_agg_spec_of(s), self.table_dir(name))

    def erase(
        self,
        keys: list[tuple[str, str]],
        *,
        tables: list[str] | None = None,
        erase_map_fields: list[str] | None = None,
    ) -> dict:
        """GDPR erasure across the lake: erase ``keys`` from every base
        table (or the named subset), then refresh the views of the touched
        sources so no derived aggregate retains the subject. Per-table
        locking and history purge are the single-table ``erase_keys``
        semantics; a view of an untouched source is left alone."""
        from .maintenance import erase_keys

        targets = [
            s.name
            for s in self.specs
            if not s.is_view and (tables is None or s.name in tables)
        ]
        if tables is not None:
            unknown = set(tables) - set(targets)
            if unknown:
                raise ValueError(
                    f"not base tables of this lake: {sorted(unknown)}"
                )
        out = {}
        for name in targets:
            out[name] = erase_keys(
                self.table_dir(name), keys, erase_map_fields=erase_map_fields
            )
        for s in self.specs:
            if s.is_view and s.source in targets:
                out[s.name] = refresh_view(
                    s, self.table_dir(s.source), self.table_dir(s.name)
                )
        return out

    def status(self) -> dict:
        from .lineage import LakeLineage

        out = {}
        for s in self.specs:
            d = self.table_dir(s.name)
            if s.is_view:
                m = _view_manifest(d)
                out[s.name] = {
                    "view": s.view,
                    "source": s.source,
                    "upstream_tick": m.get("upstream_tick"),
                    "partial_files": len(
                        glob.glob(os.path.join(d, "partials", "b=*.parquet"))
                    ),
                }
            else:
                last = LakeLineage(d).last_tick() if os.path.isdir(d) else None
                out[s.name] = {
                    "tick": last["tick"] if last else None,
                    "through_seqno": last["through_seqno"] if last else None,
                    "live_rows": last["live_rows"] if last else 0,
                }
        return out


# ---------------------------------------------------------------------------
# Derived views: incrementally maintained two-level aggregates.
#
# ``view="aggregate"`` is the generic, config-driven form (GROUP BY columns +
# an aggregate field list) — the engine-side equivalent of the reference's
# semantic-layer materialized tables, which are likewise generated from a
# per-app metric config (``materialized_fields_config.py:22-66``,
# ``app_config.py:209-221``). ``view="repo_stats"`` is a preset of the same
# machinery. Partials are per-bucket, recomputed only for buckets whose
# manifest tick advanced; the read is a small reduce over partial rows.
# ---------------------------------------------------------------------------


def _agg_spec_of(spec: TableSpec) -> dict:
    if spec.view == "repo_stats":
        return REPO_STATS_AGG
    return {
        "group_by": list(spec.view_group_by),
        "aggs": [dict(a) for a in spec.view_aggs],
    }


def _agg_spec_hash(agg_spec: dict) -> str:
    import hashlib

    return hashlib.sha256(
        json.dumps(agg_spec, sort_keys=True).encode()
    ).hexdigest()[:16]


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


def _write_partial(out, keys: list[str], num_groups: int, out_path: str) -> int:
    """Write one bucket's partial as an indexed shuffle file: rows sorted
    (stably) by ``hash(keys) % num_groups``, one row group per group, and
    ``{"hash_groups": G, "index": {group: rg}}`` in the footer metadata.
    Atomic (tmp + rename). Returns the row count."""
    import numpy as np

    from .partitioning import hash_groups, write_bucket_rgs

    codes = hash_groups(out, keys, num_groups)
    order = np.argsort(codes, kind="stable")
    codes = codes[order]
    index = {int(g): rg for rg, g in enumerate(np.unique(codes))}
    meta = json.dumps({"hash_groups": num_groups, "index": index})
    out = out.take(order).replace_schema_metadata({_GROUPS_META: meta})
    write_bucket_rgs(out, codes, out_path)
    return out.num_rows


def _partial_files(view_dir: str) -> list[str]:
    return sorted(glob.glob(os.path.join(view_dir, "partials", "b=*.parquet")))


def _partial_items(files: list[str], num_groups: int | None) -> list[dict]:
    """The consumer items of a view read (``partitioning.spilled_items``):
    one per hash group present, from each partial's footer index. A
    non-empty partial written for another group count than ``_view.json``
    records (or before the indexed layout) raises — the view needs a
    refresh."""
    import pyarrow.parquet as pq

    from .partitioning import spilled_items

    desc = []
    for f in files:
        md = pq.read_metadata(f)
        if md.num_rows == 0:
            continue  # nothing to read, whatever its layout
        meta = json.loads((md.metadata or {}).get(_GROUPS_META, b"{}"))
        got = meta.get("hash_groups")  # None: written before the indexed layout
        if got is None or got != num_groups:
            raise ValueError(
                f"view partial {f} was written for {got} hash groups but "
                f"_view.json records {num_groups}; refresh the view"
            )
        desc += [
            {"bucket": int(g), "file": f, "rg": rg} for g, rg in meta["index"].items()
        ]
    return spilled_items(desc)


# --- first/last (argmin/argmax by order key) encoding ----------------------
# (order, value) packs into one binary cell: 8-byte order-preserving
# big-endian order key ++ 1-byte null marker ++ value bytes. Lexicographic
# min/max of the cell IS the argmin/argmax row, so the two-level reduce
# stays plain min/max (distributive). Ties on the order key break by value
# bytes (deterministic); a null order key encodes as null (ignored by
# min/max); a null VALUE at the winning order still wins, decoding to null.


def _sortable_u64(col):
    """Arrow numeric/temporal column → (uint64 codes whose unsigned order
    equals the value order, null mask). Strings are rejected: variable-width
    order prefixes would break lexicographic comparability of the packed
    cell."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    t = col.type
    nulls = pc.is_null(col).to_numpy(zero_copy_only=False)
    sign = np.uint64(1 << 63)
    if pa.types.is_date32(t):
        col = pc.cast(col, pa.int32())  # no direct date32→int64 cast kernel
        t = col.type
    elif pa.types.is_date64(t):
        col = pc.cast(col, pa.int64())
        t = col.type
    if (
        pa.types.is_integer(t)
        or pa.types.is_timestamp(t)
        or pa.types.is_boolean(t)
    ):
        v = pc.fill_null(pc.cast(col, pa.int64()), 0).to_numpy()
        codes = v.astype(np.int64).view(np.uint64) ^ sign
    elif pa.types.is_floating(t):
        v = pc.fill_null(pc.cast(col, pa.float64()), 0.0).to_numpy()
        bits = v.view(np.uint64)
        neg = bits >> np.uint64(63) != 0
        codes = np.where(neg, ~bits, bits ^ sign)
    else:
        raise ValueError(
            f"first/last cannot order/carry type {t} (need numeric/temporal; "
            "string rider values are fine, string ORDER keys are not)"
        )
    return codes, nulls


def _u64_to_binary(codes, nulls):
    """uint64 codes → Arrow binary array of 8-byte big-endian cells.
    (Via fixed_size_binary over the raw buffer — a numpy 'S8' view would
    silently strip trailing NUL bytes.)"""
    import pyarrow as pa
    import pyarrow.compute as pc

    be = codes.astype(">u8")
    fsb = pa.Array.from_buffers(
        pa.binary(8), len(be), [None, pa.py_buffer(be.tobytes())]
    )
    out = fsb.cast(pa.binary())
    if nulls.any():
        out = pc.if_else(
            pa.array(nulls), pa.scalar(None, pa.binary()), out
        )
    return out


def _enc_extreme(order_col, value_col) -> "pa.Array":
    """Pack (order, value) into the sortable binary cell (see above)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    order_bin = _u64_to_binary(*_sortable_u64(order_col))
    if isinstance(value_col, pa.ChunkedArray):
        value_col = value_col.combine_chunks()
    vt = value_col.type
    if pa.types.is_string(vt):
        value_bin = pc.cast(value_col, pa.binary())
    elif pa.types.is_binary(vt):
        value_bin = value_col
    else:
        value_bin = _u64_to_binary(*_sortable_u64(value_col))
    marker = pc.if_else(
        pc.is_null(value_bin),
        pa.scalar(b"\x00", pa.binary()),
        pa.scalar(b"\x01", pa.binary()),
    )
    return pc.binary_join_element_wise(
        order_bin,
        marker,
        pc.fill_null(value_bin, pa.scalar(b"", pa.binary())),
        pa.scalar(b"", pa.binary()),
    )


def _dec_extreme(bin_col, value_type) -> "pa.Array":
    """Packed winners → values of ``value_type``, column at a time: the
    marker byte becomes one null mask, and fixed-width payloads invert
    :func:`_sortable_u64` through a big-endian uint64 view."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    if isinstance(bin_col, pa.ChunkedArray):
        bin_col = bin_col.combine_chunks()
    marker = pc.binary_slice(bin_col, 8, 9)
    present = pc.fill_null(pc.equal(marker, pa.scalar(b"\x01", pa.binary())), False)
    if pa.types.is_string(value_type) or pa.types.is_binary(value_type):
        # an explicit stop: binary_slice's default one overflows in pyarrow 16
        stop = max(pc.max(pc.binary_length(bin_col)).as_py() or 0, 9)
        payload = pc.binary_slice(bin_col, 9, stop)
        return pc.if_else(present, payload.cast(value_type), pa.scalar(None, value_type))
    payload = pc.if_else(
        present, pc.binary_slice(bin_col, 9, 17), pa.scalar(bytes(8), pa.binary())
    ).cast(pa.binary(8))
    u = np.frombuffer(
        payload.buffers()[1], ">u8", len(payload), payload.offset * 8
    ).astype(np.uint64)
    sign = np.uint64(1 << 63)
    mask = ~present.to_numpy(zero_copy_only=False)
    if pa.types.is_floating(value_type):
        bits = np.where(u & sign != 0, u ^ sign, ~u)
        return pa.array(bits.view(np.float64), mask=mask).cast(value_type)
    # ints / timestamp / date / bool — stored as shifted int64
    out = pa.array((u ^ sign).view(np.int64), mask=mask)
    if pa.types.is_date32(value_type):
        out = out.cast(pa.int32())  # no direct int64→date32 cast kernel
    return out.cast(value_type)


def _extremal_fields(agg_spec: dict) -> list[dict]:
    return [a for a in agg_spec["aggs"] if a["fn"] in ("first", "last")]


def _enc_types_payload(agg_spec: dict, col_types: dict) -> str | None:
    """Value types of the extremal outputs, IPC-serialized (base64) for the
    view manifest — the read side needs the exact Arrow types to decode."""
    import pyarrow as pa

    from .apply import schema_b64

    ext = _extremal_fields(agg_spec)
    if not ext:
        return None
    return schema_b64(pa.schema([(a["out"], col_types[a["col"]]) for a in ext]))


def _enc_types_load(payload: str | None):
    from .apply import schema_from_b64

    if not payload:
        return {}
    return {f.name: f.type for f in schema_from_b64(payload)}


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


def _agg_partial_of_state(
    man: dict, agg_spec: dict, out_path: str, col_types: dict, num_groups: int
) -> int:
    """Recompute one bucket's partial of a derived aggregate view from its
    committed state (merge-on-read in delta mode), hash-grouped on the
    view key into ``num_groups`` (:func:`_write_partial`). Idempotent;
    atomic publish. ``col_types`` (column → Arrow type from the UNIFIED upstream
    schema) keeps partial schemas consistent across buckets: a column an
    old bucket predates (schema evolution) reads back as nulls with an
    arbitrary type, and a pre-widening bucket carries the narrow width —
    both cast to the unified type here so every bucket's partial file
    agrees, matching SQL over the full state."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from .apply import read_bucket_state

    group_by = agg_spec["group_by"]
    need = {c for a in agg_spec["aggs"] if (c := a.get("col"))}
    need |= {b for a in agg_spec["aggs"] if (b := a.get("by"))}
    t = read_bucket_state(man, columns=[*group_by, *sorted(need), "deleted"])
    for c, typ in col_types.items():
        i = t.schema.get_field_index(c)
        if i >= 0 and t.schema.field(i).type != typ:
            t = t.set_column(i, c, pc.cast(t[c], typ))
    live = t.filter(pc.invert(pc.coalesce(t["deleted"], pa.scalar(False))))
    for a in _extremal_fields(agg_spec):
        live = live.append_column(
            f"__enc_{a['out']}", _enc_extreme(live[a["by"]], live[a["col"]])
        )
    arrow_aggs, fields = _partial_plan(agg_spec)
    g = live.group_by(group_by).aggregate(arrow_aggs)
    cols = {k: g[k] for k in group_by}
    for partial_col, src_col, fn in fields:
        cols[partial_col] = g["count_all" if src_col is None else f"{src_col}_{fn}"]
    out = pa.table(cols).sort_by([(k, "ascending") for k in group_by])
    return _write_partial(out, group_by, num_groups, out_path)


# --- session views ----------------------------------------------------------
# Gap-based sessionization as a maintained view (the reference's sessions
# fact table, ``insert_sessions.sql:36-83``). Sessions are algebraically
# mergeable: each bucket's partial holds per-key session FRAGMENTS
# (session_start, session_end, n_events) of its own rows; the read-side
# reduce interval-merges fragments per key with the same gap rule. This is
# exact: adding rows can only shrink gaps, so union sessions never split
# inside a fragment, and two fragments belong to one session iff their
# coverage intervals come within ``gap`` of each other — which the classic
# sorted interval-merge (running max of session_end per key) computes.


def _sess_spec_of(spec: TableSpec) -> dict:
    out = {
        "key": list(spec.view_key),
        "ts": spec.view_ts,
        "gap_minutes": spec.gap_minutes,
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
    man: dict, sess_spec: dict, out_path: str, col_types: dict, num_groups: int
) -> int:
    """One bucket's session fragments from its committed state. Same
    idempotent/atomic/unified-types contract as ``_agg_partial_of_state``;
    rows with a null ts are skipped (they belong to no session — the SQL
    analog filters ``ts IS NOT NULL``)."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    from .apply import read_bucket_state

    key, ts = sess_spec["key"], sess_spec["ts"]
    rider_spec = _sess_rider_spec(sess_spec)
    rider_cols = list(
        dict.fromkeys(c for a in rider_spec["aggs"] if (c := a.get("col")))
    )
    t = read_bucket_state(man, columns=[*key, ts, *rider_cols, "deleted"])
    for c, typ in col_types.items():
        i = t.schema.get_field_index(c)
        if i >= 0 and t.schema.field(i).type != typ:
            t = t.set_column(i, c, pc.cast(t[c], typ))
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
        # per-fragment rider rollups through the aggregate-view machinery:
        # same partial plan, same packed (order, value) cells for first/last
        st = s.append_column(
            "__frag", pa.array((np.cumsum(new_frag) - 1).astype(np.int64))
        )
        for a in _extremal_fields(rider_spec):
            st = st.append_column(
                f"__enc_{a['out']}", _enc_extreme(st[a["by"]], st[a["col"]])
            )
        arrow_aggs, fields = _partial_plan(rider_spec)
        g = st.group_by("__frag").aggregate(arrow_aggs).sort_by("__frag")
        for partial_col, src_col, fn in fields:
            cols[partial_col] = g["count_all" if src_col is None else f"{src_col}_{fn}"]
    return _write_partial(pa.table(cols), key, num_groups, out_path)


def _refresh_partials(
    *,
    spec: dict,
    upstream_dir: str,
    view_dir: str,
    kind: str,
    need: list[str],
    optional: set[str],
    missing_msg,
    validate_types,
    manifest_extra,
    task_fn,
) -> dict | None:
    """Shared incremental-refresh driver for ALL partial-file views
    (aggregate, repo_stats preset, session). Work = every bucket whose
    manifest tick advanced since the last refresh (manifest tick is the
    bucket's last-rewrite tick, so an untouched bucket costs nothing), cut
    into ``partitioning.cpu_chunks``: one plain Ray task per contiguous
    chunk, not per bucket (the result's ``tasks``).
    A changed view DEFINITION (spec hash), upstream type drift (types
    hash — e.g. widening landed since the last refresh) or a changed hash
    group count G (the upstream bucket count, e.g. after a rebucket; a
    ``_view.json`` without one predates the indexed partials) forces a full
    partial recompute. Crash-safe: partials are pure functions of committed
    upstream state and ``_view.json`` publishes LAST, so a crashed refresh
    just redoes its touched buckets.

    The kind-specific pieces come in as callables: ``missing_msg(missing,
    upstream)`` words the required-column error, ``validate_types(col_types)``
    raises on unusable types, ``manifest_extra(col_types)`` contributes
    decode metadata to ``_view.json``, and ``task_fn(man, spec, out_path,
    col_types, num_groups)`` recomputes one bucket's partial. A ``need``
    column in ``optional`` may be absent upstream (schema evolution) and
    pins to an int64 placeholder — types_hash changes (full recompute) once
    it lands."""
    import ray

    from .lineage import LakeLineage
    from .lock import writer_lock
    from .partitioning import cpu_chunks

    up = LakeLineage(upstream_dir)
    last = up.last_tick()
    if last is None:
        return None
    spec_hash = _agg_spec_hash(spec)
    num_groups = last["num_buckets"]
    mf = _view_manifest(view_dir)
    applied = mf.get("upstream_tick", -1)
    if mf.get("spec_hash") not in (None, spec_hash):
        applied = -1  # definition changed: every bucket's partial is stale
    if mf.get("hash_groups") != num_groups:
        applied = -1  # every partial is grouped for another G (or unindexed)
    if last["tick"] <= applied:
        return None
    types_hash = mf.get("types_hash")  # re-checked once the schema is known

    with writer_lock(view_dir, "view-refresh"):
        pdir = os.path.join(view_dir, "partials")
        os.makedirs(pdir, exist_ok=True)
        manifests = up.all_bucket_manifests()
        live_buckets = {m["bucket"] for m in manifests}
        # orphans from an upstream rebucket to a smaller bucket count
        for f in glob.glob(os.path.join(pdir, "b=*.parquet")):
            b = int(os.path.basename(f)[2:-8])
            if b not in live_buckets:
                os.remove(f)
        # unified upstream schema, from the schema each bucket manifest
        # records (one JSON field per bucket, no file IO). Validates the
        # view's columns against the table and pins every bucket's partial
        # to ONE type per column despite evolution.
        from .apply import bucket_schemas
        from .schema_evo import unify_schemas

        upstream = unify_schemas(bucket_schemas(manifests))
        missing = [c for c in need if c not in upstream.names and c not in optional]
        if missing:
            raise ValueError(missing_msg(missing, upstream))
        import pyarrow as pa

        # an optional column absent (so far) pins to a placeholder type —
        # types_hash changes (full recompute) once it actually lands
        col_types = {
            c: (upstream.field(c).type if c in upstream.names else pa.int64())
            for c in need
        }
        validate_types(col_types)
        new_types_hash = _agg_spec_hash({c: str(t) for c, t in col_types.items()})
        if types_hash not in (None, new_types_hash):
            applied = -1
        touched = [m for m in manifests if m["tick"] > applied]
        chunks = cpu_chunks(touched)
        task = ray.remote(num_cpus=1)(_partials_chunk)
        rows = sum(
            ray.get(
                [
                    task.remote(task_fn, c, spec, pdir, col_types, num_groups)
                    for c in chunks
                ]
            )
        )
        _publish_view_manifest(
            view_dir,
            {
                "upstream_tick": last["tick"],
                "kind": kind,
                "spec_hash": spec_hash,
                "types_hash": new_types_hash,
                "hash_groups": num_groups,
                **manifest_extra(col_types),
            },
        )
    return {
        "upstream_tick": last["tick"],
        "buckets": len(touched),
        "tasks": len(chunks),
        "partial_rows": rows,
    }


def _partials_chunk(task_fn, mans, spec, pdir, col_types, num_groups) -> int:
    """One refresh task: ``task_fn`` over a contiguous chunk of touched
    bucket manifests; returns the partial rows written."""
    return sum(
        task_fn(m, spec, os.path.join(pdir, f"b={m['bucket']:05d}.parquet"),
                col_types, num_groups)
        for m in mans
    )


def refresh_session_view(
    sess_spec: dict, upstream_dir: str, view_dir: str
) -> dict | None:
    """Advance a session view to the upstream's committed tick — same
    incremental contract as ``refresh_agg_view`` (shared driver)."""
    ts = sess_spec["ts"]
    rider_spec = _sess_rider_spec(sess_spec)

    def validate(col_types):
        import pyarrow as pa

        _gap_in_ts_units(col_types[ts], sess_spec["gap_minutes"])
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

    return _refresh_partials(
        spec=sess_spec,
        upstream_dir=upstream_dir,
        view_dir=view_dir,
        kind="session",
        need=list(
            dict.fromkeys(
                [
                    *sess_spec["key"], ts,
                    *(c for a in rider_spec["aggs"] if (c := a.get("col"))),
                ]
            )
        ),
        optional=set(),
        missing_msg=lambda missing, upstream: (
            f"session-view columns {missing} not in the upstream table "
            f"(has: {', '.join(upstream.names)})"
        ),
        validate_types=validate,
        manifest_extra=lambda col_types: {
            "ts_unit": str(col_types[ts].unit),
            "ts_tz": col_types[ts].tz,
            "enc_types": _enc_types_payload(rider_spec, col_types),
        },
        task_fn=_session_partial_of_state,
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


def read_session_view(sess_spec: dict, view_dir: str):
    """The session view as a Ray Dataset: per-key interval merge of the
    per-bucket fragments, in one consumer pass over the hash-grouped
    partials (``partitioning.run_spilled``; a key's fragments all sit in
    one hash group). Each consumer merges ALL its keys in Arrow and numpy:
    one sort and one running max of session_end label every fragment with
    its session (:func:`_session_starts`, the rule that cut the fragments),
    then one Arrow ``group_by`` on that label reduces the session bounds and
    the riders (:func:`_reduce_riders`, shared with the aggregate view).
    Every block, empty or not, has the one schema of
    :func:`_session_schema`. Output grain: one row per (key, session) with
    session_start/end, n_events, riders, session_seq."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data

    from .partitioning import read_spilled, run_spilled

    key = sess_spec["key"]
    mf = _view_manifest(view_dir)
    files = _partial_files(view_dir)
    schema = _session_schema(
        sess_spec, mf, pq.read_schema(files[0]) if files else None
    )
    riders = _sess_rider_spec(sess_spec)["aggs"]
    enc_types = _enc_types_load(mf.get("enc_types"))
    items = _partial_items(files, mf.get("hash_groups"))
    if not items:
        # NB: Ray's to_pandas() yields zero COLUMNS for any empty dataset —
        # pandas consumers of a possibly-empty view must rebuild their frame
        # (schema() and write_parquet are fine)
        return ray.data.from_arrow(schema.empty_table())

    gap = _gap_in_ts_units(schema.field("session_start").type, sess_spec["gap_minutes"])
    bounds = [
        *((k, "first") for k in key),
        ("session_start", "min"),
        ("session_end", "max"),
        ("n_events", "sum"),
    ]

    def merge(t: pa.Table) -> pa.Table:
        s, new, key_new = _session_starts(t, key, "session_start", "session_end", gap)
        sid = np.cumsum(new) - 1
        # a session's ordinal within its key: its id minus the id the key opens with
        seq = (sid - sid[key_new][np.cumsum(key_new) - 1] + 1)[new]
        s = s.append_column("__sid", pa.array(sid))
        out = _reduce_riders(s, ["__sid"], riders, enc_types, bounds)
        out = out.append_column("session_seq", pa.array(seq))
        return out.select(schema.names).cast(schema)

    return run_spilled(items, lambda b: merge(read_spilled(b)))


def refresh_view(spec: TableSpec, upstream_dir: str, view_dir: str) -> dict | None:
    if spec.view not in VIEW_KINDS:
        raise ValueError(f"unknown view kind {spec.view!r}")
    if spec.view == "session":
        return refresh_session_view(_sess_spec_of(spec), upstream_dir, view_dir)
    return refresh_agg_view(
        _agg_spec_of(spec), upstream_dir, view_dir, kind=spec.view
    )


def refresh_repo_stats(upstream_dir: str, view_dir: str) -> dict | None:
    return refresh_agg_view(REPO_STATS_AGG, upstream_dir, view_dir, kind="repo_stats")


def _agg_validate_types(agg_spec: dict, col_types: dict) -> None:
    import pyarrow as pa

    def _packable(t, *, as_value: bool) -> bool:
        return (
            pa.types.is_integer(t)
            or pa.types.is_timestamp(t)
            or pa.types.is_date(t)
            or pa.types.is_floating(t)
            or pa.types.is_boolean(t)
            or (as_value and (pa.types.is_string(t) or pa.types.is_binary(t)))
        )

    for a in _extremal_fields(agg_spec):
        bt = col_types[a["by"]]
        if not _packable(bt, as_value=False):
            raise ValueError(
                f"first/last order key {a['by']!r} has unorderable "
                f"type {bt} (need numeric/temporal)"
            )
        vt = col_types[a["col"]]
        if not _packable(vt, as_value=True):
            raise ValueError(
                f"first/last value column {a['col']!r} has unpackable "
                f"type {vt} (need string/binary/numeric/temporal)"
            )


def refresh_agg_view(
    agg_spec: dict, upstream_dir: str, view_dir: str, *, kind: str = "aggregate"
) -> dict | None:
    """Advance the view to the upstream table's committed tick (shared
    driver — incremental/crash-safety contract in ``_refresh_partials``)."""
    need = list(
        dict.fromkeys(
            [
                *agg_spec["group_by"],
                *(c for a in agg_spec["aggs"] if (c := a.get("col"))),
                *(b for a in agg_spec["aggs"] if (b := a.get("by"))),
            ]
        )
    )

    return _refresh_partials(
        spec=agg_spec,
        upstream_dir=upstream_dir,
        view_dir=view_dir,
        kind=kind,
        need=need,
        optional={
            a["col"] for a in agg_spec["aggs"] if a.get("col") and a.get("optional")
        },
        missing_msg=lambda missing, upstream: (
            f"view columns {missing} not in the upstream table "
            f"(has: {', '.join(n for n in upstream.names)}; mark a "
            "column arriving later via schema evolution \"optional\")"
        ),
        validate_types=lambda col_types: _agg_validate_types(agg_spec, col_types),
        # exact Arrow value types of first/last outputs (decode side)
        manifest_extra=lambda col_types: {
            "enc_types": _enc_types_payload(agg_spec, col_types)
        },
        task_fn=_agg_partial_of_state,
    )


def read_repo_stats(view_dir: str):
    return read_agg_view(REPO_STATS_AGG, view_dir)


def read_agg_view(agg_spec: dict, view_dir: str):
    """The view as a Ray Dataset: final reduce over the hash-grouped
    partials (aggregate-grain rows only — the combiner half was done at
    refresh) in one consumer pass (``partitioning.run_spilled``; a group's
    rows all sit in one hash group): :func:`_reduce_riders` per consumer."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data

    from .partitioning import read_spilled, run_spilled

    group_by = agg_spec["group_by"]
    aggs = agg_spec["aggs"]
    mf = _view_manifest(view_dir)
    enc_types = _enc_types_load(mf.get("enc_types"))
    files = _partial_files(view_dir)
    if not files:
        # an unrefreshed view has no partials and no recorded types; surface
        # the declared shape (string keys, int64 metrics, float64 means,
        # manifest types — else string — for first/last)
        cols = {k: pa.array([], pa.string()) for k in group_by}
        for a in aggs:
            if a["fn"] in ("first", "last"):
                cols[a["out"]] = pa.array([], enc_types.get(a["out"], pa.string()))
            else:
                cols[a["out"]] = pa.array(
                    [], pa.float64() if a["fn"] == "mean" else pa.int64()
                )
        return ray.data.from_arrow(pa.table(cols))

    def reduce(t: pa.Table) -> pa.Table:
        return _reduce_riders(t, group_by, aggs, enc_types)

    items = _partial_items(files, mf.get("hash_groups"))
    if not items:  # every partial empty: the typed empty reduce
        return ray.data.from_arrow(reduce(pq.read_schema(files[0]).empty_table()))
    return run_spilled(items, lambda b: reduce(read_spilled(b)))
