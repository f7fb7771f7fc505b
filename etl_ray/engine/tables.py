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

Derived VIEW tables (``view`` + ``source``) live in :mod:`.views`: one
record per view kind in ``views.refresh.VIEW_KINDS`` checks, refreshes and
reads them.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

from .lineage import LakeLineage, json_writer, publish
from .views.core import _partial_files, _view_manifest
from .views.refresh import REFRESH_PROFILE, VIEW_KINDS, refresh_views, view_job

#: table names become directories under lake/tables/ — one pattern shared
#: by config validation and every CLI surface that builds such a path
TABLE_NAME_RE = r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}"

#: the view fields of a TableSpec, with their config keys: a table takes
#: only those its kind's record lists (a base table none of them)
VIEW_FIELDS = {
    "source": "source", "view_group_by": "group_by", "view_aggs": "aggs",
    "view_key": "key", "view_ts": "ts", "gap_minutes": "gap_minutes",
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
    # aggregate views: GROUP BY columns and the aggregate field list —
    # [{"out": name, "fn": sum|count|min|max|mean|first|last, "col": src,
    #   "by": order col (first/last), "default": v}] ("col" optional for
    # count = COUNT(*); "default" fills an all-null group). Session views
    # take the same list as per-session riders (views.core.check_fields)
    view_group_by: list[str] = field(default_factory=list)
    view_aggs: list = field(default_factory=list)
    # named broadcast enrichment dims (enrich.DimSpec config dicts):
    # [{"name": ..., "path": ..., "key": ..., "as_of": ...?}] — versioned +
    # re-broadcast on change, as-of pick when the dim file is date-versioned
    dims: list = field(default_factory=list)
    # session views: gap-based sessionization of the upstream state (the
    # reference's sessions fact table, ``insert_sessions.sql:36-83``, as a
    # continuously maintained view): one output row per (key, session),
    # where a session is a maximal run of ``ts`` values per key with
    # consecutive gaps <= gap_minutes (None: 30)
    view_key: list[str] = field(default_factory=list)
    view_ts: str | None = None
    gap_minutes: float | None = None

    @property
    def is_view(self) -> bool:
        return self.view is not None

    def validate(self) -> None:
        # table name becomes a directory under lake/tables/ — it must not
        # escape it ('..', '.', separators) or collide with lake metadata
        import re

        if not re.fullmatch(TABLE_NAME_RE, self.name or ""):
            raise ValueError(f"bad table name {self.name!r}")
        takes = ()
        if self.is_view:
            kind = VIEW_KINDS.get(self.view)
            if kind is None:
                raise ValueError(
                    f"table {self.name!r}: unknown view kind {self.view!r} "
                    f"(have: {', '.join(VIEW_KINDS)})"
                )
            if not self.source:
                raise ValueError(f"view table {self.name!r} needs a source table")
            if self.wal_dir:
                raise ValueError(f"view table {self.name!r} cannot also have a WAL")
            takes = ("source", *kind.fields)
        elif not self.wal_dir:
            raise ValueError(f"base table {self.name!r} needs wal_dir")
        stray = [
            key
            for f, key in VIEW_FIELDS.items()
            if f not in takes and getattr(self, f) not in (None, [])
        ]
        if stray:
            what = f"{self.view} view" if self.is_view else "base table"
            raise ValueError(f"{what} {self.name!r} does not take {', '.join(stray)}")
        if self.is_view:
            kind.check(self)
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


#: the config keys only a base table takes; their TableSpec fields have
#: non-None defaults, so a view entry carrying one is caught here, where
#: set and unset still differ
_BASE_KEYS = (
    "wal", "buckets", "concurrency", "tz_offset_minutes", "aggregate", "folds",
    "pseudonym_fields", "changelog", "retain_ticks", "state_mode",
    "delta_threshold",
)


def spec_from_config(entry: dict) -> TableSpec:
    """One config-file entry → TableSpec. Accepted keys mirror the replay
    CLI flags; ``"folds": true`` resolves to the default fold set. Unknown
    keys, and base-table keys on a view, are rejected — a typo'd or
    misplaced key must not silently build a different lake than
    configured."""
    unknown = set(entry) - _CONFIG_KEYS
    if unknown:
        raise ValueError(
            f"unknown table-config keys {sorted(unknown)} "
            f"(accepted: {', '.join(sorted(_CONFIG_KEYS))})"
        )
    base = [k for k in _BASE_KEYS if k in entry]
    if entry.get("view") is not None and base:
        raise ValueError(
            f"{entry['view']} view {entry.get('name')!r} does not take "
            f"{', '.join(base)}"
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
        gap_minutes=(
            float(entry["gap_minutes"]) if "gap_minutes" in entry else None
        ),
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
        publish(
            os.path.join(lake_dir, "_tables.json"), json_writer(reg, indent=1),
            point="tables.registry",
        )

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
        """One pass over all tables: each base table ticks, then ONE
        refresh pass advances every view of that source
        (:func:`refresh_views`: each touched bucket's state, as the tick's
        stage 2 handed it over or else read once, serves all its views;
        each view publishes its own ``_view.json``). Returns
        {name: TickResult | refresh-dict | None} in spec order. With
        ``tolerate_locked`` (the live-tail mode), a table whose writer lock
        is held by a maintenance op yields None for THIS round while the
        other tables still commit — their results must not be lost to one
        table's lock."""
        from .lock import WriterLockError

        out = {}
        for s in self.specs:
            if s.is_view:
                continue
            handed = None
            try:
                r = self.engine(s.name).tick(
                    max_segments, view_columns=self.view_columns(s.name)
                )
            except WriterLockError:
                if not tolerate_locked:
                    raise
                r = None
            if r is not None:
                # the merged states serve this pass only: no result keeps them
                handed, r.view_states = r.view_states, None
            out[s.name] = r
            out.update(
                self._refresh_views_of(s.name, tolerate_locked=tolerate_locked, handed=handed)
            )
        return {s.name: out[s.name] for s in self.specs}

    def view_columns(self, source: str) -> list[str] | None:
        """The columns ``source``'s views read (None if it has none): a tick
        of ``source`` hands its merged buckets over projected to them."""
        views = [view_job(v, "") for v in self.specs if v.is_view and v.source == source]
        cols = [c for k, spec, _ in views for c in VIEW_KINDS[k].need(spec)]
        return list(dict.fromkeys(cols)) if views else None

    def _refresh_views_of(
        self, source: str, *, tolerate_locked: bool = False, handed: dict | None = None
    ) -> dict:
        """{view name: refresh result} of one pass over ``source``'s views,
        built from ``handed`` (the ``view_states`` of the tick just
        committed) where they are still the committed states."""
        views = [s for s in self.specs if s.is_view and s.source == source]
        res = refresh_views(
            self.table_dir(source),
            [view_job(s, self.table_dir(s.name)) for s in views],
            tolerate_locked=tolerate_locked,
            handed=handed,
        )
        return {s.name: r for s, r in zip(views, res)}

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

        from .replay import check_deadline

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
            check_deadline(
                self.lake_dir, started, deadline_s, len(rounds), on_event, "lake"
            )
        return rounds

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
        from .replay import check_deadline

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
                check_deadline(
                    self.lake_dir, started, deadline_s, len(rounds), on_event, "lake"
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
        kind = VIEW_KINDS[s.view]
        return kind.read(kind.spec_of(s), self.table_dir(name))

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
        for name in targets:
            out.update(self._refresh_views_of(name))
        return out

    def status(self) -> dict:
        out = {}
        for s in self.specs:
            d = self.table_dir(s.name)
            if s.is_view:
                m = _view_manifest(d)
                out[s.name] = {
                    "view": s.view,
                    "source": s.source,
                    "upstream_tick": m.get("upstream_tick"),
                    "partial_files": len(_partial_files(d)),
                    # the refresh pass that published the view
                    **{k: m.get(k) for k in REFRESH_PROFILE},
                }
            else:
                last = LakeLineage(d).last_tick() if os.path.isdir(d) else None
                out[s.name] = {
                    "tick": last["tick"] if last else None,
                    "through_seqno": last["through_seqno"] if last else None,
                    "live_rows": last["live_rows"] if last else 0,
                }
        return out



def refresh_view(spec: TableSpec, upstream_dir: str, view_dir: str) -> dict | None:
    """One view table's refresh: a one-view :func:`refresh_views` pass."""
    return refresh_views(upstream_dir, [view_job(spec, view_dir)])[0]
