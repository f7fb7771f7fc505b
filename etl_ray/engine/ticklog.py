"""Per-tick logs: the change feed, the agg log and the quarantine.

A log is one flat directory of immutable parquet parts named
``t{tick:06d}-{name}.parquet``, each written by one task of one tick::

    lake/_changelog/   the change data feed (changelog.py), keyed by tick
    lake/_agglog/      the narrow event log of the daily aggregates
                       (aggregates.py), keyed by UTC day
    lake/_quarantine/  malformed envelope rows with a ``reason`` column
                       (quality.split_valid), keyed by tick

A part holds one row group per index key, and its footer records the keys
in row-group order (``{"keys": [...]}``), so a part is published by one
rename and no sidecar index can tear from its file. A compacted part also
lists the parts it ``replaces``: for each of its keys, a reader drops that
key's row group from every part the list names. Every operation below is
crash-safe by that rule alone:

- :func:`write` publishes a part (``lineage.publish``);
- :func:`begin_tick` is the tick-redo gc (a crashed attempt's parts go, or
  are kept for a same-attempt feed redo, see there);
- :func:`parts` lists the row groups of the committed parts (named at or
  below the last committed tick) that no compacted part replaces;
- :func:`erase` rewrites each part holding a subject key in place;
- :func:`compact` merges parts into one row group per key, publishes the
  new parts, and only then deletes what they replace;
- :func:`drop_below` is the feed's retention and :func:`rows` a tick's
  row count.
"""

from __future__ import annotations

import json
import os
import uuid
from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from .lineage import LakeLineage, publish
from .partitioning import read_row_groups, run_tasks
from .schema_evo import align_to, unify_schemas

_INDEX = b"ticklog"


@dataclass(frozen=True)
class Log:
    dir: str
    options: dict  # parquet writer options of every part
    order: str | None = None  # column each key's rows are sorted by


FEED = Log("_changelog", {"compression": "zstd"})
QUARANTINE = Log("_quarantine", {"compression": "zstd"})
#: the agg log's rows are sorted by ``commit_ts``: it and the near-sorted
#: ``lsn`` are DELTA_BINARY_PACKED (~1-2 B a row), the rest dictionary-encoded
AGGLOG = Log(
    "_agglog",
    {
        "compression": "snappy",
        "use_dictionary": ["lang", "repo", "path", "op", "nbytes"],
        "column_encoding": dict.fromkeys(["commit_ts", "lsn"], "DELTA_BINARY_PACKED"),
    },
    order="commit_ts",
)
LOGS = (FEED, AGGLOG, QUARANTINE)


def _dir(lake_dir: str, log: Log) -> str:
    return os.path.join(lake_dir, log.dir)


def exists(lake_dir: str, log: Log) -> bool:
    """Whether the lake has ever kept this log."""
    return os.path.isdir(_dir(lake_dir, log))


def _tick_of(name: str) -> int:
    return int(name[1 : name.index("-")])


def _names(lake_dir: str, log: Log) -> list[str]:
    d = _dir(lake_dir, log)
    return sorted(os.listdir(d)) if os.path.isdir(d) else []


def _meta(path: str) -> dict:
    return json.loads(pq.read_metadata(path).metadata[_INDEX])


def _write_part(
    path: str, groups: list[tuple], meta: dict, log: Log, schema: pa.Schema | None = None
) -> None:
    """One row group per ``(key, table)`` of ``groups`` (all of ``schema``,
    by default the first table's), the keys in the footer; published by one
    rename."""
    meta = {**meta, "keys": [k for k, _ in groups]}
    schema = (schema or groups[0][1].schema).with_metadata({_INDEX: json.dumps(meta)})
    os.makedirs(os.path.dirname(path), exist_ok=True)
    # readers pick row groups by key, never by value: no statistics (they
    # cost more footer bytes than the key index adds)
    def write(tmp: str) -> None:
        with pq.ParquetWriter(tmp, schema, write_statistics=False, **log.options) as w:
            for _, t in groups:
                # a key's rows are ONE row group however large: pyarrow splits
                # at ~1M rows by default, which would strand the tail unindexed
                w.write_table(t, row_group_size=max(t.num_rows, 1))

    publish(path, write, point="log.part")


def write(lake_dir: str, log: Log, tick: int, name: str, rows: pa.Table, keys) -> int:
    """Publish ``rows`` as part ``name`` of ``tick``; ``keys`` holds each
    row's index key, and rows of one key are adjacent. No rows, no part.
    Returns the rows written."""
    if rows.num_rows == 0:
        return 0
    runs = pc.run_end_encode(pa.chunked_array([keys]).combine_chunks())
    ends = runs.run_ends.to_numpy().tolist()
    vals = runs.values.to_pylist()
    if len(set(vals)) < len(vals):
        raise ValueError(f"{log.dir} part {name}: rows are not grouped by key")
    groups = [
        (k, rows.slice(s, e - s)) for k, s, e in zip(vals, [0, *ends[:-1]], ends)
    ]
    _write_part(
        os.path.join(_dir(lake_dir, log), f"t{tick:06d}-{name}.parquet"), groups, {}, log
    )
    return rows.num_rows


def begin_tick(lake_dir: str, log: Log, tick: int, attempt: dict | None = None) -> None:
    """The tick-redo gc, run before ``tick`` writes: torn ``.tmp`` writes
    and the attempt markers of committed ticks go, and so do ``tick``'s
    parts from a crashed attempt — unless ``attempt`` (the feed's segment
    set and bucket count) equals the one the crashed attempt recorded.

    The feed needs that exception: a crash between bucket-manifest
    publications leaves some buckets' feed rows only in the crashed
    attempt's parts, which are correct (each is computed against the
    pre-tick committed state before any manifest publishes), while the
    redo sees their state already advanced and computes empty deltas. A
    changed ``segments_per_tick`` regroups segments under the same tick id,
    so a different attempt wipes; ``attempt=None`` (the agg log, the
    quarantine, a disabled feed) always wipes."""
    d = _dir(lake_dir, log)
    prefix = f"t{tick:06d}-"
    marker = prefix + "attempt.parquet"
    names = _names(lake_dir, log)
    keep = (
        attempt is not None
        and marker in names
        and _meta(os.path.join(d, marker)).get("attempt") == attempt
    )
    for n in names:
        stale_marker = n.endswith("-attempt.parquet") and _tick_of(n) < tick
        if n.endswith(".tmp") or stale_marker or n.startswith(prefix) and not keep:
            os.remove(os.path.join(d, n))
    if attempt is not None and not keep:
        # a part with no key: no reader ever sees a row group of it
        _write_part(
            os.path.join(d, marker), [], {"attempt": attempt}, log,
            pa.schema([("attempt", pa.string())]),
        )


def _listing(lake_dir: str, log: Log, through_tick: int) -> list[tuple[str, dict]]:
    """``(name, footer index)`` of every part named at or below ``through_tick``."""
    d = _dir(lake_dir, log)
    return [
        (n, _meta(os.path.join(d, n)))
        for n in _names(lake_dir, log)
        if n.endswith(".parquet") and _tick_of(n) <= through_tick
    ]


def _visible(listing: list[tuple[str, dict]]) -> dict[str, list[tuple[int, object]]]:
    """Each part's ``(row group, key)`` pairs that no listed compacted part
    replaces."""
    shadow: dict[str, set] = {}
    for _, meta in listing:
        for r in meta.get("replaces", ()):
            shadow.setdefault(r, set()).update(meta["keys"])
    return {
        n: [(rg, k) for rg, k in enumerate(meta["keys"]) if k not in shadow.get(n, ())]
        for n, meta in listing
    }


def _last_tick(lake_dir: str) -> int:
    """The last committed tick (-1: none, so no part is committed)."""
    last = LakeLineage(lake_dir).last_tick()
    return -1 if last is None else last["tick"]


def parts(
    lake_dir: str, log: Log, keys=None, through_tick: int | None = None
) -> list[dict]:
    """The log's readable row groups as ``{"file", "rgs", "keys"}`` parts
    (``keys[i]`` is the key of ``rgs[i]``), restricted to ``keys`` (any
    container; None: all). Parts named above ``through_tick`` (default: the
    last committed tick) belong to an uncommitted attempt and are skipped."""
    if through_tick is None:
        through_tick = _last_tick(lake_dir)
    listing = _listing(lake_dir, log, through_tick)
    vis = _visible(listing)
    out = []
    for n, _ in listing:
        sel = [(rg, k) for rg, k in vis[n] if keys is None or k in keys]
        if sel:
            out.append(
                {
                    "file": os.path.join(_dir(lake_dir, log), n),
                    "rgs": [rg for rg, _ in sel],
                    "keys": [k for _, k in sel],
                }
            )
    return out


def rows(lake_dir: str, log: Log, tick: int) -> int:
    """Rows the parts of ``tick`` hold (footer metadata only)."""
    d, prefix = _dir(lake_dir, log), f"t{tick:06d}-"
    return sum(
        pq.read_metadata(os.path.join(d, n)).num_rows
        for n in _names(lake_dir, log)
        if n.startswith(prefix) and n.endswith(".parquet")
    )


def drop_below(lake_dir: str, log: Log, tick: int) -> int:
    """Retention of a tick-keyed log: remove every part whose keys all sit
    below ``tick`` (a compacted part goes once its whole range does).
    Returns the parts removed."""
    d = _dir(lake_dir, log)
    removed = 0
    for n in _names(lake_dir, log):
        if not n.endswith(".parquet"):
            continue
        if max(_meta(os.path.join(d, n))["keys"], default=_tick_of(n)) < tick:
            os.remove(os.path.join(d, n))
            removed += 1
    return removed


# -- key erasure ----------------------------------------------------------------


def key_mask(t: pa.Table, keys: list[tuple[str, str]]) -> pa.Array:
    """Rows of ``t`` whose (repo, path) is one of ``keys`` (null: no)."""
    pairs = pa.array([f"{r}\x1f{p}" for r, p in keys], pa.string())
    joined = pc.binary_join_element_wise(t["repo"], t["path"], "\x1f")
    return pc.fill_null(pc.is_in(joined, value_set=pairs), False)


def erase(lake_dir: str, log: Log, keys: list[tuple[str, str]], before=None) -> int:
    """Remove the rows of the (repo, path) ``keys`` from every part on disk.
    Each part that holds one is rewritten row group by row group (an
    emptied key leaves the index, an emptied part goes) and published in
    place by one rename, so the index stays exact at every crash point;
    a re-run finishes an interrupted erasure. ``before`` (if given) first
    gets the subject rows of every hit part — the agg log recomputes its
    days from them before any rewrite. Returns the rows removed."""
    d = _dir(lake_dir, log)
    files = [os.path.join(d, n) for n in _names(lake_dir, log) if n.endswith(".parquet")]
    if before is not None:
        found = run_tasks(_subject_rows, files, keys)
        before([t for t in found if t is not None])
        files = [f for f, t in zip(files, found) if t is not None]
    return sum(run_tasks(_erase_parts, files, keys, log))


def _subject_rows(files: list[str], keys) -> list:
    """Erasure scan task: each part's rows of ``keys``, or None."""
    out = []
    for f in files:
        t = pq.read_table(f).replace_schema_metadata(None)
        hit = t.filter(key_mask(t, keys))
        out.append(hit if hit.num_rows else None)
    return out


def _erase_parts(files: list[str], keys, log: Log) -> list[int]:
    """Erasure rewrite task: rows removed from each part."""
    out = []
    for f in files:
        pf = pq.ParquetFile(f)
        meta = json.loads(pf.metadata.metadata[_INDEX])
        kept, removed = [], 0
        for rg, k in enumerate(meta["keys"]):
            t = pf.read_row_group(rg)
            hit = key_mask(t, keys)
            n = pc.sum(hit).as_py() or 0
            if n:
                t = t.filter(pc.invert(hit))
                removed += n
            if t.num_rows:
                kept.append((k, t))
        pf.close()
        if removed and kept:
            _write_part(f, kept, meta, log)
        elif removed:
            os.remove(f)
        out.append(removed)
    return out


# -- compaction -----------------------------------------------------------------


def compact(lake_dir: str, log: Log) -> dict:
    """Merge every uncompacted committed part, and every compacted part that
    shares a key with one, into ``cpu_chunks`` parts with one row group per
    key (rows with the same (repo, path, lsn) within a key dropped: replayed
    duplicates in the agg log). The new parts are named under the last
    committed tick, so no tick redo wipes them, and list every merged part
    as replaced; the merged parts are deleted only after all new parts are
    published. Parts that nothing reads any more (left by a crash in that
    deletion, or committed ticks' attempt markers) are deleted first.
    Offline admin op under the writer lock; a re-run finishes an
    interrupted compaction, and reads are unchanged at every crash point."""
    from .lock import writer_lock

    with writer_lock(lake_dir, f"compact{log.dir}"):
        tick = _last_tick(lake_dir)
        d = _dir(lake_dir, log)
        listing = _listing(lake_dir, log, tick)
        vis = _visible(listing)
        compacted = {n for n, meta in listing if "replaces" in meta}
        # a part another part shadows is deleted before the one shadowing it
        by_rank = sorted(listing, key=lambda nm: nm[0] in compacted)
        dead = [n for n, _ in by_rank if not vis[n]]
        for n in dead:
            os.remove(os.path.join(d, n))
        new = {k for n, _ in listing if n not in compacted for _, k in vis[n]}
        merged = [
            n for n, _ in by_rank
            if vis[n] and (n not in compacted or any(k in new for _, k in vis[n]))
        ]
        src: dict = {}
        for n in merged:
            for rg, k in vis[n]:
                src.setdefault(k, []).append((os.path.join(d, n), rg))
        items = [{"key": k, "src": src[k]} for k in sorted(src)]
        meta = {"replaces": sorted(merged)}
        written = run_tasks(
            _compact_keys, items, lake_dir, log, tick, uuid.uuid4().hex[:8], meta
        )
        for n in merged:
            os.remove(os.path.join(d, n))
        return {
            "keys": len(items),
            "rows": sum(written),
            "parts_merged": len(merged),
            "parts_removed": len(merged) + len(dead),
        }


def _dedup(t: pa.Table) -> pa.Table:
    """First row of each (repo, path, lsn) in ``t``."""
    ids = pa.table(
        {"r": t["repo"], "p": t["path"], "l": t["lsn"], "i": np.arange(t.num_rows)}
    )
    first = ids.group_by(["r", "p", "l"], use_threads=False).aggregate([("i", "min")])
    if first.num_rows == t.num_rows:
        return t
    return t.take(np.sort(first["i_min"].to_numpy()))


def _compact_keys(
    items: list[dict], lake_dir: str, log: Log, tick: int, token: str, meta: dict
) -> list[int]:
    """Compaction task: one part of the chunk's keys, one row group each,
    aligned to the chunk's unified schema; returns rows written per key."""
    cache: dict = {}
    groups = []
    for it in items:
        t = read_row_groups(cache, [f for f, _ in it["src"]], [rg for _, rg in it["src"]])
        t = _dedup(t)
        if log.order:
            t = t.sort_by(log.order)
        groups.append((it["key"], t))
    uni = unify_schemas([t.schema for _, t in groups])
    groups = [(k, align_to(t, uni).select(uni.names)) for k, t in groups]
    name = f"t{tick:06d}-c{token}-{items[0]['key']}.parquet"
    _write_part(os.path.join(_dir(lake_dir, log), name), groups, meta, log)
    return [t.num_rows for _, t in groups]
