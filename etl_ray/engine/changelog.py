"""Change data feed (CDC-out): per-tick insert/update/delete deltas of the
lake state, written beside it so downstream consumers can maintain views
incrementally instead of re-reading full snapshots.

Reference analog: the reference's consumers re-derive downstream tables from
the full ``user_history`` state each day (``insert_user_history_derivates.sql``);
the moral equivalent for a streaming lake is a Debezium/Delta-change-data-feed
style after-image stream. Each applier emits, per (bucket, tick), exactly the
state rows whose winning LSN changed this tick, tagged with a ``change_op``:

- ``insert``  — key was absent (or tombstoned) in the previous committed state
- ``update``  — key existed live and its winning row changed
- ``delete``  — the new winning row is a tombstone (payload already null)
- ``erase``   — GDPR erasure (key-only row; see :func:`append_erase_records`)

The feed is a per-tick log of :mod:`ticklog`, keyed by tick: one part per
(tick, bucket) of after-image rows + ``change_op`` + ``tick``, and one of
erasure records per maintenance tick.

Exactly-once: parts are published by the applier BEFORE the tick commit; a
crashed attempt's parts are wiped on tick redo (or kept, for a same-attempt
redo — ``ticklog.begin_tick``) and the re-run recomputes identical rows
(the delta is a pure function of the previous COMMITTED state and the
tick's deltas). Readers only see parts of committed ticks —
:func:`committed_changelog_parts` reads through the last committed tick.

GDPR: an erasure purges the subject's rows from ALL retained feed history
(``ticklog.erase``) and appends key-only ``erase`` records so
consumers that already ingested the subject can delete downstream — matching
the reference's delete-request propagation (``gdpr_delete_request.sql``).
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from . import ticklog
from .dedup import KEYS

CHANGE_OP_COL = "change_op"
TICK_COL = "tick"
_IDX = "__rowi"


def changelog_delta(prev: pa.Table | None, merged: pa.Table) -> pa.Table:
    """Rows of ``merged`` whose (repo, path) winning LSN differs from the
    previous committed state (new keys included), with a ``change_op``
    column. Pure function of its inputs → crash-redo deterministic.

    Runs on a NARROW (keys, lsn, deleted) projection — payload columns never
    enter the join (same rationale as ``dedup.last_writer``)."""
    n = merged.num_rows
    out_type = pa.string()
    if n == 0:
        return merged.append_column(CHANGE_OP_COL, pa.array([], out_type))
    lsn = merged["lsn"].to_numpy(zero_copy_only=False)
    deleted = merged["deleted"].to_numpy(zero_copy_only=False).astype(bool)
    if prev is None or prev.num_rows == 0:
        prev_lsn = np.full(n, -1, np.int64)
        prev_live = np.zeros(n, bool)
    else:
        narrow = merged.select(KEYS).append_column(
            _IDX, pa.array(np.arange(n, dtype=np.int64))
        )
        pk = prev.select(KEYS + ["lsn", "deleted"]).rename_columns(
            KEYS + ["__plsn", "__pdel"]
        )
        j = narrow.join(pk, keys=KEYS, join_type="left outer")
        j = j.sort_by(_IDX)  # Acero join output order is not deterministic
        prev_lsn = (
            pc.fill_null(j["__plsn"], -1).to_numpy(zero_copy_only=False)
        ).astype(np.int64)
        prev_live = (
            pc.fill_null(pc.invert(j["__pdel"]), False)
            .to_numpy(zero_copy_only=False)
            .astype(bool)
        )
    changed = lsn != prev_lsn
    if not changed.any():
        return merged.slice(0, 0).append_column(
            CHANGE_OP_COL, pa.array([], out_type)
        )
    idx = np.flatnonzero(changed)
    op = np.where(
        deleted[idx], "delete", np.where(prev_live[idx], "update", "insert")
    )
    return merged.take(pa.array(idx)).append_column(
        CHANGE_OP_COL, pa.array(op.tolist(), out_type)
    )


def write_changelog_part(
    lake_dir: str, tick: int, bucket: int, chg: pa.Table
) -> int:
    """Publish one bucket's feed part for the tick. Empty deltas write
    nothing (no empty-file litter). Returns rows written."""
    out = chg.append_column(
        TICK_COL, pa.array(np.full(chg.num_rows, tick, np.int32))
    )
    return ticklog.write(
        lake_dir, ticklog.FEED, tick, f"b{bucket:05d}", out, out[TICK_COL]
    )


def append_erase_records(
    lake_dir: str,
    tick: int,
    keys: list[tuple[str, str]],
    erase_lsn: int,
    schema: pa.Schema,
) -> None:
    """Key-only ``erase`` records for a GDPR maintenance tick (payload
    columns null — the feed must not republish the subject's data)."""
    n = len(keys)
    cols: dict[str, pa.Array] = {}
    for f in schema:
        if f.name == "repo":
            cols[f.name] = pa.array([k[0] for k in keys], pa.string())
        elif f.name == "path":
            cols[f.name] = pa.array([k[1] for k in keys], pa.string())
        elif f.name == "lsn":
            cols[f.name] = pa.array([erase_lsn] * n, pa.int64())
        elif f.name == "deleted":
            cols[f.name] = pa.array([True] * n, pa.bool_())
        else:
            cols[f.name] = pa.nulls(n, f.type)
    t = pa.table(cols).append_column(CHANGE_OP_COL, pa.array(["erase"] * n))
    t = t.append_column(TICK_COL, pa.array(np.full(n, tick, np.int32)))
    ticklog.write(lake_dir, ticklog.FEED, tick, "erase", t, t[TICK_COL])


def committed_changelog_parts(
    lake_dir: str, from_tick: int | None = None, to_tick: int | None = None
) -> list[dict]:
    """The feed's row groups of the committed ticks in ``[from_tick,
    to_tick]`` as ``ticklog.parts`` descriptors."""
    from .lineage import LakeLineage

    last = LakeLineage(lake_dir).last_tick()
    if last is None:
        return []
    hi = last["tick"] if to_tick is None else min(to_tick, last["tick"])
    ticks = range(from_tick or 0, hi + 1)
    return ticklog.parts(lake_dir, ticklog.FEED, ticks, last["tick"])


def read_changelog(
    lake_dir: str, from_tick: int | None = None, to_tick: int | None = None
):
    """The feed as a streaming ``ray.data.Dataset`` (ordered within a key by
    (tick, lsn) — consumers fold with last-writer-wins per key, exactly like
    the engine itself), pruned to the tick range at row-group grain."""
    from .source import parts_dataset

    return parts_dataset(committed_changelog_parts(lake_dir, from_tick, to_tick))


def feed_covers_from_start(lake_dir: str) -> bool:
    """True iff no retention gap: every committed tick that recorded feed
    rows still has them in the feed. Only then does a full fold see every
    insert/update/delete since the lake began."""
    from .lineage import LakeLineage

    ticks = LakeLineage(lake_dir).all_ticks()
    need = {t["tick"] for t in ticks if t.get("changelog_rows", 0) > 0}
    have = {k for p in ticklog.parts(lake_dir, ticklog.FEED) for k in p["keys"]}
    return need <= have


def fold_feed(
    lake_dir: str,
    from_tick: int | None = None,
    to_tick: int | None = None,
    *,
    num_partitions: int = 16,
    keep_deletes: bool | None = None,
):
    """Fold the feed back into a live-state Dataset — the reference consumer
    implementation (downstream materialization from the change stream).

    Correctness: per key the applied LSN is monotone across ticks (LWW only
    advances), so last-writer-wins on ``lsn`` alone reproduces the state the
    feed describes; keys whose winning record is a delete/erase drop out.
    Shape: per-batch LWW combiner (a hot key sends ≤1 row per input batch)
    → spill on ``hash(key) % num_partitions`` (the engine's one shuffle)
    → per-consumer LWW + filter. The result comes back materialized, and
    the spill directory is removed before return.

    ``keep_deletes``: dropping tombstones is only sound when the fold sees
    the COMPLETE history — otherwise a consumer merging the result onto an
    older snapshot keeps deleted keys alive forever. Default: tombstones
    (with ``change_op``) are kept unless the fold genuinely starts at the
    lake's beginning (``from_tick`` unset or ≤ the earliest committed tick)
    AND no feed tick was dropped by retention
    (:func:`feed_covers_from_start`)."""
    import shutil
    import uuid

    import pyarrow.compute as pc
    import ray.data

    from .dedup import last_writer
    from .partitioning import (
        hash_groups, read_spilled, run_spilled, spill, spilled_items,
    )
    from .source import parts_dataset

    parts = committed_changelog_parts(lake_dir, from_tick, to_tick)
    if not parts:
        return ray.data.from_items([])

    if keep_deletes is None:
        from .lineage import LakeLineage

        ticks = LakeLineage(lake_dir).all_ticks()
        earliest = min((t["tick"] for t in ticks), default=0)
        effective_full = from_tick is None or from_tick <= earliest
        keep_deletes = not (effective_full and feed_covers_from_start(lake_dir))

    def finish(t):
        t = last_writer(t, keys=KEYS)
        if keep_deletes:
            # ranged fold = an incremental MERGE table: the per-key latest
            # record including tombstones, change_op retained
            return t.drop_columns([TICK_COL])
        keep = pc.invert(
            pc.is_in(t[CHANGE_OP_COL], value_set=pa.array(["delete", "erase"]))
        )
        # survivors are live by construction — drop the tombstone flag too,
        # matching the shape of the engine's own final_state export
        return t.filter(keep).drop_columns([CHANGE_OP_COL, TICK_COL, "deleted"])

    # own top-level dir, not _shuffle/: a fold reads without the writer
    # lock, and a concurrent replay tick wipes _shuffle/ when it ends
    spill_dir = os.path.join(lake_dir, f"_fold_shuffle-{uuid.uuid4().hex}")
    os.makedirs(spill_dir)

    def combine_spill(t):
        t = last_writer(t, keys=KEYS)
        return spill(t, hash_groups(t, KEYS, num_partitions), spill_dir)

    try:
        items = spilled_items(
            parts_dataset(parts)
            .map_batches(combine_spill, batch_format="pyarrow", zero_copy_batch=True)
            .take_all()
        )
        return run_spilled(items, lambda b: finish(read_spilled(b)))
    finally:
        shutil.rmtree(spill_dir, ignore_errors=True)
