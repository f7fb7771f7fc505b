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

Layout::

    lake/_changelog/t{tick:06d}/b{bucket:05d}.parquet   after-image rows + change_op + tick
    lake/_changelog/t{tick:06d}/erase.parquet           erasure records (maintenance tick)

Exactly-once: parts are written tmp+rename by the applier BEFORE the tick
commit; a crashed attempt's directory is wiped on tick redo and the re-run
recomputes identical rows (the delta is a pure function of the previous
COMMITTED state and the tick's deltas). Readers must only trust directories
whose tick manifest exists — :func:`read_changelog` enforces that.

GDPR: an erasure purges the subject's rows from ALL retained feed history
(:func:`purge_keys_from_changelog`) and appends key-only ``erase`` records so
consumers that already ingested the subject can delete downstream — matching
the reference's delete-request propagation (``gdpr_delete_request.sql``).
"""

from __future__ import annotations

import glob
import os
import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

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


def changelog_tick_dir(lake_dir: str, tick: int) -> str:
    return os.path.join(lake_dir, "_changelog", f"t{tick:06d}")


def prepare_tick_dir(
    lake_dir: str,
    tick: int,
    *,
    segments: list[int],
    num_buckets: int,
    enabled: bool,
) -> None:
    """Tick-redo feed consistency. A crash can land BETWEEN bucket-manifest
    publications: the redo then sees already-advanced state for those buckets
    and computes empty deltas — their feed rows exist ONLY in the crashed
    attempt's part files, which are correct (every part is computed against
    the pre-tick committed state, and parts are written before any manifest
    publishes). So: keep the crashed attempt's parts when the redo is the
    SAME attempt (identical segment set + bucket count, recorded in
    ``attempt.json``); wipe otherwise — e.g. the operator changed
    ``segments_per_tick`` between runs, which regroups segments under the
    same tick id. With the feed disabled, always wipe (a partial feed for a
    committed tick must never survive)."""
    import json
    import shutil

    d = changelog_tick_dir(lake_dir, tick)
    if not enabled:
        shutil.rmtree(d, ignore_errors=True)
        return
    att = os.path.join(d, "attempt.json")
    want = {"segments": list(segments), "num_buckets": int(num_buckets)}
    if os.path.exists(att):
        try:
            with open(att) as f:
                have = json.load(f)
        except (OSError, ValueError):
            have = None
        if have == want:
            for p in glob.glob(os.path.join(d, "*.tmp")):
                os.remove(p)  # torn writes from the crashed attempt
            return
    shutil.rmtree(d, ignore_errors=True)
    os.makedirs(d, exist_ok=True)
    tmp = att + ".tmp"
    with open(tmp, "w") as f:
        json.dump(want, f)
    os.replace(tmp, att)


def write_changelog_part(
    lake_dir: str, tick: int, bucket: int, chg: pa.Table
) -> int:
    """Atomically write one bucket's feed part for the tick. Empty deltas
    write nothing (no empty-file litter). Returns rows written."""
    if chg.num_rows == 0:
        return 0
    d = changelog_tick_dir(lake_dir, tick)
    os.makedirs(d, exist_ok=True)
    out = chg.append_column(
        TICK_COL, pa.array(np.full(chg.num_rows, tick, np.int32))
    )
    path = os.path.join(d, f"b{bucket:05d}.parquet")
    tmp = path + f".{os.getpid()}.tmp"
    pq.write_table(out, tmp, compression="zstd")
    os.replace(tmp, path)
    return chg.num_rows


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
    d = changelog_tick_dir(lake_dir, tick)
    os.makedirs(d, exist_ok=True)
    path = os.path.join(d, "erase.parquet")
    tmp = path + f".{os.getpid()}.tmp"
    pq.write_table(t, tmp, compression="zstd")
    os.replace(tmp, path)


def _purge_file(f: str, want: pa.Array) -> int:
    """Drop the subjects' rows from one feed part (tmp+rename). Returns
    rows removed. Idempotent — a crash mid-purge re-runs harmlessly.

    A COMPACTED part (sidecar ``.json`` tick→rg index present) is rewritten
    row group by row group so the index stays exact: surviving groups keep
    one-rg-per-tick, emptied ticks drop out of the index."""
    import json

    idx_path = f[: -len(".parquet")] + ".json"
    if os.path.exists(idx_path):
        with open(idx_path) as fh:
            idx = json.load(fh)
        pf = pq.ParquetFile(f)
        kept_tabs: list[tuple[str, pa.Table]] = []
        removed = 0
        for tick_s, rg in sorted(idx.items(), key=lambda kv: kv[1]):
            t = pf.read_row_group(rg)
            joined = pc.binary_join_element_wise(t["repo"], t["path"], "\x1f")
            hit = pc.is_in(joined, value_set=want)
            nhit = pc.sum(hit).as_py() or 0
            removed += int(nhit)
            if nhit:
                t = t.filter(pc.invert(hit))
            if t.num_rows:
                kept_tabs.append((tick_s, t))
        pf.close()
        if not removed:
            return 0
        if not kept_tabs:
            os.remove(f)
            os.remove(idx_path)
            return removed
        tmp = f + f".{os.getpid()}.tmp"
        writer = pq.ParquetWriter(tmp, kept_tabs[0][1].schema, compression="zstd")
        new_idx = {}
        try:
            for rg, (tick_s, t) in enumerate(kept_tabs):
                writer.write_table(t, row_group_size=t.num_rows)
                new_idx[tick_s] = rg
        finally:
            writer.close()
        os.replace(tmp, f)
        with open(idx_path + ".tmp", "w") as fh:
            json.dump(new_idx, fh)
        os.replace(idx_path + ".tmp", idx_path)
        return removed

    t = pq.read_table(f)
    joined = pc.binary_join_element_wise(t["repo"], t["path"], "\x1f")
    hit = pc.is_in(joined, value_set=want)
    nhit = pc.sum(hit).as_py() or 0
    if not nhit:
        return 0
    kept = t.filter(pc.invert(hit))
    if kept.num_rows == 0:
        os.remove(f)
    else:
        tmp = f + f".{os.getpid()}.tmp"
        pq.write_table(kept, tmp, compression="zstd")
        os.replace(tmp, f)
    return int(nhit)


def purge_keys_from_changelog(lake_dir: str, keys: list[tuple[str, str]]) -> int:
    """Remove the subjects' rows from every retained feed file (GDPR:
    history must forget too). Returns rows removed. The per-file rewrites
    are independent → fanned out as ``run_tasks`` over the shared FS (a
    long-run lake holds O(ticks × buckets) parts; a serial driver loop
    would serialize that IO); small file counts stay on the driver."""
    root = os.path.join(lake_dir, "_changelog")
    if not os.path.isdir(root):
        return 0
    want = pa.array([f"{r}\x1f{p}" for r, p in keys])
    files = sorted(
        glob.glob(os.path.join(root, "t*", "*.parquet"))
        + glob.glob(os.path.join(root, "c*-*", "*.parquet"))
    )
    if not files:
        return 0
    if len(files) <= 64:
        return sum(_purge_file(f, want) for f in files)
    from .partitioning import run_tasks

    return sum(run_tasks(_purge_files, files, want))


def _purge_files(files: list[str], want: pa.Array) -> list[int]:
    """Feed-purge task: rows removed from each file of the chunk."""
    return [_purge_file(f, want) for f in files]


def gc_changelog(lake_dir: str, *, drop_below_tick: int | None = None,
                 wipe_tick: int | None = None) -> int:
    """Feed retention. ``wipe_tick`` removes one tick's directory (crashed
    attempt redo); ``drop_below_tick`` drops all dirs strictly below it
    (bounded retention). Returns directories removed."""
    import shutil

    root = os.path.join(lake_dir, "_changelog")
    removed = 0
    if wipe_tick is not None:
        d = changelog_tick_dir(lake_dir, wipe_tick)
        if os.path.isdir(d):
            shutil.rmtree(d, ignore_errors=True)
            removed += 1
    if drop_below_tick is not None:
        for d in sorted(glob.glob(os.path.join(root, "t*"))):
            m = re.search(r"t(\d+)$", d)
            if m and int(m.group(1)) < drop_below_tick:
                shutil.rmtree(d, ignore_errors=True)
                removed += 1
        # compacted runs drop when their WHOLE range is below the cutoff —
        # retention granularity over a compacted feed is the run
        for d, ticks in _compacted_dirs(lake_dir):
            if ticks and max(ticks) < drop_below_tick:
                shutil.rmtree(d, ignore_errors=True)
                removed += 1
    return removed


# -- compacted feed runs ------------------------------------------------------
#
# A long-running lake accumulates one file per (bucket, tick) under
# _changelog/t*/ — tens of thousands of small files. ``compact_changelog``
# merges committed tick dirs into per-bucket run files under
# _changelog/c{lo:06d}-{hi:06d}/: ONE parquet per bucket with one ROW GROUP
# per absorbed tick and a sidecar ``.json`` {tick: rg} index (the same
# indexed-file trick as `compact --agglog`), plus ``range.json`` listing the
# absorbed ticks. Ranged readers prune at row-group grain, so tick-bounded
# consumption stays exact over a compacted feed.


def _compacted_dirs(lake_dir: str) -> list[tuple[str, list[int]]]:
    import json

    out = []
    for d in sorted(glob.glob(os.path.join(lake_dir, "_changelog", "c*-*"))):
        rj = os.path.join(d, "range.json")
        if not os.path.exists(rj):
            continue  # staging leftovers are never named c*-* (see compactor)
        with open(rj) as f:
            out.append((d, list(json.load(f)["ticks"])))
    return out


def committed_changelog_parts(
    lake_dir: str, from_tick: int | None = None, to_tick: int | None = None
) -> list[dict]:
    """Feed parts as ``{"file", "rgs"}`` descriptors; ``rgs=None`` means the
    whole file (an uncompacted per-tick part). Compacted runs take precedence over a
    tick's own directory — a crash between publishing a compacted run and
    removing its absorbed tick dirs double-references rows, which this
    preference makes harmless."""
    import json

    from .lineage import LakeLineage

    committed = {t["tick"] for t in LakeLineage(lake_dir).all_ticks()}

    def in_range(t: int) -> bool:
        if t not in committed:
            return False
        if from_tick is not None and t < from_tick:
            return False
        return not (to_tick is not None and t > to_tick)

    parts: list[dict] = []
    covered: set[int] = set()
    for d, ticks in _compacted_dirs(lake_dir):
        covered.update(ticks)
        sel = {t for t in ticks if in_range(t)}
        if not sel:
            continue
        for f in sorted(glob.glob(os.path.join(d, "*.parquet"))):
            idx_path = f[: -len(".parquet")] + ".json"
            with open(idx_path) as fh:
                idx = json.load(fh)
            rgs = sorted(rg for t, rg in idx.items() if int(t) in sel)
            if rgs:
                parts.append({"file": f, "rgs": rgs})
    for d in sorted(glob.glob(os.path.join(lake_dir, "_changelog", "t*"))):
        m = re.search(r"t(\d+)$", d)
        if not m:
            continue
        t = int(m.group(1))
        if t in covered or not in_range(t):
            continue
        for f in sorted(glob.glob(os.path.join(d, "*.parquet"))):
            parts.append({"file": f, "rgs": None})
    return parts


def compact_changelog(lake_dir: str) -> dict:
    """Merge all committed per-tick feed dirs into one per-bucket run
    (VERDICT r3 #8). Crash-safe: built in a ``.cstage-*`` staging dir,
    published by a single directory rename, absorbed tick dirs removed
    after; a crash in the removal window leaves double-referenced ticks
    that readers resolve in the compacted run's favor. Idempotent —
    a re-run absorbs whatever tick dirs remain."""
    import json
    import shutil
    import uuid

    from .lineage import LakeLineage
    from .lock import writer_lock
    from .partitioning import run_tasks

    with writer_lock(lake_dir, "compact-feed"):
        root = os.path.join(lake_dir, "_changelog")
        for stray in glob.glob(os.path.join(root, ".cstage-*")):
            shutil.rmtree(stray, ignore_errors=True)  # crashed prior attempt
        committed = {t["tick"] for t in LakeLineage(lake_dir).all_ticks()}
        covered = {t for _, ts in _compacted_dirs(lake_dir) for t in ts}
        tdirs: list[tuple[int, str]] = []
        for d in sorted(glob.glob(os.path.join(root, "t*"))):
            m = re.search(r"t(\d+)$", d)
            if m and int(m.group(1)) in committed and int(m.group(1)) not in covered:
                tdirs.append((int(m.group(1)), d))
        if len(tdirs) < 2:
            return {"ticks": 0, "files_merged": 0}

        ticks = [t for t, _ in tdirs]
        lo, hi = min(ticks), max(ticks)
        # group source files by bucket name (erase.parquet is its own group)
        by_name: dict[str, list[tuple[int, str]]] = {}
        n_src = 0
        for t, d in tdirs:
            for f in sorted(glob.glob(os.path.join(d, "*.parquet"))):
                by_name.setdefault(os.path.basename(f), []).append((t, f))
                n_src += 1
        stage = os.path.join(root, f".cstage-{uuid.uuid4().hex[:8]}")
        os.makedirs(stage, exist_ok=True)

        items = [
            {"name": name, "ticks": [t for t, _ in srcs], "files": [f for _, f in srcs]}
            for name, srcs in sorted(by_name.items())
        ]

        run_tasks(_merge_feed_runs, items, stage)
        with open(os.path.join(stage, "range.json"), "w") as fh:
            json.dump({"from": lo, "to": hi, "ticks": sorted(ticks)}, fh)
        final = os.path.join(root, f"c{lo:06d}-{hi:06d}")
        shutil.rmtree(final, ignore_errors=True)  # crashed removal re-run
        os.rename(stage, final)
        for _, d in tdirs:
            shutil.rmtree(d, ignore_errors=True)
        return {"ticks": len(ticks), "files_merged": n_src, "run": final}


def _merge_feed_runs(items: list[dict], stage: str) -> list[str]:
    """Feed-compaction task: per ``{name, ticks, files}`` item, one run file
    in ``stage`` with one row group per absorbed tick (aligned to the
    files' unified schema) and its ``{tick: rg}`` index; returns the run
    files written."""
    import json

    from .schema_evo import align_to, unify_schemas

    out = []
    for it in items:
        tabs = [pq.read_table(f) for f in it["files"]]
        uni = unify_schemas([t.schema for t in tabs])
        out_path = os.path.join(stage, it["name"])
        idx: dict[str, int] = {}
        writer = pq.ParquetWriter(out_path, uni, compression="zstd")
        try:
            for rg, (t, tab) in enumerate(
                sorted(zip(it["ticks"], tabs), key=lambda x: x[0])
            ):
                aligned = align_to(tab, uni).select(uni.names)
                writer.write_table(aligned, row_group_size=max(aligned.num_rows, 1))
                idx[str(t)] = rg
        finally:
            writer.close()
        with open(out_path[: -len(".parquet")] + ".json", "w") as fh:
            json.dump(idx, fh)
        out.append(out_path)
    return out


def read_changelog(
    lake_dir: str, from_tick: int | None = None, to_tick: int | None = None
):
    """The feed as a streaming ``ray.data.Dataset`` (ordered within a key by
    (tick, lsn) — consumers fold with last-writer-wins per key, exactly like
    the engine itself). Reads compacted runs and legacy per-tick parts
    uniformly, with exact tick-range pruning at row-group grain."""
    from .source import parts_dataset

    return parts_dataset(committed_changelog_parts(lake_dir, from_tick, to_tick))


def feed_covers_from_start(lake_dir: str) -> bool:
    """True iff no retention gap: every committed tick that recorded feed
    rows still has its directory on disk. Only then does a full fold see
    every insert/update/delete since the lake began."""
    from .lineage import LakeLineage

    ticks = LakeLineage(lake_dir).all_ticks()
    need = {t["tick"] for t in ticks if t.get("changelog_rows", 0) > 0}
    have = set()
    for d in glob.glob(os.path.join(lake_dir, "_changelog", "t*")):
        m = re.search(r"t(\d+)$", d)
        if m:
            have.add(int(m.group(1)))
    for _, absorbed in _compacted_dirs(lake_dir):
        have.update(absorbed)
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
    AND no feed directory was dropped by retention GC
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
