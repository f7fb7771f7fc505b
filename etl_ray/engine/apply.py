"""The merge applier: per-bucket stateful last-writer-wins upsert.

This is the engine's heart — the analog of the reference's daily state fold
(yesterday's ``user_history`` LEFT JOIN today's deltas, then delete+insert of
the partition, ``insert_user_history.sql:227-311``) and the keyed MERGE
upsert (``update_user_map.sql:208-269``) — re-expressed as one per-bucket
function run by ``MergeApplier`` over the spill shuffle's per-bucket row
groups (replay's stage-2 tasks, bootstrap) and per bucket for erasure:

- one *bucket* = all (already batch-pre-reduced) delta rows of one hash
  bucket; state for the bucket is read from the lake partition named by
  the bucket's lineage manifest (never shuffled — state stays partitioned
  on the same key across ticks, SURVEY.md §4);
- the write plan comes first (``plan_state_write``): a base write (the
  first write, threshold 0, a compacting write, erasure) or a write with
  folds merges the FULL state — Arrow concat(state, deltas) →
  ``last_writer`` per (repo, path) by LSN; a plain delta write merges a
  NARROW projection (keys, lsn, deleted and the views' columns — never the
  payload) and appends just the delta rows that won. Replay duplicates and
  already-applied events are no-ops by monotonicity
  (``mod_data_insert.sql:5-6`` semantics);
- deletes become tombstones (``deleted=true``, payload null) so a late
  out-of-order update with a lower LSN than an applied delete cannot
  resurrect the row; tombstones are filtered at export and can be GC'd below
  the global low-watermark minus allowed lateness;
- additive schema evolution: state and deltas are both promoted to the
  unified schema with null backfill before the merge
  (``insert_user_history.sql:15-42`` semantics);
- output: the new base or delta file published by ``lineage.publish``
  (two-phase commit step 1), and the bucket manifest returned to the
  driver for the commit step — with, when the tick was asked for its
  views' columns, the merged state projected to them, which the tick's
  view refresh builds from instead of reading the bucket again.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from .dedup import KEYS, ORDER, last_writer, winner_indices
from .lineage import LakeLineage, parquet_writer, publish
from .partitioning import read_row_groups
from .schema_evo import align_to, unify_schemas

DELETED_COL = "deleted"
DEFAULT_DELTA_THRESHOLD = 8  # state_mode="delta" without a threshold

MANIFEST_SCHEMA = pa.schema(
    [
        ("bucket", pa.int32()),
        ("tick", pa.int32()),
        ("applied_lsn", pa.int64()),
        ("rows", pa.int64()),
        ("live_rows", pa.int64()),
        ("delta_rows", pa.int64()),
        ("data_file", pa.string()),
        ("delta_files", pa.list_(pa.string())),  # base+delta layout (delta mode)
        ("bytes_written", pa.int64()),  # state+delta+fold bytes this apply
        ("fold_file", pa.string()),  # LSN-tail sidecar when folds are active
        ("fold_through_lsn", pa.int64()),  # max WAL lsn folded (fold horizon)
        # unified bucket schema (base64 IPC): downstream driver sweeps
        # (view refresh, export schema discovery) read it from the manifest
        # instead of one parquet footer per chain file per refresh
        ("schema_b64", pa.string()),
    ]
)


def schema_b64(schema: pa.Schema) -> str:
    import base64

    return base64.b64encode(schema.serialize().to_pybytes()).decode()


def schema_from_b64(payload: str) -> pa.Schema:
    import base64

    return pa.ipc.read_schema(pa.BufferReader(base64.b64decode(payload)))


def bucket_schemas(manifests: list[dict]) -> list[pa.Schema]:
    """Inputs for a unified-schema sweep over bucket manifests: the schema
    each one records (no file IO; an as-of pseudo-manifest records its
    chain files' footers, see ``export._as_of_manifests``)."""
    return [schema_from_b64(m["schema_b64"]) for m in manifests]


def bucket_manifest(
    bucket: int,
    tick: int,
    state: pa.Table,
    *,
    data_file: str,
    delta_files: list[str],
    written: list[str],
    delta_rows: int = 0,
    fold_file: str | None = None,
    fold_through_lsn: int = 0,
    applied_lsn: int | None = None,
    schema: pa.Schema | None = None,
) -> dict:
    """A bucket's commit record: every field of ``MANIFEST_SCHEMA``, the
    only place that knows its shape. ``state`` is the bucket's folded
    state after the write (every row; a narrow merge passes its projection
    and the full ``schema``), ``written`` the files the write produced
    (their bytes are ``bytes_written``). ``applied_lsn`` defaults to the
    state's highest lsn; a write that drops rows passes the previous value,
    since a bucket's watermark never goes down."""
    if applied_lsn is None:
        applied_lsn = pc.max(state["lsn"]).as_py()
    return {
        "bucket": int(bucket),
        "tick": int(tick),
        "applied_lsn": int(applied_lsn),
        "rows": state.num_rows,
        "live_rows": state.num_rows - (pc.sum(state[DELETED_COL]).as_py() or 0),
        "delta_rows": int(delta_rows),
        "data_file": data_file,
        "delta_files": list(delta_files),
        "bytes_written": sum(os.path.getsize(f) for f in written),
        "fold_file": fold_file,
        "fold_through_lsn": int(fold_through_lsn),
        "schema_b64": schema_b64(schema or state.schema),
    }


def resolve_delta_threshold(
    state_mode: str | None = None, delta_threshold: int | None = None
) -> int:
    """The one state knob: how many delta files a bucket's chain may hold
    before its next write folds them into a fresh base; 0 rewrites the
    whole bucket on every write (and is the default). ``state_mode`` is the
    older spelling, still accepted: ``"rewrite"`` is 0 and takes no
    threshold; ``"delta"`` is ``delta_threshold``, default
    ``DEFAULT_DELTA_THRESHOLD``."""
    if state_mode not in (None, "rewrite", "delta") or (
        state_mode == "rewrite" and delta_threshold is not None
    ):
        raise ValueError(
            f"state_mode={state_mode!r} with delta_threshold={delta_threshold!r}: "
            "pass delta_threshold alone (0 = rewrite); state_mode must be "
            "'delta', or 'rewrite' without a threshold"
        )
    if delta_threshold is None:
        delta_threshold = DEFAULT_DELTA_THRESHOLD if state_mode == "delta" else 0
    if delta_threshold < 0:
        raise ValueError(f"delta_threshold must be >= 0, got {delta_threshold}")
    return int(delta_threshold)


def fold_tail_path(state_path: str) -> str:
    return state_path[: -len(".parquet")] + ".fold.parquet"


def bucket_files(man: dict) -> list[str]:
    """A bucket's content files in fold order: base, then deltas oldest
    first (delta-mode lakes; a rewrite-mode manifest has just the base)."""
    return [man["data_file"], *man["delta_files"]]


def chain_cache_path(files: list[str]) -> str:
    """The fold-cache file for one exact delta chain: keyed by the chain's
    file list + sizes, so ANY chain change (appended delta, compaction,
    erase rewrite) keys a different path and the stale cache is simply
    never read again (``LakeLineage.gc`` sweeps it)."""
    import hashlib

    h = hashlib.sha256()
    for f in files:
        h.update(f.encode())
        h.update(b"\0")
        h.update(str(os.path.getsize(f)).encode())
        h.update(b"\0")
    return os.path.join(
        os.path.dirname(files[0]), f"foldcache-{h.hexdigest()[:16]}.parquet"
    )


def chain_key(man: dict) -> tuple:
    """What names one bucket's committed state exactly: its chain files and
    the tick that published them (a state handed from stage 2 to the view
    refresh is used only against the same key)."""
    return (man["data_file"], tuple(man["delta_files"]), man["tick"])


def _current_chain(man: dict) -> tuple | None:
    """The bucket's chain per its CURRENT committed manifest, re-read from
    disk (cache-publish revalidation). None if unreadable/absent.

    The manifest path/read goes through ``LakeLineage`` (the one owner of
    the lake layout) so a layout change cannot silently desync this
    revalidation from the publisher; only the lake root is derived from
    ``data_file`` (``<lake>/buckets/b=NNNNN/<file>``), the manifest's sole
    path fact."""
    bucket_dir = os.path.dirname(man["data_file"])
    lake_dir = os.path.dirname(os.path.dirname(bucket_dir))
    try:
        cur = LakeLineage(lake_dir).bucket_manifest(int(man["bucket"]))
    except (OSError, ValueError):
        return None
    if cur is None:
        return None
    return tuple(bucket_files(cur))


def read_bucket_state(
    man: dict, columns: list[str] | None = None, *, publish_cache: bool = False
) -> pa.Table:
    """Merge-on-read of one bucket: base state + appended tick deltas,
    folded with the engine's own LWW kernel (later delta files win ties by
    physical order — the list is tick-ordered). The single-file fast path
    costs exactly what the old direct read did.

    Bounded read amplification: with ``publish_cache`` (the export path —
    NOT stage 2's state read, which is narrow on a delta write and full
    only when that very write replaces the chain, so a cache would be
    instant garbage), a full fold of a multi-file chain is
    cached next to the base, keyed by the exact chain tuple — export pays
    the fold once and every later reader of the SAME chain (verify, audit,
    view refresh) reads one file. Any reader consumes a present cache;
    regenerating is always safe (pure function of immutable chain files).
    After writing, the cache is re-validated against the bucket's CURRENT
    committed manifest and self-deleted on mismatch — a reader racing a
    maintenance rewrite (GDPR erase!) must not republish rows the
    maintenance op just scrubbed.

    ``columns``: projection applied AFTER the fold (keys + lsn are read
    regardless — the fold needs them); missing columns come back null."""
    files = bucket_files(man)
    need = None
    if columns is not None:
        need = list(dict.fromkeys([*KEYS, "lsn", *columns]))
    if len(files) == 1:
        pf = pq.ParquetFile(files[0])
        cols = [c for c in need if c in pf.schema_arrow.names] if need else None
        t = pf.read(columns=cols)
        pf.close()
    else:
        cpath = chain_cache_path(files)
        t = None
        if os.path.exists(cpath):
            try:
                pf = pq.ParquetFile(cpath)
                cols = (
                    [c for c in need if c in pf.schema_arrow.names]
                    if need
                    else None
                )
                t = pf.read(columns=cols)
                pf.close()
            except (OSError, pa.ArrowInvalid):
                t = None  # raced a GC / torn file: fold from the chain
        if t is None:
            tabs = []
            for f in files:
                pf = pq.ParquetFile(f)
                cols = [c for c in need if c in pf.schema_arrow.names] if need else None
                tabs.append(pf.read(columns=cols))
                pf.close()
            uni = unify_schemas([t.schema for t in tabs])
            t = pa.concat_tables([align_to(x, uni).select(uni.names) for x in tabs])
            t = last_writer(t, keys=KEYS)
            if publish_cache and columns is None:
                # full fold: publish the cache (atomic; idempotent — the
                # fold is deterministic, concurrent writers agree), then
                # re-check the COMMITTED manifest: if the chain moved while
                # we folded (erase/compact/next tick), delete our write —
                # either our check sees the new manifest, or the op's
                # trailing gc runs after its manifest publish and sweeps us
                try:
                    write = parquet_writer(t, compression="zstd")
                    publish(cpath, write, point="bucket.fold_cache")
                    if _current_chain(man) != tuple(files):
                        os.remove(cpath)
                except OSError:
                    pass  # cache is an optimization, never a failure
    return t if columns is None else project(t, columns)


def project(t: pa.Table, columns: list[str]) -> pa.Table:
    """``t``'s ``columns`` in that order; a column ``t`` lacks (schema
    evolution) comes back as int64 nulls."""
    return pa.table(
        {
            c: t[c] if c in t.schema.names else pa.nulls(t.num_rows, pa.int64())
            for c in columns
        }
    )


def apply_folds(
    folds: list,
    prev_state: pa.Table | None,
    merged: pa.Table,
    fold_rows: pa.Table,
    prev_tail: pa.Table | None,
    prune_horizon: int,
    lateness: int,
) -> tuple[pa.Table, pa.Table]:
    """Fold the tick's narrow delta events into per-key metric columns on
    the merged state (see ``folds.FoldSpec``). Exact-once folding: replay
    duplicates dedupe by LSN within the tick, and across ticks via the
    bucket's persisted tail of recently-folded LSNs — an incoming LSN
    either hits the tail (already folded) or is genuinely new.

    ``prune_horizon`` MUST be the bucket's previous COMMITTED watermark
    (minus nothing — lateness is subtracted here): every LSN this tick can
    legitimately receive is above ``committed_hi − lateness`` (bounded
    out-of-order), and a crashed-tick RE-RUN re-delivers exactly this
    tick's LSNs — all above that horizon too — so keeping the tail down to
    it makes re-application a fold no-op (the crash-idempotence the data
    path gets from LWW monotonicity). Pruning against the tick's own new
    high watermark instead would drop this tick's lower LSNs and
    double-count them on a mid-commit crash re-run.

    Returns (merged with fold columns, new tail table)."""
    import pandas as pd

    from .folds import KEY

    raw = fold_rows.to_pandas()
    fr = raw.drop_duplicates("lsn")
    if prev_tail is not None and prev_tail.num_rows:
        tail_set = prev_tail["lsn"].to_numpy()
        fr = fr[~fr["lsn"].isin(tail_set)]
    fr = fr.sort_values("lsn", kind="mergesort").reset_index(drop=True)

    all_cols = [(c, t) for f in folds for c, t in f.state_cols]
    col_names = [c for c, _ in all_cols]

    touched = pd.MultiIndex.from_frame(fr[KEY].drop_duplicates())
    # keys whose ONLY delta rows were tail-dropped duplicates still had a
    # delta applied on the data path (an LWW no-op whose winner row carries
    # null fold columns) — they must be restored from prev state below
    touched_all = pd.MultiIndex.from_frame(raw[KEY].drop_duplicates())
    if prev_state is not None and all(
        c in prev_state.schema.names for c in col_names
    ):
        prev_all = (
            prev_state.select(KEY + col_names).to_pandas().set_index(KEY)
        )
    else:
        prev_all = pd.DataFrame(columns=col_names)
        prev_all.index = pd.MultiIndex.from_arrays([[], []], names=KEY)
    prev_touched = prev_all.reindex(touched)

    new_frames = []
    if len(fr):
        for spec in folds:
            new_frames.append(spec.fold(prev_touched[spec.col_names], fr))
    new_vals = (
        pd.concat(new_frames, axis=1)
        if new_frames
        else pd.DataFrame(columns=col_names)
    )
    new_vals = new_vals.reindex(touched_all)
    prev_for_all = prev_all.reindex(touched_all)
    new_vals = new_vals.where(new_vals.notna(), prev_for_all)

    # attach: touched keys get the new values, untouched keep their state
    # values (already riding the winner rows); new keys with no fold rows
    # cannot exist (every delta row has a fold row)
    mkeys = pd.MultiIndex.from_arrays(
        [merged[k].to_pandas() for k in KEY], names=KEY
    )
    for cname, ctype in all_cols:
        upd = new_vals[cname].reindex(mkeys) if len(new_vals) else pd.Series(
            np.nan, index=mkeys
        )
        if cname in merged.schema.names:
            cur = merged[cname].to_pandas()
            cur.index = upd.index
            out = upd.where(upd.notna(), cur)
            merged = merged.set_column(
                merged.schema.get_field_index(cname),
                cname,
                pa.Array.from_pandas(out, type=ctype),
            )
        else:
            merged = merged.append_column(
                cname, pa.Array.from_pandas(upd, type=ctype)
            )

    # new tail: every folded LSN still deliverable (or re-deliverable by a
    # crashed-tick re-run) — see the prune_horizon contract above
    lo = prune_horizon - lateness
    lsns = fr["lsn"].to_numpy()
    keep = lsns[lsns > lo]
    if prev_tail is not None and prev_tail.num_rows:
        old = prev_tail["lsn"].to_numpy()
        keep = np.concatenate([keep, old[old > lo]])
    tail = pa.table({"lsn": pa.array(np.unique(keep), pa.int64())})
    return merged, tail


def plan_state_write(
    lineage, bucket: int, tick: int, man: dict | None, delta_threshold: int
) -> tuple[bool, str, str, list[str]]:
    """Decide base-vs-delta for one bucket write, crash-redo aware: append
    a delta while the chain holds fewer than ``delta_threshold``.

    Returns ``(write_delta, out_path, data_file, delta_files)``. A redo of
    an ALREADY-PUBLISHED bucket (manifest tick == this tick — the crash
    landed between this bucket's manifest publish and the tick manifest)
    reproduces its prior outcome in place instead of growing the chain:
    re-appending would fold the same delta twice on every read and count
    double against the threshold."""
    prev_deltas = man["delta_files"] if man is not None else []
    delta_path = lineage.bucket_delta_path(bucket, tick)
    if man is not None and man["tick"] == tick:
        if delta_path in prev_deltas:
            return True, delta_path, man["data_file"], prev_deltas
        base = lineage.bucket_state_path(bucket, tick)
        return False, base, base, []
    if man is not None and len(prev_deltas) < delta_threshold:
        return True, delta_path, man["data_file"], prev_deltas + [delta_path]
    base = lineage.bucket_state_path(bucket, tick)
    return False, base, base, []


def touched_key_rows(merged: pa.Table, deltas: pa.Table) -> pa.Table:
    """This tick's winner rows for TOUCHED keys only (fold columns riding
    along) — a delta write with folds: O(touched), not O(bucket). A late
    already-applied key re-emits its current winner with its new fold
    values, which merge-on-read resolves by tie-break."""
    dk = pc.unique(
        pc.binary_join_element_wise(deltas["repo"], deltas["path"], "\x1f")
    )
    mk = pc.binary_join_element_wise(merged["repo"], merged["path"], "\x1f")
    return merged.filter(pc.is_in(mk, value_set=dk))


def deltas_to_state_shape(deltas: pa.Table) -> pa.Table:
    """CDC envelope → state-row shape: op → deleted flag, drop op."""
    deleted = pc.equal(deltas["op"], "delete")
    out = deltas.drop_columns(["op"])
    return out.append_column(DELETED_COL, deleted)


def _view_state(merged: pa.Table, view_columns: list[str] | None) -> pa.Table | None:
    """The merged bucket state a view refresh reads: ``read_bucket_state``'s
    projection to the views' columns and ``deleted``, key-sorted."""
    if view_columns is None:
        return None
    return project(merged, list(dict.fromkeys([*view_columns, DELETED_COL])))


def apply_bucket(
    lineage: LakeLineage,
    bucket: int,
    tick: int,
    deltas: pa.Table,
    man: dict | None,
    fold_rows: pa.Table | None,
    *,
    folds: list,
    fold_lateness: int,
    changelog: bool,
    delta_threshold: int,
    view_columns: list[str] | None = None,
) -> tuple[dict, pa.Table | None]:
    """Merge one bucket's deltas into its state and write the result.

    ``deltas`` are the bucket's (pre-reduced, target-aligned) delta rows
    and ``man`` its committed manifest (None for a new bucket), whose state
    is read here. The write plan comes first: a plain delta write (no
    folds) merges a NARROW projection — keys, lsn, deleted and
    ``view_columns``, never the payload — and writes just the delta rows
    that won it; a base write folds the whole state into the new file, and
    with folds a late event still rewrites its key's row, payload and all.
    Writes the changelog part, the fold tail and the new state file (tmp +
    rename — two-phase commit step 1); returns the bucket manifest for the
    driver to publish and the merged state projected to ``view_columns``
    (None without them)."""
    # base+delta (S3 semantics kept, write amplification dropped): an
    # existing bucket appends ONE file of this tick's touched-key winner
    # rows; readers fold base+deltas with the same LWW kernel. Past the
    # threshold (0: every write / first write) the fold lands as a fresh
    # base and the delta chain resets.
    write_delta, out_path, data_file, delta_files = plan_state_write(
        lineage, bucket, tick, man, delta_threshold
    )
    narrow = write_delta and not folds
    state = None
    schema = schema_in = deltas.schema  # of the written rows; of the merge
    if man is not None and narrow:
        committed = schema_from_b64(man["schema_b64"])
        schema = unify_schemas([committed, deltas.schema])
        cols = [*KEYS, ORDER, DELETED_COL, *(view_columns or [])]
        cols = [c for c in dict.fromkeys(cols) if c in schema.names]
        state = read_bucket_state(man, columns=[c for c in cols if c in committed.names])
        schema_in = pa.schema([schema.field(c) for c in cols])
    elif man is not None:
        state = read_bucket_state(man)
        schema = schema_in = unify_schemas([state.schema, deltas.schema])
    # state first, deltas after → exact-LSN replay ties resolve to the
    # (identical) delta row; deterministic either way.
    both = pa.concat_tables(
        [
            align_to(t.select([c for c in schema_in.names if c in t.schema.names]), schema_in)
            for t in (state, deltas)
            if t is not None
        ]
    )
    win = winner_indices(both)
    merged = both.take(pa.array(win))  # key-sorted
    # the winners that carry a payload: on a narrow merge the delta rows
    # that won (a late event the state already beats writes nothing;
    # merge-on-read would pick the same winner either way)
    n_state = state.num_rows if state is not None else 0
    won = (
        align_to(deltas.take(pa.array(win[win >= n_state] - n_state)), schema)
        if narrow
        else merged
    )

    if changelog:
        # CDC-out: the rows whose winning LSN changed this tick, vs the
        # previous COMMITTED state (deterministic on crash redo)
        from .changelog import changelog_delta, write_changelog_part

        write_changelog_part(lineage.lake_dir, tick, bucket, changelog_delta(state, won))

    fold_file = None
    fold_hi = man["fold_through_lsn"] if man is not None else 0
    if folds and fold_rows is not None:
        prev_tail = None
        if man is not None and man["fold_file"]:
            prev_tail = pq.read_table(man["fold_file"])
        # the prune horizon is the FOLD stream's own committed watermark
        # (max WAL lsn folded) — NOT applied_lsn, which an erasure tick
        # inflates far past the WAL and would over-prune the tail
        merged, tail = apply_folds(
            folds, state, merged, fold_rows, prev_tail, fold_hi, fold_lateness
        )
        if fold_rows.num_rows:
            fold_hi = max(fold_hi, pc.max(fold_rows["lsn"]).as_py())
        fold_file = fold_tail_path(out_path)
        write = parquet_writer(tail, compression="snappy")
        publish(fold_file, write, point="bucket.fold_tail")

    if narrow:
        out_tab = won
    elif write_delta:
        # a delta write with folds re-emits every touched key's winner: a
        # late event still moves its key's fold columns
        out_tab = touched_key_rows(merged, deltas)
    else:
        out_tab = merged
    publish(out_path, parquet_writer(out_tab, compression="zstd"), point="bucket.state")
    man_out = bucket_manifest(
        bucket, tick, merged, data_file=data_file, delta_files=delta_files,
        written=[out_path, *([fold_file] if fold_file else [])],
        delta_rows=deltas.num_rows, fold_file=fold_file, fold_through_lsn=fold_hi,
        schema=out_tab.schema,
    )
    return man_out, _view_state(merged, view_columns)


class MergeApplier:
    """In-process :func:`apply_bucket` shell that reads each bucket's state
    from its committed manifest: the per-bucket applier of ``erase_keys``
    and (``apply_spilled``) the consumer over spill-shuffle descriptors of
    replay's stage 2 and the bootstrap."""

    def __init__(
        self,
        lake_dir: str,
        tick: int,
        schema_ser: bytes,
        folds: list | None = None,
        fold_lateness: int = 0,
        changelog: bool = False,
        delta_threshold: int | None = None,  # see resolve_delta_threshold
        state_mode: str | None = None,  # its older spelling
    ):
        # once per applier: lineage handles + deserialized target schema
        self.lineage = LakeLineage(lake_dir)
        self.tick = tick
        self.target = pa.ipc.read_schema(pa.BufferReader(schema_ser))
        self.folds = folds or []
        self.fold_lateness = fold_lateness
        self.changelog = changelog
        self.delta_threshold = resolve_delta_threshold(state_mode, delta_threshold)
        self._pf_cache: dict[str, pq.ParquetFile] = {}

    def apply_spilled(
        self, items: list[dict], view_columns: list[str] | None = None
    ) -> list[tuple[dict, pa.Table | None]]:
        """Merge each spill-shuffle descriptor's bucket (``{bucket, files,
        rgs[, ffiles, frgs]}``): its deltas (and fold rows) are read as
        parquet row groups out of the shuffle files. Returns (bucket
        manifest, merged state projected to ``view_columns`` or None) per
        descriptor. ``perfbench/kernels.py`` passes the descriptors as one
        Arrow table; that form goes once the benchmark passes dicts."""
        if isinstance(items, pa.Table):
            items = items.to_pylist()
        out = []
        for it in items:
            deltas = read_row_groups(self._pf_cache, it["files"], it["rgs"])
            fold_rows = None
            if self.folds and "ffiles" in it:
                fold_rows = read_row_groups(self._pf_cache, it["ffiles"], it["frgs"])
            out.append(
                self._apply_one(
                    int(it["bucket"]), align_to(deltas, self.target), fold_rows,
                    view_columns,
                )
            )
        return out

    def _apply_one(
        self,
        bucket: int,
        deltas: pa.Table,
        fold_rows: pa.Table | None = None,
        view_columns: list[str] | None = None,
    ) -> tuple[dict, pa.Table | None]:
        """Merge one bucket's target-aligned ``deltas``; returns its manifest
        and view state (see :func:`apply_bucket`)."""
        return apply_bucket(
            self.lineage, bucket, self.tick, deltas,
            self.lineage.bucket_manifest(bucket), fold_rows,
            folds=self.folds, fold_lateness=self.fold_lateness,
            changelog=self.changelog, delta_threshold=self.delta_threshold,
            view_columns=view_columns,
        )
