"""The view-kind table and the one refresh pass per source.

Every view kind is ONE :class:`~.core.ViewKind` record in ``VIEW_KINDS``:
its spec normalization and config check, the upstream columns its partial
reads, its type check, the decode metadata it adds to ``_view.json``, the
function that turns one bucket's committed state into its partial, and its
read. ``TableSpec.validate``, ``MultiTableLake.read_view`` and
:func:`refresh_views` dispatch through the table; no other code branches on
a kind name. Like the reference's one fact table feeding every
materialized table, ONE refresh pass per source builds the partials of all
of that source's views from each touched bucket's state: the state the
tick's stage 2 just merged and handed over, or else one read per bucket.
"""

from __future__ import annotations

import glob
import os

from .aggregate import AGGREGATE, REPO_STATS
from .core import PARTIAL_LAYOUT, _publish_view_manifest, _view_manifest, spec_hash
from .session import SESSION

VIEW_KINDS = {"repo_stats": REPO_STATS, "aggregate": AGGREGATE, "session": SESSION}

#: what each ``_view.json`` records about the pass that published it
REFRESH_PROFILE = ("refresh_s", "buckets", "tasks", "partial_rows")


def view_job(spec, view_dir: str) -> tuple[str, dict, str]:
    """A view table as one :func:`refresh_views` entry: (kind, normalized
    spec, dir)."""
    return spec.view, VIEW_KINDS[spec.view].spec_of(spec), view_dir


def refresh_views(
    upstream_dir: str,
    views: list[tuple[str, dict, str]],
    *,
    tolerate_locked: bool = False,
    handed: dict | None = None,
) -> list[dict | None]:
    """Advance every view of ONE upstream table to its committed tick in
    one pass. ``views`` holds (kind, spec, view_dir) entries (a
    ``VIEW_KINDS`` name and the normalized aggregate or session spec); the
    result is one refresh dict per view, None for a view that is already
    current or — under ``tolerate_locked`` — whose writer lock is held.

    The pass reads the upstream's last tick, bucket manifests and unified
    schema once. Per view it checks columns and types and computes its own
    touched set: every bucket whose manifest tick advanced since that
    view's last refresh (a bucket's manifest tick is its last-rewrite tick,
    so an untouched bucket costs nothing). A changed definition (spec
    hash), upstream type drift (types hash — e.g. widening landed), a
    changed hash-group count G (the upstream bucket count, after a
    rebucket) or a partial layout other than ``PARTIAL_LAYOUT`` recomputes
    every bucket of THAT view only. The union of the touched sets runs
    through ``partitioning.run_tasks``, one plain Ray task per chunk (every
    result's ``tasks``): a task takes each bucket's state ONCE, in the
    union of the projections of the views that need it, and writes each of
    those views' partials from it. ``handed`` (``TickResult.view_states``
    of the tick just committed: {bucket: (chain key, merged projection)})
    supplies that state for a bucket whose committed chain is the handed
    one and whose projection covers the columns; any other bucket — a view
    behind, a spec or type change, a rebucket, an erase, a first build, a
    standalone refresh — is read with ``read_bucket_state``.

    The pass holds each refreshed view's writer lock (taken in sorted
    order). Crash-safe per view: partials are pure functions of committed
    upstream state, and each ``_view.json`` publishes LAST, one per view in
    ``views`` order, recording the pass (``REFRESH_PROFILE``). A crash
    between two publishes leaves the later views at their previous tick;
    the next pass redoes just their touched buckets."""
    import time
    from contextlib import ExitStack

    import pyarrow as pa

    from ..apply import bucket_schemas, chain_key
    from ..lineage import LakeLineage
    from ..lock import WriterLockError, writer_lock
    from ..partitioning import fan_out, run_tasks
    from ..schema_evo import unify_schemas

    t0 = time.perf_counter()
    out: list[dict | None] = [None] * len(views)
    last = LakeLineage(upstream_dir).last_tick() if views else None
    if last is None:
        return out
    num_groups = last["num_buckets"]
    stale = {}  # view index -> [applied tick, recorded types hash]
    for i, (_, spec, view_dir) in enumerate(views):
        mf = _view_manifest(view_dir)
        applied = mf.get("upstream_tick", -1)
        if mf.get("spec_hash") not in (None, spec_hash(spec)):
            applied = -1  # definition changed: every bucket's partial is stale
        if mf.get("hash_groups") != num_groups:
            applied = -1  # every partial is grouped for another G
        if mf.get("partial_layout") != PARTIAL_LAYOUT:
            applied = -1  # every partial is laid out for another reader
        if last["tick"] > applied:
            stale[i] = [applied, mf.get("types_hash")]

    with ExitStack() as locks:
        for i in sorted(stale, key=lambda i: views[i][2]):
            try:
                locks.enter_context(writer_lock(views[i][2], "view-refresh"))
            except WriterLockError:
                if not tolerate_locked:
                    raise
                del stale[i]
        if not stale:
            return out
        manifests = LakeLineage(upstream_dir).all_bucket_manifests()
        live_buckets = {m["bucket"] for m in manifests}
        # unified upstream schema, from the schema each bucket manifest
        # records (no file IO): it validates every view's columns and pins
        # each column to ONE type in every partial despite evolution
        upstream = unify_schemas(bucket_schemas(manifests))
        col_types, jobs = {}, []
        for i, (applied, types_hash) in stale.items():
            kind, spec, view_dir = views[i]
            k = VIEW_KINDS[kind]
            need, optional = k.need(spec), k.optional(spec)
            missing = [c for c in need if c not in upstream.names and c not in optional]
            if missing:
                raise ValueError(
                    k.missing.format(missing=missing, has=", ".join(upstream.names))
                )
            types = {
                c: upstream.field(c).type if c in upstream.names else pa.int64()
                for c in need
            }
            k.validate(spec, types)
            new_types_hash = spec_hash({c: str(t) for c, t in types.items()})
            if types_hash not in (None, new_types_hash):
                applied = -1
            pdir = os.path.join(view_dir, "partials")
            os.makedirs(pdir, exist_ok=True)
            # orphans from an upstream rebucket to a smaller bucket count
            for f in glob.glob(os.path.join(pdir, "b=*.parquet")):
                if int(os.path.basename(f)[2:-8]) not in live_buckets:
                    os.remove(f)
            col_types.update(types)
            jobs.append(
                {"view": i, "kind": kind, "spec": spec, "pdir": pdir, "cols": need,
                 "applied": applied, "types_hash": new_types_hash}
            )
        work = []
        for m in manifests:
            js = [j for j, v in enumerate(jobs) if m["tick"] > v["applied"]]
            if not js:
                continue
            state = (handed or {}).get(m["bucket"])
            cols = {c for j in js for c in jobs[j]["cols"]}
            if state is not None and (
                state[0] != chain_key(m) or not cols <= set(state[1].column_names)
            ):
                state = None
            work.append((m, js, None if state is None else state[1]))
        parts = run_tasks(_partials_chunk, work, jobs, col_types, num_groups)
        rows = [sum(r) for r in zip([0] * len(jobs), *parts)]
        for j, v in enumerate(jobs):
            kind, spec, view_dir = views[v["view"]]
            profile = {
                "refresh_s": round(time.perf_counter() - t0, 4),
                "buckets": sum(1 for m in manifests if m["tick"] > v["applied"]),
                "tasks": fan_out(len(work)),
                "partial_rows": rows[j],
            }
            _publish_view_manifest(
                view_dir,
                {
                    "upstream_tick": last["tick"],
                    "kind": kind,
                    "spec_hash": spec_hash(spec),
                    "types_hash": v["types_hash"],
                    "hash_groups": num_groups,
                    "partial_layout": PARTIAL_LAYOUT,
                    **VIEW_KINDS[kind].extras(spec, col_types),
                    **profile,
                },
            )
            out[v["view"]] = {"upstream_tick": last["tick"], **profile}
    return out


def _partials_chunk(items, jobs, col_types, num_groups) -> list[int]:
    """One refresh task over a contiguous chunk of (bucket manifest, the
    jobs that need it, the handed state or None): each bucket's state is
    taken ONCE — the handed projection, or else one read (merge-on-read in
    delta mode) — in the union of those views' projections, and passed to
    each view's ``build``. Returns, per bucket, the partial rows written
    per job.

    ``col_types`` (column → type in the UNIFIED upstream schema) keeps the
    partials consistent across buckets: a column an old bucket predates
    (schema evolution) reads back as int64 nulls, and a pre-widening bucket
    carries the narrow width — both are cast to the unified type, so every
    bucket's partial agrees, matching SQL over the full state."""
    import pyarrow.compute as pc

    from ..apply import read_bucket_state

    out = []
    for man, js, state in items:
        rows = [0] * len(jobs)
        cols = list(dict.fromkeys(c for j in js for c in jobs[j]["cols"]))
        if state is None:
            t = read_bucket_state(man, columns=[*cols, "deleted"])
        else:
            t = state.select([*cols, "deleted"])
        for c in cols:
            if t.schema.field(c).type != col_types[c]:
                i = t.schema.get_field_index(c)
                t = t.set_column(i, c, pc.cast(t[c], col_types[c]))
        for j in js:
            v = jobs[j]
            out_path = os.path.join(v["pdir"], f"b={man['bucket']:05d}.parquet")
            rows[j] += VIEW_KINDS[v["kind"]].build(
                t.select(list(dict.fromkeys([*v["cols"], "deleted"]))),
                v["spec"], out_path, num_groups,
            )
        out.append(rows)
    return out
