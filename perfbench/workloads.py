"""The two workloads and the cycle each one repeats.

Every workload runs on a ``MultiTableLake``: one base table ``files`` (a
``ReplayEngine`` over the generated WAL) plus three derived views of it —
``repo_stats``, a first/last ``aggregate`` view and a ``session`` view with
rider aggregates. A *cycle* is one fixed unit of work on a fresh lake:

    set-up   construct the lake; seed a WAL prefix in one tick (views build)
             and run the workload's set-up ticks
    ticks    closed loop: the next tick starts after the previous commits
    views    bring the views current (bulk: once) and read every view
    export   ``final_state(with_sha=True)`` materialised, 3 times
    oracle   untimed: final state, daily aggregates and views vs DuckDB

A run holds about ``--seconds / cycle_s`` cycles. A cycle is the same work
every time for a given seed, so every count it records is exact.

Every timing is taken with ``probe.CoreClock``: wall time minus the time the
hypervisor gave the benchmark's cores to other guests.
"""

from __future__ import annotations

import glob
import os
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field

import pyarrow as pa

from . import oracle_checks, probe
from .tracing import Tracer

NUM_BUCKETS = 16
BASE = "files"
VIEW_NAMES = ("repo_stats", "registration", "sessions")

# shared WAL shape: Zipf-skewed repos, 2% replayed duplicates, 5% deletes,
# 0.2% malformed envelopes (quarantined, never applied). Content lengths are
# drawn per seed for a pool of 64 blocks; a narrow range keeps the mean
# content size, and with it the bytes every layer moves, within a few
# percent across seeds.
WAL_COMMON = dict(
    n_repos=50,
    paths_per_repo=400,
    zipf_s=1.1,
    dup_rate=0.02,
    delete_rate=0.05,
    malform_rate=0.002,
    days_span=30,
    content_min=512,
    content_max=1_536,
)


# a tiny log for the warm-up (size_bytes present from the start, so every
# view can be read)
WARMUP_WAL = {**WAL_COMMON, "seed": 0, "n_events": 4_000, "segment_rows": 2_000,
              "evolve_at_frac": 0.0}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    wal: dict  # generate_wal parameters on top of WAL_COMMON (seed aside)
    state_mode: str
    prefix_segments: int  # seeded in one tick during set-up (0 = none)
    setup_ticks: int  # then this many 1-segment ticks, still set-up
    ticks: int  # measured tick-entry calls per cycle
    entry: str  # "replay_all" | "lake": what one tick call is
    cycle_s: float  # nominal cycle length on a quiet box (sets the count)
    exports: int  # timed exports per cycle
    read_every: int = 1  # "lake": read every view after every n-th tick


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="bulk_catchup",
            why="one replay_all tick drains a 60k-event log into an empty "
            "rewrite-mode lake: per-event stage-1, merge and spill work dominate",
            wal=dict(n_events=60_000, segment_rows=30_000, evolve_at_frac=0.6),
            state_mode="rewrite",
            prefix_segments=0,
            setup_ticks=0,
            ticks=1,
            entry="replay_all",
            cycle_s=20.0,
            exports=3,
        ),
        Workload(
            name="views_refresh",
            why="closed-loop lake.tick(1) calls (a 10k-event delta-mode base tick "
            "on a warm applier pool, then 3 view refreshes); read_view on every "
            "view after every 4th",
            wal=dict(n_events=130_000, segment_rows=10_000, evolve_at_frac=0.1),
            state_mode="delta",
            prefix_segments=4,
            # the first tail tick hydrates the applier pool's bucket state
            setup_ticks=1,
            ticks=8,
            entry="lake",
            cycle_s=45.0,
            exports=3,
            read_every=4,
        ),
    )
}


def wal_params(w: Workload, seed: int) -> dict:
    return {**WAL_COMMON, **w.wal, "seed": seed}


def table_specs(w: Workload, wal_dir: str, cpus: int) -> list:
    from etl_ray.engine.tables import TableSpec

    gap = oracle_checks.SESSION_GAP_MINUTES
    return [
        TableSpec(
            name=BASE, wal_dir=wal_dir, num_buckets=NUM_BUCKETS,
            concurrency=cpus, state_mode=w.state_mode,
        ),
        TableSpec(name="repo_stats", view="repo_stats", source=BASE),
        TableSpec(
            name="registration", view="aggregate", source=BASE,
            view_group_by=["repo"],
            view_aggs=[
                {"out": "live_files", "fn": "count"},
                {"out": "first_path", "col": "path", "fn": "first", "by": "lsn"},
                {"out": "last_ts", "col": "commit_ts", "fn": "last", "by": "lsn"},
            ],
        ),
        TableSpec(
            name="sessions", view="session", source=BASE,
            view_key=["repo"], view_ts="commit_ts", gap_minutes=gap,
            view_aggs=[
                {"out": "first_path", "col": "path", "fn": "first"},
                {"out": "mean_lsn", "col": "lsn", "fn": "mean"},
                {"out": "changes", "fn": "count"},
            ],
        ),
    ]


def materialise(ds) -> pa.Table:
    import ray

    return pa.concat_tables(ray.get(ds.to_arrow_refs()))


@dataclass
class Cycle:
    setup_s: float = 0.0
    tick_s: list[float] = field(default_factory=list)
    tick_events: list[int] = field(default_factory=list)
    view_read_s: list[float] = field(default_factory=list)
    export_s: list[float] = field(default_factory=list)
    rss_mb: float = 0.0
    counts: dict = field(default_factory=dict)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def check(self, reason: str | None) -> None:
        self.attempted += 1
        if reason is not None:
            self.failures.append(reason)


class Runner:
    """Runs one workload's cycles against one WAL in one Ray session."""

    def __init__(self, w: Workload, wal, work_dir: str, tracer: Tracer, cpus: int):
        self.w = w
        self.cpus = cpus
        self.wal = wal
        self.work_dir = work_dir
        self.tracer = tracer
        self._expected: tuple | None = None  # (final state, daily aggregates)
        self.clock = probe.CoreClock()
        self.last_lake_dir: str | None = None

    # ---- pieces -----------------------------------------------------------

    def _fresh_lake(self, tag: str, wal=None):
        from etl_ray.engine.tables import MultiTableLake

        d = os.path.join(self.work_dir, f"lake-{tag}")
        shutil.rmtree(d, ignore_errors=True)
        return MultiTableLake(d, table_specs(self.w, (wal or self.wal).wal_dir, self.cpus))

    def _refresh_views(self, lake) -> None:
        """What ``MultiTableLake.tick`` does for its views, without ticking
        the base table."""
        from etl_ray.engine import tables

        with self.tracer.span("bench.refresh_views"):
            for s in lake.specs:
                if s.is_view:
                    tables.refresh_view(
                        s, lake.table_dir(s.source), lake.table_dir(s.name)
                    )

    def _read_views(self, lake, cyc: Cycle) -> dict[str, pa.Table]:
        out = {}
        t0 = self.clock()
        with self.tracer.span("bench.read_views"):
            for name in VIEW_NAMES:
                cyc.attempted += 1
                with self.tracer.span("tables.read_view"):
                    out[name] = materialise(lake.read_view(name))
        cyc.view_read_s.append(self.clock() - t0)
        return out

    def _tick(self, lake, eng) -> int:
        """One call of the workload's tick entry point; returns its events."""
        if self.w.entry == "replay_all":
            return sum(r.events for r in eng.replay_all())
        return lake.tick(1)[BASE].events

    def through_seqno(self) -> int:
        """The last WAL segment a cycle commits."""
        if self.w.entry == "replay_all":
            return self.wal.segments[-1]["seqno"]
        return self.w.prefix_segments + self.w.setup_ticks + self.w.ticks - 1

    def prepare_oracle(self) -> None:
        """DuckDB expectations for the cycle's WAL prefix, computed once
        before the timed loop (every cycle commits the same prefix)."""
        from etl_ray.oracle import expected_final_state

        through = self.through_seqno()
        self._expected = (
            expected_final_state(self.wal, with_sha=True, through_seqno=through),
            oracle_checks.expected_daily(oracle_checks.wal_prefix(self.wal, through)),
        )

    # ---- one cycle --------------------------------------------------------

    def cycle(self, tag: str) -> Cycle:
        from etl_ray.engine import aggregates
        from etl_ray.engine.export import final_state

        cyc = Cycle()
        t0 = self.clock()
        lake = self._fresh_lake(tag)
        eng = lake.engine(BASE)
        if self.w.prefix_segments:
            with self.tracer.span("bench.setup"):
                lake.tick(self.w.prefix_segments)  # base seeds the prefix, views build
                for _ in range(self.w.setup_ticks):
                    lake.tick(1)
        cyc.setup_s = self.clock() - t0
        base_dir = lake.table_dir(BASE)
        self.last_lake_dir = base_dir
        lin = eng.lineage
        refreshed_through = (lin.last_tick() or {}).get("tick", -1)

        counts = dict.fromkeys(
            ("source.events", "quality.quarantined_rows", "apply.state_bytes_written",
             "aggregates.days_recomputed", "stage1_out_rows", "refresh_delta_rows",
             "refresh_state_rows"), 0,
        )
        per_tick = {"stage1_tasks": [], "buckets": [], "skew": [], "chain": []}
        segs_by_seq = {s["seqno"]: s for s in self.wal.segments}

        def refresh_rows(events_since: int, since_tick: int) -> None:
            # rows a view refresh re-reads: the state of every bucket whose
            # manifest advanced past the views' last upstream tick
            counts["refresh_delta_rows"] += events_since
            counts["refresh_state_rows"] += sum(
                m["rows"] for m in lin.all_bucket_manifests() if m["tick"] > since_tick
            )

        views = {}
        events_since_refresh = 0
        for i in range(self.w.ticks):
            cyc.attempted += 1
            t = self.clock()
            events = self._tick(lake, eng)
            cyc.tick_s.append(self.clock() - t)
            cyc.tick_events.append(events)
            events_since_refresh += events
            # what the lake recorded about the tick just committed (each
            # tick call commits exactly one tick on these workloads)
            tk = lin.last_tick()
            mans = [m for m in lin.all_bucket_manifests() if m["tick"] == tk["tick"]]
            rows = sorted(m["delta_rows"] for m in mans)
            counts["source.events"] += tk["events"]
            counts["quality.quarantined_rows"] += tk["quarantined_rows"]
            counts["apply.state_bytes_written"] += tk["state_bytes_written"]
            counts["stage1_out_rows"] += sum(rows)
            counts["aggregates.days_recomputed"] += len(
                aggregates.days_of_segments([segs_by_seq[s] for s in tk["segments"]])
            )
            per_tick["stage1_tasks"].append(eng.last_stage1_tasks)
            per_tick["buckets"].append(len(mans))
            per_tick["skew"].append(rows[-1] / statistics.median(rows))
            per_tick["chain"].append(
                max(len(m.get("delta_files") or []) for m in lin.all_bucket_manifests())
            )
            cyc.rss_mb = max(cyc.rss_mb, probe.peak_rss_mb())
            if self.w.entry == "lake":  # lake.tick refreshed the views
                refresh_rows(events_since_refresh, refreshed_through)
                refreshed_through, events_since_refresh = tk["tick"], 0
                if (i + 1) % self.w.read_every == 0:
                    views = self._read_views(lake, cyc)

        if self.w.entry != "lake":
            self._refresh_views(lake)
            refresh_rows(events_since_refresh, refreshed_through)
            views = self._read_views(lake, cyc)

        through = lin.last_tick()["through_seqno"]

        for _ in range(self.w.exports):
            # an export right after a tick folds every delta chain; the fold
            # cache a previous export published would skip that, so it goes
            for f in glob.glob(os.path.join(base_dir, "buckets", "b=*", "foldcache-*")):
                os.remove(f)
            cyc.attempted += 1
            t = self.clock()
            with self.tracer.span("export.final_state"):
                state = materialise(final_state(base_dir, with_sha=True))
            cyc.export_s.append(self.clock() - t)
        cyc.rss_mb = max(cyc.rss_mb, probe.peak_rss_mb())

        # ---- oracle (untimed) ----
        if through != self.through_seqno():
            raise RuntimeError(f"cycle committed through segment {through}, "
                               f"expected {self.through_seqno()}")
        exp_state, exp_daily = self._expected
        cyc.check(oracle_checks.check_final_state(state, exp_state))
        for reason in oracle_checks.check_daily_aggs(base_dir, exp_daily):
            cyc.check(reason)
        for reason in oracle_checks.check_views(state, views):
            cyc.check(reason)

        valid = counts["source.events"] - counts["quality.quarantined_rows"]
        cyc.counts = {
            "source.events": counts["source.events"],
            "quality.quarantined_rows": counts["quality.quarantined_rows"],
            "dedup.prereduce_ratio": counts["stage1_out_rows"] / valid,
            "partitioning.stage1_tasks": statistics.median(per_tick["stage1_tasks"]),
            "partitioning.buckets_touched": statistics.median(per_tick["buckets"]),
            "partitioning.bucket_rows_max_over_median": statistics.median(per_tick["skew"]),
            "apply.state_bytes_written": counts["apply.state_bytes_written"],
            "apply.delta_chain_max": max(per_tick["chain"]),
            "aggregates.days_recomputed": counts["aggregates.days_recomputed"],
            "tables.delta_to_state_rows_ratio": (
                counts["refresh_delta_rows"] / counts["refresh_state_rows"]
            ),
        }
        return cyc

    def warm_up(self, wal) -> None:
        """Start the Ray workers (task workers and the applier actor) and
        import the engine in them: one tick of a tiny log with a view build,
        on a throwaway lake of the workload's shape."""
        lake = self._fresh_lake("warmup", wal)
        lake.tick(1)
        shutil.rmtree(lake.lake_dir, ignore_errors=True)

    def run(self, seconds: float) -> list[Cycle]:
        """``round(seconds / cycle_s)`` cycles (at least one), so a run does
        the same work whatever the box's speed; a box so slow that the run
        passes 1.5 × ``seconds`` ends it early. A cycle that raises ends the
        loop and is reported as one failed operation."""
        target = max(1, round(seconds / self.w.cycle_s))
        cycles: list[Cycle] = []
        t0 = time.perf_counter()
        while len(cycles) < target:
            tag = str(len(cycles))
            try:
                cycles.append(self.cycle(tag))
            except Exception:
                traceback.print_exc(file=sys.stderr)
                cycles.append(Cycle(attempted=1, failures=["cycle raised"]))
                break
            if cycles[-1].failures:
                print(f"[perfbench] check failures: {cycles[-1].failures}", file=sys.stderr)
            # keep only the newest lake (the kernel pass reads it)
            shutil.rmtree(
                os.path.join(self.work_dir, f"lake-{int(tag) - 1}"), ignore_errors=True
            )
            if time.perf_counter() - t0 > 1.5 * seconds:
                break
        return cycles
