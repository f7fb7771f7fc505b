#!/usr/bin/env python3
"""Layered CDC benchmark for etl_ray.

    python3 perfbench/run.py --workload bulk_catchup --seed 1 --seconds 25 --trace 0

Run from the repository root. The run happens in one child process (retried
once if it dies without a result) with one local Ray session of ``num_cpus``
= ``nproc``, pinned to that many cores. Timings exclude the time the
hypervisor gave those cores to other guests (``probe.CoreClock``). The workload's WAL is generated from ``--seed`` (cached under
``.pbw/wal/``, never timed); the run then repeats the workload's cycle (see
``workloads.py``) about ``--seconds / cycle_s`` times.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` installs span
wrappers around the engine's public calls and prints the per-layer metrics
(span self times, exact counts the lake records, and a single-process kernel
pass). The last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``;
the line before it holds run context (box-phase probe, sample counts).

All scratch state (WALs, lakes, Ray's session directory when its socket
paths fit) lives under ``.pbw/`` in the repository root; everything but the
WAL cache is removed when the run ends.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, ".pbw")
RUN_DEADLINE_S = 170  # a run must end within 180 s
CHILD_DEADLINE_S = RUN_DEADLINE_S - 10
RETRY_MIN_S = 80  # time a second attempt needs
WAL_CACHE_KEEP = 6
AF_UNIX_PATH_MAX = 107
RAY_SOCKET_SUFFIX = len("/session_2026-01-01_00-00-00_000000_1234567/sockets/plasma_store")

END_TO_END_UNITS = {
    "setup_s": "s",
    "events_per_s": "1/s",
    "tick_p50_s": "s",
    "export_s": "s",
    "view_read_s": "s",
    "bytes_written_per_event": "B",
    "peak_rss_mb": "MB",
}


# per-layer metrics: span self times (median per tick / refresh round / read
# round / export), exact counts of the last cycle, kernel rates, tracing cost
PER_LAYER_UNITS = {
    "replay.tick_self_s": "s",
    "replay.stage1_s": "s",
    "apply.stage2_s": "s",
    "quality.run_checks_s": "s",
    "aggregates.recompute_s": "s",
    "lineage.commit_s": "s",
    "lineage.gc_s": "s",
    "tables.refresh_s.repo_stats": "s",
    "tables.refresh_s.aggregate": "s",
    "tables.refresh_s.session": "s",
    "tables.read_view_s": "s",
    "export.final_state_s": "s",
    "source.events": "count",
    "quality.quarantined_rows": "count",
    "dedup.prereduce_ratio": "ratio",
    "partitioning.stage1_tasks": "count",
    "partitioning.buckets_touched": "count",
    "partitioning.bucket_rows_max_over_median": "ratio",
    "apply.state_bytes_written": "B",
    "apply.delta_chain_max": "count",
    "aggregates.days_recomputed": "count",
    "tables.delta_to_state_rows_ratio": "ratio",
    "quality.split_valid_rows_per_s": "rows/s",
    "enrich.lang_rows_per_s": "rows/s",
    "dedup.last_writer_rows_per_s": "rows/s",
    "partitioning.spill_rows_per_s": "rows/s",
    "apply.merge_rows_per_s": "rows/s",
    "apply.read_bucket_state_rows_per_s": "rows/s",
    "export.sha256_mb_per_s": "MB/s",
    "trace.tick_p50_s": "s",
    "trace.overhead_s": "s",
}


class RunDeadline(Exception):
    pass


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _ensure_wal(tag: str, params: dict):
    """Generate (or reuse) a WAL; keep the newest few."""
    import hashlib

    from etl_ray.wal import generate_wal

    key = hashlib.sha256(json.dumps(params, sort_keys=True).encode()).hexdigest()[:12]
    cache = os.path.join(WORK, "wal")
    wal_dir = os.path.join(cache, f"{tag}-{key}")
    wal = generate_wal(wal_dir, **params)
    os.utime(wal_dir)
    others = sorted(
        (os.path.join(cache, d) for d in os.listdir(cache)),
        key=os.path.getmtime,
        reverse=True,
    )
    for old in others[WAL_CACHE_KEEP:]:
        shutil.rmtree(old, ignore_errors=True)
    return wal


def _init_ray(num_cpus: int, run_dir: str) -> tuple[float, str | None]:
    import logging

    import ray
    from ray.data import DataContext

    # the session gets ``num_cpus`` cores: Ray's processes inherit this
    # process's CPU set, so they cannot spread onto cores that ``nproc``
    # does not count (and that other tenants of the host are using)
    os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[-num_cpus:])
    # workers import etl_ray from this checkout whatever their cwd
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p
    )
    tmp = os.path.join(run_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tmp
    ray_dir = os.path.join(run_dir, "ray")  # removed with the run dir
    kw = {}
    if len(ray_dir) + RAY_SOCKET_SUFFIX <= AF_UNIX_PATH_MAX:
        kw["_temp_dir"] = ray_dir
    else:  # socket paths would not fit: Ray keeps its default session dir
        ray_dir = None
    from perfbench.probe import CoreClock

    clock = CoreClock()
    t0 = clock()
    ray.init(
        address="local",
        num_cpus=num_cpus,
        include_dashboard=False,
        logging_level="ERROR",
        log_to_driver=False,
        object_store_memory=512 * 1024 * 1024,
        # keep idle workers alive for the whole run: a timed call that
        # found its worker killed would pay a process start (~1 s of CPU)
        _system_config={
            "idle_worker_killing_time_threshold_ms": 3_600_000,
            "num_workers_soft_limit": 8,
        },
        **kw,
    )
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.execution_options.verbose_progress = False
    logging.getLogger("ray.data").setLevel(logging.WARNING)
    return clock() - t0, ray_dir


def nproc() -> int:
    """What ``nproc`` prints: the CPUs this process may use, overridden by
    ``OMP_NUM_THREADS`` and capped by ``OMP_THREAD_LIMIT`` when they are set."""
    n = len(os.sched_getaffinity(0))
    for var, cap in (("OMP_NUM_THREADS", False), ("OMP_THREAD_LIMIT", True)):
        raw = os.environ.get(var, "").split(",")[0].strip()
        if raw.isdigit() and int(raw) > 0:
            n = min(n, int(raw)) if cap else int(raw)
    return n


def _run_dir(pid: int) -> str:
    return os.path.join(WORK, f"run-{pid}")


def _median(xs, default=0.0):
    return statistics.median(xs) if xs else default


def _end_to_end(cycles, ray_init_s: float, warmup_s: float) -> dict[str, float]:
    ticks = [t for c in cycles for t in c.tick_s]
    events = sum(e for c in cycles for e in c.tick_events)
    counted = [c for c in cycles if c.counts]
    return {
        "setup_s": ray_init_s + warmup_s + _median([c.setup_s for c in counted]),
        "events_per_s": events / sum(ticks) if ticks else 0.0,
        "tick_p50_s": _median(ticks),
        "export_s": _median([e for c in counted for e in c.export_s]),
        "view_read_s": _median([v for c in cycles for v in c.view_read_s]),
        "bytes_written_per_event": (
            sum(c.counts["apply.state_bytes_written"] for c in counted)
            / max(1, sum(c.counts["source.events"] for c in counted))
        ),
        "peak_rss_mb": max((c.rss_mb for c in cycles), default=0.0),
    }


def _run(args) -> dict:
    from perfbench import probe
    from perfbench.kernels import kernel_pass
    from perfbench.tracing import Instrumentation, Tracer, wrapper_cost_s
    from perfbench.workloads import NUM_BUCKETS, WARMUP_WAL, WORKLOADS, Runner, wal_params

    w = WORKLOADS[args.workload]
    run_dir = _run_dir(os.getpid())
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    try:
        wal = _ensure_wal(f"{w.name}-s{args.seed}", wal_params(w, args.seed))
        warm_wal = _ensure_wal("warmup", WARMUP_WAL)
        phase_before = probe.control_probe()
        steal_before, wall_before = probe.steal_seconds(), time.monotonic()
        import ray

        cpus = nproc()
        ray_init_s, ray_dir = _init_ray(cpus, run_dir)
        tracer = Tracer(enabled=bool(args.trace))
        instr = Instrumentation(tracer).install() if args.trace else None
        try:
            runner = Runner(w, wal, run_dir, tracer, cpus)
            t0 = runner.clock()
            runner.warm_up(warm_wal)
            warmup_s = runner.clock() - t0
            tracer.spans.clear()  # the warm-up is set-up, not a sample
            runner.prepare_oracle()
            cycles = runner.run(args.seconds)
            if instr is not None:
                instr.remove()
                instr = None
            kernels = {}
            if args.trace and runner.last_lake_dir and not cycles[-1].failures:
                kernels = kernel_pass(
                    wal, runner.last_lake_dir, os.path.join(run_dir, "kernels"),
                    num_buckets=NUM_BUCKETS, state_mode=w.state_mode,
                )
        finally:
            if instr is not None:
                instr.remove()
            ray.shutdown()
        steal_s = probe.steal_seconds() - steal_before
        wall_s = time.monotonic() - wall_before
        phase_after = probe.control_probe()
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    attempted = sum(c.attempted for c in cycles)
    failed = sum(len(c.failures) for c in cycles)
    e2e = _end_to_end(cycles, ray_init_s, warmup_s)
    context = {
        "workload": w.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "num_cpus": cpus,
        "cycles": len(cycles),
        "ticks": sum(len(c.tick_s) for c in cycles),
        "view_reads": sum(len(c.view_read_s) for c in cycles),
        "samples": {
            "setup_s": [c.setup_s for c in cycles],
            "tick_s": [t for c in cycles for t in c.tick_s],
            "view_read_s": [v for c in cycles for v in c.view_read_s],
            "export_s": [e for c in cycles for e in c.export_s],
        },
        "wal_events": wal.n_events,
        "ray_init_s": ray_init_s,
        "warmup_s": warmup_s,
        "ray_temp_dir": ray_dir or "ray default",
        "box_phase_before": phase_before,
        "box_phase_after": phase_after,
        # CPU time other guests took from the machine while the run was on
        # (summed over all of its CPUs), as a share of the run's wall time
        "steal_share": steal_s / wall_s,
    }
    if args.trace:
        problems = tracer.check()
        attempted += 1  # the span accounting check
        failed += bool(problems)
        entry_root = "tables.tick" if w.entry == "lake" else "replay.tick"
        measured = {
            **tracer.layer_medians(),
            **cycles[-1].counts,
            **kernels,
            "trace.tick_p50_s": e2e["tick_p50_s"],
            # spans per tick times the measured cost of one span
            "trace.overhead_s": tracer.spans_per_root(entry_root) * wrapper_cost_s(),
        }
        # a layer a failed run never reached reads 0
        metrics = {
            k: {"value": measured.get(k, 0.0), "unit": u}
            for k, u in PER_LAYER_UNITS.items()
        }
        context["span_problems"] = problems
    else:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in e2e.items()}
    context["failures"] = [f for c in cycles for f in c.failures]
    return {
        "context": context,
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        },
    }


def _child(args) -> int:
    """One attempt: run the workload in this process and print its lines."""

    def on_deadline(signum, frame):
        raise RunDeadline(f"run exceeded {CHILD_DEADLINE_S} s")

    # fires before the supervisor's kill, so Ray is shut down cleanly
    signal.signal(signal.SIGALRM, on_deadline)
    signal.alarm(CHILD_DEADLINE_S)
    try:
        out = _run(args)
    except RunDeadline as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 3
    finally:
        signal.alarm(0)
    print(json.dumps({"context": out["context"]}))
    print(json.dumps(out["result"]))
    return 0


def _supervise(argv: list[str]) -> int:
    """Run the attempt in a child process and relay its result. A child that
    dies without a result (a crash inside Ray's core worker aborts the whole
    process) is retried once if the time left allows a second attempt."""
    import subprocess

    started = time.monotonic()
    for attempt in (1, 2):
        left = RUN_DEADLINE_S - (time.monotonic() - started)
        if attempt > 1 and left < RETRY_MIN_S:
            break
        proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), *argv, "--child"],
            stdout=subprocess.PIPE,
            text=True,
            start_new_session=True,  # its own process group, Ray included
        )
        try:
            out, _ = proc.communicate(timeout=left)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            print(f"perfbench: run exceeded {RUN_DEADLINE_S} s", file=sys.stderr)
            return 3
        finally:
            # a child that died mid-run could not remove its own scratch
            shutil.rmtree(_run_dir(proc.pid), ignore_errors=True)
        lines = out.strip().splitlines()
        if proc.returncode == 0 and len(lines) >= 2:
            context = json.loads(lines[-2])
            context["context"]["attempt"] = attempt
            print(json.dumps(context))
            print(lines[-1])
            return 0
        print(
            f"perfbench: attempt {attempt} ended with code {proc.returncode} "
            "and no result", file=sys.stderr,
        )
    return 1


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _parse(argv)
    sys.path.insert(0, ROOT)
    import importlib.util

    if importlib.util.find_spec("etl_ray") is None:
        print(f"perfbench: no etl_ray package under {ROOT}", file=sys.stderr)
        return 2
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r} "
              f"(have: {', '.join(WORKLOADS)})", file=sys.stderr)
        return 2
    return _child(args) if args.child else _supervise(argv)


if __name__ == "__main__":
    sys.exit(main())
