#!/usr/bin/env python
"""Benchmark harness.

Default: run the headline pipelines over ``$GRAFT_SF_DIR`` (default
/root/testdata/sf0.1) under ``ray.init(address='local',
num_cpus=$RAY_GRAFT_CPUS or 32)`` and print ONE JSON line::

    {"metric": "...", "value": <headline sec>, "unit": "sec",
     "queries": {...per-pipeline sec...}, "sf": ..., "num_cpus": N,
     "cdc_events": N, "cdc_events_per_sec": N}

``--scaling``: run the identical CDC replay in FRESH interleaved processes
at two parallelism levels (default 1 and 4 CPUs) on the same
(pre-generated, page-cache-warmed) input and report both throughputs plus
scaling efficiency T(hi)/((hi/lo)·T(lo)) as the median of per-pair values
— the in-sandbox evidence for the N→4N-node criterion (see BASELINE.md).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

REPO = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, REPO)

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))


def _init_ray(num_cpus: int):
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=num_cpus,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.execution_options.verbose_progress = False
    return ray


def _warm_cache(paths):
    for p in paths:
        with open(p, "rb") as f:
            while f.read(1 << 24):
                pass


# Quiet-window calibration of the control probe on this box (medians of
# repeated idle-machine runs; see BASELINE.md "Box-phase control probe").
# The probe is FIXED work, so probe_time / quiet_median is a unitless
# interference factor any bench snapshot carries along — a reader can
# normalize a slow headline by the phase the box was in when it ran.
QUIET_SHA_SEC = 0.048  # sha256 over a fixed 64 MiB buffer, single thread
QUIET_MEMCPY_GBPS = 9.0  # single-thread 512 MiB numpy copy, copy-GB/s


def _control_probe(repeats: int = 3) -> dict:
    """Fixed pure-compute + single-thread memcpy probe (box-phase
    calibration). sha256 is core-speed-bound (hashlib's C loop, working set
    well under LLC); the memcpy is DRAM-bound — together they separate
    "slow cores" (CPU-stolen VM) from "saturated memory bus" (the noisy
    neighbor mode this box actually exhibits). Best-of-N: the least
    interfered sample is the calibration, the spread is the noise."""
    import hashlib

    import numpy as np

    buf = b"\xa5" * (1 << 26)  # 64 MiB
    src = np.full(1 << 26, 7, dtype=np.int64)  # 512 MiB
    dst = np.zeros_like(src)  # pre-faulted: the timed copy measures DRAM,
    np.copyto(dst, src)  # not page faults (plus one untimed warmup pass)
    sha_secs, cp_secs = [], []
    for _ in range(repeats):
        t0 = time.perf_counter()
        hashlib.sha256(buf).hexdigest()
        sha_secs.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        np.copyto(dst, src)
        cp_secs.append(time.perf_counter() - t0)
    sha = min(sha_secs)
    gbps = src.nbytes / min(cp_secs) / 1e9
    return {
        "control_sha_sec": round(sha, 4),
        "control_sha_quiet_sec": QUIET_SHA_SEC,
        "control_memcpy_gbps": round(gbps, 2),
        "control_memcpy_quiet_gbps": QUIET_MEMCPY_GBPS,
        # >1 = box slower than quiet; headline × 1/phase ≈ quiet-window cost
        "box_phase_cpu": round(sha / QUIET_SHA_SEC, 2),
        "box_phase_dram": round(QUIET_MEMCPY_GBPS / gbps, 2),
    }


def run_bench() -> dict:
    ray = _init_ray(NUM_CPUS)
    import shutil

    import __ray_entry__ as em
    from etl_ray.engine import ReplayEngine

    timings: dict[str, float] = {}

    # --- headline: CDC replay (generate outside the timed section) ----------
    wal = em._ensure_wal(SF_DIR)
    _warm_cache(wal.segment_files)
    lake = os.path.join(em._SCRATCH, f"bench-lake-{NUM_CPUS}")
    control = _control_probe()  # box-phase calibration, stamped in the JSON

    def one_trial() -> float:
        nonlocal eng
        shutil.rmtree(lake, ignore_errors=True)
        t0 = time.perf_counter()
        eng = ReplayEngine(
            wal.wal_dir,
            lake,
            num_buckets=max(2 * NUM_CPUS, 32),
            concurrency=NUM_CPUS,
        )
        eng.replay_all()
        return time.perf_counter() - t0

    eng = None
    cdc_trials = []
    for _ in range(2):  # best-of-2: the sandbox VM has bursty interference
        cdc_trials.append(one_trial())
    # self-normalizing retry: if the control says the box was in an
    # interfered phase (>1.5x its quiet median on either axis), wait out
    # the burst and take one more sample — the min is the headline
    control_after = _control_probe()
    worst_phase = max(
        control["box_phase_cpu"], control["box_phase_dram"],
        control_after["box_phase_cpu"], control_after["box_phase_dram"],
    )
    if worst_phase > 1.5:
        time.sleep(20)
        cdc_trials.append(one_trial())
        control_after = _control_probe()
    cdc_sec = min(cdc_trials)
    timings["cdc_replay"] = round(cdc_sec, 3)

    def _bytes_written(lk: str) -> int:
        import glob as _g
        import json as _j

        tot = 0
        for f in _g.glob(os.path.join(lk, "_ticks", "tick-*.json")):
            with open(f) as fh:
                tot += int(_j.load(fh).get("state_bytes_written") or 0)
        return tot

    # --- base+delta vs rewrite at the SAME multi-tick structure -------------
    # (4-segment ticks so the write-amplification win is visible: rewrite
    # mode rewrites every touched bucket in full each tick)
    mode_bytes = {}
    for mode in ("rewrite", "delta"):
        mlake = os.path.join(em._SCRATCH, f"bench-lake-{mode}-{NUM_CPUS}")
        shutil.rmtree(mlake, ignore_errors=True)
        t0 = time.perf_counter()
        ReplayEngine(
            wal.wal_dir, mlake, num_buckets=max(2 * NUM_CPUS, 32),
            concurrency=NUM_CPUS, state_mode=mode,
            aggregate=False,  # no day recompute; the agg-log write stays in both modes
        ).replay_all(segments_per_tick=4)
        timings[f"cdc_replay_{mode}_4seg_ticks"] = round(
            time.perf_counter() - t0, 3
        )
        mode_bytes[mode] = _bytes_written(mlake)
        shutil.rmtree(mlake, ignore_errors=True)
    # seed the query-layer replay cache with the composite key _replay() uses,
    # so any cdc_* query timed below reuses the warmed bench lake
    em._REPLAY_CACHE[f"{em._sf_tag(SF_DIR)}-{em._wal_events_for(SF_DIR)}"] = (wal, lake)

    # --- supporting pipelines ------------------------------------------------
    queries = em.queries()
    for name in [
        "q1_pricing_summary",
        "revenue_by_region",
        "sessionize",
        "user_daily_activity",
        "doc_minhash_lsh_pairs",
        "emb_knn_bruteforce",
        "doc_token_stats",
        "events_dedup_first",
    ]:
        t0 = time.perf_counter()
        queries[name](SF_DIR)
        timings[name] = round(time.perf_counter() - t0, 3)

    result = {
        "metric": "headline pipeline wall time (CDC replay to committed lake) at "
        f"{os.path.basename(SF_DIR)}",
        "value": timings["cdc_replay"],
        "unit": "sec",
        "queries": timings,
        "sf": os.path.basename(SF_DIR),
        "num_cpus": NUM_CPUS,
        "cdc_events": wal.n_events,
        "cdc_events_per_sec": round(wal.n_events / cdc_sec, 1),
        "trials_sec": [round(s, 3) for s in cdc_trials],
        # box-phase calibration: fixed-work probes run before/after the
        # headline; box_phase_* > 1 means the box was slower than its quiet
        # median by that factor WHILE THIS SNAPSHOT RAN (headline/phase ≈
        # the quiet-window cost). >1.5 triggered one extra headline trial.
        "control_before": control,
        "control_after": control_after,
        # write amplification: state bytes written over the same 4-seg ticks
        "state_bytes_written": mode_bytes,
        # orchestration evidence: independent task counts of the last tick
        "stage_tasks": {
            "stage1_tasks": getattr(eng, "last_stage1_tasks", None),
            "stage2_buckets": getattr(eng, "last_stage2_items", None),
        },
    }
    ray.shutdown()
    return result


def _median(xs: list[float]) -> float:
    s = sorted(xs)
    n = len(s)
    return s[n // 2] if n % 2 else (s[n // 2 - 1] + s[n // 2]) / 2


def run_scaling(lo: int = 1, hi: int = 4, pairs: int = 3) -> dict:
    """Fresh-process runs of the identical CDC replay at two parallelism
    levels; efficiency = throughput(hi) / (hi/lo · throughput(lo)).

    Trials are INTERLEAVED (lo, hi, lo, hi, …) because this sandbox VM
    drifts between fast and slow phases (noisy neighbors): a sequential
    lo-then-hi schedule confounds the phase with the CPU count. Both the
    MEDIAN-based and best-trial efficiencies are reported (median is the
    headline; best bounds the least-interfered sample).

    Default pair is (1, 4) on an 8.16M-event log: the N→4N evidence in the
    regime where parallelism — not this box's shared DRAM bus — is the
    varied resource (round-2's faster per-core data plane reaches the
    bus's knee by ~4 cores; see BASELINE.md; a real 4N-node cluster
    quadruples DRAM with the cores). Override with GRAFT_CDC_EVENTS / the
    lo & hi args for other regimes (e.g. 2→8, 8→32).

    Two configs run: replay-only, and "verify-weighted" — replay PLUS the
    final sha256-export pass, the metric's full path to a VERIFIED final
    state. The sha stage is pure compute (hashlib's C core), so the
    verify-weighted config is the one whose efficiency the box's DRAM
    ceiling does not clamp (headline in BASELINE.md)."""
    # pre-generate + warm so runs measure compute+shuffle, not gen/IO
    import __ray_entry__ as em

    os.environ.setdefault("GRAFT_CDC_EVENTS", "8000000")
    os.environ.setdefault("GRAFT_BENCH_NO_AGG", "1")
    wal = em._ensure_wal(SF_DIR)
    _warm_cache(wal.segment_files)

    def one(ncpu: int, with_sha: bool) -> dict:
        env = dict(
            os.environ,
            RAY_GRAFT_CPUS=str(ncpu),
            GRAFT_SF_DIR=SF_DIR,
            GRAFT_BENCH_CDC_ONLY="1",
            GRAFT_BENCH_TRIALS="1",
        )
        if with_sha:
            env["GRAFT_BENCH_WITH_SHA"] = "1"
        out = subprocess.run(
            [sys.executable, os.path.join(REPO, "bench.py")],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        return json.loads(out.strip().splitlines()[-1])

    stage_tasks: dict = {}

    def config(with_sha: bool, n_pairs: int) -> dict:
        lo_secs, hi_secs, pair_eff = [], [], []
        events = None
        for _ in range(n_pairs):
            r_lo, r_hi = one(lo, with_sha), one(hi, with_sha)
            events = r_lo["cdc_events"]
            lo_secs.append(r_lo["value"])
            hi_secs.append(r_hi["value"])
            pair_eff.append(round((r_lo["value"] / r_hi["value"]) / (hi / lo), 3))
            # orchestration evidence: per-stage independent task counts at
            # each parallelism level (same input → same logical plan; what
            # scales is concurrent execution of those tasks)
            stage_tasks[str(lo)] = r_lo.get("stage_tasks")
            stage_tasks[str(hi)] = r_hi.get("stage_tasks")
        med_lo, med_hi = _median(lo_secs), _median(hi_secs)
        best_lo, best_hi = min(lo_secs), min(hi_secs)
        return {
            "cdc_events": events,
            f"trials_sec_{lo}": lo_secs,
            f"trials_sec_{hi}": hi_secs,
            f"sec_{lo}": med_lo,
            f"sec_{hi}": med_hi,
            f"events_per_sec_{lo}": round(events / med_lo, 1),
            f"events_per_sec_{hi}": round(events / med_hi, 1),
            "pair_efficiencies": pair_eff,
            # headline: MEDIAN of per-pair efficiencies — the two runs of a
            # pair are temporally adjacent, so the VM's fast/slow drift
            # cancels within a pair; medians of the marginals do not have
            # that property when interference spans a whole trial
            "scaling_efficiency": round(_median(pair_eff), 3),
            "scaling_efficiency_median_ratio": round((med_lo / med_hi) / (hi / lo), 3),
            "scaling_efficiency_best": round((best_lo / best_hi) / (hi / lo), 3),
        }

    out = {
        "metric": f"CDC replay scaling {lo}→{hi} CPUs (N→4N proxy), "
        "median of interleaved fresh-process pairs",
        "sf": os.path.basename(SF_DIR),
        "replay": config(with_sha=False, n_pairs=pairs),
        "replay_plus_sha_verify": config(with_sha=True, n_pairs=pairs),
        "stage_tasks": stage_tasks,
        "note": "single shared-memory VM proxy for N→4N nodes; measured in the "
        "regime where cores (not the box's shared DRAM bus) are the varied "
        "resource — the bus saturates by ~8-16 cores and run-to-run "
        "noisy-neighbor variance is up to 4x, hence interleaved trials with "
        "median AND best reported (full ladder + bandwidth analysis in "
        "BASELINE.md).",
    }
    r = out["replay"]
    out["scaling_efficiency"] = r["scaling_efficiency"]
    out["cdc_events"] = r["cdc_events"]
    out[f"sec_{lo}"] = r[f"sec_{lo}"]
    out[f"sec_{hi}"] = r[f"sec_{hi}"]
    return out


def run_cdc_only() -> dict:
    """Timed replays (used by --scaling child processes). Runs
    ``GRAFT_BENCH_TRIALS`` (default 3) full replays and reports the BEST —
    this sandbox VM shows up-to-4× run-to-run interference from noisy
    neighbors, so min-of-trials is the least-biased estimate of the
    engine's own cost."""
    trials = int(os.environ.get("GRAFT_BENCH_TRIALS", "3"))
    ray = _init_ray(NUM_CPUS)
    import shutil

    import __ray_entry__ as em
    from etl_ray.engine import ReplayEngine

    wal = em._ensure_wal(SF_DIR)
    lake = os.path.join(em._SCRATCH, f"bench-lake-{NUM_CPUS}")
    aggregate = not os.environ.get("GRAFT_BENCH_NO_AGG")
    with_sha = bool(os.environ.get("GRAFT_BENCH_WITH_SHA"))
    secs = []
    stage_tasks = {}
    for _ in range(trials):
        shutil.rmtree(lake, ignore_errors=True)
        t0 = time.perf_counter()
        eng = ReplayEngine(
            wal.wal_dir,
            lake,
            num_buckets=max(2 * NUM_CPUS, 32),
            concurrency=NUM_CPUS,
            aggregate=aggregate,
        )
        eng.replay_all()
        if with_sha:
            # the metric's full path: verified final state (per-row sha256)
            from etl_ray.engine.export import final_state

            final_state(lake, with_sha=True).count()
        secs.append(time.perf_counter() - t0)
        # orchestration evidence: independent tasks per stage at this level
        stage_tasks = {
            "stage1_tasks": getattr(eng, "last_stage1_tasks", None),
            "stage2_buckets": getattr(eng, "last_stage2_items", None),
            "applier_concurrency": NUM_CPUS,
        }
    sec = min(secs)
    ray.shutdown()
    return {
        "metric": "cdc replay",
        "value": round(sec, 3),
        "unit": "sec",
        "queries": {"cdc_replay": round(sec, 3)},
        "trials_sec": [round(s, 3) for s in secs],
        "sf": os.path.basename(SF_DIR),
        "num_cpus": NUM_CPUS,
        "cdc_events": wal.n_events,
        "cdc_events_per_sec": round(wal.n_events / sec, 1),
        "stage_tasks": stage_tasks,
        "control": _control_probe(repeats=1),  # box phase for this sample
    }


if __name__ == "__main__":
    if "--scaling" in sys.argv:
        if "--micro" in sys.argv:
            # cache-resident fixed-work micro-config: tiny content (16-64 B)
            # so the working set sits in LLC/page cache and per-event compute
            # (dedup, grouping, sha) dominates — the pair ABOVE the DRAM knee
            # (2→8) measured where bandwidth can't clamp it. The env vars
            # propagate to the fresh child processes.
            os.environ.setdefault("GRAFT_CDC_EVENTS", "6000000")
            os.environ.setdefault("GRAFT_CDC_CONTENT_MIN", "16")
            os.environ.setdefault("GRAFT_CDC_CONTENT_MAX", "64")
            print(json.dumps(run_scaling(lo=2, hi=8)))
        else:
            print(json.dumps(run_scaling()))
    elif os.environ.get("GRAFT_BENCH_CDC_ONLY"):
        print(json.dumps(run_cdc_only()))
    else:
        print(json.dumps(run_bench()))
