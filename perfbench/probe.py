"""Run context: the box-phase control probe and process memory.

``control_probe`` is the fixed-work sha256 + memcpy probe that ``bench.py``
defines (``_control_probe``), copied here with a 64 MiB copy buffer instead
of 512 MiB so a benchmark run stays small in memory. Its phase ratios stamp
each run with how fast the box was while it ran; they are context, not
metrics.
"""

from __future__ import annotations

import hashlib
import os
import time

# quiet-window medians of the same probe (bench.py QUIET_SHA_SEC and
# QUIET_MEMCPY_GBPS); memcpy GB/s does not depend on the buffer size once
# the buffer is far larger than the last-level cache
QUIET_SHA_SEC = 0.048
QUIET_MEMCPY_GBPS = 9.0


def control_probe(repeats: int = 3) -> dict:
    """Best-of-``repeats`` sha256 over 64 MiB (core-bound) and a 64 MiB
    numpy copy (DRAM-bound); ``box_phase_*`` > 1 means slower than quiet."""
    import numpy as np

    buf = b"\xa5" * (1 << 26)
    src = np.full(1 << 23, 7, dtype=np.int64)  # 64 MiB
    dst = np.zeros_like(src)
    np.copyto(dst, src)  # pre-fault the destination
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
        "control_memcpy_gbps": round(gbps, 2),
        "box_phase_cpu": round(sha / QUIET_SHA_SEC, 2),
        "box_phase_dram": round(QUIET_MEMCPY_GBPS / gbps, 2),
    }


def steal_seconds() -> float:
    """CPU time the hypervisor gave to other guests, summed over this
    machine's CPUs since boot (the ``steal`` column of /proc/stat)."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def core_steal_seconds(cpus) -> float:
    """Steal time of the given CPUs since boot (their ``cpuN`` lines of
    /proc/stat)."""
    want = {f"cpu{c}" for c in cpus}
    ticks = 0
    try:
        with open("/proc/stat") as f:
            for line in f:
                fields = line.split()
                if fields and fields[0] in want:
                    ticks += int(fields[8])
    except (OSError, IndexError, ValueError):
        return 0.0
    return ticks / os.sysconf("SC_CLK_TCK")


class CoreClock:
    """Seconds of wall time minus the time the hypervisor gave this
    process's cores to other guests (their mean steal time), so a call's
    duration counts only the time its cores were running this guest. The
    cores are the process's CPU set when the clock is made; the benchmark
    pins its Ray session to them first. Resolution: one clock tick of
    /proc/stat (10 ms)."""

    def __init__(self):
        self.cpus = sorted(os.sched_getaffinity(0))

    def __call__(self) -> float:
        return time.perf_counter() - core_steal_seconds(self.cpus) / len(self.cpus)


def _ppids() -> dict[int, int]:
    """pid -> parent pid for every process visible in /proc."""
    out = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        # the command name may hold spaces: fields resume after the last ')'
        out[int(name)] = int(stat.rsplit(")", 1)[1].split()[1])
    return out


def _status_kb(pid: int, field: str) -> int:
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _is_ray_worker(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as f:
            return f.read(5) == b"ray::"
    except OSError:
        return False


def ray_worker_pids() -> list[int]:
    """Ray worker processes started under this process (their process title
    starts with ``ray::``; the raylet and GCS are not counted)."""
    kids: dict[int, list[int]] = {}
    for pid, ppid in _ppids().items():
        kids.setdefault(ppid, []).append(pid)
    out, todo = [], list(kids.get(os.getpid(), []))
    while todo:
        pid = todo.pop()
        if _is_ray_worker(pid):
            out.append(pid)
        todo.extend(kids.get(pid, []))
    return out


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its live Ray workers, in MB:
    the sum of each process's high-water mark (VmHWM)."""
    pids = [os.getpid(), *ray_worker_pids()]
    return sum(_status_kb(p, "VmHWM") for p in pids) / 1024.0
