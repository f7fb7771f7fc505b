"""Single-writer lake guard (``engine/lock.py``): a held lock rejects a
second writer; dead-holder and over-TTL locks break automatically; locks
release on success AND on crash (context manager unwind)."""

from __future__ import annotations

import json
import os
import time

import pytest

from etl_ray.engine import ReplayEngine
from etl_ray.engine.lock import WriterLockError, writer_lock


def test_live_lock_rejects_second_writer(ray_session, small_wal, tmp_path):
    lake = str(tmp_path / "lake")
    eng = ReplayEngine(small_wal.wal_dir, lake, num_buckets=8, concurrency=2)
    with writer_lock(lake, "other-driver"):
        with pytest.raises(WriterLockError, match="other-driver"):
            eng.tick()
        from etl_ray.engine.maintenance import compact_tombstones

        with pytest.raises(WriterLockError):
            compact_tombstones(lake)
    # lock released → replay proceeds and leaves no lock behind
    assert eng.tick() is not None
    assert not os.path.exists(os.path.join(lake, "_lock.json"))


def test_dead_holder_lock_is_broken(ray_session, small_wal, tmp_path):
    lake = str(tmp_path / "lake")
    os.makedirs(lake, exist_ok=True)
    import socket

    # a crashed writer on THIS host: pid no longer exists
    with open(os.path.join(lake, "_lock.json"), "w") as f:
        json.dump(
            {"pid": 2**22 + 1111, "host": socket.gethostname(), "op": "replay",
             "ts": time.time()},
            f,
        )
    eng = ReplayEngine(small_wal.wal_dir, lake, num_buckets=8, concurrency=2)
    assert eng.tick() is not None  # stale lock broken, tick proceeds


def test_remote_holder_respects_ttl(ray_session, small_wal, tmp_path):
    lake = str(tmp_path / "lake")
    os.makedirs(lake, exist_ok=True)
    lockf = os.path.join(lake, "_lock.json")
    eng = ReplayEngine(small_wal.wal_dir, lake, num_buckets=8, concurrency=2)
    # live-looking lock from another host: cannot pid-probe, honored until TTL
    with open(lockf, "w") as f:
        json.dump(
            {"pid": 1, "host": "some-other-node", "op": "replay", "ts": time.time()},
            f,
        )
    with pytest.raises(WriterLockError):
        eng.tick()
    # ...but an over-TTL one is broken
    with open(lockf, "w") as f:
        json.dump(
            {"pid": 1, "host": "some-other-node", "op": "replay",
             "ts": time.time() - 7200},
            f,
        )
    assert eng.tick() is not None


def test_crash_releases_lock(ray_session, small_wal, tmp_path, crash_at):
    lake = str(tmp_path / "lake")
    eng = ReplayEngine(small_wal.wal_dir, lake, num_buckets=8, concurrency=2)
    with crash_at("manifest.bucket", after=2):
        with pytest.raises(RuntimeError, match="injected crash"):
            eng.tick()
    assert not os.path.exists(os.path.join(lake, "_lock.json"))


def test_erase_races_live_follow(ray_session, small_wal, tmp_path):
    """A GDPR erase issued WHILE follow() is live-tailing: the writer lock
    serializes them (erase retries until it lands between ticks), and the
    erased keys stay gone after the remaining segments apply."""
    import os
    import threading
    import time as _time

    from etl_ray.engine.export import final_state
    from etl_ray.engine.maintenance import erase_keys
    from etl_ray.wal import WalInfo

    view_dir = str(tmp_path / "walview")
    os.makedirs(view_dir, exist_ok=True)

    def manifest_through(k: int) -> None:
        WalInfo(
            wal_dir=view_dir,
            n_events=sum(s["rows"] for s in small_wal.segments[:k]),
            n_base_events=small_wal.n_base_events,
            evolve_lsn=small_wal.evolve_lsn,
            segments=small_wal.segments[:k],
            params=None,
        ).save()

    total = len(small_wal.segments)
    manifest_through(2)
    lake = str(tmp_path / "lake")
    eng = ReplayEngine(view_dir, lake, num_buckets=8, concurrency=2, aggregate=False)
    results: list = []
    t = threading.Thread(
        target=lambda: results.extend(
            eng.follow(poll_interval_s=0.2, idle_timeout_s=10.0)
        )
    )
    t.start()
    # wait for the first committed tick, pick victims, erase under contention
    while eng.lineage.last_tick() is None:
        _time.sleep(0.1)
    state = final_state(lake).to_pandas()
    victims = [tuple(r) for r in state[["repo", "path"]].head(4).to_numpy()]
    erased = None
    for _ in range(200):
        try:
            erased = erase_keys(lake, victims)
            break
        except WriterLockError:
            _time.sleep(0.1)
    assert erased is not None, "erase never acquired the lock"
    for k in range(3, total + 1):
        _time.sleep(0.5)
        manifest_through(k)
    t.join(timeout=120)
    assert not t.is_alive()
    assert sum(r.segments for r in results) == total

    after = final_state(lake).to_pandas()
    gone = set(victims)
    assert not any(
        (r, p) in gone for r, p in zip(after["repo"], after["path"])
    ), "erase resurrected by events applied after it"


def test_torn_lock_file_is_broken(ray_session, small_wal, tmp_path):
    """A torn/corrupt _lock.json (crash mid-write) counts as breakable."""
    lake = str(tmp_path / "lake")
    os.makedirs(lake, exist_ok=True)
    with open(os.path.join(lake, "_lock.json"), "w") as f:
        f.write("{not json")
    eng = ReplayEngine(small_wal.wal_dir, lake, num_buckets=8, concurrency=2)
    assert eng.tick() is not None


def test_release_is_ownership_checked(tmp_path):
    """A holder that outlived the TTL must not delete a NEW holder's lock on
    release (ADVICE r3): after a fence-break + reacquire, the original
    holder's exit leaves the new lock in place."""
    import socket

    lake = str(tmp_path / "lake")
    os.makedirs(lake, exist_ok=True)
    lockf = os.path.join(lake, "_lock.json")
    cm = writer_lock(lake, "slow-op")
    cm.__enter__()
    # simulate a waiter fence-breaking the (assumed stale) lock and
    # acquiring its own
    os.remove(lockf)
    new_payload = {
        "pid": os.getpid(),
        "host": socket.gethostname(),
        "op": "new-holder",
        "ts": time.time() + 1,  # differs from the slow op's ts
    }
    with open(lockf, "w") as f:
        json.dump(new_payload, f)
    cm.__exit__(None, None, None)  # slow op finishes — must NOT remove
    assert os.path.exists(lockf)
    with open(lockf) as f:
        assert json.load(f)["op"] == "new-holder"
    os.remove(lockf)


def test_recycled_pid_lock_breaks_via_ttl(tmp_path):
    """Same-host pid-reuse (ADVICE r3): an alive pid with a DIFFERENT kernel
    start time is a recycled pid — the holder is dead and the lock breaks
    immediately; without start-time proof it falls to the TTL instead of
    blocking forever."""
    import socket

    from etl_ray.engine.lock import _is_stale, _proc_start_ticks

    me = os.getpid()
    start = _proc_start_ticks(me)
    assert isinstance(start, int)
    base = {"pid": me, "host": socket.gethostname(), "op": "x", "ts": time.time()}
    # genuine live holder: never stale
    assert not _is_stale(dict(base, pid_start=start), ttl_s=0.0)
    # recycled pid (start ticks differ): stale right away
    assert _is_stale(dict(base, pid_start=start - 12345), ttl_s=3600.0)
    # old-format lock (no pid_start): falls through to TTL
    assert not _is_stale(dict(base), ttl_s=3600.0)
    assert _is_stale(dict(base, ts=time.time() - 10.0), ttl_s=1.0)
