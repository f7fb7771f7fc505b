"""Crash safety of every step of a per-tick log (``engine/ticklog.py``),
with the crash injected from outside: ``os.replace``/``os.remove`` raise on
their k-th call inside the log's directory.

- write + redo: a torn write is invisible and the redo wipes it; the agg
  log's crashed-attempt parts are wiped, the feed's are kept for the same
  attempt and wiped for another one (or a disabled feed);
- compaction: after a crash at any rename or remove, every read equals the
  pre-compaction read, and a re-run completes it;
- erasure: after a crash at any rewrite, a re-run ends in the reads of an
  erasure that never crashed."""

from __future__ import annotations

import contextlib
import os
import shutil

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from etl_ray.engine import ReplayEngine, partitioning, ticklog
from etl_ray.engine.export import final_state

from conftest import inline_task_refs  # noqa: E402


class Crash(RuntimeError):
    pass


@pytest.fixture
def inline_tasks(monkeypatch, ray_session):
    """Run the log's task fan-outs in this process, where the injected
    crash reaches them."""
    monkeypatch.setattr(partitioning, "task_refs", inline_task_refs)


@contextlib.contextmanager
def _crash_at(log_dir: str, k: int | None):
    """Make the k-th ``os.replace``/``os.remove`` under ``log_dir`` raise
    before it acts (k=None: only count). Yields the list of calls seen."""
    seen: list = []
    with pytest.MonkeyPatch.context() as m:
        for name in ("replace", "remove"):
            real = getattr(os, name)

            def fake(*a, _real=real, _name=name, **kw):
                if str(a[-1]).startswith(log_dir):
                    seen.append((_name, os.path.basename(a[-1])))
                    if len(seen) == k:
                        raise Crash(f"crash at {_name} #{k}")
                return _real(*a, **kw)

            m.setattr(os, name, fake)
        yield seen


def _read(lake: str, log: ticklog.Log) -> pd.DataFrame:
    frames = [
        pq.ParquetFile(p["file"]).read_row_groups(p["rgs"]).to_pandas()
        for p in ticklog.parts(lake, log)
    ]
    # compaction drops replayed duplicate rows (same (repo, path, lsn))
    df = pd.concat(frames, ignore_index=True).drop_duplicates()
    df = df[sorted(df.columns)]
    return df.sort_values([c for c in df.columns if c != "content"]).reset_index(drop=True)


def _subject_group(lake: str, log: ticklog.Log, keys) -> tuple:
    """A row group of the log holding a row of ``keys``, and its key."""
    for p in ticklog.parts(lake, log):
        pf = pq.ParquetFile(p["file"])
        for rg, k in zip(p["rgs"], p["keys"]):
            t = pf.read_row_group(rg)
            if pc.any(ticklog.key_mask(t, keys)).as_py():
                return t, k
    raise AssertionError(f"no {log.dir} row of {keys}")


@pytest.fixture(scope="module")
def feed_lake(ray_session, small_wal, tmp_path_factory):
    lake = str(tmp_path_factory.mktemp("ticklog") / "lake")
    ReplayEngine(
        small_wal.wal_dir, lake, num_buckets=4, concurrency=2, emit_changelog=True
    ).replay_all(segments_per_tick=1)
    return lake


def test_write_crash_and_redo(feed_lake, tmp_path):
    lake = str(tmp_path / "lake")
    shutil.copytree(feed_lake, lake)
    tick = ticklog._last_tick(lake) + 1
    rows = pa.table({"repo": ["r"] * 3, "path": ["a", "b", "c"], "lsn": [1, 2, 3]})
    before = {log.dir: _read(lake, log) for log in (ticklog.AGGLOG, ticklog.FEED)}

    # a torn agg-log write of the next tick: invisible, and the redo wipes
    # the tick's parts (the whole and the torn one) and the tmp file; a
    # failed rename takes its tmp file along (``lineage.publish``), a
    # killed writer leaves it behind
    d = os.path.join(lake, ticklog.AGGLOG.dir)
    ticklog.write(lake, ticklog.AGGLOG, tick, "whole", rows, pa.repeat("k", 3))
    with _crash_at(d, 1), pytest.raises(Crash):
        ticklog.write(lake, ticklog.AGGLOG, tick, "torn", rows, pa.repeat("k", 3))
    pd.testing.assert_frame_equal(_read(lake, ticklog.AGGLOG), before[ticklog.AGGLOG.dir])
    assert not any(n.endswith(".tmp") for n in os.listdir(d))
    with open(os.path.join(d, f"t{tick:06d}-torn.parquet.1.tmp"), "wb") as f:
        f.write(b"PAR1")  # the killed writer's torn tmp file
    ticklog.begin_tick(lake, ticklog.AGGLOG, tick)
    left = [n for n in os.listdir(d) if n.startswith(f"t{tick:06d}-") or n.endswith(".tmp")]
    assert not left, left

    # the feed keeps a crashed attempt's parts for the same attempt only
    def tick_parts():
        return sorted(
            n for n in os.listdir(os.path.join(lake, ticklog.FEED.dir))
            if n.startswith(f"t{tick:06d}-") and not n.endswith("-attempt.parquet")
        )

    same = {"segments": [7, 8], "num_buckets": 4}
    ticklog.begin_tick(lake, ticklog.FEED, tick, same)
    ticklog.write(lake, ticklog.FEED, tick, "b00001", rows, pa.repeat(tick, 3))
    ticklog.begin_tick(lake, ticklog.FEED, tick, same)
    assert tick_parts() == [f"t{tick:06d}-b00001.parquet"]
    ticklog.begin_tick(lake, ticklog.FEED, tick, {"segments": [7], "num_buckets": 4})
    assert tick_parts() == []
    ticklog.write(lake, ticklog.FEED, tick, "b00001", rows, pa.repeat(tick, 3))
    ticklog.begin_tick(lake, ticklog.FEED, tick)  # a disabled feed
    assert tick_parts() == []
    pd.testing.assert_frame_equal(_read(lake, ticklog.FEED), before[ticklog.FEED.dir])


@pytest.mark.parametrize("log", [ticklog.FEED, ticklog.AGGLOG], ids=["feed", "agglog"])
def test_compact_crash_at_every_step(feed_lake, tmp_path, inline_tasks, log):
    src = str(tmp_path / "src")
    shutil.copytree(feed_lake, src)
    before = _read(src, log)

    done = str(tmp_path / "done")
    shutil.copytree(src, done)
    with _crash_at(os.path.join(done, log.dir), None) as calls:
        ticklog.compact(done, log)
    assert {c[0] for c in calls} == {"replace", "remove"}, calls
    pd.testing.assert_frame_equal(_read(done, log), before)

    for k in range(1, len(calls) + 1):
        lake = str(tmp_path / f"k{k}")
        shutil.copytree(src, lake)
        with _crash_at(os.path.join(lake, log.dir), k), pytest.raises(Crash):
            ticklog.compact(lake, log)
        at = f"crash at {calls[k - 1]}"
        pd.testing.assert_frame_equal(_read(lake, log), before, obj=at)
        ticklog.compact(lake, log)
        d = os.path.join(lake, log.dir)
        assert all(
            "replaces" in ticklog._meta(os.path.join(d, n)) for n in os.listdir(d)
        ), f"re-run after the {at} left uncompacted parts"
        pd.testing.assert_frame_equal(_read(lake, log), before)
        shutil.rmtree(lake)


def test_erase_crash_at_every_rewrite(feed_lake, tmp_path, inline_tasks):
    src = str(tmp_path / "src")
    shutil.copytree(feed_lake, src)
    state = final_state(src).to_pandas().sort_values(["repo", "path"])
    keys = [tuple(r) for r in state[["repo", "path"]].head(4).to_numpy()]
    tick = ticklog._last_tick(src)
    for log in (ticklog.FEED, ticklog.AGGLOG):
        # a part of subject rows only: its rewrite is a remove
        t, key = _subject_group(src, log, keys[:1])
        sub = t.filter(ticklog.key_mask(t, keys[:1]))
        ticklog.write(src, log, tick, "lone", sub, pa.repeat(key, sub.num_rows))

    for log in (ticklog.FEED, ticklog.AGGLOG):
        done = str(tmp_path / "done")
        shutil.copytree(src, done)
        with _crash_at(os.path.join(done, log.dir), None) as calls:
            assert ticklog.erase(done, log, keys) > 0
        want = _read(done, log)
        assert not set(zip(want["repo"], want["path"])) & set(keys)
        assert {c[0] for c in calls} == {"replace", "remove"}, calls
        for k in range(1, len(calls) + 1):
            lake = str(tmp_path / f"k{k}")
            shutil.copytree(src, lake)
            with _crash_at(os.path.join(lake, log.dir), k), pytest.raises(Crash):
                ticklog.erase(lake, log, keys)
            ticklog.erase(lake, log, keys)
            at = f"crash at {calls[k - 1]}"
            pd.testing.assert_frame_equal(_read(lake, log), want, obj=at)
            shutil.rmtree(lake)
        shutil.rmtree(done)
