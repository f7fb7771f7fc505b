"""Session-scoped Ray fixture — one local Ray per pytest session — and the
crash fixture that fails a run at a named commit point."""

from __future__ import annotations

import contextlib
import os
import sys

import pytest


def init_ray():
    """The test session's local Ray (also used to restart it)."""
    import ray

    ray.init(
        address="local",
        num_cpus=4,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )


@pytest.fixture(scope="session")
def ray_session():
    import ray
    from ray.data import DataContext

    if not ray.is_initialized():
        init_ray()
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.execution_options.verbose_progress = False
    yield ray
    ray.shutdown()


@pytest.fixture(scope="session")
def sf_dir() -> str:
    return os.environ.get("GRAFT_TEST_SF_DIR", "/root/testdata/sf0.001")


@pytest.fixture(scope="session")
def small_wal(tmp_path_factory):
    """A small deterministic WAL shared across tests (10^4-ish events)."""
    from etl_ray.wal import generate_wal

    d = tmp_path_factory.mktemp("wal_small")
    return generate_wal(
        str(d),
        seed=7,
        n_events=12_000,
        n_repos=20,
        paths_per_repo=120,
        dup_rate=0.03,
        delete_rate=0.06,
        ooo_window=500,
        evolve_at_frac=0.55,
        segment_rows=2_500,
        content_min=32,
        content_max=512,
        days_span=9,
    )


def inline_task_refs(fn, chunks, *args):
    """``partitioning.task_refs`` stand-in: runs each task in this process
    (so a patch made here reaches it) and returns refs to the results."""
    import ray

    return [ray.put(fn(c, *args)) for c in chunks]


def inline_run_spilled(items, fn, *, max_tasks=None):
    """``partitioning.run_spilled`` stand-in: one in-process call of ``fn``
    over all ``items``, returned as a materialized Dataset."""
    import pyarrow as pa
    import ray.data

    out = fn(pa.Table.from_pylist(items))
    return ray.data.from_arrow([out] if isinstance(out, pa.Table) else list(out))


@pytest.fixture
def crash_at(monkeypatch):
    """``with crash_at(point, after=n, under=path) as crash:`` the
    ``n+1``-th publish at commit point ``point`` (``lineage.publish``)
    whose path starts with ``under`` raises ``RuntimeError("injected crash
    at <point> (test only)")`` instead, and so does every later one, as a
    dead process publishes nothing. Plain tasks and ``run_spilled``
    consumers run in this process inside the block, so the points they
    reach crash too. ``crash["fired"]`` tells whether the crash happened."""
    import importlib
    import pkgutil

    from etl_ray import engine
    from etl_ray.engine import lineage, partitioning

    # every module that imports the helper is loaded before it is patched
    for info in pkgutil.walk_packages(engine.__path__, "etl_ray.engine."):
        importlib.import_module(info.name)
    real = lineage.publish

    @contextlib.contextmanager
    def arm(point: str, *, after: int = 0, under: str | None = None):
        target, crash = point, {"seen": 0, "fired": False}

        def publish(path, write, *, point: str):
            if point == target and (under is None or path.startswith(under)):
                crash["seen"] += 1
                if crash["seen"] > after:
                    crash["fired"] = True
                    raise RuntimeError(f"injected crash at {point} (test only)")
            return real(path, write, point=point)

        with monkeypatch.context() as m:
            for name, mod in list(sys.modules.items()):
                if name.startswith("etl_ray") and getattr(mod, "publish", None) is real:
                    m.setattr(mod, "publish", publish)
            m.setattr(partitioning, "task_refs", inline_task_refs)
            m.setattr(partitioning, "run_spilled", inline_run_spilled)
            yield crash

    return arm
