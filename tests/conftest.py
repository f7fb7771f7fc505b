"""Session-scoped Ray fixture — one local Ray per pytest session."""

from __future__ import annotations

import os

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
