"""The crash matrix: every named commit point (``lineage.publish``) crashed
at its first occurrence inside one operation of a small multi-table
lake — the change feed, the folds and the pseudonym map on, three views
over the base table — at delta thresholds 0 and 8. The operations are the
last replay tick (with its view refresh), an export, a rebucket, an erasure
and a tombstone compaction. After each crash a rerun of the operation heals
the lake, or, for a crash in the view refresh that follows the operation's
commit, the next tick: the export with content sha, every view, the change
feed, the pseudonym map and the daily aggregates then ``Table.equals`` the
uncrashed run after the same operation.

The uncrashed run is made once per threshold. Its lake is copied aside
before each operation, and a case restores that copy at the same path
(manifests name their files by absolute path) before it crashes the
operation."""

from __future__ import annotations

import os
import shutil

import pyarrow as pa
import pytest

from etl_ray.engine import gdpr
from etl_ray.engine.aggregates import read_agg
from etl_ray.engine.changelog import read_changelog
from etl_ray.engine.export import final_state
from etl_ray.engine.folds import DEFAULT_FOLDS
from etl_ray.engine.lineage import LakeLineage
from etl_ray.engine.maintenance import compact_tombstones, rebucket
from etl_ray.engine.tables import MultiTableLake, TableSpec

BASE = "files"
VIEWS = ("repo_stats", "lang_stats", "sessions")

#: (operation, point, publishes of the point let through before the crash,
#: thresholds): every point at its first occurrence, and the bucket
#: manifests also half-way through a commit. An erasure's points after its
#: tick publish (agg log scrub, pseudonym map) are left out: its rerun is a
#: second erasure, which the feed records
CASES = [
    ("tick", "tables.registry", 0, (0, 8)),
    ("tick", "log.part", 0, (0, 8)),
    ("tick", "bucket.state", 0, (0, 8)),
    ("tick", "bucket.fold_tail", 0, (0, 8)),
    ("tick", "manifest.bucket", 0, (0, 8)),
    ("tick", "manifest.bucket", 2, (0, 8)),
    ("tick", "agg.day", 0, (0, 8)),
    ("tick", "gdpr.map", 0, (0, 8)),
    ("tick", "manifest.tick", 0, (0, 8)),
    ("tick", "view.partial", 0, (0, 8)),
    ("tick", "view.manifest", 0, (0, 8)),
    ("export", "bucket.fold_cache", 0, (8,)),  # threshold 0 keeps no chain
    ("rebucket", "shuffle.spill", 0, (0, 8)),
    ("rebucket", "rebucket.state", 0, (0, 8)),
    ("rebucket", "rebucket.fold_tail", 0, (0, 8)),
    ("rebucket", "rebucket.marker", 0, (0, 8)),
    ("rebucket", "manifest.bucket", 2, (0, 8)),
    ("rebucket", "manifest.tick", 0, (0, 8)),
    ("erase", "log.part", 0, (0, 8)),
    ("erase", "bucket.state", 0, (0, 8)),
    ("erase", "manifest.bucket", 0, (0, 8)),
    ("erase", "manifest.tick", 0, (0, 8)),
    ("erase", "view.partial", 0, (0, 8)),
    ("erase", "view.manifest", 0, (0, 8)),
    ("compact", "compact.state", 0, (0, 8)),
    ("compact", "manifest.bucket", 1, (0, 8)),
    ("compact", "manifest.tick", 0, (0, 8)),
]


def _specs(wal_dir: str, threshold: int) -> list[TableSpec]:
    return [
        TableSpec(
            name=BASE, wal_dir=wal_dir, num_buckets=4, folds=DEFAULT_FOLDS,
            emit_changelog=True, pseudonym_fields=["repo"],
            delta_threshold=threshold,
        ),
        TableSpec(name="repo_stats", view="repo_stats", source=BASE),
        TableSpec(
            name="lang_stats", view="aggregate", source=BASE,
            view_group_by=["lang"],
            view_aggs=[
                {"out": "n_files", "fn": "count"},
                {"out": "last_lsn", "col": "lsn", "fn": "max"},
            ],
        ),
        TableSpec(
            name="sessions", view="session", source=BASE, view_key=["repo"],
            view_ts="commit_ts", gap_minutes=45,
        ),
    ]


class Run:
    """One threshold's uncrashed run: the lake path, the copy of the lake
    before each operation and the outputs after it."""

    def __init__(self, root, wal_dir: str, threshold: int):
        self.specs = _specs(wal_dir, threshold)
        self.lake = str(root / "lake")
        self.key = None
        self.before, self.after = {}, {}
        n = len(MultiTableLake(self.lake, self.specs).engine(BASE).wal.segments)
        for _ in range(n - 1):
            self.op("tick")
        ops = ("tick", "export", "rebucket", "erase", "compact")
        for op, next_op in zip(ops, (*ops[1:], None)):
            if op == "tick":
                self.before[op] = str(root / f"before-{op}")
                shutil.copytree(self.lake, self.before[op])
            self.op(op)
            if next_op:  # copied before ``outputs`` exports (fold caches)
                self.before[next_op] = str(root / f"before-{next_op}")
                shutil.copytree(self.lake, self.before[next_op])
            self.after[op] = self.outputs()
            if op == "rebucket":
                live = self.after[op]["export"]
                self.key = (live["repo"][0].as_py(), live["path"][0].as_py())

    @property
    def base(self) -> str:
        return os.path.join(self.lake, "tables", BASE)

    def op(self, name: str) -> None:
        lake = MultiTableLake(self.lake, self.specs)  # opened anew, as by a CLI
        if name == "tick":
            lake.tick(1)
        elif name == "export":
            final_state(self.base, with_sha=True)
        elif name == "rebucket":
            rebucket(self.base, 6)
        elif name == "erase":
            lake.erase([self.key], erase_map_fields=["repo"])
        else:
            compact_tombstones(self.base, lateness_bound=0)

    def outputs(self) -> dict[str, pa.Table]:
        lake = MultiTableLake(self.lake, self.specs)
        out = {
            "export": _export(self.base),
            "feed": _sorted(pa.concat_tables(_blocks(read_changelog(self.base)))),
            "map": _sorted(gdpr.read_map(self.base)),
            **{v: _sorted(pa.concat_tables(_blocks(lake.read_view(v)))) for v in VIEWS},
        }
        for t in ("lang_daily_agg", "repo_daily_agg"):
            out[t] = _sorted(read_agg(LakeLineage(self.base), t))
        return out


def _blocks(ds) -> list[pa.Table]:
    import ray

    return ray.get(ds.to_arrow_refs())


def _sorted(t: pa.Table) -> pa.Table:
    return t.sort_by([(c, "ascending") for c in t.column_names])


def _export(base: str) -> pa.Table:
    t = pa.concat_tables(_blocks(final_state(base, with_sha=True)))
    return t.sort_by([("repo", "ascending"), ("path", "ascending")])


@pytest.fixture(scope="module")
def runs(ray_session, tmp_path_factory):
    from etl_ray.wal import generate_wal

    wal = generate_wal(
        str(tmp_path_factory.mktemp("wal_crash")), seed=17, n_events=2_400,
        n_repos=6, paths_per_repo=40, dup_rate=0.03, delete_rate=0.08,
        ooo_window=100, evolve_at_frac=0.5, segment_rows=600,
        content_min=16, content_max=64, days_span=3,
    )
    made = {}

    def get(threshold: int) -> Run:
        if threshold not in made:
            root = tmp_path_factory.mktemp(f"crash_t{threshold}")
            made[threshold] = Run(root, wal.wal_dir, threshold)
        return made[threshold]

    return get


@pytest.mark.parametrize(
    "op,point,after,threshold",
    [(op, point, after, t) for op, point, after, ts in CASES for t in ts],
)
def test_crash_at_point_heals(runs, crash_at, op, point, after, threshold):
    run = runs(threshold)
    shutil.rmtree(run.lake)
    shutil.copytree(run.before[op], run.lake)
    with crash_at(point, after=after) as crash:
        with pytest.raises(RuntimeError, match="injected crash"):
            run.op(op)
    assert crash["fired"]
    run.op("tick" if point.startswith("view.") else op)
    got = run.outputs()
    for name, want in run.after[op].items():
        assert got[name].equals(want), f"{name} differs after the heal"
