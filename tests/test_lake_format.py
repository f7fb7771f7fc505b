"""One lake format (``engine/lineage.py`` module docstring): every writer
emits the whole manifest — each bucket manifest carries exactly the
``MANIFEST_SCHEMA`` fields, as JSON-native values, with the schema its
chain files really have, each tick manifest carries the ``lake_format``
stamp and the fields readers index without a fallback — and a lake without
the stamp is refused, not read.
``delta_threshold`` is the one state knob; the engine keeps no reader of a
pre-format layout."""

from __future__ import annotations

import ast
import glob
import json
import os
import pathlib
import re

import pyarrow.parquet as pq
import pytest

from etl_ray.engine import ReplayEngine
from etl_ray.engine.apply import MANIFEST_SCHEMA, bucket_files, schema_from_b64
from etl_ray.engine.export import final_state
from etl_ray.engine.lineage import LakeLineage
from etl_ray.engine.maintenance import (
    compact_agglog,
    compact_tombstones,
    erase_keys,
    rebucket,
)
from etl_ray.engine.schema_evo import unify_schemas

ENGINE = pathlib.Path(__file__).resolve().parents[1] / "etl_ray" / "engine"
TICK_FIELDS = (
    "wal_through_lsn", "num_buckets", "retained_through_tick", "tz_offset_minutes",
)
FORMAT_MSG = "written before lake format"


#: the exact Python types a bucket manifest field may hold when a writer
#: hands it to ``publish_bucket`` (a numpy scalar or an extra key would
#: otherwise reach the published JSON, or fail in ``json.dump``)
JSON_TYPES = (int, str, list, type(None))


@pytest.fixture
def published(monkeypatch) -> list[dict]:
    """Every bucket manifest a writer publishes, as the writer built it."""
    seen: list[dict] = []
    real = LakeLineage.publish_bucket

    def spy(self, manifest):
        seen.append(manifest)
        return real(self, manifest)

    monkeypatch.setattr(LakeLineage, "publish_bucket", spy)
    return seen


def _assert_whole_format(
    lake: str, writer: str, published: list[dict], *, publishes: bool = True
) -> None:
    from etl_ray.engine import lineage

    assert bool(published) == publishes, f"{writer}: published {len(published)}"
    for m in published:
        assert list(m) == MANIFEST_SCHEMA.names, f"{writer}: keys {list(m)}"
        bad = {
            k: type(v).__name__
            for k, v in m.items()
            if type(v) not in JSON_TYPES
            or isinstance(v, list) and any(type(x) is not str for x in v)
        }
        assert not bad, f"{writer}: bucket {m['bucket']} non-JSON values {bad}"
    published.clear()
    lin = LakeLineage(lake)
    mans = lin.all_bucket_manifests()
    assert mans, writer
    for m in mans:
        assert list(m) == MANIFEST_SCHEMA.names, f"{writer}: bucket {m['bucket']}"
        footers = unify_schemas([pq.read_schema(f) for f in bucket_files(m)])
        assert schema_from_b64(m["schema_b64"]).equals(
            footers, check_metadata=False
        ), f"{writer}: bucket {m['bucket']} records a schema its files lack"
    for p in sorted(glob.glob(os.path.join(lake, "_ticks", "tick-*.json"))):
        with open(p) as f:
            t = json.load(f)
        assert t.get("lake_format") == lineage.LAKE_FORMAT, f"{writer}: {p} unstamped"
        missing = [k for k in TICK_FIELDS if k not in t]
        assert not missing, f"{writer}: {p} lacks {missing}"


def _live_keys(lake: str, n: int) -> list[tuple[str, str]]:
    df = final_state(lake).to_pandas().sort_values(["repo", "path"])
    return [tuple(r) for r in df[["repo", "path"]].head(n).to_numpy()]


@pytest.mark.parametrize("threshold", [0, 2])
def test_every_writer_emits_the_whole_format(
    ray_session, small_wal, tmp_path, threshold, published
):
    """Replay, then each maintenance writer in turn; after every step each
    manifest is complete and its recorded schema matches its files."""
    from etl_ray.engine.folds import DEFAULT_FOLDS

    lake = str(tmp_path / "lake")
    ReplayEngine(
        small_wal.wal_dir, lake, num_buckets=8, concurrency=2,
        delta_threshold=threshold, folds=DEFAULT_FOLDS, tz_offset_minutes=330,
    ).replay_all(segments_per_tick=1)
    _assert_whole_format(lake, f"replay delta_threshold={threshold}", published)
    assert all(
        t["delta_threshold"] == threshold for t in LakeLineage(lake).all_ticks()
    )

    erase_keys(lake, _live_keys(lake, 3))
    _assert_whole_format(lake, "erase_keys", published)
    compact_tombstones(lake, lateness_bound=0)
    _assert_whole_format(lake, "compact_tombstones", published)
    compact_agglog(lake)
    _assert_whole_format(lake, "compact_agglog", published, publishes=False)
    rebucket(lake, 5)
    _assert_whole_format(lake, "rebucket", published)
    # maintenance ticks carry the lake's settings forward
    last = LakeLineage(lake).last_tick()
    assert last["num_buckets"] == 5 and last["tz_offset_minutes"] == 330


def test_bootstrap_emits_the_whole_format(
    ray_session, small_wal, tmp_path, published
):
    from etl_ray.engine.bootstrap import bootstrap_lake
    from etl_ray.oracle import expected_final_state

    k = small_wal.segments[2]["seqno"]
    snap_path = str(tmp_path / "snapshot.parquet")
    pq.write_table(
        expected_final_state(small_wal, with_sha=False, through_seqno=k), snap_path
    )
    lake = str(tmp_path / "lake")
    bootstrap_lake(lake, snap_path, num_buckets=4, through_seqno=k)
    _assert_whole_format(lake, "bootstrap", published)


def test_unstamped_lake_is_refused(ray_session, small_wal, tmp_path):
    """A tick manifest without the stamp (a lake written before the format)
    makes every entry point raise the format message instead of reading
    the lake through guesses."""
    from etl_ray.engine.tables import TableSpec, refresh_view

    lake = str(tmp_path / "lake")
    eng = ReplayEngine(small_wal.wal_dir, lake, num_buckets=8, concurrency=2)
    eng.replay_all()
    newest = sorted(glob.glob(os.path.join(lake, "_ticks", "tick-*.json")))[-1]
    with open(newest) as f:
        tick = json.load(f)
    del tick["lake_format"]
    tick["through_seqno"] -= 1  # leave a segment pending for tick()
    with open(newest, "w") as f:
        json.dump(tick, f)

    with pytest.raises(ValueError, match=FORMAT_MSG):
        eng.tick()
    with pytest.raises(ValueError, match=FORMAT_MSG):
        final_state(lake)
    with pytest.raises(ValueError, match=FORMAT_MSG):
        erase_keys(lake, [("r", "p")])
    with pytest.raises(ValueError, match=FORMAT_MSG):
        rebucket(lake, 4)
    with pytest.raises(ValueError, match=FORMAT_MSG):
        refresh_view(
            TableSpec(name="v", view="repo_stats", source="t"),
            lake,
            str(tmp_path / "view"),
        )


def test_format_1_lake_is_refused(tmp_path):
    """Format 2 changed the agg-log layout (commit_ts rows indexed by UTC
    day), so a lake stamped with format 1 is refused like an unstamped one."""
    from etl_ray.engine import lineage

    assert lineage.LAKE_FORMAT == 2
    lin = LakeLineage(str(tmp_path / "lake"))
    lin.publish_tick({**dict.fromkeys(lineage.TICK_FIELDS, 0), "segments": []})
    assert lin.last_tick()["lake_format"] == 2
    path = os.path.join(lin.ticks_dir, "tick-000000.json")
    with open(path) as f:
        tick = json.load(f)
    with open(path, "w") as f:
        json.dump({**tick, "lake_format": 1}, f)
    with pytest.raises(ValueError, match=f"{FORMAT_MSG} 2"):
        lin.last_tick()
    with pytest.raises(ValueError, match=f"{FORMAT_MSG} 2"):
        lin.all_ticks()


def test_state_mode_is_an_alias_of_delta_threshold():
    from etl_ray.engine.apply import resolve_delta_threshold

    assert resolve_delta_threshold() == 0
    assert resolve_delta_threshold("rewrite") == 0
    assert resolve_delta_threshold("delta") == 8
    assert resolve_delta_threshold("delta", 3) == 3
    assert resolve_delta_threshold(None, 3) == 3
    for bad in (("rewrite", 3), ("nope", None), (None, -1)):
        with pytest.raises(ValueError):
            resolve_delta_threshold(*bad)


# -- source guard -------------------------------------------------------------

#: manifest fields every current writer records: a ``.get`` with a default
#: is a reader for a lake the stamp check already refuses
FALLBACK_GET = re.compile(
    r"""\.get\(\s*["'](wal_through_lsn|num_buckets|retained_through_tick|schema_b64)["']"""
)
RESOLVER = "resolve_delta_threshold"


def _glob_calls(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            f = node.func
            name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", "")
            if name == "glob":
                yield node


def _state_mode_reads(tree: ast.AST):
    """``state_mode`` reads that are not handed straight on: outside the
    resolver, the alias may only be accepted as a parameter or field and
    passed to ``resolve_delta_threshold`` or another ``state_mode=``."""
    parents = {c: p for p in ast.walk(tree) for c in ast.iter_child_nodes(p)}

    def handed_on(node) -> bool:
        while node in parents:
            p = parents[node]
            if isinstance(p, ast.FunctionDef) and p.name == RESOLVER:
                return True
            if isinstance(p, ast.keyword) and p.arg == "state_mode":
                return True
            if isinstance(p, ast.Call) and getattr(p.func, "id", "") == RESOLVER:
                return True
            node = p
        return False

    for node in ast.walk(tree):
        read = (
            isinstance(node, ast.Name) and node.id == "state_mode"
            and isinstance(node.ctx, ast.Load)
            or isinstance(node, ast.Attribute) and node.attr == "state_mode"
            or isinstance(node, ast.Constant) and node.value == "state_mode"
            and not isinstance(parents.get(node), (ast.Set, ast.Tuple))
        )
        if read and not handed_on(node):
            yield node


def test_engine_reads_only_the_current_format():
    modules = sorted(ENGINE.glob("*.py"))
    assert len(modules) > 10, "engine modules not found"
    found = []
    for p in modules:
        text = p.read_text()
        tree = ast.parse(text)
        for i, line in enumerate(text.splitlines(), 1):
            if FALLBACK_GET.search(line):
                found.append(f"{p.name}:{i}: manifest-field fallback")
        for call in _glob_calls(tree):
            src = ast.get_source_segment(text, call) or ""
            if "agglog" in src and "day=" in src:
                found.append(f"{p.name}:{call.lineno}: legacy agg-log day= glob")
        for node in _state_mode_reads(tree):
            found.append(f"{p.name}:{node.lineno}: state_mode outside {RESOLVER}")
    assert not found, "pre-format reader in the engine:\n" + "\n".join(found)
