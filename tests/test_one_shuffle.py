"""The engine has ONE hash shuffle: the indexed spill of
``engine/partitioning.py`` (producers write one row group per group,
consumers read only their groups). No engine module may fall back to a Ray
Data shuffle — ``diagnostics.py``, a one-off report, is the only exception.
Nor may one size a fan-out by its item count instead of the cluster."""

from __future__ import annotations

import ast
import pathlib

ENGINE = pathlib.Path(__file__).resolve().parents[1] / "etl_ray" / "engine"
FORBIDDEN = ("map_groups", ".repartition(", "ShuffleStrategy", "partial_groupby")


def test_engine_has_one_shuffle():
    modules = sorted(p for p in ENGINE.glob("*.py") if p.name != "diagnostics.py")
    assert len(modules) > 10, "engine modules not found"
    found = [
        f"{p.name}:{i}: {tok}"
        for p in modules
        for i, line in enumerate(p.read_text().splitlines(), 1)
        for tok in FORBIDDEN
        if tok in line
    ]
    assert not found, "Ray Data shuffle outside the spill primitive:\n" + "\n".join(found)


#: per-item fan-outs: one Ray task or block per bucket / file / day pays
#: Ray dispatch per item; engine fan-outs size to ``partitioning.cpu_chunks``
#: (``min(items, cluster CPUs)``) instead. ``read_parquet`` is listed because
#: it plans one read task per file and samples data on the driver.
PER_ITEM = ("override_num_blocks=len(", "override_num_blocks=max(len(", "read_parquet(")
#: module.function → why that function may keep its per-item grain
SIZED_ELSEWHERE = {
    "source.read_segments_indexed": (
        "replay sizes stage-1 blocks itself, from cluster CPUs and segment "
        "row counts, and hands this reader one item per block"
    ),
    "bootstrap.bootstrap_lake": (
        "reads the user's snapshot, whose files and layout the engine does "
        "not own (optionally hive-partitioned)"
    ),
}


def _top_level_function(tree: ast.Module, lineno: int) -> str | None:
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.lineno <= lineno <= node.end_lineno:
                return node.name
    return None


def test_fan_outs_sized_to_cluster():
    modules = sorted(ENGINE.glob("*.py"))
    assert len(modules) > 10, "engine modules not found"
    found = []
    for p in modules:
        text = p.read_text()
        tree = ast.parse(text)
        for i, line in enumerate(text.splitlines(), 1):
            for tok in PER_ITEM:
                if tok not in line:
                    continue
                where = f"{p.stem}.{_top_level_function(tree, i)}"
                if where not in SIZED_ELSEWHERE:
                    found.append(f"{p.name}:{i} ({where}): {tok}")
    assert not found, "fan-out not sized to the cluster:\n" + "\n".join(found)
