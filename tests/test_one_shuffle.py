"""The engine has ONE hash shuffle: the indexed spill of
``engine/partitioning.py`` (producers write one row group per group,
consumers read only their groups). No engine module may fall back to a Ray
Data shuffle — ``diagnostics.py``, a one-off report, is the only exception."""

from __future__ import annotations

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
