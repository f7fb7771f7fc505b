"""Pluggable metric specs — the user-extension surface for aggregates.

Analog of the reference's semantic layer (``materialized_fields_config.py:22-66``
+ ``user_history_parser.py:118-209``): a user registers
``{metric_name, select_expression, data_type, fold}`` and the engine adds the
column to the aggregate tables and folds it incrementally. Here a metric is:

- ``name``       output column,
- ``grain``      which aggregate table it lands on ("lang_daily" | "repo_daily"),
- ``batch_expr`` VECTORIZED pandas expression over deduped event rows
                 (columns: day, lang, repo, path, op, lsn, nbytes) of ANY
                 number of days — the recompute kernel reduces a whole
                 chunk of days in one call → a Series indexed by
                 ``(day, lang, repo)`` (group by all three; a key with no
                 qualifying rows may be absent and reads as NaN) — no
                 per-day or per-repo Python loop,
- ``agg``        how per-(day,lang,repo) intermediate values combine to the
                 final grain: "sum" | "max" | "min".

The fold is associative so per-changed-day recomputation (the reference's
D-2/D-1/D0 heal cascade, ``DAG_external_source.py:177-224``) stays exact.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import pandas as pd


@dataclass(frozen=True)
class MetricSpec:
    name: str
    grain: str  # "lang_daily" | "repo_daily"
    batch_expr: Callable[[pd.DataFrame], pd.Series]  # rows -> (day, lang, repo) Series
    agg: str = "sum"  # sum | max | min
    # metric columns are materialized as float64 (NaN where a partition has
    # no qualifying rows) — see aggregates._day_tables

    def __post_init__(self):
        if self.grain not in ("lang_daily", "repo_daily"):
            raise ValueError(f"unknown grain {self.grain!r}")
        if self.agg not in ("sum", "max", "min"):
            raise ValueError(f"unknown agg {self.agg!r}")


DEFAULT_METRICS: list[MetricSpec] = [
    MetricSpec(
        name="max_file_bytes",
        grain="lang_daily",
        batch_expr=lambda g: g.loc[g["op"] != "delete"]
        .groupby(["day", "lang", "repo"])["nbytes"]
        .max(),
        agg="max",
    ),
]
