"""Generic config-driven aggregate views (``view="aggregate"``): the
engine-side analog of the reference's semantic-layer materialized tables
(``lib/app_config/materialized_fields_config.py:22-66`` — per-app configs of
(metric name, select expression) fields generating aggregation tables).
Covers DuckDB-oracle equality for every supported fn (sum/count/min/max/mean
+ null defaults), incremental refresh, spec-change full recompute, config
round-trip, and a delta-mode upstream."""

from __future__ import annotations

import glob
import os

import duckdb
import numpy as np
import pandas as pd
import pytest

from etl_ray.engine.tables import (
    MultiTableLake,
    TableSpec,
    refresh_view,
    spec_from_config,
)
from etl_ray.engine.views.refresh import refresh_views

LANG_AGGS = [
    {"out": "n_files", "fn": "count"},
    {"out": "n_commits", "fn": "count", "col": "commit"},
    {"out": "total_bytes", "col": "size_bytes", "fn": "sum", "default": 0,
     "optional": True},
    {"out": "first_lsn", "col": "lsn", "fn": "min"},
    {"out": "last_lsn", "col": "lsn", "fn": "max"},
    {"out": "mean_bytes", "col": "size_bytes", "fn": "mean", "optional": True},
]


def _lang_view_spec(wal, **table_kw) -> list[TableSpec]:
    return [
        TableSpec(name="repo_files", wal_dir=wal.wal_dir, num_buckets=8, **table_kw),
        TableSpec(
            name="lang_stats",
            view="aggregate",
            source="repo_files",
            view_group_by=["lang"],
            view_aggs=LANG_AGGS,
        ),
    ]


def _oracle_lang_stats(wal) -> pd.DataFrame:
    files = ", ".join(f"'{f}'" for f in wal.segment_files)
    has_size = any(s.get("has_size_bytes") for s in wal.segments)
    size_expr = "CAST(size_bytes AS BIGINT)" if has_size else "CAST(NULL AS BIGINT)"
    sql = f"""
        SELECT lang,
               CAST(COUNT(*) AS BIGINT) AS n_files,
               CAST(COUNT("commit") AS BIGINT) AS n_commits,
               CAST(COALESCE(SUM(sz), 0) AS BIGINT) AS total_bytes,
               CAST(MIN(lsn) AS BIGINT) AS first_lsn,
               CAST(MAX(lsn) AS BIGINT) AS last_lsn,
               AVG(sz) AS mean_bytes
        FROM (
            SELECT repo, path, "commit", lang, lsn, {size_expr} AS sz, op,
                   row_number() OVER (PARTITION BY repo, path
                                      ORDER BY lsn DESC) AS rn
            FROM read_parquet([{files}], union_by_name=true)
        )
        WHERE rn = 1 AND op <> 'delete'
        GROUP BY lang ORDER BY lang
    """
    return duckdb.sql(sql).df()


def _view_df(lake: MultiTableLake) -> pd.DataFrame:
    df = (
        lake.read_view("lang_stats")
        .to_pandas()
        .sort_values("lang")
        .reset_index(drop=True)
    )
    ints = {c: "int64" for c in
            ("n_files", "n_commits", "total_bytes", "first_lsn", "last_lsn")}
    return df.astype(ints)


def _assert_matches_oracle(lake: MultiTableLake, wal) -> None:
    got, exp = _view_df(lake), _oracle_lang_stats(wal)
    cols = ["lang", "n_files", "n_commits", "total_bytes", "first_lsn", "last_lsn"]
    pd.testing.assert_frame_equal(got[cols], exp[cols], check_dtype=False)
    assert np.allclose(got["mean_bytes"], exp["mean_bytes"], equal_nan=True)


@pytest.mark.parametrize("state_mode", ["rewrite", "delta"])
def test_aggregate_view_matches_oracle(ray_session, small_wal, tmp_path, state_mode):
    lake = MultiTableLake(
        str(tmp_path / "ml"), _lang_view_spec(small_wal, state_mode=state_mode)
    )
    lake.replay_all(segments_per_tick=2)
    _assert_matches_oracle(lake, small_wal)


def test_aggregate_view_incremental_and_spec_change(ray_session, small_wal, tmp_path):
    lake = MultiTableLake(str(tmp_path / "ml"), _lang_view_spec(small_wal))
    n_segs = len(small_wal.segments)
    r1 = lake.tick(max_segments=n_segs - 1)
    assert r1["lang_stats"]["buckets"] > 0
    # no upstream advance → refresh is a no-op
    spec = lake.spec("lang_stats")
    assert (
        refresh_view(
            spec, lake.table_dir("repo_files"), lake.table_dir("lang_stats")
        )
        is None
    )
    # the last segment touches a subset of buckets → partial refresh
    r2 = lake.tick()
    total = len(
        glob.glob(
            os.path.join(lake.table_dir("lang_stats"), "partials", "b=*.parquet")
        )
    )
    assert 0 < r2["lang_stats"]["buckets"] <= total
    _assert_matches_oracle(lake, small_wal)
    # a changed view DEFINITION forces a full partial recompute
    changed = {
        "group_by": ["lang"],
        "aggs": [{"out": "n_files", "fn": "count"}],
    }
    r3 = refresh_views(
        lake.table_dir("repo_files"),
        [("aggregate", changed, lake.table_dir("lang_stats"))],
    )[0]
    assert r3["buckets"] == total, "spec change must recompute every bucket"
    # ... and the recomputed partials carry the new (narrower) schema
    import pyarrow.parquet as pq

    f = glob.glob(
        os.path.join(lake.table_dir("lang_stats"), "partials", "b=*.parquet")
    )[0]
    assert pq.read_schema(f).names == ["lang", "n_files"]


def test_aggregate_view_config_roundtrip_and_validation(tmp_path):
    s = spec_from_config(
        {
            "name": "lang_stats",
            "view": "aggregate",
            "source": "repo_files",
            "group_by": ["lang"],
            "aggs": [{"out": "n", "fn": "count"},
                     {"out": "mb", "col": "size_bytes", "fn": "mean"}],
        }
    )
    assert s.view == "aggregate" and s.view_group_by == ["lang"]
    assert s.view_aggs[1]["fn"] == "mean"
    with pytest.raises(ValueError, match="group_by"):
        TableSpec(name="v", view="aggregate", source="t",
                  view_aggs=[{"out": "n", "fn": "count"}]).validate()
    with pytest.raises(ValueError, match="fn must be"):
        TableSpec(name="v", view="aggregate", source="t", view_group_by=["g"],
                  view_aggs=[{"out": "n", "fn": "median", "col": "x"}]).validate()
    with pytest.raises(ValueError, match="needs col"):
        TableSpec(name="v", view="aggregate", source="t", view_group_by=["g"],
                  view_aggs=[{"out": "n", "fn": "sum"}]).validate()
    with pytest.raises(ValueError, match="duplicate"):
        TableSpec(name="v", view="aggregate", source="t", view_group_by=["g"],
                  view_aggs=[{"out": "n", "fn": "count"},
                             {"out": "n", "col": "x", "fn": "sum"}]).validate()
    with pytest.raises(ValueError, match="bad output name"):
        TableSpec(name="v", view="aggregate", source="t", view_group_by=["g"],
                  view_aggs=[{"out": "no spaces", "fn": "count"}]).validate()


def test_aggregate_view_stays_typed_across_widening(ray_session, tmp_path):
    """Width evolution (size_bytes int32 → int64 mid-stream): partials of
    buckets last written at the narrow width must agree with partials of
    rewritten buckets (all pinned to the UNIFIED upstream type), and a
    widening that lands between refreshes forces a full partial recompute
    (types_hash) instead of leaving mixed-width partial files behind."""
    import json as _json

    from etl_ray.wal import generate_wal

    wal = generate_wal(
        str(tmp_path / "wal"),
        seed=13, n_events=6_000, n_repos=16, paths_per_repo=60,
        dup_rate=0.02, delete_rate=0.05, ooo_window=200,
        evolve_at_frac=0.3, widen_at_frac=0.6, segment_rows=1_000,
        content_min=16, content_max=128, days_span=4,
    )
    specs = [
        TableSpec(name="repo_files", wal_dir=wal.wal_dir, num_buckets=8),
        TableSpec(
            name="sizes", view="aggregate", source="repo_files",
            view_group_by=["lang"],
            view_aggs=[
                {"out": "max_bytes", "col": "size_bytes", "fn": "max"},
                {"out": "n", "fn": "count"},
            ],
        ),
    ]
    lake = MultiTableLake(str(tmp_path / "ml"), specs)
    n = len(wal.segments)
    # first refresh sees only the narrow (int32) width
    lake.tick(max_segments=max(1, int(n * 0.4)))
    v_dir = lake.table_dir("sizes")
    h1 = _json.load(open(os.path.join(v_dir, "_view.json")))["types_hash"]
    # the widened segments land; refresh must detect the type drift and
    # rewrite EVERY partial, not only the advanced buckets'
    lake.replay_all()
    h2 = _json.load(open(os.path.join(v_dir, "_view.json")))["types_hash"]
    assert h1 != h2, "widening must change the pinned column types"
    import pyarrow.parquet as pq

    for f in glob.glob(os.path.join(v_dir, "partials", "b=*.parquet")):
        t = pq.read_schema(f)
        assert str(t.field("max_bytes").type) == "int64", f
    got = (
        lake.read_view("sizes")
        .to_pandas()
        .sort_values("lang")
        .reset_index(drop=True)
    )
    files = ", ".join(f"'{f}'" for f in wal.segment_files)
    exp = duckdb.sql(f"""
        SELECT lang, CAST(MAX(size_bytes) AS BIGINT) AS max_bytes,
               CAST(COUNT(*) AS BIGINT) AS n
        FROM (
            SELECT lang, CAST(size_bytes AS BIGINT) AS size_bytes, op,
                   row_number() OVER (PARTITION BY repo, path
                                      ORDER BY lsn DESC) AS rn
            FROM read_parquet([{files}], union_by_name=true)
        )
        WHERE rn = 1 AND op <> 'delete'
        GROUP BY lang ORDER BY lang
    """).df()
    pd.testing.assert_frame_equal(got, exp, check_dtype=False)


def test_aggregate_view_rejects_unknown_column(ray_session, small_wal, tmp_path):
    """A typo'd source column errors loudly instead of producing all-null
    aggregates over fabricated columns."""
    lake = MultiTableLake(
        str(tmp_path / "ml"),
        [
            TableSpec(name="repo_files", wal_dir=small_wal.wal_dir, num_buckets=8),
            TableSpec(
                name="v", view="aggregate", source="repo_files",
                view_group_by=["lang"],
                view_aggs=[{"out": "s", "col": "size_byte", "fn": "sum"}],
            ),
        ],
    )
    with pytest.raises(ValueError, match="size_byte.*not in the upstream"):
        lake.replay_all(segments_per_tick=2)


# --- first/last (argmin/argmax by order key) --------------------------------

REG_AGGS = [
    {"out": "live_files", "fn": "count"},
    {"out": "first_lsn", "col": "lsn", "fn": "min"},
    {"out": "first_path", "col": "path", "fn": "first", "by": "lsn"},
    {"out": "first_commit", "col": "commit", "fn": "first", "by": "lsn"},
    {"out": "last_path", "col": "path", "fn": "last", "by": "lsn"},
    {"out": "last_ts", "col": "commit_ts", "fn": "last", "by": "lsn"},
]


def _registration_specs(wal, **table_kw) -> list[TableSpec]:
    """The reference's registration fact (first event per user with rider
    columns, ``insert_registration.sql:18-41``) as an aggregate view over
    the live state: first/last commit metadata per repo."""
    return [
        TableSpec(name="repo_files", wal_dir=wal.wal_dir, num_buckets=8, **table_kw),
        TableSpec(
            name="registration",
            view="aggregate",
            source="repo_files",
            view_group_by=["repo"],
            view_aggs=REG_AGGS,
        ),
    ]


def _oracle_registration(wal) -> pd.DataFrame:
    files = ", ".join(f"'{f}'" for f in wal.segment_files)
    return duckdb.sql(f"""
        SELECT repo,
               CAST(COUNT(*) AS BIGINT) AS live_files,
               CAST(MIN(lsn) AS BIGINT) AS first_lsn,
               arg_min(path, lsn) AS first_path,
               arg_min("commit", lsn) AS first_commit,
               arg_max(path, lsn) AS last_path,
               arg_max(commit_ts, lsn) AS last_ts
        FROM (
            SELECT *, row_number() OVER (PARTITION BY repo, path
                                         ORDER BY lsn DESC) AS rn
            FROM read_parquet([{files}], union_by_name=true)
        )
        WHERE rn = 1 AND op <> 'delete'
        GROUP BY repo ORDER BY repo
    """).df()


@pytest.mark.parametrize("state_mode", ["rewrite", "delta"])
def test_first_last_registration_view_matches_oracle(
    ray_session, small_wal, tmp_path, state_mode
):
    """first/last ride the same incremental two-level machinery: winners
    per bucket partial, winner-of-winners at read — multi-tick replay so
    partials really are refreshed incrementally across ticks."""
    lake = MultiTableLake(
        str(tmp_path / "ml"), _registration_specs(small_wal, state_mode=state_mode)
    )
    lake.replay_all(segments_per_tick=2)
    got = (
        lake.read_view("registration")
        .to_pandas()
        .sort_values("repo")
        .reset_index(drop=True)
        .astype({"live_files": "int64", "first_lsn": "int64"})
    )
    exp = _oracle_registration(small_wal)
    pd.testing.assert_frame_equal(got, exp, check_dtype=False)


def test_first_last_validation():
    with pytest.raises(ValueError, match="needs an order key"):
        TableSpec(
            name="v", view="aggregate", source="t", view_group_by=["g"],
            view_aggs=[{"out": "f", "col": "x", "fn": "first"}],
        ).validate()
    s = spec_from_config(
        {
            "name": "reg", "view": "aggregate", "source": "t",
            "group_by": ["repo"],
            "aggs": [{"out": "fp", "col": "path", "fn": "first", "by": "lsn"}],
        }
    )
    assert s.view_aggs[0]["by"] == "lsn"


def test_first_last_rejects_string_order_key(ray_session, small_wal, tmp_path):
    """A variable-width order key cannot be packed order-preservingly —
    refuse loudly at refresh time."""
    lake = MultiTableLake(
        str(tmp_path / "ml"),
        [
            TableSpec(name="repo_files", wal_dir=small_wal.wal_dir, num_buckets=4),
            TableSpec(
                name="v", view="aggregate", source="repo_files",
                view_group_by=["repo"],
                view_aggs=[{"out": "f", "col": "lsn", "fn": "first", "by": "path"}],
            ),
        ],
    )
    with pytest.raises(ValueError, match="unorderable"):
        lake.replay_all(segments_per_tick=2)


def test_extreme_pack_roundtrip_kernels():
    """Unit coverage of the (order, value) packing: sign handling for ints
    and floats, null order keys (ignored), null values at the winning
    order (win and decode to null), tie-break determinism."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from etl_ray.engine.views.encoding import _dec_extreme, _enc_extreme

    # negative/zero/positive float order keys sort correctly
    order = pa.array([2.5, -1.0, 0.0], pa.float64())
    vals = pa.array([-5, 3, None], pa.int64())
    enc = _enc_extreme(order, vals)
    assert _dec_extreme(enc, pa.int64()).to_pylist() == [-5, 3, None]
    assert _dec_extreme(
        pa.array([pc.min(enc).as_py()], pa.binary()), pa.int64()
    ).to_pylist() == [3], "min order -1.0 carries value 3"
    # null order key encodes null (min/max skip it)
    enc2 = _enc_extreme(pa.array([None, 1], pa.int64()), pa.array(["a", "b"]))
    assert enc2.null_count == 1
    # null VALUE at the winning order wins and decodes to null
    enc3 = _enc_extreme(pa.array([1, 2], pa.int64()),
                        pa.array([None, "b"], pa.string()))
    assert _dec_extreme(
        pa.array([pc.min(enc3).as_py()], pa.binary()), pa.string()
    ).to_pylist() == [None]
    # float value roundtrip incl. negatives
    encf = _enc_extreme(pa.array([1, 2, 3]), pa.array([1.5, -2.25, None]))
    assert _dec_extreme(encf, pa.float64()).to_pylist() == [1.5, -2.25, None]


def test_extreme_pack_date_order_keys():
    """Review regression: date32/date64 order keys and values pack/decode
    (no direct date32→int64 cast kernel exists in Arrow)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from etl_ray.engine.views.encoding import _dec_extreme, _enc_extreme

    d32 = pa.array([10, 3, None], pa.date32())
    vals = pa.array(["a", "b", "c"], pa.string())
    enc = _enc_extreme(d32, vals)
    assert enc.null_count == 1
    assert _dec_extreme(
        pa.array([pc.min(enc).as_py()], pa.binary()), pa.string()
    ).to_pylist() == ["b"], "min date32 order key must win"
    # date values roundtrip through the int packing
    enc2 = _enc_extreme(pa.array([1, 2], pa.int64()), d32.slice(0, 2))
    assert _dec_extreme(enc2, pa.date32()).to_pylist() == [
        __import__("datetime").date(1970, 1, 11),
        __import__("datetime").date(1970, 1, 4),
    ]
    d64 = pa.array([86_400_000, 0], pa.date64())
    enc3 = _enc_extreme(d64, pa.array([5, 7], pa.int64()))
    assert _dec_extreme(
        pa.array([pc.min(enc3).as_py()], pa.binary()), pa.int64()
    ).to_pylist() == [7]


_PACKABLE_CASES = [
    ("int8", [-128, 0, 127]),
    ("int16", [-32768, 1, 32767]),
    ("int32", [-(2**31), -1, 2**31 - 1]),
    ("int64", [-(2**63), -1, 0, 2**63 - 1]),
    ("uint8", [0, 255]),
    ("uint32", [0, 2**32 - 1]),
    ("uint64", [0, 2**63 - 1]),
    ("float32", [float("nan"), -0.0, 0.0, float("-inf"), float("inf"), -1.5]),
    ("float64", [float("nan"), -0.0, 0.0, float("-inf"), float("inf"), 5e-324]),
    ("bool", [True, False]),
    ("date32", [-719162, 0, 2932896]),
    ("date64", [-86_400_000, 0, 86_400_000]),
    ("ts_tz", [-(2**55), 0, 1_700_000_000_000_000]),
    ("ts_s", [0, 1_700_000_000]),
    ("string", ["", "é", "日本語", "a\x00b", "plain"]),
    ("binary", [b"", b"\x00", b"\xff\x00\x01", b"plain"]),
]


@pytest.mark.parametrize("name,cases", _PACKABLE_CASES, ids=[c[0] for c in _PACKABLE_CASES])
def test_extreme_pack_roundtrip_every_packable_type(name, cases):
    """``_enc_extreme`` → min/max → ``_dec_extreme`` for every value type the
    first/last validation accepts: each cell decodes to its value exactly
    (NaN, ±0.0 and ±inf by bit pattern), a NULL order key decodes to NULL,
    the NULL value at the winning order wins, and the largest order wins
    the max."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from etl_ray.engine.views.encoding import _dec_extreme, _enc_extreme

    typ = {
        "bool": pa.bool_(), "date32": pa.date32(), "date64": pa.date64(),
        "ts_tz": pa.timestamp("us", tz="Asia/Kolkata"), "ts_s": pa.timestamp("s"),
        "string": pa.string(), "binary": pa.binary(),
    }.get(name) or pa.type_for_alias(name)
    # row 0: the NULL value at the smallest order; last row: a NULL order
    # key next to a value that would otherwise win both extremes
    values = pa.array([None, *cases, cases[0]], typ)
    order = pa.array([-(2**63), *range(1, len(cases) + 1), None], pa.int64())
    enc = _enc_extreme(order, values)
    assert enc.null_count == 1

    def same(got, exp):
        assert got.type == typ
        assert [repr(v) for v in got.to_pylist()] == [repr(v) for v in exp]

    same(_dec_extreme(enc, typ), [None, *values.to_pylist()[1:-1], None])
    # a chunked, offset input decodes the same (the reduce hands chunks)
    same(
        _dec_extreme(pa.chunked_array([enc.slice(0, 2), enc.slice(2)]).slice(1), typ),
        [*values.to_pylist()[1:-1], None],
    )
    first = pa.array([pc.min(enc).as_py()], pa.binary())
    last = pa.array([pc.max(enc).as_py()], pa.binary())
    same(_dec_extreme(first, typ), [None])
    same(_dec_extreme(last, typ), [values.to_pylist()[-2]])


def test_first_last_rejects_unpackable_value(ray_session, small_wal, tmp_path):
    """Review regression: an unsupported VALUE type fails at refresh-time
    validation with a value-column message, not per-bucket in the kernel."""
    lake = MultiTableLake(
        str(tmp_path / "ml"),
        [
            TableSpec(name="repo_files", wal_dir=small_wal.wal_dir, num_buckets=4),
            TableSpec(
                name="v", view="aggregate", source="repo_files",
                view_group_by=["repo"],
                view_aggs=[{"out": "f", "col": "meta", "fn": "first", "by": "lsn"}],
            ),
        ],
    )
    with pytest.raises(ValueError, match="unpackable|not in the upstream"):
        lake.replay_all(segments_per_tick=2)
