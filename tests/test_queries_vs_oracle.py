"""Driver-harness mimic: run every ``queries()`` entry at sf0.001 and compare
against its ``oracle_sql()`` DuckDB result — row count, schema (column names),
and exact values after order-insensitive normalization. This is the same
contract the external driver checks at sf0.01."""

from __future__ import annotations

import os

import duckdb
import pandas as pd
import pytest

import __ray_entry__ as entrymod

# the cdc_* oracle SQL embeds WAL segment paths resolved per sf — point it at
# the same sf this test session runs the Ray queries on (driver uses sf0.01)
os.environ["GRAFT_ORACLE_SF_DIR"] = os.environ.get(
    "GRAFT_TEST_SF_DIR", "/root/testdata/sf0.001"
)

TABLES = [
    "region",
    "nation",
    "customer",
    "supplier",
    "part",
    "orders",
    "lineitem",
    "events",
    "documents",
    "embeddings",
]


def _oracle_con(sf_dir: str) -> duckdb.DuckDBPyConnection:
    con = duckdb.connect()
    for t in TABLES:
        con.execute(
            f"CREATE OR REPLACE VIEW {t} AS SELECT * FROM read_parquet('{sf_dir}/{t}.parquet')"
        )
    return con


def _normalize(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    df = df.sort_values(list(df.columns), kind="mergesort").reset_index(drop=True)
    return df


def _canon_hash(df: pd.DataFrame) -> str:
    """Canonical value hash mimicking the driver: sort columns by name, sort
    rows, stringify every cell. Representation-sensitive on purpose — pandas
    Int64 ``252`` and float64 ``252.0`` hash DIFFERENTLY, so dtype drift
    between a query and its oracle fails here instead of silently breaking a
    green driver row (round-2 lesson: cdc_final_state / orders_asof)."""
    import hashlib

    df = _normalize(df)
    h = hashlib.sha256()
    for col in df.columns:
        h.update(col.encode())
        h.update(b"\x1e")
        for v in df[col].tolist():
            h.update(str(v).encode())
            h.update(b"\x1f")
    return h.hexdigest()


_SQL = entrymod.oracle_sql()
_QUERIES = entrymod.queries()
_ORACLED = sorted(k for k in _QUERIES if k in _SQL)
_ROWS_ONLY = sorted(k for k in _QUERIES if k not in _SQL)


def test_every_oracle_has_query():
    assert set(_SQL) <= set(_QUERIES)
    assert _ROWS_ONLY == [], "every registry entry must carry a DuckDB oracle"


@pytest.mark.parametrize("name", _ORACLED)
def test_query_matches_oracle(ray_session, sf_dir, name):
    got = _QUERIES[name](sf_dir)
    if not isinstance(got, pd.DataFrame):
        got = got.to_pandas()
    con = _oracle_con(sf_dir)
    exp = con.execute(_SQL[name]).df()
    con.close()
    assert len(got) == len(exp), f"{name}: rows {len(got)} != {len(exp)}"
    assert sorted(got.columns) == sorted(exp.columns), (
        f"{name}: columns {sorted(got.columns)} != {sorted(exp.columns)}"
    )
    g, e = _normalize(got), _normalize(exp)
    pd.testing.assert_frame_equal(g, e, check_dtype=False, check_exact=True, obj=name)
    assert _canon_hash(got) == _canon_hash(exp), (
        f"{name}: values equal but canonical string-hash differs — dtype/"
        f"representation drift (e.g. Int64 vs float64). dtypes got="
        f"{dict(got.dtypes.astype(str))} exp={dict(exp.dtypes.astype(str))}"
    )


# test_rows_only_queries_run retired (VERDICT r3 #10): every registry entry
# is oracled now, so its parameter set is empty — _ROWS_ONLY stays asserted
# empty in test_every_oracle_has_query instead of producing a benign skip.


def test_entry_smoke(ray_session):
    df = entrymod.entry()
    if not isinstance(df, pd.DataFrame):
        df = df.to_pandas()
    assert len(df) > 0
    assert "content_sha256" in df.columns


def test_session_oracle_ties_deterministic(tmp_path, monkeypatch):
    """cdc_session_view's oracle breaks commit_ts ties the way the engine's
    packed (ts, value) cells do: first_path is the smallest path at the
    session's first ts, last_path the largest at its last ts — not whichever
    tied row DuckDB's arg_min/arg_max happens to meet first."""
    from types import SimpleNamespace

    import pyarrow as pa
    import pyarrow.parquet as pq

    ts = pd.Timestamp("2024-01-01 10:00")
    rows = [  # (path, minutes after ts): ties at both session ends
        ("b.py", 0), ("a.py", 0), ("c.py", 0), ("m.py", 30),
        ("z.py", 60), ("y.py", 60), ("x.py", 60),
    ]
    seg = str(tmp_path / "seg.parquet")
    pq.write_table(
        pa.table({
            "repo": ["r"] * len(rows),
            "path": [p for p, _ in rows],
            "lsn": pa.array(range(len(rows)), pa.int64()),
            "op": ["upsert"] * len(rows),
            "commit_ts": pa.array(
                [ts + pd.Timedelta(minutes=m) for _, m in rows], pa.timestamp("us")
            ),
        }),
        seg,
    )
    fake = SimpleNamespace(segment_files=[seg], segments=[{}])
    monkeypatch.setattr(entrymod, "_ensure_wal", lambda sf_dir: fake)
    monkeypatch.setattr(entrymod, "_ensure_wal_b", lambda sf_dir: fake)
    sql = entrymod._cdc_oracle_sql()["cdc_session_view"]
    got = duckdb.connect().execute(sql).df()
    assert got[["first_path", "last_path"]].values.tolist() == [["a.py", "z.py"]]
