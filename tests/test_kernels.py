"""Unit tests for the Arrow kernels: LWW dedup, schema evolution, hashing."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest

from etl_ray.engine.dedup import last_writer
from etl_ray.engine.partitioning import bucket_of, salt_of, stable_hash64
from etl_ray.engine.schema_evo import align_to, unify_schemas


def _t(**cols):
    return pa.table(cols)


class TestLastWriter:
    def test_basic_lww(self):
        t = _t(
            repo=["r", "r", "r", "s"],
            path=["a", "a", "b", "a"],
            lsn=[1, 5, 2, 3],
            v=["old", "new", "b", "s"],
        )
        out = last_writer(t).sort_by([("repo", "ascending"), ("path", "ascending")])
        assert out.to_pydict()["v"] == ["new", "b", "s"]
        assert out.schema.names == t.schema.names

    def test_exact_dup_ties(self):
        t = _t(repo=["r"] * 3, path=["a"] * 3, lsn=[7, 7, 7], v=["x", "x", "x"])
        out = last_writer(t)
        assert out.num_rows == 1 and out["v"][0].as_py() == "x"

    def test_associativity(self):
        rng = np.random.RandomState(0)
        n = 2000
        t = _t(
            repo=[f"r{i}" for i in rng.randint(0, 5, n)],
            path=[f"p{i}" for i in rng.randint(0, 40, n)],
            lsn=rng.permutation(n).astype("int64"),
            v=[str(i) for i in range(n)],
        )
        whole = last_writer(t).sort_by([("repo", "ascending"), ("path", "ascending")])
        a, b = t.slice(0, n // 3), t.slice(n // 3)
        parts = pa.concat_tables([last_writer(a), last_writer(b)])
        again = last_writer(parts).sort_by([("repo", "ascending"), ("path", "ascending")])
        assert whole.equals(again)

    def test_empty(self):
        t = _t(repo=pa.array([], pa.string()), path=pa.array([], pa.string()), lsn=pa.array([], pa.int64()))
        assert last_writer(t).num_rows == 0


class TestSchemaEvo:
    def test_unify_additive(self):
        a = pa.schema([("x", pa.int64()), ("y", pa.string())])
        b = pa.schema([("x", pa.int64()), ("z", pa.float64())])
        u = unify_schemas([a, b])
        assert u.names == ["x", "y", "z"]

    def test_unify_conflict_raises(self):
        a = pa.schema([("x", pa.int64())])
        b = pa.schema([("x", pa.string())])
        with pytest.raises(TypeError, match="non-additive"):
            unify_schemas([a, b])

    def test_align_null_backfill(self):
        t = _t(x=[1, 2])
        target = pa.schema([("x", pa.int64()), ("z", pa.float64())])
        out = align_to(t, target)
        assert out.schema.names == ["x", "z"]
        assert out["z"].null_count == 2
        # untouched column is byte-identical (zero-copy)
        assert out["x"].chunk(0).buffers()[1].address == t["x"].chunk(0).buffers()[1].address

    def test_align_keeps_extras(self):
        t = _t(x=[1], extra=["e"])
        out = align_to(t, pa.schema([("x", pa.int64())]))
        assert out.schema.names == ["x", "extra"]


class TestPartitioning:
    def test_hash_stable_and_spread(self):
        repo = pa.chunked_array([pa.array([f"org/r{i % 7}" for i in range(1000)])])
        path = pa.chunked_array([pa.array([f"src/f{i}.py" for i in range(1000)])])
        b1 = bucket_of(repo, path, 16).to_numpy()
        b2 = bucket_of(repo, path, 16).to_numpy()
        assert (b1 == b2).all()
        assert len(np.unique(b1)) == 16  # all buckets used
        assert b1.min() >= 0 and b1.max() < 16

    def test_hash_differs_on_separator(self):
        # ("ab", "c") must not collide with ("a", "bc")
        h1 = stable_hash64(pa.array(["ab"]), pa.array(["c"]))
        h2 = stable_hash64(pa.array(["a"]), pa.array(["bc"]))
        assert h1[0] != h2[0]

    def test_salt(self):
        lsn = pa.array(np.arange(0, 1 << 18, 1 << 12), pa.int64())
        s = salt_of(lsn, 4).to_pylist()
        assert set(s) <= {0, 1, 2, 3} and len(set(s)) == 4


def test_salt_cells_merge_to_same_winners():
    """SURVEY §7.4 salt-merge correctness: splitting one hot key's events
    into LSN-window salt cells, reducing each cell independently, then
    re-merging (max-LSN wins) must equal the unsalted reduction — the
    associativity that makes explicit hot-key salting safe."""
    import numpy as np
    import pyarrow as pa

    from etl_ray.engine.dedup import last_writer
    from etl_ray.engine.partitioning import salt_of

    rng = np.random.RandomState(3)
    n = 5000
    lsns = rng.permutation(np.arange(1, n + 1)).astype("int64")
    t = pa.table(
        {
            "repo": pa.array(["hot/repo"] * n),
            "path": pa.array([f"f{i % 7}" for i in range(n)]),  # 7 keys
            "lsn": pa.array(lsns, pa.int64()),
            "content": pa.array([f"c{v}" for v in lsns]),
        }
    )
    salts = salt_of(t["lsn"], n_salts=4, window=256)
    cells = [
        last_writer(t.filter(pa.compute.equal(salts, s)))
        for s in range(4)
    ]
    merged = last_writer(pa.concat_tables(cells)).sort_by(
        [("repo", "ascending"), ("path", "ascending")]
    )
    direct = last_writer(t).sort_by(
        [("repo", "ascending"), ("path", "ascending")]
    )
    assert merged.equals(direct)


def test_schema_widening_promotion():
    """A column observed at two widths unifies through the lossless lattice;
    old values cast exactly; cross-kind promotion still refuses."""
    import pyarrow as pa
    import pytest as _pytest

    from etl_ray.engine.schema_evo import align_to, unify_schemas

    s32 = pa.schema([("k", pa.string()), ("n", pa.int32())])
    s64 = pa.schema([("k", pa.string()), ("n", pa.int64()), ("extra", pa.float32())])
    uni = unify_schemas([s32, s64])
    assert uni.field("n").type == pa.int64()
    assert uni.field("extra").type == pa.float32()

    old = pa.table({"k": ["a", "b"], "n": pa.array([1, 2], pa.int32())})
    up = align_to(old, uni)
    assert up["n"].type == pa.int64()
    assert up["n"].to_pylist() == [1, 2]
    assert up["extra"].null_count == 2

    uni_f = unify_schemas(
        [pa.schema([("x", pa.float32())]), pa.schema([("x", pa.float64())])]
    )
    assert uni_f.field("x").type == pa.float64()

    with _pytest.raises(TypeError, match="non-additive"):
        unify_schemas(
            [pa.schema([("n", pa.int64())]), pa.schema([("n", pa.float64())])]
        )
    with _pytest.raises(TypeError, match="non-additive"):
        unify_schemas(
            [pa.schema([("n", pa.string())]), pa.schema([("n", pa.int32())])]
        )


# ---- property-based: the sort-based LWW kernel against the hash kernel -----

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


def _hash_join_last_writer(t: pa.Table, keys=("repo", "path"), order="lsn") -> pa.Table:
    """The earlier LWW kernel, kept as the reference: a hash ``group_by``
    max of ``order``, an inner join back onto (keys, order), a second
    ``group_by`` max of the row index when exact-order ties remain, then a
    ``take`` in input order. Rows with a null key or null order never match
    the join. Its tie check compares candidate and group counts, so a group
    whose key or order is all null (a group the join drops) can hide an
    exact tie elsewhere and keep both rows: it is called on inputs without
    nulls."""
    keys = list(keys)
    if t.num_rows == 0:
        return t
    narrow = t.select(keys + [order]).append_column(
        "__rowi", pa.array(np.arange(t.num_rows, dtype=np.int64))
    )
    winners = narrow.group_by(keys).aggregate([(order, "max")])
    winners = winners.select(keys + [f"{order}_max"]).rename_columns(keys + [order])
    cand = narrow.join(winners, keys=keys + [order], join_type="inner")
    if cand.num_rows > winners.num_rows:
        idx = cand.group_by(keys).aggregate([("__rowi", "max")])["__rowi_max"]
    else:
        idx = cand["__rowi"]
    return t.take(pa.array(np.sort(idx.to_numpy())))


_row = st.tuples(
    st.sampled_from(["r0", "r1", "r2", None]),
    st.sampled_from(["a", "b", "c", None]),
    st.one_of(st.integers(min_value=0, max_value=6), st.none()),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_row, max_size=60), st.lists(st.integers(1, 20), max_size=4))
def test_sort_kernel_matches_hash_kernel(rows, cuts):
    """Exact-LSN ties (the payload tells the rows apart), duplicate rows,
    null keys, null lsn and multi-chunk inputs: the sort kernel drops the
    rows with a null key or lsn, and its winners are the hash kernel's over
    the rest, in key order."""
    t = pa.table(
        {
            "repo": pa.array([r[0] for r in rows], pa.string()),
            "path": pa.array([r[1] for r in rows], pa.string()),
            "lsn": pa.array([r[2] for r in rows], pa.int64()),
            "v": pa.array([f"v{i % 7}" for i in range(len(rows))], pa.string()),
        }
    )
    bounds = sorted({0, t.num_rows, *(c for c in cuts if c < t.num_rows)})
    chunked = pa.concat_tables([t.slice(a, b - a) for a, b in zip(bounds, bounds[1:])] or [t])
    valid = [all(v is not None for v in r) for r in rows]
    want = _hash_join_last_writer(t.filter(pa.array(valid, pa.bool_()))).sort_by(
        [("repo", "ascending"), ("path", "ascending")]
    )
    got = last_writer(chunked)
    assert got.equals(want)
    assert last_writer(t).equals(want)
