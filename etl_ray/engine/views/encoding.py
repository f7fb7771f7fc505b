"""The extremal (first/last) encoding of view aggregates.

first/last are argmin/argmax by an order key: the value of ``col`` on the
group's row with the smallest/largest ``by``. (order, value) packs into one
binary cell: 8-byte order-preserving big-endian order key ++ 1-byte null
marker ++ value bytes. Lexicographic min/max of the cell IS the
argmin/argmax row, so the two-level partial/reduce stays plain min/max
(distributive). Ties on the order key break by value bytes (deterministic);
a null order key encodes as null (ignored by min/max); a null VALUE at the
winning order still wins, decoding to null.
"""

from __future__ import annotations


def _sortable_u64(col):
    """Arrow numeric/temporal column → (uint64 codes whose unsigned order
    equals the value order, null mask). Strings are rejected: variable-width
    order prefixes would break lexicographic comparability of the packed
    cell."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    t = col.type
    nulls = pc.is_null(col).to_numpy(zero_copy_only=False)
    sign = np.uint64(1 << 63)
    if pa.types.is_date32(t):
        col = pc.cast(col, pa.int32())  # no direct date32→int64 cast kernel
        t = col.type
    elif pa.types.is_date64(t):
        col = pc.cast(col, pa.int64())
        t = col.type
    if (
        pa.types.is_integer(t)
        or pa.types.is_timestamp(t)
        or pa.types.is_boolean(t)
    ):
        v = pc.fill_null(pc.cast(col, pa.int64()), 0).to_numpy()
        codes = v.astype(np.int64).view(np.uint64) ^ sign
    elif pa.types.is_floating(t):
        v = pc.fill_null(pc.cast(col, pa.float64()), 0.0).to_numpy()
        bits = v.view(np.uint64)
        neg = bits >> np.uint64(63) != 0
        codes = np.where(neg, ~bits, bits ^ sign)
    else:
        raise ValueError(
            f"first/last cannot order/carry type {t} (need numeric/temporal; "
            "string rider values are fine, string ORDER keys are not)"
        )
    return codes, nulls


def _u64_to_binary(codes, nulls):
    """uint64 codes → Arrow binary array of 8-byte big-endian cells.
    (Via fixed_size_binary over the raw buffer — a numpy 'S8' view would
    silently strip trailing NUL bytes.)"""
    import pyarrow as pa
    import pyarrow.compute as pc

    be = codes.astype(">u8")
    fsb = pa.Array.from_buffers(
        pa.binary(8), len(be), [None, pa.py_buffer(be.tobytes())]
    )
    out = fsb.cast(pa.binary())
    if nulls.any():
        out = pc.if_else(
            pa.array(nulls), pa.scalar(None, pa.binary()), out
        )
    return out


def _enc_extreme(order_col, value_col) -> "pa.Array":
    """Pack (order, value) into the sortable binary cell (see above)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    order_bin = _u64_to_binary(*_sortable_u64(order_col))
    if isinstance(value_col, pa.ChunkedArray):
        value_col = value_col.combine_chunks()
    vt = value_col.type
    if pa.types.is_string(vt):
        value_bin = pc.cast(value_col, pa.binary())
    elif pa.types.is_binary(vt):
        value_bin = value_col
    else:
        value_bin = _u64_to_binary(*_sortable_u64(value_col))
    marker = pc.if_else(
        pc.is_null(value_bin),
        pa.scalar(b"\x00", pa.binary()),
        pa.scalar(b"\x01", pa.binary()),
    )
    return pc.binary_join_element_wise(
        order_bin,
        marker,
        pc.fill_null(value_bin, pa.scalar(b"", pa.binary())),
        pa.scalar(b"", pa.binary()),
    )


def _dec_extreme(bin_col, value_type) -> "pa.Array":
    """Packed winners → values of ``value_type``, column at a time: the
    marker byte becomes one null mask, and fixed-width payloads invert
    :func:`_sortable_u64` through a big-endian uint64 view."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    if isinstance(bin_col, pa.ChunkedArray):
        bin_col = bin_col.combine_chunks()
    marker = pc.binary_slice(bin_col, 8, 9)
    present = pc.fill_null(pc.equal(marker, pa.scalar(b"\x01", pa.binary())), False)
    if pa.types.is_string(value_type) or pa.types.is_binary(value_type):
        # an explicit stop: binary_slice's default one overflows in pyarrow 16
        stop = max(pc.max(pc.binary_length(bin_col)).as_py() or 0, 9)
        payload = pc.binary_slice(bin_col, 9, stop)
        return pc.if_else(present, payload.cast(value_type), pa.scalar(None, value_type))
    payload = pc.if_else(
        present, pc.binary_slice(bin_col, 9, 17), pa.scalar(bytes(8), pa.binary())
    ).cast(pa.binary(8))
    u = np.frombuffer(
        payload.buffers()[1], ">u8", len(payload), payload.offset * 8
    ).astype(np.uint64)
    sign = np.uint64(1 << 63)
    mask = ~present.to_numpy(zero_copy_only=False)
    if pa.types.is_floating(value_type):
        bits = np.where(u & sign != 0, u ^ sign, ~u)
        return pa.array(bits.view(np.float64), mask=mask).cast(value_type)
    # ints / timestamp / date / bool — stored as shifted int64
    out = pa.array((u ^ sign).view(np.int64), mask=mask)
    if pa.types.is_date32(value_type):
        out = out.cast(pa.int32())  # no direct int64→date32 cast kernel
    return out.cast(value_type)


def _extremal_fields(agg_spec: dict) -> list[dict]:
    return [a for a in agg_spec["aggs"] if a["fn"] in ("first", "last")]


def _enc_types_payload(agg_spec: dict, col_types: dict) -> str | None:
    """Value types of the extremal outputs, IPC-serialized (base64) for the
    view manifest — the read side needs the exact Arrow types to decode."""
    import pyarrow as pa

    from ..apply import schema_b64

    ext = _extremal_fields(agg_spec)
    if not ext:
        return None
    return schema_b64(pa.schema([(a["out"], col_types[a["col"]]) for a in ext]))


def _enc_types_load(payload: str | None):
    from ..apply import schema_from_b64

    if not payload:
        return {}
    return {f.name: f.type for f in schema_from_b64(payload)}
