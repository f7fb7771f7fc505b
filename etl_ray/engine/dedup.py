"""Last-writer-wins reduction kernel (pure Arrow, no content copies).

The reference's core dedup keeps rank-1 of ``ROW_NUMBER() OVER (PARTITION BY
unique_id, event_fingerprint ORDER BY collector_tstamp, enricher_tstamp,
load_tstamp)`` (``mod_load_data_get_data.sql:16,21-32``). Here the per-key
total order is the commit LSN and we keep the *last* writer; replay
duplicates (same LSN, identical payload) collapse to one row, making
re-applies no-ops (``mod_data_insert.sql:5-6`` semantics).

``last_writer`` is associative over row subsets, so it can be applied
per-batch (pre-reduction before the shuffle — the skew/salt story, see
``partitioning``), then again per-bucket, then against held state, always
yielding the same winners.

Implementation: ONE stable sort of a NARROW projection ``(keys, order)``;
the last row of each key run is the winner (max order; an exact-order tie
goes to the last input row, because the sort is stable), and its row index
then ``take``s from the original table. The inputs are a few short runs
that are already key-sorted (state chain files, pre-reduced spill groups),
so one sort beats a hash group-by plus join. Payload columns (``content``,
nested ``meta`` structs, …) never enter the sort.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

KEYS = ["repo", "path"]
ORDER = "lsn"


def winner_indices(
    t: pa.Table, keys: list[str] | None = None, order: str = ORDER
) -> np.ndarray:
    """Row indices of ``t``'s last writers, in key order: one per key, the
    max ``order`` (an exact tie goes to the last input row). Rows with a
    null key or a null ``order`` never win."""
    cols = [*(keys or KEYS), order]
    narrow = t.select(cols)
    rows = valid = None
    for c in cols:
        if narrow[c].null_count:
            v = pc.is_valid(narrow[c])
            valid = v if valid is None else pc.and_(valid, v)
    if valid is not None:
        rows = np.flatnonzero(valid.to_numpy(zero_copy_only=False))
        narrow = narrow.take(rows)
    n = narrow.num_rows
    if n == 0:
        return np.zeros(0, np.int64)
    # stable: equal (keys, order) rows keep their input order
    idx = pc.sort_indices(narrow, sort_keys=[(c, "ascending") for c in cols])
    run_end = np.ones(n, bool)
    if n > 1:
        changes = np.zeros(n - 1, bool)
        for k in cols[:-1]:
            col = narrow[k].take(idx)
            changes |= pc.not_equal(col[1:], col[:-1]).to_numpy(zero_copy_only=False)
        run_end[:-1] = changes
    win = idx.to_numpy()[run_end]
    return win if rows is None else rows[win]


def last_writer(
    t: pa.Table, keys: list[str] | None = None, order: str = ORDER
) -> pa.Table:
    """One row per key (see :func:`winner_indices`), in key order; column
    order preserved."""
    if t.num_rows == 0:
        return t
    return t.take(pa.array(winner_indices(t, keys, order)))
