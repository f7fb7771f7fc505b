"""View reads stay in Arrow and numpy: the session interval merge and the
rider reduce run per read task over every key at once, and a pandas round
trip there (object columns, per-group Python fallbacks for the packed
``bytes`` cells) cost most of a session read before. No pandas import, no
``pd.`` name and no ``.to_pandas()`` in the two view readers or the helpers
they run per task.

View reads are one round of plain Ray tasks: a Ray Data pipeline around
them (``from_items`` → ``map_batches`` → ``materialize``, as
``partitioning.run_spilled`` builds) cost more than the reduce itself, and
``pq.read_table`` costs about twice ``ParquetFile(f).read()`` per partial.
None of those is called on the read path."""

from __future__ import annotations

import ast
import pathlib

VIEWS = pathlib.Path(__file__).resolve().parents[1] / "etl_ray" / "engine" / "views"
READ_PATH = (
    "read_session_view",
    "read_agg_view",
    "_read_plan",
    "_read_spans",
    "_run_read",
    "_agg_read_chunk",
    "_session_read_chunk",
    "_reduce_riders",
    "_session_starts",
    "_dec_extreme",
)
#: calls the read path makes none of
NOT_ON_READ_PATH = ("map_batches", "from_items", "run_spilled", "read_table")


def _pandas_uses(fn: ast.FunctionDef) -> list[str]:
    found = []
    for node in ast.walk(fn):
        if isinstance(node, ast.Import) and any(
            a.name.split(".")[0] == "pandas" for a in node.names
        ):
            found.append(f"{node.lineno}: import pandas")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("pandas"):
            found.append(f"{node.lineno}: from pandas import")
        elif isinstance(node, ast.Attribute) and node.attr == "to_pandas":
            found.append(f"{node.lineno}: .to_pandas()")
        elif isinstance(node, ast.Name) and node.id == "pd":
            found.append(f"{node.lineno}: pd")
    return found


def _read_path() -> dict[str, ast.FunctionDef]:
    fns = {
        n.name: n
        for path in sorted(VIEWS.glob("*.py"))
        for n in ast.parse(path.read_text()).body
        if isinstance(n, ast.FunctionDef) and n.name in READ_PATH
    }
    assert set(fns) == set(READ_PATH), f"missing: {set(READ_PATH) - set(fns)}"
    return fns


def test_view_reads_do_not_use_pandas():
    found = [
        f"{name}:{hit}" for name, fn in _read_path().items() for hit in _pandas_uses(fn)
    ]
    assert not found, "pandas on the view read path:\n" + "\n".join(found)


def _called(node: ast.Call) -> str | None:
    f = node.func
    return f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)


def test_view_reads_start_no_pipeline():
    found = [
        f"{name}:{node.lineno}: {_called(node)}()"
        for name, fn in _read_path().items()
        for node in ast.walk(fn)
        if isinstance(node, ast.Call) and _called(node) in NOT_ON_READ_PATH
    ]
    assert not found, "Ray Data pipeline or read_table on the view read path:\n" + (
        "\n".join(found)
    )
