"""View reads stay in Arrow and numpy: the session interval merge and the
rider reduce run per consumer block over every key at once, and a pandas
round trip there (object columns, per-group Python fallbacks for the packed
``bytes`` cells) cost most of a session read before. No pandas import, no
``pd.`` name and no ``.to_pandas()`` in the two view readers or the helpers
they run per block."""

from __future__ import annotations

import ast
import pathlib

VIEWS = pathlib.Path(__file__).resolve().parents[1] / "etl_ray" / "engine" / "views"
READ_PATH = (
    "read_session_view",
    "read_agg_view",
    "_reduce_riders",
    "_session_starts",
    "_dec_extreme",
)


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


def test_view_reads_do_not_use_pandas():
    fns = {
        n.name: n
        for path in sorted(VIEWS.glob("*.py"))
        for n in ast.parse(path.read_text()).body
        if isinstance(n, ast.FunctionDef) and n.name in READ_PATH
    }
    assert set(fns) == set(READ_PATH), f"missing: {set(READ_PATH) - set(fns)}"
    found = [f"{name}:{hit}" for name, fn in fns.items() for hit in _pandas_uses(fn)]
    assert not found, "pandas on the view read path:\n" + "\n".join(found)
