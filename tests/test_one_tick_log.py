"""One tick log (``engine/ticklog.py``): the change feed, the agg log and
the quarantine share one layout and one set of operations, so the layout
is one module's decision. The source guard keeps it there: the three log
directories are spelled only in ``ticklog.py`` (anywhere in ``etl_ray/``,
CLI and docstrings included), no other module reads or writes a part's
key index or reaches into ``ticklog``'s private helpers, and the log
reader ``source.parts_dataset`` has no whole-file branch (every part is
read by its indexed row groups)."""

from __future__ import annotations

import ast
import pathlib
import re

from etl_ray.engine import ticklog

PKG = pathlib.Path(__file__).resolve().parents[1] / "etl_ray"
LOG_DIRS = re.compile(r"(?<!\w)_(changelog|agglog|quarantine)(?!\w)")


def _sources() -> list[tuple[pathlib.Path, str]]:
    out = [(p, p.read_text()) for p in sorted(PKG.rglob("*.py"))]
    assert len(out) > 30, "etl_ray modules not found"
    return [(p, s) for p, s in out if p.name != "ticklog.py"]


def test_log_directories_are_spelled_only_in_ticklog():
    found = [
        f"{p.relative_to(PKG.parent)}:{i}: {line.strip()}"
        for p, text in _sources()
        for i, line in enumerate(text.splitlines(), 1)
        if LOG_DIRS.search(line)
    ]
    assert not found, "a log directory spelled outside ticklog.py:\n" + "\n".join(found)


def test_no_other_module_touches_a_log_index():
    index_keys = {ticklog._INDEX, ticklog._INDEX.decode()}
    found = []
    for p, text in _sources():
        for node in ast.walk(ast.parse(text)):
            where = f"{p.relative_to(PKG.parent)}:{getattr(node, 'lineno', '?')}"
            if isinstance(node, ast.Constant) and node.value in index_keys:
                found.append(f"{where}: the key index's footer key")
            if (
                isinstance(node, ast.Attribute) and node.attr.startswith("_")
                and isinstance(node.value, ast.Name) and node.value.id == "ticklog"
            ):
                found.append(f"{where}: ticklog.{node.attr}")
            if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("ticklog"):
                found += [
                    f"{where}: imports {a.name}" for a in node.names if a.name.startswith("_")
                ]
    assert not found, "a log index outside ticklog.py:\n" + "\n".join(found)


def test_parts_dataset_reads_indexed_row_groups_only():
    tree = ast.parse((PKG / "engine" / "source.py").read_text())
    fn = next(
        n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "parts_dataset"
    )
    found = [
        f"source.py:{node.lineno}"
        for node in ast.walk(fn)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("read", "read_table")
        or isinstance(node, ast.Compare)
        and any(isinstance(c, ast.Constant) and c.value is None for c in node.comparators)
    ]
    assert not found, "parts_dataset reads a whole file: " + ", ".join(found)
