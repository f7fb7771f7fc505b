"""One view-kind table: every view kind is one record in
``views.refresh.VIEW_KINDS`` (spec normalization, config check, refresh,
read), and nothing else in the engine branches on a kind name — a new kind
or a changed one is one entry, not five scattered ``if view == ...``
branches. The view layer stays in modules of at most ~600 lines. And the
on-disk contract stays put: the ``spec_hash`` and ``types_hash`` inputs of
existing views do not change, so a refreshed view is not recomputed after
an upgrade."""

from __future__ import annotations

import ast
import pathlib

from etl_ray.engine.tables import TableSpec
from etl_ray.engine.views.core import spec_hash
from etl_ray.engine.views.refresh import VIEW_KINDS

PKG = pathlib.Path(__file__).resolve().parents[1] / "etl_ray"
VIEW_LAYER = [
    PKG / "engine" / "tables.py",
    *sorted((PKG / "engine" / "views").glob("*.py")),
]
MAX_LINES = 600


def test_view_layer_modules_stay_small():
    sizes = {p.name: len(p.read_text().splitlines()) for p in VIEW_LAYER}
    assert len(sizes) >= 5, sizes
    assert {n: k for n, k in sizes.items() if k > MAX_LINES} == {}


def _kind_literals(node: ast.AST) -> list[str]:
    if isinstance(node, ast.Constant) and node.value in VIEW_KINDS:
        return [node.value]
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return [v for e in node.elts for v in _kind_literals(e)]
    return []


def test_no_code_branches_on_a_view_kind_name():
    """No comparison (``==``, ``!=``, ``in``, ``not in``) and no ``match``
    case anywhere in ``etl_ray/`` names a view kind: dispatch goes through
    the table."""
    found = []
    for path in sorted(PKG.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Compare):
                operands = [node.left, *node.comparators]
            elif isinstance(node, ast.match_case):
                operands = [
                    getattr(p, "value", None) for p in ast.walk(node.pattern)
                ]
            else:
                continue
            hits = [v for o in operands if o is not None for v in _kind_literals(o)]
            if hits:
                found.append(f"{path.relative_to(PKG)}:{node.lineno}: {hits}")
    assert not found, "code branches on a view kind:\n" + "\n".join(found)


#: the benchmark's three views, with the spec_hash and upstream columns
#: (the types_hash input) their _view.json recorded before the kind table
PINNED = [
    (
        TableSpec(name="repo_stats", view="repo_stats", source="files"),
        "67934bf0c0ee766a",
        ["repo", "size_bytes", "lsn"],
    ),
    (
        TableSpec(
            name="registration", view="aggregate", source="files",
            view_group_by=["repo"],
            view_aggs=[
                {"out": "live_files", "fn": "count"},
                {"out": "first_path", "col": "path", "fn": "first", "by": "lsn"},
                {"out": "last_ts", "col": "commit_ts", "fn": "last", "by": "lsn"},
            ],
        ),
        "ca36fb60e8914fa5",
        ["repo", "path", "lsn", "commit_ts"],
    ),
    (
        TableSpec(
            name="sessions", view="session", source="files",
            view_key=["repo"], view_ts="commit_ts", gap_minutes=45,
            view_aggs=[
                {"out": "first_path", "col": "path", "fn": "first"},
                {"out": "mean_lsn", "col": "lsn", "fn": "mean"},
                {"out": "changes", "fn": "count"},
            ],
        ),
        "a2144ef1bea2a76b",
        ["repo", "commit_ts", "path", "lsn"],
    ),
]


def test_view_spec_hashes_are_pinned():
    for spec, want_hash, want_need in PINNED:
        spec.validate()
        kind = VIEW_KINDS[spec.view]
        normalized = kind.spec_of(spec)
        assert spec_hash(normalized) == want_hash, spec.name
        assert kind.need(normalized) == want_need, spec.name
