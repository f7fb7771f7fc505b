"""One LWW fold: ``dedup.last_writer`` is the engine's only last-writer-wins
kernel — one stable sort of the narrow (keys, lsn) projection and a
run-end mask, no hash ``group_by`` and no join — and its winners come out
in key order, so no caller sorts them by key again."""

from __future__ import annotations

import ast
import pathlib

ENGINE = pathlib.Path(__file__).resolve().parents[1] / "etl_ray" / "engine"
DEDUP = ENGINE / "dedup.py"
KERNELS = ("last_writer", "winner_indices")


def _modules():
    for path in sorted(ENGINE.rglob("*.py")):
        yield path, ast.parse(path.read_text())


def _called(node: ast.AST) -> str | None:
    """The bare name of a call's function (``f(...)`` or ``x.f(...)``)."""
    if not isinstance(node, ast.Call):
        return None
    f = node.func
    return f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)


def test_dedup_has_no_join_and_no_group_by():
    calls = {_called(n) for n in ast.walk(ast.parse(DEDUP.read_text()))}
    assert not calls & {"join", "group_by", "aggregate"}, calls


def test_no_lww_kernel_outside_dedup():
    """No engine module picks a per-key winner row on its own: no function
    named like the kernel, no Arrow ``aggregate`` taking the ``lsn`` max,
    and no pandas ``drop_duplicates(keep="last")``/``idxmax``."""
    found = []
    for path, tree in _modules():
        if path == DEDUP:
            continue
        where = path.relative_to(ENGINE)
        for n in ast.walk(tree):
            if isinstance(n, ast.FunctionDef) and n.name in KERNELS:
                found.append(f"{where}:{n.lineno}: defines {n.name}")
            name = _called(n)
            if name == "aggregate":
                for t in ast.walk(n):
                    if (
                        isinstance(t, ast.Tuple)
                        and len(t.elts) == 2
                        and all(isinstance(e, ast.Constant) for e in t.elts)
                        and [e.value for e in t.elts] == ["lsn", "max"]
                    ):
                        found.append(f"{where}:{n.lineno}: aggregate lsn max")
            if name == "idxmax" or name == "drop_duplicates" and any(
                k.arg == "keep"
                and isinstance(k.value, ast.Constant)
                and k.value.value == "last"
                for k in n.keywords
            ):
                found.append(f"{where}:{n.lineno}: {name}")
    assert not found, "\n".join(found)


def test_no_key_sort_of_a_last_writer_result():
    """``last_writer``'s rows are already in key order: no engine module
    calls ``sort_by`` on its result, directly or through a local name."""
    found = []
    for path, tree in _modules():
        where = path.relative_to(ENGINE)
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            winners = set()
            for n in ast.walk(fn):
                if isinstance(n, ast.Assign) and _called(n.value) in KERNELS:
                    winners |= {t.id for t in n.targets if isinstance(t, ast.Name)}
            for n in ast.walk(fn):
                if _called(n) != "sort_by":
                    continue
                recv = n.func.value
                if _called(recv) in KERNELS or (
                    isinstance(recv, ast.Name) and recv.id in winners
                ):
                    found.append(f"{where}:{n.lineno}")
    assert not found, "sort_by on a last_writer result:\n" + "\n".join(found)
