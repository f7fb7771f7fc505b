"""One atomic publish (``lineage.publish``): every file the engine writes
in place goes through the helper under a named commit point, so the tmp
name, the cleanup of a failed write and the crash hook of the tests are one
function's. The source guard keeps it so: no ``os.replace``/``os.rename``
in ``etl_ray/engine/`` outside the helper and the exemptions listed below
with their reasons, every publish names its point with a literal, the
crash matrix crashes every point, and no crash-injection parameter is left
in ``etl_ray/``."""

from __future__ import annotations

import ast
import pathlib

from test_crash_matrix import CASES  # noqa: E402

PKG = pathlib.Path(__file__).resolve().parents[1] / "etl_ray"
ENGINE = PKG / "engine"

#: (module, function) → why its rename does not go through the helper
EXEMPT = {
    ("lineage.py", "publish"): "the helper itself",
    ("lock.py", "writer_lock"): (
        "the fenced break of a stale lock: renaming the lock file away to a "
        "unique name is how exactly one of two racing breakers wins"
    ),
    ("maintenance.py", "snapshot_derivatives"): (
        "swaps a whole directory written by Ray Data (move the old one "
        "aside, rename the new one in); the helper publishes files"
    ),
}


def _engine_sources() -> list[tuple[pathlib.Path, ast.Module]]:
    out = [(p, ast.parse(p.read_text())) for p in sorted(ENGINE.rglob("*.py"))]
    assert len(out) > 20, "engine modules not found"
    return out


def _renames(tree: ast.Module):
    """(enclosing module-level function or method, line) of every
    ``os.replace``/``os.rename`` call (``<module>`` outside them)."""
    defs = [n for n in tree.body if isinstance(n, ast.FunctionDef)]
    defs += [
        m for c in tree.body if isinstance(c, ast.ClassDef)
        for m in c.body if isinstance(m, ast.FunctionDef)
    ]
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("replace", "rename")
            and isinstance(node.func.value, ast.Name) and node.func.value.id == "os"
        ):
            fn = next(
                (d.name for d in defs if d.lineno <= node.lineno <= d.end_lineno),
                "<module>",
            )
            yield fn, node.lineno


def test_no_rename_outside_the_helper():
    found, used = [], set()
    for p, tree in _engine_sources():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "os":
                found += [
                    f"{p.relative_to(PKG.parent)}:{node.lineno}: from os import {a.name}"
                    for a in node.names if a.name in ("replace", "rename")
                ]
        for fn, line in _renames(tree):
            key = (str(p.relative_to(ENGINE)), fn)
            if key in EXEMPT:
                used.add(key)
            else:
                found.append(f"{p.relative_to(PKG.parent)}:{line}: os rename in {fn}")
    assert not found, "a rename outside lineage.publish:\n" + "\n".join(found)
    assert used == set(EXEMPT), f"stale exemptions: {sorted(set(EXEMPT) - used)}"


def _publish_points() -> dict[str, list[str]]:
    """point name → the call sites that publish under it."""
    points: dict[str, list[str]] = {}
    bad = []
    for p, tree in _engine_sources():
        for node in ast.walk(tree):
            if not (
                isinstance(node, ast.Call)
                and getattr(node.func, "id", getattr(node.func, "attr", None)) == "publish"
            ):
                continue
            where = f"{p.relative_to(PKG.parent)}:{node.lineno}"
            kw = {k.arg: k.value for k in node.keywords}
            if not isinstance(kw.get("point"), ast.Constant):
                bad.append(where)
                continue
            points.setdefault(kw["point"].value, []).append(where)
    assert not bad, "a publish without a literal point:\n" + "\n".join(bad)
    return points


def test_every_point_is_named_and_crashed():
    points = _publish_points()
    assert len(points) >= 16, points
    crashed = {point for _, point, after, _ in CASES if after == 0}
    assert set(points) == crashed, (
        f"points no test crashes: {sorted(set(points) - crashed)}; "
        f"crashed but gone: {sorted(crashed - set(points))}"
    )
    documented = ast.get_docstring(ast.parse((ENGINE / "lineage.py").read_text()))
    assert all(f"``{p}``" in documented for p in points), "lineage docstring"


def test_no_crash_injection_parameter():
    found = [
        f"{p.relative_to(PKG.parent)}:{i}"
        for p in sorted(PKG.rglob("*.py"))
        for i, line in enumerate(p.read_text().splitlines(), 1)
        if "fail_after" in line
    ]
    assert not found, "crash injection in production code:\n" + "\n".join(found)
