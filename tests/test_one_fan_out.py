"""One fan-out primitive: every engine fan-out that returns counters,
manifests or refs runs through ``partitioning.run_tasks``/``task_refs``,
which keep ONE cached plain Ray task handle per module-level function.

The source guard keeps it that way: no ``ray.remote`` outside
``partitioning.py``; the task function handed to the primitive is a
module-level function (a lambda or nested def would add one cached handle
per call); ``run_spilled`` stays with the two consumers that take a Dataset
one bucket at a time (export, the change-feed fold); and no engine module
outside ``partitioning.py``/``source.py`` builds a ``from_items`` →
``map_batches`` pipeline. The unit tests pin the primitive's contract."""

from __future__ import annotations

import ast
import pathlib

import pytest

from etl_ray.engine import partitioning
from etl_ray.engine.partitioning import run_tasks

ENGINE = pathlib.Path(__file__).resolve().parents[1] / "etl_ray" / "engine"
PRIMITIVES = ("run_tasks", "task_refs")
#: module → the functions that may call ``run_spilled``
RUN_SPILLED_CALLERS = {"export": None, "changelog": {"fold_feed"}}
#: the modules that may build a ``from_items`` → ``map_batches`` pipeline
PIPELINE_MODULES = {"partitioning", "source"}


def _modules() -> list[tuple[str, ast.Module]]:
    mods = [
        (p.stem, ast.parse(p.read_text(), filename=str(p)))
        for p in sorted(ENGINE.rglob("*.py"))
    ]
    assert len(mods) > 20, "engine modules not found"
    return mods


def _called(node: ast.Call) -> str | None:
    f = node.func
    return f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)


def _enclosing(tree: ast.Module) -> dict[ast.AST, str | None]:
    """Each node → the name of the top-level function it sits in."""
    out = {}
    for top in tree.body:
        name = top.name if isinstance(top, ast.FunctionDef) else None
        for node in ast.walk(top):
            out[node] = name
    return out


def test_no_ray_remote_outside_partitioning():
    found = [
        f"{name}.py:{node.lineno}"
        for name, tree in _modules()
        if name != "partitioning"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "remote"
        and isinstance(node.value, ast.Name) and node.value.id == "ray"
        or isinstance(node, ast.ImportFrom) and node.module == "ray"
        and any(a.name == "remote" for a in node.names)
    ]
    assert not found, "ray.remote outside partitioning.py:\n" + "\n".join(found)


def test_primitive_takes_module_level_functions():
    found, calls = [], 0
    for name, tree in _modules():
        if name == "partitioning":
            continue  # the primitive's own definitions
        top = {n.name for n in tree.body if isinstance(n, ast.FunctionDef)}
        imported = {
            a.asname or a.name
            for n in ast.walk(tree)
            if isinstance(n, ast.ImportFrom)
            for a in n.names
        }
        nested = {
            n.name
            for t in tree.body
            if isinstance(t, (ast.FunctionDef, ast.ClassDef))
            for n in ast.walk(t)
            if isinstance(n, ast.FunctionDef) and n is not t
        }
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call) and _called(node) in PRIMITIVES):
                continue
            calls += 1
            fn = node.args[0] if node.args else None
            ok = (
                isinstance(fn, ast.Name)
                and fn.id in top | imported
                and fn.id not in nested
            )
            if not ok:
                src = ast.unparse(fn) if fn is not None else "<none>"
                found.append(f"{name}.py:{node.lineno}: {_called(node)}({src}, ...)")
    assert calls >= 10, "primitive calls not found"
    assert not found, "fan-out over a non-module-level function:\n" + "\n".join(found)


def test_run_spilled_only_for_bucket_at_a_time_consumers():
    found = []
    for name, tree in _modules():
        where = _enclosing(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and _called(node) == "run_spilled":
                allowed = RUN_SPILLED_CALLERS.get(name, set())
                if allowed is not None and where.get(node) not in allowed:
                    found.append(f"{name}.{where.get(node)}:{node.lineno}")
    assert not found, "run_spilled outside export/fold_feed:\n" + "\n".join(found)


def _feeds_from_items(node: ast.AST) -> bool:
    """True if the receiver chain of a call contains a ``from_items`` call."""
    while isinstance(node, (ast.Call, ast.Attribute)):
        if isinstance(node, ast.Call):
            if _called(node) == "from_items":
                return True
            node = node.func
        else:
            node = node.value
    return False


def test_no_from_items_pipelines_outside_the_readers():
    found = [
        f"{name}.py:{node.lineno}"
        for name, tree in _modules()
        if name not in PIPELINE_MODULES
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and _called(node) == "map_batches"
        and _feeds_from_items(node.func.value)
    ]
    assert not found, "from_items → map_batches pipeline:\n" + "\n".join(found)


# -- the primitive ------------------------------------------------------------


def test_results_in_item_order_across_chunks(ray_session):
    def double(chunk, k):
        return [x * k for x in chunk]

    items = list(range(11))
    assert run_tasks(double, items, 2, max_tasks=3) == [2 * x for x in items]
    assert run_tasks(double, items, 3) == [3 * x for x in items]


def test_max_tasks_caps_the_chunk_count(ray_session):
    def size(chunk):
        return [len(chunk)]

    cpus = int(ray_session.cluster_resources()["CPU"])
    assert cpus > 2
    assert run_tasks(size, list(range(10)), max_tasks=2) == [5, 5]
    sizes = run_tasks(size, list(range(10)))
    assert len(sizes) == cpus and sum(sizes) == 10


def test_empty_items_start_no_task(monkeypatch):
    class Handle:
        calls = 0

        def remote(self, *args):
            Handle.calls += 1

    monkeypatch.setattr(partitioning, "_task", lambda fn: Handle())
    assert run_tasks(len, []) == []
    assert partitioning.task_refs(len, []) == []
    assert Handle.calls == 0


def test_one_remote_handle_per_function(ray_session, monkeypatch):
    import ray

    made = []
    real = ray.remote

    def spy(*args, **kwargs):
        made.append(kwargs)
        return real(*args, **kwargs)

    def ident(chunk):
        return list(chunk)

    monkeypatch.setattr(ray, "remote", spy)
    assert run_tasks(ident, [1, 2, 3]) == [1, 2, 3]
    assert run_tasks(ident, [4, 5]) == [4, 5]
    assert ray.get(partitioning.task_refs(ident, [[6]])) == [[6]]
    assert made == [{"num_cpus": 1}]


@pytest.mark.usefixtures("ray_session")
def test_cached_handle_runs_after_ray_restart():
    """Ray exports a function once per job; a handle cached before a
    restart is exported again to the new job."""
    import ray
    from conftest import init_ray

    def square(chunk):
        return [x * x for x in chunk]

    assert run_tasks(square, [1, 2, 3]) == [1, 4, 9]
    ray.shutdown()
    init_ray()
    assert run_tasks(square, [1, 2, 3, 4]) == [1, 4, 9, 16]
