"""The daily aggregates have ONE input: the agg log stage 1 writes
(``aggregates.append_agglog``). ``aggregates.py`` may not read the source a
second time — no WAL, segment reader, enricher, schema alignment or
validity split of its own, all of which would have to agree with stage 1
forever — and a replay tick may not scan the tick-manifest history, so its
cost does not grow with the age of the lake."""

from __future__ import annotations

import ast
import pathlib

ENGINE = pathlib.Path(__file__).resolve().parents[1] / "etl_ray" / "engine"
#: modules whose code reads or re-derives stage-1 input
SOURCE_MODULES = ("wal", "source", "enrich", "schema_evo")
#: names that would re-run stage 1's validity split or name a WAL
SOURCE_NAMES = ("split_valid", "WalInfo")


def _imported(node: ast.AST) -> list[tuple[str, list[str]]]:
    if isinstance(node, ast.Import):
        return [(a.name, []) for a in node.names]
    if isinstance(node, ast.ImportFrom):
        return [(node.module or "", [a.name for a in node.names])]
    return []


def test_aggregates_read_only_the_agg_log():
    path = ENGINE / "aggregates.py"
    tree = ast.parse(path.read_text())
    found = []
    for node in ast.walk(tree):
        for module, names in _imported(node):
            if module.split(".")[-1] in SOURCE_MODULES:
                found.append(f"aggregates.py:{node.lineno}: imports {module}")
            found += [
                f"aggregates.py:{node.lineno}: imports {n} from {module}"
                for n in names
                if n in SOURCE_NAMES
            ]
        name = (
            node.id if isinstance(node, ast.Name)
            else node.attr if isinstance(node, ast.Attribute)
            else None
        )
        if name in SOURCE_NAMES:
            found.append(f"aggregates.py:{node.lineno}: uses {name}")
    assert not found, "second reader of the source in aggregates:\n" + "\n".join(
        sorted(set(found))
    )


def test_replay_tick_reads_no_tick_history():
    path = ENGINE / "replay.py"
    tree = ast.parse(path.read_text())
    found = [
        f"replay.py:{node.lineno}: all_ticks()"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and (
            getattr(node.func, "attr", None) == "all_ticks"
            or getattr(node.func, "id", None) == "all_ticks"
        )
    ]
    assert not found, "replay scans the tick history:\n" + "\n".join(found)
