"""Spans around the engine's public calls, recorded from outside.

The traced run installs thin wrappers on public entry points of
``etl_ray.engine.*`` (and the two Ray calls the replay tick blocks on), so a
span opens when the call starts and closes when it returns. Nothing in
``etl_ray/`` is edited: the wrappers replace module and class attributes for
the duration of the run and are removed again afterwards.

Spans are kept in memory, only for calls made on the benchmark process's main thread
(Ray Data runs its executor on a background thread; those calls are part of
whichever main-thread span is waiting on them). A span's *self time* is its
duration minus the durations of its child spans, so the self times of a root
span's subtree add up to the root's wall time.
"""

from __future__ import annotations

import functools
import statistics
import threading
import time
from contextlib import contextmanager

# span name -> per-layer metric name
LAYER_METRICS = {
    "replay.tick": "replay.tick_self_s",
    "replay.stage1": "replay.stage1_s",
    "apply.stage2": "apply.stage2_s",
    "quality.run_checks": "quality.run_checks_s",
    "aggregates.recompute": "aggregates.recompute_s",
    "lineage.commit": "lineage.commit_s",
    "lineage.gc": "lineage.gc_s",
    "tables.refresh.repo_stats": "tables.refresh_s.repo_stats",
    "tables.refresh.aggregate": "tables.refresh_s.aggregate",
    "tables.refresh.session": "tables.refresh_s.session",
    "tables.read_view": "tables.read_view_s",
    "export.final_state": "export.final_state_s",
}


class Tracer:
    """In-memory span recorder. ``enabled=False`` makes every method a
    no-op, so the untraced run pays one attribute check per bench-level
    span and nothing inside the engine (no wrappers are installed)."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._main = threading.main_thread()

    def on_main_thread(self) -> bool:
        return threading.current_thread() is self._main

    def parent_name(self) -> str | None:
        return self.spans[self._stack[-1]]["name"] if self._stack else None

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append(
            {
                "name": name,
                "start": time.perf_counter(),
                "end": None,
                "parent": self._stack[-1] if self._stack else None,
                "dropped": False,
            }
        )
        self._stack.append(idx)
        return idx

    def end(self, idx: int, *, drop: bool = False) -> None:
        span = self.spans[idx]
        span["end"] = time.perf_counter()
        span["dropped"] = drop
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span stack out of order: {popped} != {idx}")

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        idx = self.begin(name)
        try:
            yield
        finally:
            self.end(idx)

    # ---- analysis -------------------------------------------------------

    def _kept(self) -> list[int]:
        return [i for i, s in enumerate(self.spans) if not s["dropped"]]

    def self_times(self) -> dict[int, float]:
        """Self time of every kept span. A dropped span (a replay tick that
        found no pending segment) has no children and leaves its time to
        its parent's self time."""
        out = {}
        for i in self._kept():
            s = self.spans[i]
            out[i] = s["end"] - s["start"]
        for i in self._kept():
            p = self.spans[i]["parent"]
            if p is not None:
                out[p] -= self.spans[i]["end"] - self.spans[i]["start"]
        return out

    def _root_of(self, i: int) -> int:
        while self.spans[i]["parent"] is not None:
            i = self.spans[i]["parent"]
        return i

    def per_root(self) -> list[tuple[dict, dict[str, float]]]:
        """[(root span, {span name: summed self time in its subtree})]."""
        selfs = self.self_times()
        groups: dict[int, dict[str, float]] = {}
        for i, st in selfs.items():
            g = groups.setdefault(self._root_of(i), {})
            name = self.spans[i]["name"]
            g[name] = g.get(name, 0.0) + st
        return [(self.spans[r], g) for r, g in sorted(groups.items())]

    def check(self) -> list[str]:
        """Consistency problems: a negative self time (a child outside its
        parent) or a root whose subtree self times do not add up to its wall
        time. An empty list means every root's wall time is accounted for."""
        problems = []
        selfs = self.self_times()
        for i, st in selfs.items():
            if st < -1e-9:
                problems.append(f"{self.spans[i]['name']}: self time {st:.6f} < 0")
        for root, g in self.per_root():
            wall = root["end"] - root["start"]
            if abs(sum(g.values()) - wall) > 1e-6 * max(1.0, wall):
                problems.append(
                    f"{root['name']}: self times sum {sum(g.values()):.6f} "
                    f"!= wall {wall:.6f}"
                )
        return problems

    def layer_medians(self) -> dict[str, float]:
        """Per-layer self time: for each span name, the median over the
        root spans (ticks, refresh rounds, view-read rounds, exports) whose
        subtree contains it of that subtree's summed self time. The set-up
        tick that seeds a lake (root ``bench.setup``) is not a sample."""
        samples: dict[str, list[float]] = {}
        for root, g in self.per_root():
            if root["name"] == "bench.setup":
                continue
            for name, st in g.items():
                samples.setdefault(name, []).append(st)
        return {
            LAYER_METRICS[name]: statistics.median(v)
            for name, v in samples.items()
            if name in LAYER_METRICS
        }

    def spans_per_root(self, root_name: str) -> float:
        """Median number of recorded spans under a root of this name."""
        counts: dict[int, int] = {}
        for i in self._kept():
            r = self._root_of(i)
            if self.spans[r]["name"] == root_name:
                counts[r] = counts.get(r, 0) + 1
        return statistics.median(counts.values()) if counts else 0.0


def _wrap(tracer: Tracer, fn, name_of, drop_if_none: bool = False):
    """Wrap ``fn`` so a main-thread call opens the span ``name_of(args)``
    (no span when that is None). With ``drop_if_none`` a call that returns
    None leaves its span out of the tree."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.on_main_thread():
            return fn(*args, **kwargs)
        name = name_of(args)
        if name is None:
            return fn(*args, **kwargs)
        idx = tracer.begin(name)
        out = None
        try:
            out = fn(*args, **kwargs)
            return out
        finally:
            tracer.end(idx, drop=drop_if_none and out is None)

    return wrapper


class Instrumentation:
    """Installs the span wrappers; ``remove()`` restores the originals."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._saved: list[tuple[object, str, object]] = []

    def _patch(self, owner, attr: str, name_of, drop_if_none: bool = False):
        orig = getattr(owner, attr)
        self._saved.append((owner, attr, orig))
        setattr(owner, attr, _wrap(self.tracer, orig, name_of, drop_if_none))

    def install(self) -> "Instrumentation":
        import ray
        import ray.data

        from etl_ray.engine import aggregates, quality, tables
        from etl_ray.engine.lineage import LakeLineage
        from etl_ray.engine.replay import ReplayEngine

        t = self.tracer

        def fixed(name):
            return lambda args: name

        def in_tick(name):
            # stage 1 is the one Dataset the tick itself drains, stage 2 the
            # one ray.get it blocks on; the same calls elsewhere (quality
            # checks, aggregates, view reads, Ray Data internals) belong to
            # their enclosing span
            return lambda args: name if t.parent_name() == "replay.tick" else None

        self._patch(ReplayEngine, "tick", fixed("replay.tick"), drop_if_none=True)
        self._patch(ray.data.Dataset, "take_all", in_tick("replay.stage1"))
        self._patch(ray, "get", in_tick("apply.stage2"))
        self._patch(quality, "run_checks", fixed("quality.run_checks"))
        self._patch(aggregates, "recompute_days_from_agglog", fixed("aggregates.recompute"))
        self._patch(aggregates, "recompute_days", fixed("aggregates.recompute"))
        self._patch(LakeLineage, "publish_bucket", fixed("lineage.commit"))
        self._patch(LakeLineage, "publish_tick", fixed("lineage.commit"))
        self._patch(LakeLineage, "gc", fixed("lineage.gc"))
        self._patch(
            tables, "refresh_view", lambda args: f"tables.refresh.{args[0].view}"
        )
        self._patch(tables.MultiTableLake, "tick", fixed("tables.tick"))
        return self

    def remove(self) -> None:
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)


def wrapper_cost_s(n: int = 20_000) -> float:
    """Measured cost of one span (wrapper call + begin/end) over a bare
    call, in seconds: the traced run multiplies it by the spans per tick to
    state the tracing overhead it adds."""

    def noop():
        return 1

    tr = Tracer()
    wrapped = _wrap(tr, noop, lambda args: "x")
    t0 = time.perf_counter()
    for _ in range(n):
        noop()
    bare = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(n):
        wrapped()
    traced = time.perf_counter() - t0
    return max(0.0, (traced - bare) / n)
