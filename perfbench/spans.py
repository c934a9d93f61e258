"""Span tracing around the program's public functions.

The traced run wraps each function in :data:`TARGETS` at every module
(or class) attribute that resolves to it, so the real ``match()`` and
``block_stats()`` run unchanged and every call they make through those
attributes opens a span. A wrapped call sets its own Spark job group,
runs the function, then forces and caches every DataFrame it returned,
so the lazy work a function defines is executed, and timed, inside its
own span rather than in whichever consumer first triggers an action.

A span's self time is its duration minus the part of that interval its
child spans cover. Probe spans (the extra counts a few targets take for
their ratios) are children too, so their cost is subtracted from the
parent and reported nowhere.
"""
from __future__ import annotations

import dataclasses
import functools
import importlib
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable

# "<layer>.<function>" -> (module, attribute path in that module)
TARGETS: dict[str, tuple[str, str]] = {
    "kb.load": ("repro.kb.datasets", "load"),
    "kb.n_entities": ("repro.kb.schema", "KB.n_entities"),
    "tokenize.entity_tokens": ("repro.blocking.tokenize", "entity_tokens"),
    "token_blocking.block_index": ("repro.blocking.token_blocking", "block_index"),
    "token_blocking.candidate_pairs": ("repro.blocking.token_blocking", "candidate_pairs"),
    "token_blocking.total_comparisons": ("repro.blocking.token_blocking", "total_comparisons"),
    "purging.purge": ("repro.blocking.purging", "purge"),
    "name_blocking.name_keys": ("repro.blocking.name_blocking", "name_keys"),
    "name_blocking.h1_matches": ("repro.blocking.name_blocking", "h1_matches"),
    "relations.top_neighbors": ("repro.core.relations", "top_neighbors"),
    "value_sim.value_similarities": ("repro.core.value_sim", "value_similarities"),
    "heuristics.neighbor_similarities": ("repro.core.heuristics", "neighbor_similarities"),
    "heuristics.h2_matches": ("repro.core.heuristics", "h2_matches"),
    "heuristics.h3_matches": ("repro.core.heuristics", "h3_matches"),
    "heuristics.h4_filter": ("repro.core.heuristics", "h4_filter"),
    "minoaner.match": ("repro.core.minoaner", "match"),
    "stats.block_stats": ("repro.blocking.stats", "block_stats"),
    "stats.block_quality": ("repro.blocking.stats", "block_quality"),
}

LAYER_FIELDS = ("s", "calls", "jobs", "rows", "shuffle_mb", "gc_s")


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    probe: bool = False  # tracing's own work: subtracted from the parent, never reported
    jobs: int = 0
    rows: int = 0
    counters: dict[str, float] = field(default_factory=dict)

    @property
    def group(self) -> str:
        return f"span-{self.id}"


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of ``intervals``."""
    total, reach = 0.0, lo
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= reach:
            continue
        total += b - max(a, reach)
        reach = b
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """span id -> its duration minus the part its children cover."""
    kids: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            kids.setdefault(s.parent, []).append((s.start, s.end))
    return {
        s.id: (s.end - s.start) - covered(kids.get(s.id, []), s.start, s.end)
        for s in spans
    }


def dataframes(value: Any) -> list:
    """Every DataFrame in a returned value: bare, in a tuple/list, or in a dataclass."""
    from pyspark.sql import DataFrame

    if isinstance(value, DataFrame):
        return [value]
    if isinstance(value, (tuple, list)):
        return [df for v in value for df in dataframes(v)]
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return [df for f in dataclasses.fields(value) for df in dataframes(getattr(value, f.name))]
    return []


def _comparisons(df) -> int:
    from repro.blocking.token_blocking import total_comparisons

    # the unwrapped function: a probe must not open a span of its own
    return getattr(total_comparisons, "__wrapped__", total_comparisons)(df)


# target -> probe(args, out) -> counters; each runs in a probe span
PROBES: dict[str, Callable[[tuple, Any], dict[str, float]]] = {
    "purging.purge": lambda args, out: {
        "raw_comparisons": _comparisons(args[0]),
        "kept_comparisons": _comparisons(out[0]),
    },
    "heuristics.h4_filter": lambda args, out: {"candidates": args[0].count()},
}


class Tracer:
    """Records spans for the functions in ``targets`` while installed.

    ``sc`` is a SparkContext (or any object with ``setJobGroup`` and
    ``setLocalProperty``); ``clock`` returns seconds.
    """

    def __init__(self, sc, targets: dict[str, tuple[str, str]] = TARGETS,
                 probes=PROBES, clock: Callable[[], float] = time.perf_counter):
        self.sc = sc
        self.targets = targets
        self.probes = probes
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._patched: list[tuple[Any, str, Any]] = []
        self._cached: list = []

    # -- spans -----------------------------------------------------------
    def _set_group(self, group: str | None) -> None:
        if group is None:
            self.sc.setLocalProperty("spark.jobGroup.id", None)
        else:
            self.sc.setJobGroup(group, group)

    def open(self, name: str, probe: bool = False) -> Span:
        parent = self._stack[-1].id if self._stack else None
        s = Span(len(self.spans), name, parent, self.clock(), probe=probe)
        self.spans.append(s)
        self._stack.append(s)
        self._set_group(s.group)
        return s

    def close(self, s: Span) -> None:
        s.end = self.clock()
        if self._stack.pop() is not s:
            raise RuntimeError(f"span {s.name} closed out of order")
        self._set_group(self._stack[-1].group if self._stack else None)

    def run(self, name: str, fn: Callable, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``; force its DataFrame output."""
        s = self.open(name)
        try:
            out = fn(*args, **kwargs)
            s.rows = self.force(out)
            probe = self.probes.get(name)
            if probe is not None:
                p = self.open(name + ".probe", probe=True)
                try:
                    s.counters.update(probe(args, out))
                finally:
                    self.close(p)
            return out
        finally:
            self.close(s)

    def force(self, out: Any) -> int:
        rows = 0
        for df in dataframes(out):
            if not df.is_cached:
                self._cached.append(df.cache())
            rows += df.count()
        return rows

    def release(self) -> None:
        """Unpersist what forcing cached."""
        for df in self._cached:
            df.unpersist()
        self._cached.clear()

    # -- installation ----------------------------------------------------
    def wrap(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.run(name, fn, *args, **kwargs)

        return traced

    def install(self) -> list[str]:
        """Patch every attribute that resolves to a target; return the
        targets found. A target missing from the code is skipped."""
        found = []
        for name, (mod_name, path) in self.targets.items():
            try:
                owner = importlib.import_module(mod_name)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                orig = getattr(owner, attr)
            except (ImportError, AttributeError):
                continue
            wrapped = self.wrap(name, orig)
            sites = [(owner, attr)] + [
                (m, a) for m in list(sys.modules.values())
                if getattr(m, "__name__", "").startswith(("repro", "jobs"))
                and m is not owner
                for a, v in list(vars(m).items()) if v is orig
            ]
            for obj, a in sites:
                self._patched.append((obj, a, orig))
                setattr(obj, a, wrapped)
            found.append(name)
        return found

    def uninstall(self) -> None:
        for obj, a, orig in reversed(self._patched):
            setattr(obj, a, orig)
        self._patched.clear()


def layer_metrics(spans: list[Span],
                  events: dict[str, dict[str, float]] | None = None) -> dict[str, float]:
    """Per-layer totals over ``spans``: ``<layer>.<function>.<field>``.

    ``events`` maps a span's job group to its ``shuffle_mb``/``gc_s``
    from the event log. Every target gets every field, zero when the
    code made no such call.
    """
    self_s = self_times(spans)
    out = {f"{n}.{f}": 0.0 for n in TARGETS for f in LAYER_FIELDS}
    counters: dict[str, float] = {}
    for s in spans:
        if s.probe or s.name not in TARGETS:
            continue
        ev = (events or {}).get(s.group, {})
        for f, v in (
            ("s", self_s[s.id]), ("calls", 1),
            ("jobs", s.jobs), ("rows", s.rows),
            ("shuffle_mb", ev.get("shuffle_mb", 0.0)), ("gc_s", ev.get("gc_s", 0.0)),
        ):
            out[f"{s.name}.{f}"] += v
        for k, v in s.counters.items():
            counters[f"{s.name}.{k}"] = counters.get(f"{s.name}.{k}", 0.0) + v
    out.update(ratios(out, counters))
    return out


def _frac(num: float, den: float) -> float:
    return num / den if den else 0.0


def ratios(m: dict[str, float], c: dict[str, float]) -> dict[str, float]:
    """The waste ratios, each next to the counts it is taken from."""
    raw = c.get("purging.purge.raw_comparisons", 0.0)
    kept = c.get("purging.purge.kept_comparisons", 0.0)
    cands = c.get("heuristics.h4_filter.candidates", 0.0)
    return {
        "purging.purge.raw_comparisons": raw,
        "purging.purge.kept_comparisons": kept,
        "purging.purge.kept_comparisons_frac": _frac(kept, raw),
        "heuristics.h4_filter.candidates": cands,
        "heuristics.h4_filter.kept_frac": _frac(m.get("heuristics.h4_filter.rows", 0.0), cands),
        "heuristics.neighbor_similarities.rows_per_value_pair": _frac(
            m.get("heuristics.neighbor_similarities.rows", 0.0),
            m.get("value_sim.value_similarities.rows", 0.0),
        ),
    }
