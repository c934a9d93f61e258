"""Correctness gate applied to every entry-point call.

``match-*``: every call of a run returns the same match set (compared by
digest) and its F1 is at least the preset's ``F1_FLOOR`` from
``benchmarks/bench_table3.py``. ``blocking-*``: the two Table II
invariants that ``benchmarks/bench_table2.py`` asserts hold, and every
call returns the identical stats dict. A failed check raises
:class:`GateError`, which the harness counts as a failed call.
"""
from __future__ import annotations

import hashlib
from typing import Callable, Iterable


class GateError(Exception):
    pass


def match_digest(rows: Iterable[tuple]) -> str:
    """Order-independent digest of (e1, e2, heuristic) rows."""
    h = hashlib.sha256()
    for r in sorted(tuple(r) for r in rows):
        h.update(repr(r).encode())
    return h.hexdigest()


class MatchGate:
    def __init__(self, f1_floor: float):
        self.f1_floor = f1_floor
        self.digest: str | None = None
        self.quality: dict = {}

    def check(self, rows: list[tuple], quality: Callable[[], dict]) -> dict:
        """Gate one call's match rows; ``quality()`` gives their F1 and is
        only called for a match set not seen before (F1 is a function of it)."""
        d = match_digest(rows)
        if self.digest is not None and d != self.digest:
            raise GateError("match set differs from the first call's")
        q = self.quality if d == self.digest else quality()
        if q["f1"] < self.f1_floor:
            raise GateError(f"F1 {q['f1']:.2f} below floor {self.f1_floor}")
        self.digest, self.quality = d, q
        return q


class BlockStatsGate:
    def __init__(self):
        self.first: dict | None = None

    def check(self, stats: dict) -> None:
        # the two invariants of benchmarks/bench_table2.py
        if not stats["recall"] >= 97.0:
            raise GateError(f"blocking recall {stats['recall']:.2f} < 97.0")
        if not stats["||BT||"] + stats["||BN||"] < stats["|E1|*|E2|"] / 50:
            raise GateError("||BT|| + ||BN|| not under 2% of |E1|*|E2|")
        if self.first is None:
            self.first = dict(stats)
        elif stats != self.first:
            raise GateError("block stats differ from the first call's")
