"""The benchmark's workloads: which input, which entry point, which gate.

Entry points are resolved through their module at call time, so the
traced run's wrappers (installed on the module attributes) see the call.
"""
from __future__ import annotations

from dataclasses import dataclass

from gate import BlockStatsGate, MatchGate


@dataclass(frozen=True)
class Workload:
    name: str
    preset: str
    scale: float
    entry: str  # "match" or "block_stats"

    def setup(self, spark, seed: int):
        """Generate the input pair and materialise its cached triples."""
        from repro.kb import datasets

        pair = datasets.load(spark, self.preset, scale=self.scale, seed=seed)
        for df in (pair.kb1.triples, pair.kb2.triples, pair.ground_truth):
            df.count()
        return pair

    def gate(self):
        if self.entry == "match":
            from benchmarks.bench_table3 import F1_FLOOR

            return MatchGate(F1_FLOOR[self.preset])
        return BlockStatsGate()

    def call(self, pair):
        """The timed region: one entry-point call, its result materialised."""
        if self.entry == "match":
            from repro.core import minoaner

            res = minoaner.match(pair)
            return res, [tuple(r) for r in res.matches.collect()]
        from repro.blocking import stats

        return stats.block_stats(pair), None

    def check(self, gate, pair, out) -> dict:
        """Run the gate on one call's output; return its quality figures."""
        result, rows = out
        if self.entry == "match":
            from repro.eval.metrics import precision_recall_f1

            def quality():
                q = precision_recall_f1(result.matches, pair.ground_truth)
                return {"f1": q["f1"], "recall": q["recall"], "matches": len(rows)}

            return gate.check(rows, quality)
        gate.check(result)
        return {"f1": result["f1"], "recall": result["recall"]}


# Why each was chosen: perfbench/README.md. match-yago is data-bound but one
# run of it does not fit the per-run time budget, so it is run by hand only.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("match-restaurant", "restaurant", 1.0, "match"),
        Workload("blocking-table2", "restaurant", 1.0, "block_stats"),
        Workload("match-yago", "yago_imdb", 1.0, "match"),
    )
}
