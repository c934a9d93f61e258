"""Block statistics — reproduces Table II rows.

|B_N|, |B_T|  : number of cross-KB blocks in each collection
||B_N||, ||B_T||: aggregate comparisons (sum over blocks of n1*n2)
|E1|x|E2|     : brute-force comparison count
P / R / F1    : quality of the *distinct* candidate pairs of B_N u B_T
                (after Block Purging of B_T) against the ground truth —
                precision in percent, as in the paper.
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.blocking import blocks, purging, token_blocking
# Unused here; perfbench/tests/test_spans.py checks that the span tracer
# patches this name in every module that imports it.
from repro.blocking.tokenize import entity_tokens  # noqa: F401
from repro.kb.schema import KBPair


def block_quality(candidates: DataFrame, gt: DataFrame) -> dict:
    """Pair-completeness / pair-quality of a candidate (e1, e2) set."""
    n_cand = candidates.count()
    n_gt = gt.count()
    hits = candidates.join(gt, ["e1", "e2"]).count()
    precision = 100.0 * hits / n_cand if n_cand else 0.0
    recall = 100.0 * hits / n_gt if n_gt else 0.0
    f1 = (
        2 * precision * recall / (precision + recall)
        if precision + recall > 0
        else 0.0
    )
    return {"precision": precision, "recall": recall, "f1": f1}


def block_stats(
    pair: KBPair, *, k: int = 2,
    budget_factor: float = purging.DEFAULT_BUDGET_FACTOR,
) -> dict:
    """Compute a full Table II column for one dataset."""
    b = blocks.build(pair, k, budget_factor)
    try:
        return {
            "dataset": pair.name,
            "|BN|": b.bn.count(),
            "|BT|": b.bt.count(),
            "||BN||": token_blocking.total_comparisons(b.bn),
            "||BT||": token_blocking.total_comparisons(b.bt),
            "|E1|*|E2|": b.cartesian,
            "purge_threshold": b.threshold,
            **block_quality(b.candidates(), pair.ground_truth),
        }
    finally:
        b.unpersist()
