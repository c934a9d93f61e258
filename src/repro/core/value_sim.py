"""valueSim — the paper's schema-agnostic value similarity (Section III, H2).

valueSim(e_i, e_j) = sum over common tokens t of
    1 / log2( EF_E1(t) * EF_E2(t) + 1 )

EF_E(t) ("entity frequency") is the number of entities of KB E whose
values contain t — exactly the size of t's token block in E, so the
metric is computed from block statistics alone: the weight of t is read
off the (key, n1, n2) block index as 1/log2(n1*n2 + 1). A token unique
to the pair on both sides contributes 1/log2(2) = 1; hence the H2 rule
"v_max >= 1 <=> they (and only they) share a token, or share many
infrequent tokens".

The sum ranges over the tokens that survive Block Purging (similarities
"are extracted from a set of blocks"; purged blocks no longer exist),
while EF itself is the pre-purge block size — a KB statistic. Purging
drops whole blocks and never changes n1, n2 of a kept one, so both hold
when the index passed in is the purged one.
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F


def value_similarities(
    tokens1: DataFrame, tokens2: DataFrame, index: DataFrame
) -> DataFrame:
    """(e1, e2, sim) for every cross-KB pair co-occurring in a block of ``index``.

    ``tokens1``/``tokens2`` are the per-KB (eid, token) sets; ``index`` is
    their (key, n1, n2) token-block index, purged or not. Pairs absent
    from the result have valueSim 0 by definition.
    """
    w = index.select(
        F.col("key").alias("token"),
        (1.0 / F.log2(F.col("n1") * F.col("n2") + 1)).alias("w"),
    )
    t1 = tokens1.select(F.col("eid").alias("e1"), "token")
    t2 = tokens2.select(F.col("eid").alias("e2"), "token")
    return (
        t1.join(w, "token")
        .join(t2, "token")
        .groupBy("e1", "e2")
        .agg(F.sum("w").alias("sim"))
    )
