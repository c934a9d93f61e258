"""Name Blocking — the block collection B_N used by H1.

Entire entity names (the literal values of the k most important
attributes per KB, see :mod:`repro.core.attributes`) act as blocking
keys. A block whose key occurs in both KBs generates n1*n2 comparisons;
a block with exactly one entity from each KB is an H1 match: the two
entities — and only they — have that name. The (key, n1, n2) index of
B_N is :func:`repro.blocking.token_blocking.block_index` over the name
keys, built once in :func:`repro.blocking.blocks.build`.
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core.attributes import entity_names
from repro.kb.schema import KBPair


def name_keys(
    pair: KBPair, n_entities: tuple[int, int], k: int = 2
) -> tuple[DataFrame, DataFrame]:
    """Per-KB (eid, token) name-key DataFrames (key in column ``token``).

    ``n_entities`` is (|E1|, |E2|), which attribute importance needs.
    """
    n1 = entity_names(pair.kb1, n_entities[0], k).select("eid", F.col("name").alias("token"))
    n2 = entity_names(pair.kb2, n_entities[1], k).select("eid", F.col("name").alias("token"))
    return n1, n2


def h1_matches(keys1: DataFrame, keys2: DataFrame, index: DataFrame) -> DataFrame:
    """(e1, e2) pairs from name blocks with exactly one entity per KB.

    ``keys1``/``keys2`` are the per-KB name keys of :func:`name_keys`;
    ``index`` is their (key, n1, n2) B_N index.
    """
    singles = index.filter("n1 = 1 AND n2 = 1").select(F.col("key").alias("token"))
    return (
        keys1.join(singles, "token")
        .select(F.col("eid").alias("e1"), "token")
        .join(keys2.join(singles, "token").select(F.col("eid").alias("e2"), "token"), "token")
        .select("e1", "e2")
        .distinct()
    )
