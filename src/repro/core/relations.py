"""Relation importance and top-neighbor extraction (for H3).

The N globally most important relations per KB — same
support/discriminability harmonic mean as attributes
(:func:`repro.core.attributes.importance`), over object properties —
define each entity's ``topNneighbors``: the objects it is connected to
through one of those N relations. No schema alignment: each KB ranks its
own relations from its own statistics.
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core.attributes import most_important
from repro.kb.schema import KB


def top_n_relations(kb: KB, n_entities: int, n: int = 3) -> list[str]:
    """The n relations with the highest importance (ties by name, stable)."""
    return most_important(kb.relations(), "nbr", n_entities, n)


def top_neighbors(kb: KB, n_entities: int, n: int = 3) -> DataFrame:
    """(eid, nbr) — distinct neighbors through the top-n relations."""
    rels = top_n_relations(kb, n_entities, n)
    return (
        kb.relations()
        .filter(F.col("pred").isin(rels))
        .select("eid", "nbr")
        .distinct()
    )
