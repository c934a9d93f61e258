"""Attribute importance and automatic entity-name discovery (for H1).

importance(p) = harmonic mean of
  support(p)          = |{e : p in e}| / |E|
  discriminability(p) = |distinct objects of p| / |{e : p in e}|

The k most important attributes per KB provide the literal values that
serve as entity *names* — no rdfs:label or schema knowledge required.
``rdf:type`` triples are excluded (DESIGN.md §6). The same formula ranks
relations (:mod:`repro.core.relations`); |E| is passed in, counted once
per KB by the shared blocking pass (:mod:`repro.blocking.blocks`).
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.kb.schema import KB


def importance(triples: DataFrame, obj: str, n_entities: int) -> DataFrame:
    """(pred, support, discriminability, importance) of each predicate.

    ``triples`` has ``eid``, ``pred`` and the object column ``obj``;
    ``n_entities`` is |E| of the KB they come from.
    """
    per_pred = triples.groupBy("pred").agg(
        F.countDistinct("eid").alias("n_e"),
        F.countDistinct(obj).alias("n_obj"),
    )
    support = F.col("n_e") / F.lit(float(n_entities))
    discr = F.col("n_obj") / F.col("n_e")
    return per_pred.select(
        "pred",
        support.alias("support"),
        discr.alias("discriminability"),
        (2 * support * discr / (support + discr)).alias("importance"),
    )


def most_important(triples: DataFrame, obj: str, n_entities: int, k: int) -> list[str]:
    """The k predicates with the highest importance (ties by name, stable)."""
    rows = (
        importance(triples, obj, n_entities)
        .orderBy(F.desc("importance"), F.asc("pred"))
        .limit(k)
        .collect()
    )
    return [r["pred"] for r in rows]


def top_k_name_attributes(kb: KB, n_entities: int, k: int = 2) -> list[str]:
    """The k literal attributes with the highest importance."""
    return most_important(kb.literals(), "obj", n_entities, k)


def entity_names(kb: KB, n_entities: int, k: int = 2) -> DataFrame:
    """(eid, name) — normalized literal values of the top-k name attributes.

    An entity may expose several names (one per name attribute / value).
    Normalization mirrors tokenization casing so that name equality is
    insensitive to case and surrounding whitespace.
    """
    attrs = top_k_name_attributes(kb, n_entities, k)
    return (
        kb.literals()
        .filter(F.col("pred").isin(attrs))
        .select("eid", F.trim(F.lower(F.col("obj"))).alias("name"))
        .distinct()
    )
