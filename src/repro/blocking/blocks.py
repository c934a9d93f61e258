"""The blocking result of one KB pair: B_T and B_N, built once and shared.

MinoanER blocks each KB pair once: Token Blocking plus Block Purging
give B_T, Name Blocking gives B_N, and every later step reads them —
valueSim's weights are the B_T block sizes (:mod:`repro.core.value_sim`),
H1 reads the 1-1 blocks of B_N, Table II counts both collections, and
BSL compares the distinct candidate pairs of B_N u B_T. |E1| and |E2|
are counted here too, once: purging needs |E1|x|E2| and attribute
importance needs |E| per KB.
"""
from __future__ import annotations

from dataclasses import dataclass

from pyspark.sql import DataFrame

from repro.blocking import name_blocking, purging, token_blocking
from repro.blocking.tokenize import entity_tokens
from repro.kb.schema import KBPair


@dataclass(frozen=True)
class Blocks:
    """B_T and B_N of one KB pair, with the inputs they were built from."""

    tokens1: DataFrame            # (eid, token) distinct value tokens of E1
    tokens2: DataFrame            # ... and of E2
    names1: DataFrame             # (eid, token) name keys of E1
    names2: DataFrame             # ... and of E2
    bt: DataFrame                 # purged (key, n1, n2) token-block index
    threshold: int                # largest n1*n2 of a kept token block
    bn: DataFrame                 # (key, n1, n2) name-block index
    n_entities: tuple[int, int]   # |E1|, |E2|
    cartesian: int                # |E1| x |E2|

    def candidates(self) -> DataFrame:
        """(e1, e2) — the distinct cross-KB pairs of B_N u purged B_T."""
        return (
            token_blocking.candidate_pairs(self.tokens1, self.tokens2, self.bt.select("key"))
            .unionByName(token_blocking.candidate_pairs(self.names1, self.names2))
            .distinct()
        )

    def unpersist(self) -> None:
        """Release what :func:`build` cached."""
        for df in (self.tokens1, self.tokens2, self.names1, self.names2):
            df.unpersist()


def build(
    pair: KBPair, k: int = 2, budget_factor: float = purging.DEFAULT_BUDGET_FACTOR
) -> Blocks:
    """Block ``pair`` once: token sets, purged B_T, name keys, B_N, |E1|, |E2|.

    The token sets and name keys are cached (lazily) because every
    consumer reads them more than once; call :meth:`Blocks.unpersist`
    when done.
    """
    n_entities = (pair.kb1.n_entities(), pair.kb2.n_entities())
    cartesian = n_entities[0] * n_entities[1]
    t1 = entity_tokens(pair.kb1).cache()
    t2 = entity_tokens(pair.kb2).cache()
    bt, threshold = purging.purge(
        token_blocking.block_index(t1, t2), cartesian, budget_factor
    )
    n1, n2 = name_blocking.name_keys(pair, n_entities, k)
    n1, n2 = n1.cache(), n2.cache()
    return Blocks(
        tokens1=t1, tokens2=t2, names1=n1, names2=n2,
        bt=bt, threshold=threshold, bn=token_blocking.block_index(n1, n2),
        n_entities=n_entities, cartesian=cartesian,
    )
