"""Tests for valueSim (repro.core.value_sim) and its block-index weights.

valueSim reads each token's weight 1/log2(EF1*EF2 + 1) off the token-block
index: EF_E(t) is the size of t's block on the E side.
"""
import math

import pytest
from pyspark.sql import functions as F

from repro.blocking import purging, token_blocking
from repro.blocking.tokenize import entity_tokens
from repro.core.value_sim import value_similarities
from repro.oracle import assert_equivalent


@pytest.fixture(scope="module")
def toy_tokens(toy_pair):
    return entity_tokens(toy_pair.kb1), entity_tokens(toy_pair.kb2)


@pytest.fixture(scope="module")
def toy_index(toy_tokens):
    return token_blocking.block_index(*toy_tokens)


def _weights(toy_tokens, index, token):
    """Every valueSim a single block contributes, keyed by pair."""
    only = index.filter(F.col("key") == token)
    return {(r.e1, r.e2): r.sim for r in value_similarities(*toy_tokens, only).collect()}


def test_entity_frequency(toy_index):
    """EF is the block size on each side."""
    idx = {r.key: (r.n1, r.n2) for r in toy_index.collect()}
    assert idx["common"][0] == 2    # entities 3 and 4
    assert idx["zeta"][0] == 1
    assert idx["beta"][0] == 1


def test_entity_frequency_vs_oracle(toy_tokens, toy_index):
    """Block cardinalities equal the SQL entity frequencies of each KB."""
    t1, t2 = toy_tokens
    idx = toy_index.withColumnRenamed("key", "token")
    sql = """
        WITH ef1 AS (SELECT token, COUNT(DISTINCT eid) AS n1 FROM t1 GROUP BY token),
             ef2 AS (SELECT token, COUNT(DISTINCT eid) AS n2 FROM t2 GROUP BY token)
        SELECT token, n1, n2 FROM ef1 JOIN ef2 USING (token)
    """
    assert_equivalent(idx, sql, t1=t1.toPandas(), t2=t2.toPandas())


def test_token_weights_formula(toy_tokens, toy_index):
    # qux: EF 1 x 1 -> 1/log2(2) = 1 (the H2 'unique shared token' anchor)
    assert _weights(toy_tokens, toy_index, "qux") == {(2, 102): pytest.approx(1.0)}
    # common: EF 2 x 3 -> 1/log2(7), for each of the 6 pairs in its block
    w = _weights(toy_tokens, toy_index, "common")
    assert len(w) == 6
    assert all(v == pytest.approx(1 / math.log2(7)) for v in w.values())
    # zeta: EF 1 x 2 -> 1/log2(3)
    w = _weights(toy_tokens, toy_index, "zeta")
    assert w == {(1, 101): pytest.approx(1 / math.log2(3)),
                 (1, 105): pytest.approx(1 / math.log2(3))}
    # tokens on one side only have no block, hence never get a weight
    assert _weights(toy_tokens, toy_index, "other1") == {}
    assert _weights(toy_tokens, toy_index, "llc") == {}


def test_value_similarities_hand_computed(toy_tokens, toy_index):
    t1, t2 = toy_tokens
    vs = {(r.e1, r.e2): r.sim for r in value_similarities(t1, t2, toy_index).collect()}
    assert vs[(1, 101)] == pytest.approx(2 + 1 / math.log2(3))   # acme+corp+zeta
    assert vs[(2, 102)] == pytest.approx(2.0)                    # qux+beta
    assert vs[(3, 103)] == pytest.approx(1 / math.log2(7))
    assert vs[(1, 105)] == pytest.approx(1 / math.log2(3))       # zeta only
    assert (1, 102) not in vs                                    # no shared token


def test_value_similarities_symmetric_in_pair_count(toy_tokens, toy_index):
    t1, t2 = toy_tokens
    vs = value_similarities(t1, t2, toy_index)
    assert vs.count() == vs.select("e1", "e2").distinct().count()


def test_kept_keys_restrict_sum(toy_tokens, toy_index):
    """On a purged index the sum covers kept tokens only, and each kept
    token keeps its pre-purge EF."""
    t1, t2 = toy_tokens
    # levels: 4 blocks of 1x1, zeta 1x2, common 2x3; a budget of 6 keeps
    # every level up to 2 comparisons and purges "common"
    kept, threshold = purging.purge(toy_index, 100, budget_factor=0.06, min_budget=0)
    assert threshold == 2
    raw = {r.key: (r.n1, r.n2) for r in toy_index.collect()}
    purged = {r.key: (r.n1, r.n2) for r in kept.collect()}
    assert purged == {k: v for k, v in raw.items() if k != "common"}
    vs = {(r.e1, r.e2): r.sim for r in value_similarities(t1, t2, kept).collect()}
    assert vs == {
        (1, 101): pytest.approx(2 + 1 / math.log2(3)),   # zeta still EF 1 x 2
        (1, 105): pytest.approx(1 / math.log2(3)),
        (2, 102): pytest.approx(2.0),
    }


def test_value_sim_vs_oracle(toy_tokens, toy_index):
    t1, t2 = toy_tokens
    vs = value_similarities(t1, t2, toy_index)
    sql = """
        WITH ef1 AS (SELECT token, COUNT(DISTINCT eid) AS ef FROM t1 GROUP BY token),
             ef2 AS (SELECT token, COUNT(DISTINCT eid) AS ef FROM t2 GROUP BY token),
             w AS (SELECT ef1.token, 1.0/LOG2(ef1.ef * ef2.ef + 1) AS w
                   FROM ef1 JOIN ef2 USING (token))
        SELECT t1.eid AS e1, t2.eid AS e2, SUM(w.w) AS sim
        FROM t1 JOIN w USING (token) JOIN t2 USING (token)
        GROUP BY t1.eid, t2.eid
    """
    assert_equivalent(vs, sql, t1=t1.toPandas(), t2=t2.toPandas())


def test_rare_token_anchors_h2_semantics(rexa_pair):
    """A pair-unique token contributes exactly 1: the paper's 'they, and
    only they, share a common token' <=> valueSim >= 1 equivalence."""
    t1 = entity_tokens(rexa_pair.kb1)
    t2 = entity_tokens(rexa_pair.kb2)
    rare = token_blocking.block_index(t1, t2).filter(F.col("key").startswith("rr")).cache()
    blocks = rare.collect()
    assert blocks and all((r.n1, r.n2) == (1, 1) for r in blocks)
    # each 1x1 block yields one pair of weight 1/log2(2) = 1
    vs = value_similarities(t1, t2, rare).agg(F.sum("sim").alias("s")).first()
    assert vs.s == pytest.approx(float(len(blocks)))
    rare.unpersist()
