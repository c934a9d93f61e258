import pytest

from gate import BlockStatsGate, GateError, MatchGate, match_digest
from workloads import WORKLOADS


def quality_of(spark, pair, rows):
    """The gate's quality callback for a hand-made match set."""
    from repro.eval.metrics import precision_recall_f1

    def quality():
        df = spark.createDataFrame(rows, "e1 long, e2 long, heuristic string")
        return precision_recall_f1(df, pair.ground_truth)

    return quality


def fail(*_):
    raise AssertionError("quality recomputed for a match set already seen")


def test_digest_ignores_order():
    rows = [(1, 101, "H1"), (2, 102, "H2")]
    assert match_digest(rows) == match_digest(rows[::-1])
    assert match_digest(rows) != match_digest([(1, 101, "H1"), (2, 102, "H3")])


def test_gate_accepts_repeats_and_rejects_a_tampered_match_set(spark, toy_pair):
    good = [(1, 101, "H1"), (2, 102, "H2"), (3, 103, "H3")]
    gate = MatchGate(f1_floor=90.0)
    assert gate.check(good, quality_of(spark, toy_pair, good))["f1"] == 100.0
    assert gate.check(good[::-1], fail)["f1"] == 100.0

    tampered = [(1, 101, "H1"), (2, 102, "H2"), (3, 104, "H3")]
    with pytest.raises(GateError, match="differs"):
        gate.check(tampered, quality_of(spark, toy_pair, tampered))
    # on its own, the tampered set also fails the F1 floor
    with pytest.raises(GateError, match="below floor"):
        MatchGate(f1_floor=90.0).check(tampered, quality_of(spark, toy_pair, tampered))


def test_gate_on_a_real_match_call(spark, toy_pair):
    from repro.core.minoaner import match

    w = WORKLOADS["match-restaurant"]
    gate = MatchGate(f1_floor=99.0)
    out = match(toy_pair)
    q = w.check(gate, toy_pair, (out, [tuple(r) for r in out.matches.collect()]))
    assert q["f1"] == 100.0
    with pytest.raises(GateError):
        w.check(gate, toy_pair, (out, [(1, 101, "H1")]))


def test_match_gate_uses_the_table3_floor():
    from benchmarks.bench_table3 import F1_FLOOR

    for w in WORKLOADS.values():
        if w.entry == "match":
            assert w.gate().f1_floor == F1_FLOOR[w.preset]


STATS = {"dataset": "toy", "|BN|": 3, "|BT|": 10, "||BN||": 3, "||BT||": 20,
         "|E1|*|E2|": 10_000, "purge_threshold": 4,
         "precision": 12.5, "recall": 100.0, "f1": 22.2}


def test_block_stats_gate():
    g = BlockStatsGate()
    g.check(dict(STATS))
    g.check(dict(STATS))
    with pytest.raises(GateError, match="differ"):
        g.check({**STATS, "|BT|": 11})
    with pytest.raises(GateError, match="recall"):
        BlockStatsGate().check({**STATS, "recall": 96.9})
    with pytest.raises(GateError, match="2%"):
        BlockStatsGate().check({**STATS, "||BT||": 197, "||BN||": 3})
