import itertools

import pytest

import spans
from spans import Span, Tracer, covered, layer_metrics, self_times


class FakeContext:
    """Records the job group the tracer sets."""

    def __init__(self):
        self.groups = []

    def setJobGroup(self, group, description):
        self.groups.append(group)

    def setLocalProperty(self, key, value):
        assert key == "spark.jobGroup.id"
        self.groups.append(value)


def ticking_clock():
    return itertools.count().__next__  # 0, 1, 2, ... one tick per reading


def test_covered_merges_overlaps_and_clips():
    assert covered([], 0, 10) == 0
    assert covered([(1, 3), (2, 5)], 0, 10) == 4
    assert covered([(1, 3), (4, 6)], 0, 10) == 4
    assert covered([(-5, 2), (8, 20)], 0, 10) == 4
    assert covered([(1, 9), (2, 3)], 0, 10) == 8


def test_self_time_subtracts_children_not_grandchildren():
    tree = [
        Span(0, "root", None, 0.0, 10.0),
        Span(1, "a", 0, 1.0, 3.0),
        Span(2, "b", 0, 2.0, 5.0),   # overlaps a: the union counts once
        Span(3, "c", 1, 1.5, 2.5),   # a's child, not root's
    ]
    st = self_times(tree)
    assert st[0] == pytest.approx(10 - 4)
    assert st[1] == pytest.approx(2 - 1)
    assert st[2] == pytest.approx(3)
    assert st[3] == pytest.approx(1)


def test_tracer_builds_tree_and_restores_job_groups():
    sc = FakeContext()
    t = Tracer(sc, targets={}, probes={}, clock=ticking_clock())

    def inner():
        return 1

    def outer():
        return t.run("m.inner", inner) + t.run("m.inner", inner)

    assert t.run("m.outer", outer) == 2
    names = [(s.name, s.parent) for s in t.spans]
    assert names == [("m.outer", None), ("m.inner", 0), ("m.inner", 0)]
    # each span sets its own group and hands the parent's back on return
    assert sc.groups == ["span-0", "span-1", "span-0", "span-2", "span-0", None]
    # clock ticks: outer [0, 5], inner [1, 2] and [3, 4]
    st = self_times(t.spans)
    assert (st[0], st[1], st[2]) == (3, 1, 1)


def test_probe_time_is_subtracted_and_not_reported():
    sc = FakeContext()
    probe = {"purging.purge": lambda args, out: {"raw_comparisons": 40, "kept_comparisons": 10}}
    t = Tracer(sc, targets={}, probes=probe, clock=ticking_clock())
    t.run("purging.purge", lambda x: x, 4)
    assert [s.name for s in t.spans] == ["purging.purge", "purging.purge.probe"]
    t.spans[0].jobs, t.spans[1].jobs = 3, 99
    m = layer_metrics(t.spans)
    assert m["purging.purge.s"] == 2  # [0, 3] minus the probe's [1, 2]
    assert m["purging.purge.jobs"] == 3  # the probe's jobs are its own
    assert m["purging.purge.calls"] == 1
    assert m["purging.purge.kept_comparisons_frac"] == 0.25
    assert m["purging.purge.raw_comparisons"] == 40


def test_layer_metrics_sums_calls_and_zero_fills_missing():
    tree = [
        Span(0, "call", None, 0.0, 10.0),
        Span(1, "kb.n_entities", 0, 1.0, 2.0, jobs=2),
        Span(2, "kb.n_entities", 0, 3.0, 5.0, jobs=2),
        Span(3, "value_sim.value_similarities", 0, 6.0, 9.0, jobs=4, rows=50),
        Span(4, "heuristics.neighbor_similarities", 0, 9.0, 9.5, rows=200),
    ]
    events = {"span-3": {"shuffle_mb": 1.5, "gc_s": 0.25}}
    m = layer_metrics(tree, events=events)
    assert m["kb.n_entities.calls"] == 2
    assert m["kb.n_entities.s"] == pytest.approx(3.0)
    assert m["kb.n_entities.jobs"] == 4
    assert m["value_sim.value_similarities.shuffle_mb"] == 1.5
    assert m["value_sim.value_similarities.gc_s"] == 0.25
    assert m["heuristics.neighbor_similarities.rows_per_value_pair"] == 4.0
    assert m["stats.block_stats.calls"] == 0  # never called: zero, not absent
    assert "call.s" not in m  # only listed functions are layers
    assert m["heuristics.h4_filter.kept_frac"] == 0.0  # no base, no ratio


def test_missing_target_is_skipped():
    t = Tracer(FakeContext(), targets={"kb.gone": ("repro.kb.schema", "no_such_function")})
    assert t.install() == []


def test_install_patches_every_alias_and_uninstall_restores(toy_pair, spark):
    from repro.blocking import stats, tokenize
    from repro.core import minoaner
    from repro.eval import tables

    orig = tokenize.entity_tokens
    expected = stats.block_stats(toy_pair)
    t = Tracer(spark.sparkContext)
    found = t.install()
    try:
        assert set(found) == set(spans.TARGETS)
        for mod in (tokenize, stats, minoaner, tables):
            assert mod.entity_tokens.__wrapped__ is orig
        root = t.open("call")
        got = stats.block_stats(toy_pair)
        t.close(root)
        t.release()
    finally:
        t.uninstall()
    assert minoaner.entity_tokens is orig and stats.entity_tokens is orig
    assert got == expected  # tracing does not change the result

    by_id = {s.id: s for s in t.spans}
    top = [s for s in t.spans if s.parent == root.id]
    assert [s.name for s in top] == ["stats.block_stats"]
    kids = {s.name for s in t.spans if s.parent == top[0].id}
    assert {"kb.n_entities", "tokenize.entity_tokens", "token_blocking.block_index",
            "purging.purge", "name_blocking.name_keys", "token_blocking.candidate_pairs",
            "stats.block_quality", "token_blocking.total_comparisons"} <= kids
    purge = next(s for s in t.spans if s.name == "purging.purge")
    assert purge.counters["kept_comparisons"] <= purge.counters["raw_comparisons"]
    assert all(s.end >= s.start for s in t.spans)
    assert all(s.parent is None or s.parent in by_id for s in t.spans)
    toks = [s for s in t.spans if s.name == "tokenize.entity_tokens"]
    assert [s.rows for s in toks] == [16, 16]  # distinct (entity, token) pairs per KB
