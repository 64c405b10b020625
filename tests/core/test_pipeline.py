"""Unit and property tests for the latency algebra (the timeline spec in
``tests/oracles/pipeline.py``) and for stage accounting."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.common.stats import StatGroup
from repro.core.pipeline import STAGE_CTE_FETCH, STAGE_DATA_FETCH, StageAccounting
from tests.oracles.pipeline import Stage, cond, defer, evaluate, parallel, serial

#: Non-negative stage latencies with fp values a DRAM model would emit.
latencies = st.floats(min_value=0.0, max_value=1e6,
                      allow_nan=False, allow_infinity=False)


def stages(values):
    return [Stage(f"s{i}", v) for i, v in enumerate(values)]


# ----------------------------------------------------------------------
# Properties
# ----------------------------------------------------------------------


@given(st.lists(latencies, min_size=1, max_size=8))
def test_serial_sums_left_to_right(values):
    """serial() totals exactly the left-to-right float sum -- the same
    association the hand-written ``a + b + c`` code used."""
    timeline = evaluate(serial(*stages(values)))
    assert timeline.total_ns == sum(values, 0.0)


@given(st.lists(latencies, min_size=1, max_size=6), latencies, latencies)
def test_serial_associative(values, extra_a, extra_b):
    """Nesting serial() inside serial() preserves the total (up to fp
    re-association, which nesting necessarily introduces)."""
    flat = evaluate(serial(*stages(values + [extra_a, extra_b])))
    nested = evaluate(serial(*stages(values),
                             serial(Stage("a", extra_a), Stage("b", extra_b))))
    assert math.isclose(flat.total_ns, nested.total_ns,
                        rel_tol=1e-12, abs_tol=1e-9)
    assert flat.stage_names().count("s0") == nested.stage_names().count("s0")


@given(st.lists(latencies, min_size=1, max_size=8))
def test_parallel_takes_max(values):
    timeline = evaluate(parallel(*stages(values)))
    assert timeline.total_ns == max(values)


@given(st.lists(latencies, min_size=2, max_size=8), st.randoms())
def test_parallel_commutative(values, rng):
    """Branch order never changes a parallel node's duration."""
    shuffled = list(values)
    rng.shuffle(shuffled)
    assert (evaluate(parallel(*stages(values))).total_ns
            == evaluate(parallel(*stages(shuffled))).total_ns)


@given(st.lists(latencies, min_size=1, max_size=5),
       st.lists(latencies, min_size=1, max_size=5))
def test_nesting_preserves_total(serial_values, parallel_values):
    """A serial chain ending in a parallel fan-out totals chain + max."""
    timeline = evaluate(serial(*stages(serial_values),
                               parallel(*stages(parallel_values))))
    expected = sum(serial_values, 0.0) + max(parallel_values)
    assert math.isclose(timeline.total_ns, expected,
                        rel_tol=1e-12, abs_tol=1e-9)


@given(st.lists(latencies, min_size=1, max_size=8), latencies)
def test_critical_spans_sum_to_total(values, start):
    """Critical-path spans of a parallel node account for the total."""
    timeline = evaluate(parallel(*stages(values)), start)
    critical = [s for s in timeline.spans if s.critical]
    assert math.isclose(sum(s.latency_ns for s in critical),
                        timeline.total_ns, rel_tol=1e-12, abs_tol=1e-9)
    assert timeline.start_ns == start
    assert timeline.end_ns == start + timeline.total_ns


# ----------------------------------------------------------------------
# Span bookkeeping
# ----------------------------------------------------------------------


def test_spans_record_start_end():
    timeline = evaluate(serial(Stage("a", 10.0), Stage("b", 5.0)), 100.0)
    a, b = timeline.spans
    assert (a.start_ns, a.end_ns) == (100.0, 110.0)
    assert (b.start_ns, b.end_ns) == (110.0, 115.0)
    assert timeline.span("b") is b
    assert timeline.span("missing") is None


def test_callable_latency_receives_start_time():
    seen = []

    def lat(start_ns):
        seen.append(start_ns)
        return 7.0

    evaluate(serial(Stage("a", 3.0), Stage("b", lat), Stage("c", lat)), 50.0)
    assert seen == [53.0, 60.0]


def test_side_effects_run_in_declaration_order():
    order = []
    node = serial(
        Stage("a", lambda s: order.append("a") or 1.0),
        parallel(Stage("b", lambda s: order.append("b") or 2.0),
                 Stage("c", lambda s: order.append("c") or 3.0)),
        Stage("d", lambda s: order.append("d") or 4.0),
    )
    evaluate(node)
    assert order == ["a", "b", "c", "d"]


def test_parallel_marks_losers_with_slack():
    timeline = evaluate(parallel(Stage("slow", 30.0), Stage("fast", 10.0)))
    slow, fast = timeline.span("slow"), timeline.span("fast")
    assert slow.critical and not fast.critical
    assert fast.slack_ns == 20.0
    assert timeline.total_ns == 30.0


def test_wasted_stage_attribution():
    timeline = evaluate(parallel(Stage("spec", 40.0, wasted=True),
                                 Stage("verify", 25.0)))
    assert timeline.wasted_ns() == 40.0
    assert timeline.span("spec").wasted


def test_unrecorded_stage_runs_but_leaves_no_span():
    ran = []
    node = serial(Stage("visible", 5.0),
                  Stage("hidden", lambda s: ran.append(s) or 3.0,
                        record=False))
    timeline = evaluate(node)
    assert ran == [5.0]
    assert timeline.total_ns == 8.0
    assert timeline.stage_names() == ["visible"]


def test_cond_and_defer():
    assert evaluate(cond(True, Stage("t", 4.0), Stage("f", 9.0))).total_ns == 4.0
    assert evaluate(cond(False, Stage("t", 4.0), Stage("f", 9.0))).total_ns == 9.0
    assert evaluate(cond(False, Stage("t", 4.0))).total_ns == 0.0

    bases = []

    def build(start_ns):
        bases.append(start_ns)
        return Stage("late", 2.0)

    timeline = evaluate(serial(Stage("a", 6.0), defer(build)), 10.0)
    assert bases == [16.0]
    assert timeline.total_ns == 8.0


def test_validation():
    with pytest.raises(ValueError):
        Stage("", 1.0)
    with pytest.raises(ValueError):
        Stage("neg", -1.0)
    with pytest.raises(ValueError):
        parallel()


# ----------------------------------------------------------------------
# StageAccounting
# ----------------------------------------------------------------------


def span_tuples(timeline):
    """A timeline as the controllers' span tuples."""
    return [(s.name, s.start_ns, s.latency_ns, s.critical, s.wasted,
             s.slack_ns) for s in timeline.spans]


def test_accounting_shares_sum_to_one():
    acct = StageAccounting(StatGroup("stage"))
    serial_miss = evaluate(serial(Stage(STAGE_CTE_FETCH, 20.0),
                                  Stage(STAGE_DATA_FETCH, 30.0)))
    acct.record("serial", span_tuples(serial_miss), serial_miss.total_ns)
    hit = evaluate(Stage(STAGE_DATA_FETCH, 50.0))
    acct.record("hit", span_tuples(hit), hit.total_ns)
    rows = acct.breakdown()
    assert math.isclose(sum(row["share"] for row in rows), 1.0)
    assert acct.grand_total_ns() == 100.0
    assert acct.path_count("serial") == 1
    metrics = acct()
    assert metrics["serial.cte_fetch.mean_ns"] == 20.0
    assert metrics["hit.count"] == 1
    assert acct.histograms.histogram("data_fetch.ns").count == 2
    acct.reset()
    assert acct.breakdown() == []
    assert acct() == {}
