"""Differential tests: on-demand edge targets vs the eager column.

:class:`repro.workloads.graphs.CSRGraph` stores only offsets and draws a
span of targets when a kernel reads it: ``PCG64.advance`` jumps to the
span's first word of the stream the degree draws left behind.
``tests/oracles/power_law.py`` draws every target up front into one
int32 column.  Hypothesis drives random requests, in random order,
against both and demands the same targets.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.workloads import graphs
from repro.workloads.graphs import CSRGraph
from tests.oracles import power_law as reference


def drawn(iterable):
    return [int(target) for target in iterable]


def check_same_graph(graph, expected):
    assert (graph.offsets == expected.offsets).all()
    assert graph.num_edges == len(expected.edges)
    assert graph.edge_state == expected.edge_state


#: A request: a span (start as a fraction of E, length as a multiple
#: of the span size), one vertex's adjacency (as a fraction of V), the
#: largest adjacency, or the last edges.
request = st.one_of(
    st.tuples(st.just("span"), st.floats(0, 1), st.floats(0, 3)),
    st.tuples(st.just("vertex"), st.floats(0, 1)),
    st.tuples(st.just("hub")),
    st.tuples(st.just("tail"), st.floats(0, 2)),
)


@settings(max_examples=80, deadline=None)
@given(num_vertices=st.integers(1, 20_000),
       avg_degree=st.integers(1, 16),
       seed=st.integers(0, 2**32 - 1),
       span=st.sampled_from([1, 2, 7, 64, graphs._SPAN]),
       requests=st.lists(request, min_size=1, max_size=12))
def test_targets_match_the_eager_column(num_vertices, avg_degree, seed,
                                        span, requests):
    """Smaller spans than the default put span boundaries inside most
    adjacencies, so ranges that cross them, hubs drawn a span at a time
    and a last partial span all come up."""
    expected = reference.power_law(num_vertices, avg_degree, seed)
    edges, offsets = expected.edges, expected.offsets
    num_edges = len(edges)
    with mock.patch.object(graphs, "_SPAN", span):
        graph = CSRGraph.power_law(num_vertices, avg_degree, seed)
        check_same_graph(graph, expected)
        for kind, *args in requests:
            if kind in ("span", "tail"):
                length = int(args[-1] * span) + (kind == "tail")
                start = (min(int(args[0] * num_edges), num_edges)
                         if kind == "span" else max(0, num_edges - length))
                stop = min(start + length, num_edges)
                got = drawn(graph.targets(start, stop))
            else:
                vertex = (min(int(args[0] * num_vertices), num_vertices - 1)
                          if kind == "vertex"
                          else int(np.diff(offsets).argmax()))
                start, stop = offsets[vertex], offsets[vertex + 1]
                got = drawn(graph.neighbors(vertex))
            assert got == edges[start:stop].tolist()


def test_every_target_of_a_sweep_matches():
    """A forward walk over every adjacency, as the sweeping kernels do:
    one-edge adjacencies, spans read ahead and the last partial span."""
    expected = reference.power_law(30_000, 12, 7)
    graph = CSRGraph.power_law(30_000, 12, 7)
    assert np.diff(expected.offsets).min() == 1
    targets = [target for vertex in range(30_000)
               for target in graph.neighbors(vertex)]
    assert targets == expected.edges.tolist()


@pytest.fixture(scope="module")
def full_size():
    return (reference.power_law(400_000, 12, 1),
            CSRGraph.power_law(400_000, 12, 1))


def test_full_size_hubs_and_scattered_spans_match(full_size):
    expected, graph = full_size
    check_same_graph(graph, expected)
    edges, offsets = expected.edges, expected.offsets
    degrees = np.diff(offsets)
    hubs = np.argsort(degrees)[-3:]
    assert degrees[hubs].min() > 2 * graphs._SPAN  # drawn in 3+ spans
    for vertex in hubs:
        start, stop = offsets[vertex], offsets[vertex + 1]
        assert drawn(graph.neighbors(vertex)) == edges[start:stop].tolist()
    spans = np.random.default_rng(3).integers(0, len(edges), size=(200, 2))
    for start, length in spans:
        stop = min(start + length % 700, len(edges))
        assert drawn(graph.targets(start, stop)) == edges[start:stop].tolist()


def test_a_hub_adjacency_is_drawn_a_span_at_a_time(full_size, monkeypatch):
    """Reading the first edges of a hub draws one span, not the
    adjacency; the kept span is int32."""
    expected, graph = full_size
    degrees = np.diff(expected.offsets)
    hub = int(degrees.argmax())
    assert degrees[hub] > 3 * graphs._SPAN
    counts = []
    draw = graph._draw
    monkeypatch.setattr(graph, "_draw", lambda start, count: (
        counts.append(count), draw(start, count))[1])
    targets = graph.neighbors(hub)
    first = [next(targets) for _ in range(10)]
    start = expected.offsets[hub]
    assert first == expected.edges[start:start + 10].tolist()
    assert counts == [graphs._SPAN]
    assert graph._span.itemsize == 4
    rest = drawn(targets)
    assert first + rest == expected.edges[start:start + degrees[hub]].tolist()
    assert counts == [graphs._SPAN] * -(-degrees[hub] // graphs._SPAN)


def test_both_builders_reject_vertex_ids_past_int32():
    """Both refuse before allocating anything for 2**31 vertices."""
    for build in (reference.power_law, CSRGraph.power_law):
        with pytest.raises(ValueError, match="int32"):
            build(2**31, 12, seed=1)
