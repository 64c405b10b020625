"""Segment invariance of the front-end pass.

``repro.sim.fastpath.run_fast`` cuts a trace into segments whenever an
observer reads the metrics registry mid-run (time series, checkpoints,
the watchdog, ``--profile``), and the warm-up reset falls either inside
a pass or before a segment that starts on it.  Wherever the cuts and
the reset land, the front end must see the same accesses in the same
order: the segments' recordings, concatenated, and the front end's end
state must equal those of one pass over the whole trace.
"""

from __future__ import annotations

from array import array

from hypothesis import given, settings, strategies as st

from repro.sim import fastpath
from repro.sim.simulator import Simulator
from repro.workloads.suite import workload_by_name

#: Accesses replayed per example.
LENGTH = 1_500

SHAPES = {"4k": {}, "huge": {"huge_pages": True},
          "virtualized": {"virtualized": True}}

_BUILT: dict = {}


def _fresh(name: str, shape: str) -> Simulator:
    """A cold simulator on ``name``'s short trace; the workload (one per
    shape, so each keeps its own address space) and its compression
    model are built once."""
    key = name, shape
    if key not in _BUILT:
        workload = workload_by_name(name, max_accesses=LENGTH)
        sim = Simulator(workload, controller="uncompressed", seed=3,
                        **SHAPES[shape])
        _BUILT[key] = workload, sim.model
        return sim
    workload, model = _BUILT[key]
    return Simulator(workload, controller="uncompressed", seed=3,
                     model=model, **SHAPES[shape])


def _replay(sim: Simulator, cuts, reset_at: int):
    """Front-end passes over ``[0, LENGTH)`` split at ``cuts``, with the
    warm-up reset before access ``reset_at`` placed as ``run_fast``
    places it; the concatenated recording's columns."""
    columns = fastpath._columns(sim)
    bounds = [0, *cuts, LENGTH]
    kinds = bytearray()
    args = array("q")
    for start, stop in zip(bounds, bounds[1:]):
        if start == reset_at:
            sim._reset_stats()
        recording = fastpath._front_end_pass(
            sim, columns, start, stop,
            reset_at if start < reset_at < stop else -1)
        kinds += recording.kinds
        args += recording.args
    return bytes(recording.codes[:LENGTH]), bytes(kinds), args.tolist()


def _end_state(sim: Simulator):
    return (repr(fastpath._save_contents(sim)),
            fastpath._save(fastpath._stat_parts(sim)))


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(["omnetpp", "mcf"]),
       shape=st.sampled_from(sorted(SHAPES)),
       cuts=st.lists(st.integers(1, LENGTH - 1), max_size=12, unique=True),
       reset_at=st.integers(-1, LENGTH - 1))
def test_segmented_front_end_equals_one_pass(name, shape, cuts, reset_at):
    whole = _fresh(name, shape)
    expected = _replay(whole, [], reset_at)
    segmented = _fresh(name, shape)
    assert _replay(segmented, sorted(cuts), reset_at) == expected
    assert _end_state(segmented) == _end_state(whole)
