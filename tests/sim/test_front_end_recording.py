"""Frozen front-end recordings: what the replay loop's front end hands
the memory controller, and the state it leaves behind, pinned.

``repro.sim.fastpath`` replays the TLB, the page walk and L1-L3 once per
trace into a :class:`~repro.sim.fastpath.FrontEndRecording` and keeps it,
with the front end's end state, on the workload's address space.
``goldens/front_end_recording.json`` holds sha256 digests, per case, of

- ``codes``, ``kinds``, ``args``: the recording's three columns;
- ``contents``: the front end's end contents (``_save_contents``: TLB
  and PWC recency, prefetcher tables, every cache's lines);
- ``stats``: its end statistics (``_save(_stat_parts(sim))``).

The cases are short ``omnetpp`` and ``mcf`` traces, 4 KiB and huge
pages, with a warm-up fraction of 0.2 and of 0 (a reset inside the
pass, and one before it), plus one virtualized run (the 2D nested
walk).  A faster front-end pass must reproduce every digest.
Regenerate (only for a deliberate, documented behaviour change) with::

    PYTHONPATH=src python -m tests.sim.test_front_end_recording --regenerate
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.sim.simulator import Simulator
from repro.workloads.suite import workload_by_name

GOLDEN_FILE = Path(__file__).parent / "goldens" / "front_end_recording.json"


def _omnetpp():
    """20k accesses over 400 pages: long TLB-hit and L1-hit runs."""
    return workload_by_name("omnetpp", max_accesses=400_000, scale=0.05)


def _mcf():
    """12k accesses over 2,880 pages: about one TLB miss in 13 accesses."""
    return workload_by_name("mcf", max_accesses=100_000, scale=0.12)


#: name -> (workload builder, Simulator keyword arguments, warm-up fraction)
CASES = {
    f"{name}_{pages}_warmup{warmup}": (build, kwargs, warmup)
    for name, build in (("omnetpp", _omnetpp), ("mcf", _mcf))
    for pages, kwargs in (("4k", {}), ("huge", {"huge_pages": True}))
    for warmup in (0.2, 0)
}
CASES["omnetpp_virtualized_warmup0.2"] = (
    _omnetpp, {"virtualized": True}, 0.2)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digests(build, kwargs, warmup) -> dict:
    """The digests of one fresh run's recorded front end."""
    workload = build()
    workload._space = None
    sim = Simulator(workload, controller="uncompressed", seed=3, **kwargs)
    sim.run(warmup_fraction=warmup)
    recording = workload._space.front_end
    assert recording is not None, "a fresh one-segment run records"
    contents, stats = recording.end_state
    return {
        "codes": _sha(bytes(recording.codes)),
        "kinds": _sha(bytes(recording.kinds)),
        "args": _sha(json.dumps(recording.args.tolist()).encode()),
        "contents": _sha(repr(contents).encode()),
        "stats": _sha(json.dumps(stats).encode()),
    }


def build_goldens() -> dict:
    """The golden document, computed by the current code."""
    return {name: digests(*case) for name, case in CASES.items()}


@pytest.fixture(scope="module")
def frozen():
    return json.loads(GOLDEN_FILE.read_text())


@pytest.mark.parametrize("name", sorted(CASES))
def test_front_end_recording_matches_frozen_golden(name, frozen):
    actual = digests(*CASES[name])
    drifted = sorted(key for key, value in frozen[name].items()
                     if actual[key] != value)
    assert not drifted, (
        f"{name}: {drifted} drifted from the frozen golden; the front-end "
        f"pass must record and leave the same state byte for byte")


def main(argv) -> int:
    if argv != ["--regenerate"]:
        print(__doc__)
        return 2
    GOLDEN_FILE.parent.mkdir(exist_ok=True)
    GOLDEN_FILE.write_text(json.dumps(build_goldens(), indent=2,
                                      sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
