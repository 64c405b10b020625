"""Supervised runs on the segmented replay loop.

A run supervisor checkpoints a run between segments of the trace.  A
resumed run continues from its checkpoint's index without rewriting
the checkpoint it was loaded from.
"""

from repro.sim.simulator import Simulator
from repro.sim.supervisor import RunSupervisor, load_checkpoint
from repro.workloads.suite import workload_by_name


def _sim():
    workload = workload_by_name("omnetpp", max_accesses=3_000, scale=0.05)
    return Simulator(workload, controller="tmcc", seed=3)


def test_resumed_run_does_not_rewrite_its_checkpoint(tmp_path):
    path = str(tmp_path / "ck.pkl")
    baseline = _sim().run()
    first = RunSupervisor(checkpoint_path=path, checkpoint_every=300)
    first.run(_sim())
    restored = load_checkpoint(path)
    last = restored._run_state.index
    assert last % 300 == 0 and last + 300 > len(restored.workload.trace)
    resumed = RunSupervisor(checkpoint_path=path, checkpoint_every=300)
    result = resumed.run(restored)
    assert resumed.checkpoints_written == 0
    assert result.as_dict() == baseline.as_dict()
