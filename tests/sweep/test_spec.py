"""Spec layer: parsing, validation, and deterministic expansion."""

import json

import pytest

from repro.common.errors import ConfigError
from repro.sweep.spec import (
    BudgetSpec,
    ControllerSpec,
    SweepSpec,
    builtin_spec,
    derive_job_seed,
)


def tiny_spec(**overrides):
    base = dict(
        name="t",
        workloads=("mcf", "omnetpp"),
        controllers=("uncompressed", "compresso", "tmcc@iso"),
        accesses=1_500,
        scale=0.05,
    )
    base.update(overrides)
    return SweepSpec.build(**base)


# ----------------------------------------------------------------------
# Budgets
# ----------------------------------------------------------------------

def test_budget_spellings():
    assert BudgetSpec.parse(None).kind == "none"
    assert BudgetSpec.parse("none").kind == "none"
    assert BudgetSpec.parse("iso").kind == "iso"
    fraction = BudgetSpec.parse("0.7x")
    assert (fraction.kind, fraction.value) == ("fraction", 0.7)
    assert BudgetSpec.parse(123_456) == BudgetSpec("bytes", 123_456.0)
    assert BudgetSpec.parse("16MiB").resolve(None) == 16 * 2**20
    assert BudgetSpec.parse("4k").resolve(None) == 4096


def test_budget_resolution_against_reference():
    assert BudgetSpec.parse("iso").resolve(1000) == 1000
    assert BudgetSpec.parse("0.5x").resolve(1000) == 500
    assert BudgetSpec.parse("none").resolve(None) is None
    with pytest.raises(ConfigError):
        BudgetSpec.parse("iso").resolve(None)


@pytest.mark.parametrize("bad", ["garbage", "x2", "-3", 0.7, True])
def test_budget_rejections(bad):
    with pytest.raises(ConfigError):
        BudgetSpec.parse(bad)


def test_budget_labels_round_trip():
    for spelling in ("none", "iso", "0.7x", "16777216B"):
        budget = BudgetSpec.parse(spelling)
        assert BudgetSpec.parse(budget.label()) == budget


# ----------------------------------------------------------------------
# Controllers
# ----------------------------------------------------------------------

def test_controller_spellings():
    plain = ControllerSpec.parse("tmcc")
    assert plain.name == "tmcc" and plain.budgets[0].kind == "none"
    at_iso = ControllerSpec.parse("tmcc@iso")
    assert at_iso.budgets[0].kind == "iso"
    ladder = ControllerSpec.parse(
        {"name": "tmcc", "budgets": ["iso", "0.7x"]})
    assert [b.kind for b in ladder.budgets] == ["iso", "fraction"]
    with pytest.raises(ConfigError):
        ControllerSpec.parse({"budgets": ["iso"]})
    with pytest.raises(ConfigError):
        ControllerSpec.parse({"name": "tmcc", "extra": 1})


# ----------------------------------------------------------------------
# Seeds
# ----------------------------------------------------------------------

def test_repeat_zero_keeps_base_seed():
    assert derive_job_seed(1, 0) == 1
    assert derive_job_seed(42, 0) == 42


def test_repeat_seeds_distinct_and_31bit():
    seeds = {derive_job_seed(1, r) for r in range(16)}
    assert len(seeds) == 16
    assert all(0 <= s < 2**31 for s in seeds)


# ----------------------------------------------------------------------
# Expansion
# ----------------------------------------------------------------------

def test_expansion_is_deterministic():
    a, b = tiny_spec().expand(), tiny_spec().expand()
    assert [j.job_id for j in a] == [j.job_id for j in b]
    assert [j.seed for j in a] == [j.seed for j in b]
    assert a == b


def test_expansion_order_and_size():
    jobs = tiny_spec(seeds=(1, 2)).expand()
    assert len(jobs) == 2 * 2 * 3  # workloads x seeds x controllers
    assert [j.workload for j in jobs[:6]] == ["mcf"] * 6
    assert [j.controller for j in jobs[:3]] == [
        "uncompressed", "compresso", "tmcc"]
    assert [j.index for j in jobs] == list(range(len(jobs)))


def test_job_id_is_pinned():
    # The hash covers every simulation-relevant field plus the matrix
    # version; this pin fails loudly if either changes without a
    # MATRIX_VERSION bump (which would corrupt store resume matching).
    job = tiny_spec().expand()[0]
    assert job.job_id == "21b71965b4e11efd"


def test_iso_jobs_wired_to_reference_provider():
    jobs = tiny_spec().expand()
    by_id = {j.job_id: j for j in jobs}
    iso = [j for j in jobs if j.budget.kind == "iso"]
    assert iso, "expected tmcc@iso cells"
    for job in iso:
        provider = by_id[job.provider_id]
        assert provider.controller == "compresso"
        assert provider.budget.kind == "none"
        assert (provider.workload, provider.seed) == (job.workload, job.seed)


def test_repeats_derive_distinct_seeds():
    jobs = tiny_spec(repeats=3).expand()
    mcf_unc = [j for j in jobs
               if j.workload == "mcf" and j.controller == "uncompressed"]
    assert [j.repeat for j in mcf_unc] == [0, 1, 2]
    assert mcf_unc[0].seed == 1  # repeat 0 reproduces the base protocol
    assert len({j.seed for j in mcf_unc}) == 3


def test_duplicate_cell_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        tiny_spec(controllers=("compresso", "compresso")).expand()


def test_iso_without_reference_rejected():
    with pytest.raises(ConfigError, match="reference|measure"):
        tiny_spec(controllers=("uncompressed", "tmcc@iso"))


@pytest.mark.parametrize("overrides", [
    dict(workloads=("nosuch",)),
    dict(controllers=("nosuch",)),
    dict(accesses=0),
    dict(scale=1.5),
    dict(repeats=0),
    dict(name=""),
    dict(job_timeout_s=-1.0),
    dict(faults=("nosuchfault:bogus",)),
])
def test_unrunnable_specs_rejected(overrides):
    with pytest.raises(ConfigError):
        tiny_spec(**overrides).expand()


def test_unknown_workloads_allowed_when_caller_resolves():
    spec = tiny_spec(workloads=("custom-trace",),
                     known_workloads_only=False)
    jobs = spec.expand(known_workloads_only=False)
    assert jobs[0].workload == "custom-trace"


# ----------------------------------------------------------------------
# Serialization / files
# ----------------------------------------------------------------------

def test_dict_round_trip_preserves_hash():
    spec = tiny_spec(seeds=(1, 7), repeats=2)
    clone = SweepSpec.from_dict(spec.to_dict())
    assert clone.spec_hash() == spec.spec_hash()
    assert clone.expand() == spec.expand()


def test_from_json_file(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(tiny_spec().to_dict()))
    assert SweepSpec.from_file(str(path)).spec_hash() == \
        tiny_spec().spec_hash()


def test_from_toml_file(tmp_path):
    path = tmp_path / "spec.toml"
    path.write_text(
        '[sweep]\n'
        'name = "t"\n'
        'workloads = ["mcf", "omnetpp"]\n'
        'controllers = ["uncompressed", "compresso", "tmcc@iso"]\n'
        'accesses = 1500\n'
        'scale = 0.05\n'
    )
    assert SweepSpec.from_file(str(path)).spec_hash() == \
        tiny_spec().spec_hash()


def test_bad_files_rejected(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        SweepSpec.from_file(str(tmp_path / "missing.json"))
    bad_toml = tmp_path / "bad.toml"
    bad_toml.write_text("not = [valid")
    with pytest.raises(ConfigError, match="TOML"):
        SweepSpec.from_file(str(bad_toml))
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{nope")
    with pytest.raises(ConfigError, match="JSON"):
        SweepSpec.from_file(str(bad_json))


def test_unknown_spec_keys_rejected():
    with pytest.raises(ConfigError, match="unknown sweep spec key"):
        SweepSpec.from_dict({"name": "t", "workloads": ["mcf"],
                             "controllers": ["compresso"], "wrkloads": []})


def test_retired_fast_path_key_rejected():
    """Spec files written when sweeps could pick the replay loop fail
    loudly: there is one loop now."""
    with pytest.raises(ConfigError, match="unknown sweep spec key"):
        SweepSpec.from_dict({"name": "t", "workloads": ["mcf"],
                             "controllers": ["compresso"],
                             "fast_path": "auto"})


def test_builtin_specs_expand():
    fig18 = builtin_spec("fig18")
    assert len(fig18.expand()) == 7 * 3
    smoke = builtin_spec("smoke")
    assert {j.workload for j in smoke.expand()} == {"mcf", "omnetpp"}
    with pytest.raises(ConfigError):
        builtin_spec("nosuch")
