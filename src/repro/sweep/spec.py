"""Declarative sweep specs and their deterministic job matrices.

A :class:`SweepSpec` names the axes of a design-space sweep -- which
workloads, which controllers (each with its own DRAM-budget ladder),
which seeds, which fault plans -- plus the shared trace knobs.  Specs
come from three places and behave identically:

- the programmatic builder, :meth:`SweepSpec.build`, taking compact
  ``"controller@budget"`` strings;
- TOML files (``[sweep]`` table, ``[[sweep.controllers]]`` arrays);
- JSON files with the same shape as :meth:`SweepSpec.to_dict`.

:meth:`SweepSpec.expand` turns a spec into an ordered list of
:class:`JobSpec` rows -- the *job matrix*.  Expansion is pure and
deterministic: the same spec always yields the same jobs, in the same
order, with the same stable ``job_id`` hashes and the same per-job
derived seeds, regardless of how many workers later run them.  That
property is what makes stores resumable and ``-j 1`` vs ``-j 4``
row-identical.

Budgets support four kinds:

========  ==========================  ===============================
spelling  meaning                     example
========  ==========================  ===============================
none      controller's own default    ``"uncompressed"``
bytes     absolute DRAM budget        ``"tmcc@16MiB"``, ``tmcc@123456``
iso       the reference controller's  ``"tmcc@iso"`` (Figure 17/18's
          measured DRAM usage         iso-capacity protocol)
fraction  a multiple of the iso       ``"tmcc@0.7x"`` (Figure 21's
          reference's usage           capacity ladder)
========  ==========================  ===============================

``iso``/fraction jobs depend on a *provider* job -- the reference
controller (default ``compresso``) at budget ``none`` for the same
workload/seed cell -- and the engine only dispatches them once the
provider's measured ``dram_used_bytes`` is known.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.common.errors import ConfigError
from repro.common.units import GIB, KIB, MIB

#: Job matrix format tag; part of every job_id hash, so incompatible
#: expansion changes can never silently match old store rows.  Version 2
#: dropped the ``fast_path`` knob from the job identity.
MATRIX_VERSION = 2

#: Odd multiplier decorrelating repeat seeds from the base seed; repeat
#: 0 keeps the base seed untouched so single-repeat sweeps reproduce the
#: sequential ``repro compare`` protocols bit-for-bit.
_REPEAT_SEED_STRIDE = 0x9E3779B1

_SIZE_SUFFIXES = {"kib": KIB, "mib": MIB, "gib": GIB,
                  "k": KIB, "m": MIB, "g": GIB, "b": 1}


def derive_job_seed(base_seed: int, repeat: int) -> int:
    """The per-job simulation seed for one repeat of a seed-axis value.

    Repeat 0 is the base seed itself (protocol compatibility); later
    repeats decorrelate with a fixed odd stride, staying deterministic
    functions of the spec alone -- never of scheduling order.
    """
    if repeat == 0:
        return base_seed
    return (base_seed + _REPEAT_SEED_STRIDE * repeat) & 0x7FFF_FFFF


@dataclass(frozen=True)
class BudgetSpec:
    """One DRAM-budget axis value (see the table in the module docs)."""

    kind: str  # "none" | "bytes" | "iso" | "fraction"
    value: float = 0.0

    _KINDS = ("none", "bytes", "iso", "fraction")

    def __post_init__(self) -> None:
        if self.kind not in self._KINDS:
            raise ConfigError(f"unknown budget kind {self.kind!r}; "
                              f"choose from {self._KINDS}")
        if self.kind == "bytes" and not self.value >= 1:
            raise ConfigError(f"byte budgets must be >= 1, got {self.value}")
        if self.kind == "fraction" and not 0.0 < self.value:
            raise ConfigError(
                f"budget fractions must be > 0, got {self.value}")

    @classmethod
    def parse(cls, raw: Union[None, int, float, str,
                              "BudgetSpec"]) -> "BudgetSpec":
        """Parse a budget spelling from specs/CLI strings."""
        if isinstance(raw, BudgetSpec):
            return raw
        if raw is None:
            return cls("none")
        if isinstance(raw, bool):
            raise ConfigError(f"budget cannot be a boolean ({raw!r})")
        if isinstance(raw, int):
            return cls("bytes", float(raw))
        if isinstance(raw, float):
            raise ConfigError(
                f"ambiguous numeric budget {raw!r}: write fractions of the "
                f"iso reference as '{raw}x' and byte counts as integers")
        text = raw.strip().lower()
        if text in ("", "none", "default"):
            return cls("none")
        if text == "iso":
            return cls("iso", 1.0)
        match = re.fullmatch(r"(\d+(?:\.\d+)?)x", text)
        if match:
            return cls("fraction", float(match.group(1)))
        match = re.fullmatch(r"(\d+(?:\.\d+)?)\s*(kib|mib|gib|k|m|g|b)?",
                             text)
        if match:
            scale = _SIZE_SUFFIXES[match.group(2) or "b"]
            return cls("bytes", float(match.group(1)) * scale)
        raise ConfigError(
            f"cannot parse budget {raw!r}; use 'none', 'iso', a fraction "
            f"like '0.7x', or a byte size like '16MiB'")

    @property
    def needs_reference(self) -> bool:
        """True when the budget derives from a provider job's usage."""
        return self.kind in ("iso", "fraction")

    def label(self) -> str:
        """Canonical spelling, stable across parse round-trips."""
        if self.kind == "none":
            return "none"
        if self.kind == "iso":
            return "iso"
        if self.kind == "fraction":
            return f"{self.value:g}x"
        return f"{int(self.value)}B"

    def resolve(self, reference_bytes: Optional[int]) -> Optional[int]:
        """Concrete byte budget given the provider's measured usage."""
        if self.kind == "none":
            return None
        if self.kind == "bytes":
            return int(self.value)
        if reference_bytes is None:
            raise ConfigError(
                f"budget {self.label()!r} needs the reference job's "
                f"measured DRAM usage")
        if self.kind == "iso":
            return int(reference_bytes)
        return int(reference_bytes * self.value)


@dataclass(frozen=True)
class ControllerSpec:
    """One controller axis entry with its own budget ladder."""

    name: str
    budgets: Tuple[BudgetSpec, ...] = (BudgetSpec("none"),)

    @classmethod
    def parse(cls, raw: Union[str, dict, "ControllerSpec"]) -> "ControllerSpec":
        """``"tmcc"``, ``"tmcc@iso"``, or ``{"name":..., "budgets":[...]}``."""
        if isinstance(raw, ControllerSpec):
            return raw
        if isinstance(raw, str):
            name, sep, budget = raw.partition("@")
            name = name.strip()
            if not name:
                raise ConfigError(f"controller spec {raw!r} has no name")
            budgets = (BudgetSpec.parse(budget),) if sep else \
                (BudgetSpec("none"),)
            return cls(name, budgets)
        if isinstance(raw, dict):
            extra = set(raw) - {"name", "budgets"}
            if extra:
                raise ConfigError(
                    f"unknown controller spec key(s) {sorted(extra)}; "
                    f"expected 'name' and optional 'budgets'")
            if "name" not in raw:
                raise ConfigError("controller spec needs a 'name'")
            budgets = tuple(BudgetSpec.parse(b)
                            for b in raw.get("budgets", ["none"]))
            if not budgets:
                raise ConfigError(
                    f"controller {raw['name']!r} has an empty budget list")
            return cls(str(raw["name"]), budgets)
        raise ConfigError(f"cannot parse controller spec {raw!r}")

    def to_dict(self) -> dict:
        return {"name": self.name,
                "budgets": [b.label() for b in self.budgets]}


@dataclass(frozen=True)
class JobSpec:
    """One fully-resolved cell of the job matrix.

    ``job_id`` hashes every simulation-relevant field (plus the matrix
    version), so a store row written by one expansion is only ever
    matched by an identical configuration.  ``provider_id`` names the
    job whose measured DRAM usage resolves this job's budget, or is
    empty for independent jobs.
    """

    index: int
    workload: str
    controller: str
    seed: int
    base_seed: int
    repeat: int
    budget: BudgetSpec
    faults: Optional[str]
    accesses: int
    scale: float
    workload_seed: int
    huge_pages: bool
    job_id: str = field(default="", compare=False)
    provider_id: str = field(default="", compare=False)

    def identity(self) -> dict:
        """The fields a job's hash (and store matching) is built from."""
        return {
            "matrix_version": MATRIX_VERSION,
            "workload": self.workload,
            "controller": self.controller,
            "seed": self.seed,
            "budget": self.budget.label(),
            "faults": self.faults or "",
            "accesses": self.accesses,
            "scale": self.scale,
            "workload_seed": self.workload_seed,
            "huge_pages": self.huge_pages,
        }

    def label(self) -> str:
        """Short human label: ``mcf/tmcc@iso s1``."""
        budget = self.budget.label()
        suffix = "" if budget == "none" else f"@{budget}"
        fault = f" faults={self.faults}" if self.faults else ""
        return f"{self.workload}/{self.controller}{suffix} s{self.seed}{fault}"


def _job_hash(identity: dict) -> str:
    canonical = json.dumps(identity, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def _as_tuple(value, what: str) -> tuple:
    if isinstance(value, (str, bytes)) or not isinstance(
            value, (list, tuple)):
        raise ConfigError(f"{what} must be a list, got {value!r}")
    return tuple(value)


@dataclass(frozen=True)
class SweepSpec:
    """A declarative sweep: axes x trace knobs -> a deterministic matrix."""

    name: str
    workloads: Tuple[str, ...]
    controllers: Tuple[ControllerSpec, ...]
    seeds: Tuple[int, ...] = (1,)
    faults: Tuple[Optional[str], ...] = (None,)
    repeats: int = 1
    accesses: int = 40_000
    scale: float = 0.4
    workload_seed: int = 1
    huge_pages: bool = False
    #: Controller whose budget-``none`` job anchors iso/fraction budgets.
    reference: str = "compresso"
    #: Per-job wall-clock watchdog (seconds); None disables it.
    job_timeout_s: Optional[float] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def build(
        cls,
        name: str,
        workloads: Sequence[str],
        controllers: Sequence[Union[str, dict, ControllerSpec]],
        seeds: Sequence[int] = (1,),
        faults: Sequence[Optional[str]] = (None,),
        known_workloads_only: bool = True,
        **knobs,
    ) -> "SweepSpec":
        """The programmatic builder; accepts compact controller strings."""
        spec = cls(
            name=name,
            workloads=tuple(workloads),
            controllers=tuple(ControllerSpec.parse(c) for c in controllers),
            seeds=tuple(int(s) for s in seeds),
            faults=tuple(f or None for f in faults) or (None,),
            **knobs,
        )
        spec.validate(known_workloads_only=known_workloads_only)
        return spec

    @classmethod
    def from_dict(cls, data: dict) -> "SweepSpec":
        if not isinstance(data, dict):
            raise ConfigError(f"sweep spec must be a table/object, "
                              f"got {type(data).__name__}")
        if "sweep" in data and isinstance(data["sweep"], dict):
            data = data["sweep"]
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown sweep spec key(s) {sorted(unknown)}; "
                              f"known keys: {sorted(known)}")
        for required in ("name", "workloads", "controllers"):
            if required not in data:
                raise ConfigError(f"sweep spec needs {required!r}")
        knobs = {key: data[key] for key in known
                 if key in data and key not in
                 ("name", "workloads", "controllers", "seeds", "faults")}
        if "job_timeout_s" in knobs and knobs["job_timeout_s"] is not None:
            knobs["job_timeout_s"] = float(knobs["job_timeout_s"])
        return cls.build(
            name=str(data["name"]),
            workloads=[str(w) for w in
                       _as_tuple(data["workloads"], "workloads")],
            controllers=list(_as_tuple(data["controllers"], "controllers")),
            seeds=[int(s) for s in data.get("seeds", (1,))],
            faults=[f or None for f in data.get("faults", (None,))],
            **knobs,
        )

    @classmethod
    def from_file(cls, path: str) -> "SweepSpec":
        """Load a spec from a ``.toml`` or ``.json`` file."""
        try:
            with open(path, "rb") as handle:
                raw = handle.read()
        except OSError as error:
            raise ConfigError(f"cannot read sweep spec {path!r}: {error}")
        if path.endswith(".toml"):
            import tomllib

            try:
                data = tomllib.loads(raw.decode())
            except (tomllib.TOMLDecodeError, UnicodeDecodeError) as error:
                raise ConfigError(f"{path} is not valid TOML: {error}")
        else:
            try:
                data = json.loads(raw)
            except ValueError as error:
                raise ConfigError(f"{path} is not valid JSON: {error}")
        return cls.from_dict(data)

    # ------------------------------------------------------------------
    # Validation / serialization
    # ------------------------------------------------------------------

    def validate(self, known_workloads_only: bool = True) -> None:
        """Raise :class:`ConfigError` on an unrunnable spec.

        ``known_workloads_only=False`` skips the paper-suite name check
        for callers that resolve workload names to pre-built objects
        themselves (the experiment protocols).
        """
        if not self.name:
            raise ConfigError("sweep spec needs a non-empty name")
        if not self.workloads:
            raise ConfigError("sweep spec needs at least one workload")
        if not self.controllers:
            raise ConfigError("sweep spec needs at least one controller")
        if known_workloads_only:
            from repro.workloads.suite import PAPER_WORKLOAD_NAMES

            for workload in self.workloads:
                if workload not in PAPER_WORKLOAD_NAMES:
                    raise ConfigError(
                        f"unknown workload {workload!r}; "
                        f"choose from {PAPER_WORKLOAD_NAMES}")
        from repro.core import available_controllers

        known = available_controllers()
        for controller in self.controllers:
            if controller.name not in known:
                raise ConfigError(f"unknown controller {controller.name!r}; "
                                  f"choose from {known}")
        if self.accesses <= 0:
            raise ConfigError(f"accesses must be > 0, got {self.accesses}")
        if not 0.0 < self.scale <= 1.0:
            raise ConfigError(f"scale must be in (0, 1], got {self.scale}")
        if self.repeats < 1:
            raise ConfigError(f"repeats must be >= 1, got {self.repeats}")
        if self.job_timeout_s is not None and self.job_timeout_s <= 0:
            raise ConfigError(f"job_timeout_s must be > 0, "
                              f"got {self.job_timeout_s}")
        for plan in self.faults:
            if plan:
                from repro.sim.faults import FaultPlan

                FaultPlan.parse(plan)  # raises ConfigError on bad specs
        needs_reference = any(budget.needs_reference
                              for controller in self.controllers
                              for budget in controller.budgets)
        if needs_reference:
            providers = [c for c in self.controllers
                         if c.name == self.reference
                         and any(b.kind == "none" for b in c.budgets)]
            if not providers:
                raise ConfigError(
                    f"iso/fraction budgets need a {self.reference!r} "
                    f"controller at budget 'none' in the matrix to "
                    f"measure against")

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "workloads": list(self.workloads),
            "controllers": [c.to_dict() for c in self.controllers],
            "seeds": list(self.seeds),
            "faults": [f or "" for f in self.faults],
            "repeats": self.repeats,
            "accesses": self.accesses,
            "scale": self.scale,
            "workload_seed": self.workload_seed,
            "huge_pages": self.huge_pages,
            "reference": self.reference,
            "job_timeout_s": self.job_timeout_s,
        }

    def canonical_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))

    def spec_hash(self) -> str:
        """Stable identity of this spec (the resume key in the store)."""
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()[:16]

    # ------------------------------------------------------------------
    # Expansion
    # ------------------------------------------------------------------

    def expand(self, known_workloads_only: bool = True) -> List[JobSpec]:
        """The deterministic job matrix, providers wired to dependents.

        Ordering: workloads > seeds > repeats > controllers (as listed)
        > budgets (as listed) > fault plans.  Pure function of the spec.
        """
        self.validate(known_workloads_only=known_workloads_only)
        jobs: List[JobSpec] = []
        by_identity: Dict[str, JobSpec] = {}

        def add(workload: str, controller: str, seed: int, base_seed: int,
                repeat: int, budget: BudgetSpec,
                faults: Optional[str]) -> JobSpec:
            job = JobSpec(
                index=len(jobs), workload=workload, controller=controller,
                seed=seed, base_seed=base_seed, repeat=repeat, budget=budget,
                faults=faults, accesses=self.accesses, scale=self.scale,
                workload_seed=self.workload_seed,
                huge_pages=self.huge_pages,
            )
            job_id = _job_hash(job.identity())
            if job_id in by_identity:
                raise ConfigError(
                    f"duplicate matrix cell {job.label()!r}; every "
                    f"(workload, controller, budget, seed, faults) "
                    f"combination may appear once")
            job = replace(job, job_id=job_id)
            jobs.append(job)
            by_identity[job_id] = job
            return job

        for workload in self.workloads:
            for base_seed in self.seeds:
                for repeat in range(self.repeats):
                    seed = derive_job_seed(base_seed, repeat)
                    for controller in self.controllers:
                        for budget in controller.budgets:
                            for faults in self.faults:
                                add(workload, controller.name, seed,
                                    base_seed, repeat, budget, faults)

        # Wire iso/fraction jobs to their provider (the reference
        # controller at budget 'none'); prefer the provider sharing the
        # job's fault plan, fall back to the fault-free one.
        def provider_for(job: JobSpec) -> JobSpec:
            candidates = [
                other for other in jobs
                if other.workload == job.workload and other.seed == job.seed
                and other.controller == self.reference
                and other.budget.kind == "none"
            ]
            same_faults = [c for c in candidates if c.faults == job.faults]
            fault_free = [c for c in candidates if c.faults is None]
            for pool in (same_faults, fault_free):
                if pool:
                    return pool[0]
            raise ConfigError(
                f"{job.label()!r} needs a {self.reference!r} reference "
                f"job in the matrix")

        wired: List[JobSpec] = []
        for job in jobs:
            if job.budget.needs_reference:
                job = replace(job, provider_id=provider_for(job).job_id)
            wired.append(job)
        return wired


# ----------------------------------------------------------------------
# Built-in named matrices
# ----------------------------------------------------------------------

#: The Figure 18 configuration matrix: every pinned workload under the
#: uncompressed baseline, Compresso, and TMCC at Compresso's measured
#: budget (iso-capacity).  Defaults reproduce sequential ``repro
#: compare`` runs bit-for-bit (same accesses/scale/seed).
_FIG18_WORKLOADS = ("pageRank", "shortestPath", "bfs", "kcore", "mcf",
                    "omnetpp", "canneal")


def builtin_spec(name: str, **overrides) -> SweepSpec:
    """A named built-in matrix (``fig18``, ``smoke``), with overrides."""
    if name == "fig18":
        base = dict(
            name="fig18",
            workloads=_FIG18_WORKLOADS,
            controllers=("uncompressed", "compresso", "tmcc@iso"),
            accesses=40_000,
            scale=0.4,
        )
    elif name == "smoke":
        base = dict(
            name="smoke",
            workloads=("mcf", "omnetpp"),
            controllers=("compresso", "tmcc@iso"),
            accesses=4_000,
            scale=0.05,
        )
    else:
        raise ConfigError(f"unknown built-in sweep {name!r}; "
                          f"choose from ['fig18', 'smoke']")
    base.update(overrides)
    return SweepSpec.build(**base)
