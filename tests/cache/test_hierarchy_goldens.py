"""Frozen hierarchy outputs: every observable of the Table III caches, pinned.

A seeded 200k-access stream runs through :class:`CacheHierarchy` at the
paper's Table III geometry with both prefetchers on.  The stream mixes
hot-set reuse, sequential and strided runs (which train the next-line
and stride prefetchers), a footprint larger than the 8 MB L3 (so dirty
L3 victims reach DRAM), page-walker (PTB) accesses, and occasional
``mark_compressed`` calls on PTB blocks.  ``goldens/hierarchy_stream.json``
holds sha256 digests of

- ``accesses``: the per-access ``(hit_level, dram_writebacks,
  served_compressed)`` sequence;
- ``stats``: the final ``(total, hits)`` of every level;
- ``resident``: each level's final resident ``(block, dirty, compressed,
  is_ptb)`` set.

The ``shared_l3`` variant interleaves two cores whose private L1/L2 sit
in front of one exclusive L3, over overlapping footprints, so an L2
victim can land on a block the shared L3 already holds.

A faster cache store must reproduce all of them byte for byte.
Regenerate (only for a deliberate, documented semantic change) with::

    PYTHONPATH=src python -m tests.cache.test_hierarchy_goldens --regenerate
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

import pytest

from repro.cache.hierarchy import CacheHierarchy, HierarchyConfig
from repro.cache.sa_cache import SetAssociativeCache

from tests.oracles.observed import access

GOLDEN_FILE = Path(__file__).parent / "goldens" / "hierarchy_stream.json"

ACCESSES = 200_000
SEED = 14

#: Footprints in blocks: the hot set fits L1 (1024 blocks), the warm set
#: L2..L3, the cold footprint exceeds the L3 (131072 blocks).
HOT_BLOCKS = 768
WARM_BLOCKS = 24_576
COLD_BLOCKS = 262_144
PTB_BASE = 1 << 22
PTB_BLOCKS = 4_096


def stream(rng: random.Random, count: int, base: int = 0):
    """``count`` operations: ``("access", block, is_write, is_ptb)`` or
    ``("mark", block, compressed)``."""
    seq = base
    strided = base
    stride = 2
    ops = []
    for _ in range(count):
        roll = rng.random()
        if roll < 0.001:
            ops.append(("mark", PTB_BASE + rng.randrange(PTB_BLOCKS),
                        rng.random() < 0.8))
            continue
        is_ptb = False
        if roll < 0.35:
            block = base + rng.randrange(HOT_BLOCKS)
        elif roll < 0.55:
            block = base + rng.randrange(WARM_BLOCKS)
        elif roll < 0.70:
            seq = seq + 1 if rng.random() < 0.97 else (
                base + rng.randrange(COLD_BLOCKS))
            block = seq
        elif roll < 0.80:
            if rng.random() < 0.02:
                strided = base + rng.randrange(COLD_BLOCKS)
                stride = rng.choice((2, 3, 4, 8, -2))
            strided = max(0, strided + stride)
            block = strided
        elif roll < 0.92:
            block = base + rng.randrange(COLD_BLOCKS)
        else:
            block = PTB_BASE + rng.randrange(PTB_BLOCKS)
            is_ptb = True
        ops.append(("access", block,
                    not is_ptb and rng.random() < 0.3, is_ptb))
    return ops


def _digest(items) -> str:
    """sha256 over the JSON lines of ``items``."""
    hasher = hashlib.sha256()
    for item in items:
        hasher.update(json.dumps(item).encode())
        hasher.update(b"\n")
    return hasher.hexdigest()


def _apply(hierarchy: CacheHierarchy, op, outcomes) -> None:
    if op[0] == "mark":
        hierarchy.mark_compressed(op[1] << 6, op[2])
        return
    _, block, is_write, is_ptb = op
    result = access(hierarchy, block << 6, is_write=is_write, is_ptb=is_ptb)
    outcomes.append([result.hit_level, result.dram_writebacks,
                     result.served_compressed])


def _level_digests(caches):
    """``caches``: name -> cache."""
    stats = {name: [cache.stats.total, cache.stats.hits]
             for name, cache in caches.items()}
    resident = {}
    for name, cache in caches.items():
        lines = (cache.peek(block) for block in cache.blocks())
        resident[name] = _digest(sorted(
            (line.block, line.dirty, line.compressed, line.is_ptb)
            for line in lines))
    return _digest([stats]), resident


def run_single():
    hierarchy = CacheHierarchy(HierarchyConfig())
    outcomes = []
    for op in stream(random.Random(SEED), ACCESSES):
        _apply(hierarchy, op, outcomes)
    stats, resident = _level_digests(
        {"l1": hierarchy.l1, "l2": hierarchy.l2, "l3": hierarchy.l3})
    return {"accesses": _digest(outcomes), "stats": stats,
            "resident": resident}


def run_shared_l3():
    config = HierarchyConfig()
    l3 = SetAssociativeCache(config.l3_size, config.l3_assoc, "l3")
    cores = [CacheHierarchy(config, shared_l3=l3) for _ in range(2)]
    rng = random.Random(SEED + 1)
    # Core 1's footprint overlaps the upper half of core 0's.
    streams = [stream(rng, ACCESSES // 2, base=0),
               stream(rng, ACCESSES // 2, base=COLD_BLOCKS // 2)]
    outcomes = []
    for pair in zip(*streams):
        for core, op in zip(cores, pair):
            _apply(core, op, outcomes)
    caches = {"l3": l3}
    for number, core in enumerate(cores):
        caches[f"core{number}.l1"] = core.l1
        caches[f"core{number}.l2"] = core.l2
    stats, resident = _level_digests(caches)
    return {"accesses": _digest(outcomes), "stats": stats,
            "resident": resident}


def build_goldens():
    """The golden document, computed by the current code."""
    return {"single": run_single(), "shared_l3": run_shared_l3()}


@pytest.fixture(scope="module")
def frozen():
    return json.loads(GOLDEN_FILE.read_text())


@pytest.mark.parametrize("variant", ["single", "shared_l3"])
def test_hierarchy_outputs_match_frozen_golden(variant, frozen):
    actual = {"single": run_single, "shared_l3": run_shared_l3}[variant]()
    expected = frozen[variant]
    drifted = sorted(key for key in expected if actual[key] != expected[key])
    assert not drifted, (
        f"{variant}: {drifted} drifted from the frozen golden; cache "
        f"store changes must be bit-identical")


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
