"""Frozen codec outputs: every bit the compression models produce, pinned.

The simulator never runs the codecs during replay; it reads sizes and
latencies from :class:`~repro.core.compmodel.PageRecord`\\ s measured on
sampled pages.  This file pins those measurements and the codec output
behind them as sha256 digests in ``goldens/codec_outputs.json``:

- ``page_records``: every ``PageRecord`` of each Figure-18 workload (plus
  degCentr) at the bench configuration, seed 1, and of the content
  profiles no such workload uses (``profile/<name>``, sampled from
  ``ContentSynthesizer(name, 1)``);
- ``deflate``: ``(mode, payload, lz_stats)`` of :class:`DeflateCodec` on a
  fixed corpus of pages and odd-length inputs;
- ``selector``: ``(algorithm, size_bits, payload)`` of the best-of block
  selector on every 64 B block of the corpus pages;
- ``blocks``: each block algorithm's own output (or "no fit") on the same
  blocks, so a loser's encoding cannot drift unnoticed either.

A faster codec must reproduce all of them byte for byte.  Regenerate
(only for a deliberate, documented format change) with::

    PYTHONPATH=src python -m tests.compression.test_codec_goldens --regenerate
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import random
import sys
from pathlib import Path

import pytest

from repro.bench import BENCH_ACCESSES, BENCH_WORKLOADS
from repro.common.units import BLOCK_SIZE, PAGE_SIZE
from repro.compression.block import SelectiveBlockCompressor
from repro.compression.deflate import DeflateCodec
from repro.core.compmodel import PageCompressionModel
from repro.core.config import SystemConfig
from repro.workloads.content import ContentSynthesizer
from repro.workloads.suite import workload_by_name

GOLDEN_FILE = Path(__file__).parent / "goldens" / "codec_outputs.json"

RECORD_WORKLOADS = BENCH_WORKLOADS + ("degCentr",)
#: Content profiles the record workloads leave out (graph, mcf, omnetpp
#: and canneal are theirs); their records are keyed ``profile/<name>``.
RECORD_PROFILES = ("small", "rocksdb", "stream")
SEED = 1
#: Corpus pages taken from each workload's content, past the sampled ones.
CONTENT_PAGES = 2


@functools.lru_cache(maxsize=None)
def _workload(name: str):
    return workload_by_name(name, max_accesses=BENCH_ACCESSES, seed=SEED)


def _digest(items) -> str:
    """sha256 over the JSON lines of ``items``."""
    hasher = hashlib.sha256()
    for item in items:
        hasher.update(json.dumps(item, sort_keys=True).encode())
        hasher.update(b"\n")
    return hasher.hexdigest()


def _records_digest(content) -> str:
    system = SystemConfig()
    model = PageCompressionModel(
        content,
        sample_pages=system.compression_samples,
        deflate_config=system.deflate,
        timing=system.deflate_timing,
        ibm=system.ibm_timing,
        seed=SEED,
    )
    # json renders floats with repr(): exact, so any latency drift shows.
    return _digest(dataclasses.asdict(record) for record in model._records)


def _crafted_pages():
    """Pages spanning the compressibility spectrum and codec edge cases."""
    rng = random.Random(0xC0FFEE)
    text_seed = (b"In computing, memory compression is a technique to reduce "
                 b"the physical footprint of data kept in main memory. ")
    heap = bytearray()
    for _ in range(PAGE_SIZE // 8):
        roll = rng.random()
        if roll < 0.3:
            value = 0x5555_0000_0000 + rng.randint(0, 1 << 20)
        elif roll < 0.65:
            value = rng.randint(0, 255)
        else:
            value = 0
        heap += value.to_bytes(8, "little")
    sparse = bytearray(PAGE_SIZE)
    for _ in range(40):
        offset = rng.randrange(PAGE_SIZE - 8)
        sparse[offset:offset + 8] = rng.randbytes(8)
    # Values straddling every BDI delta width, signed both ways.
    bdi = bytearray()
    for index in range(PAGE_SIZE // 8):
        width = (8, 16, 32)[index % 3]
        delta = rng.choice((-(1 << (width - 1)) - 1, -(1 << (width - 1)),
                            (1 << (width - 1)) - 1, 1 << (width - 1), -1, 0))
        base = (0x7F00_0000_0000 if index % 16 < 8 else 0)
        bdi += ((base + delta) % (1 << 64)).to_bytes(8, "little")
    # Repeats exactly at and just outside the 1 KB window.
    chunk = rng.randbytes(1024)
    window = (chunk + chunk + b"\x00" + chunk
              + rng.randbytes(PAGE_SIZE))[:PAGE_SIZE]
    # Words repeating their upper 3 or 2 bytes (C-Pack partial matches).
    cpack = bytearray()
    for index in range(PAGE_SIZE // 4):
        high = (0x1234_5600, 0xABCD_0000, 0)[index % 3]
        cpack += (high | rng.randrange(1 << (8 * (1 + index % 2)))).to_bytes(
            4, "big")
    return {
        "zeros": bytes(PAGE_SIZE),
        "ones": b"\xff" * PAGE_SIZE,
        "text": (text_seed * (PAGE_SIZE // len(text_seed) + 1))[:PAGE_SIZE],
        "heap": bytes(heap),
        "sparse": bytes(sparse),
        "random": rng.randbytes(PAGE_SIZE),
        "period3": bytes([1, 2, 3]) * (PAGE_SIZE // 3) + b"\x01",
        "bdi_edges": bytes(bdi),
        "lz_window": window,
        "cpack_partial": bytes(cpack),
    }


def corpus_pages():
    """name -> 4 KB page: crafted pages plus sampled workload content."""
    pages = _crafted_pages()
    system = SystemConfig()
    for name in RECORD_WORKLOADS:
        content = _workload(name).content
        for index in range(CONTENT_PAGES):
            vpn = SEED * 100_000 + system.compression_samples + index
            pages[f"{name}/{index}"] = content(vpn)
    return pages


def deflate_inputs():
    """name -> bytes for Deflate: the pages plus odd-length inputs."""
    rng = random.Random(7)
    inputs = dict(corpus_pages())
    inputs.update({
        "one_byte": b"a",
        "three_bytes": b"abc",
        "min_match": b"abcdabcd",
        "odd_random": rng.randbytes(17),
        "odd_text": (b"compressed translation " * 60)[:1001],
        "long_run": bytes(9000),  # matches capped at MAX_MATCH
        "two_pages_mixed": inputs["heap"] + inputs["pageRank/0"],
    })
    return inputs


def _deflate_item(codec: DeflateCodec, data: bytes):
    compressed = codec.compress(data)
    return [compressed.mode, compressed.payload.hex(),
            dataclasses.asdict(compressed.lz_stats)]


def _block_item(compressed):
    if compressed is None:
        return None
    return [compressed.algorithm, compressed.size_bits, compressed.payload.hex()]


def _blocks(page: bytes):
    return [page[i:i + BLOCK_SIZE] for i in range(0, len(page), BLOCK_SIZE)]


def record_contents():
    """page_records key -> the content function its model samples."""
    contents = {name: _workload(name).content for name in RECORD_WORKLOADS}
    for profile in RECORD_PROFILES:
        contents[f"profile/{profile}"] = ContentSynthesizer(profile, SEED).page
    return contents


def build_goldens():
    """The golden document, computed by the current code."""
    codec = DeflateCodec(SystemConfig().deflate)
    selector = SelectiveBlockCompressor()
    pages = corpus_pages()
    return {
        "page_records": {name: _records_digest(content)
                         for name, content in record_contents().items()},
        "deflate": {name: _digest([_deflate_item(codec, data)])
                    for name, data in sorted(deflate_inputs().items())},
        "selector": {name: _digest(_block_item(selector.compress(block))
                                   for block in _blocks(page))
                     for name, page in sorted(pages.items())},
        "blocks": {
            compressor.name: _digest(
                _block_item(compressor.compress(block))
                for _, page in sorted(pages.items())
                for block in _blocks(page))
            for compressor in selector._compressors
        },
    }


@pytest.fixture(scope="module")
def frozen():
    return json.loads(GOLDEN_FILE.read_text())


@pytest.fixture(scope="module")
def actual():
    return build_goldens()


@pytest.mark.parametrize("section",
                         ["page_records", "deflate", "selector", "blocks"])
def test_codec_outputs_match_frozen_golden(section, frozen, actual):
    drifted = sorted(name for name in frozen[section]
                     if actual[section].get(name) != frozen[section][name])
    assert actual[section].keys() == frozen[section].keys()
    assert not drifted, (
        f"{section} drifted from the frozen golden for {drifted}; codec "
        f"speedups must be bit-identical")


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
