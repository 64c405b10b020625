"""Differential tests: :func:`selected_size_bits` against the per-block
encoders.

``selected_size_bits`` sizes every 64 B block of a buffer at once from
each encoder's fixed cases; the functional encoders build the bitstream.
Every block's size must agree with ``SelectiveBlockCompressor.compress``
(and so with whichever of zero/BDI/BPC/C-Pack wins, or raw storage).
"""

from __future__ import annotations

import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.units import BLOCK_SIZE, PAGE_SIZE
from repro.compression.block import (
    BDICompressor,
    SelectiveBlockCompressor,
    selected_size_bits,
)
from repro.core.compmodel import PageCompressionModel
from repro.core.config import SystemConfig
from repro.workloads.content import CONTENT_PROFILES, ContentSynthesizer
from tests.compression.test_codec_goldens import _crafted_pages

SELECTOR = SelectiveBlockCompressor()


def _reference_bits(data: bytes):
    return [SELECTOR.compress(data[i:i + BLOCK_SIZE]).size_bits
            for i in range(0, len(data), BLOCK_SIZE)]


def _assert_matches(data: bytes) -> None:
    fast = selected_size_bits(data)
    assert fast.shape == (len(data) // BLOCK_SIZE,)
    assert fast.tolist() == _reference_bits(data)


@pytest.mark.parametrize("profile", sorted(CONTENT_PROFILES))
def test_matches_encoders_on_every_content_profile(profile):
    for seed in (0, 1):
        content = ContentSynthesizer(profile, seed).page
        _assert_matches(b"".join(content(seed * 100_000 + index)
                                 for index in range(6)))


@pytest.mark.parametrize("name", sorted(_crafted_pages()))
def test_matches_encoders_on_crafted_pages(name):
    _assert_matches(_crafted_pages()[name])


def _pack(values, width: int, order: str = "little") -> bytes:
    mask = (1 << (8 * width)) - 1
    return b"".join((value & mask).to_bytes(width, order) for value in values)


@st.composite
def bdi_edge_blocks(draw):
    """Values at and just past each layout's delta range, from the base
    and from zero, with bases near both ends of the value range."""
    base_size, delta_size = draw(st.sampled_from(BDICompressor.LAYOUTS))
    half = 1 << (8 * delta_size - 1)
    top = 1 << (8 * base_size)
    base = draw(st.sampled_from([0, 1, half, top - 1, top - half, top // 2])
                | st.integers(0, top - 1))
    offsets = st.sampled_from([-half - 1, -half, -1, 0, 1, half - 1, half])
    value = st.one_of(offsets.map(lambda delta: base + delta),
                      offsets.map(lambda delta: delta % top))
    values = [base] + draw(st.lists(value, min_size=BLOCK_SIZE // base_size - 1,
                                    max_size=BLOCK_SIZE // base_size - 1))
    return _pack(values, base_size)


@st.composite
def shared_upper_blocks(draw):
    """C-Pack words sharing their upper 3 or 2 bytes, zeros, small words
    and repeats."""
    highs = draw(st.lists(st.integers(1, 0xFFFF), min_size=1, max_size=3))
    word = st.one_of(
        st.just(0),
        st.integers(1, 0xFF),
        st.builds(lambda high, low: (high << 16) | low,
                  st.sampled_from(highs), st.integers(0, 0xFFFF)),
        st.builds(lambda high, middle, low: (high << 16) | (middle << 8) | low,
                  st.sampled_from(highs), st.sampled_from([0, 0x12, 0xFF]),
                  st.integers(0, 0xFF)))
    return _pack(draw(st.lists(word, min_size=16, max_size=16)), 4, "big")


@st.composite
def sparse_plane_blocks(draw):
    """Words whose deltas set few bits per plane, or the same bits in
    every plane (a constant stride): BPC's all-zero, all-one and
    single-one plane codes."""
    words = [draw(st.integers(0, 0xFFFF_FFFF))]
    step = st.one_of(st.just(0), st.just(-1),
                     st.integers(0, 32).map(lambda bit: 1 << bit),
                     st.integers(0, 31).map(lambda bit: -(1 << bit)))
    steps = draw(st.one_of(step.map(lambda stride: [stride] * 15),
                           st.lists(step, min_size=15, max_size=15)))
    for delta in steps:
        words.append((words[-1] + delta) & 0xFFFF_FFFF)
    return _pack(words, 4, "big")


structured_blocks = st.one_of(
    bdi_edge_blocks(), shared_upper_blocks(), sparse_plane_blocks(),
    st.just(b"\xff" * BLOCK_SIZE), st.just(bytes(BLOCK_SIZE)),
    st.binary(min_size=BLOCK_SIZE, max_size=BLOCK_SIZE))


@settings(max_examples=300, deadline=None)
@given(st.lists(structured_blocks, min_size=1, max_size=8))
def test_matches_encoders_on_structured_blocks(blocks):
    _assert_matches(b"".join(blocks))


def test_empty_input_has_no_blocks():
    assert selected_size_bits(b"").shape == (0,)


@pytest.mark.parametrize("size", [1, BLOCK_SIZE - 1, BLOCK_SIZE + 1,
                                  PAGE_SIZE - 8])
def test_rejects_partial_blocks(size):
    with pytest.raises(ValueError, match="not a multiple of 64"):
        selected_size_bits(bytes(size))
    with pytest.raises(ValueError, match="not a multiple of 64"):
        SELECTOR.compress_page(bytes(size))


def test_compressed_page_size_sums_block_bytes():
    page = ContentSynthesizer("mcf", 2).page(7)
    assert SELECTOR.compressed_page_size(page) == sum(
        block.size_bytes for block in SELECTOR.compress_page(page))
    assert isinstance(SELECTOR.compressed_page_size(page), int)


def test_model_block_sizes_are_plain_ints():
    model = PageCompressionModel(ContentSynthesizer("graph", 1).page,
                                 sample_pages=3)
    for record in model.records:
        assert all(type(size) is int for size in record.block_sizes)
        assert record.block_bytes == sum(record.block_sizes)
        assert len(record.block_sizes) == PAGE_SIZE // BLOCK_SIZE


def test_model_build_memory_is_bounded():
    """Sizing a model's sample pages at once must stay small: the block
    arrays are a few hundred KB, not a copy per encoder per bit."""
    content = ContentSynthesizer("graph", 1).page
    system = SystemConfig()
    PageCompressionModel.for_system(content, system, 1)  # warm imports
    tracemalloc.start()
    try:
        PageCompressionModel.for_system(content, system, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 1024 * 1024, f"model build peaked at {peak:,} B"

