"""Tests for the LZ77 stage."""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.units import KIB
from repro.compression.lz import (
    MIN_MATCH,
    LZCompressor,
    LZConfig,
    LZToken,
)


def roundtrip(data: bytes, config: LZConfig = LZConfig()) -> bytes:
    lz = LZCompressor(config)
    return lz.decompress(lz.compress(data), len(data))


def test_empty_input():
    assert roundtrip(b"") == b""


def test_short_literal_only():
    data = b"abc"
    assert roundtrip(data) == data


def test_repeated_pattern_compresses():
    lz = LZCompressor()
    data = b"abcdefgh" * 512  # 4 KiB
    compressed = lz.compress(data)
    assert len(compressed) < len(data) // 10
    assert lz.decompress(compressed, len(data)) == data


def test_overlapping_match_rle_style():
    # 'aaaa...' forces offset-1 overlapping copies, the classic LZ edge case.
    data = b"a" * 1000
    assert roundtrip(data) == data


def test_long_literal_run_extension():
    # >15 literals exercises the extended literal-length encoding.
    import random
    rng = random.Random(9)
    data = bytes(rng.randrange(256) for _ in range(500))
    assert roundtrip(data) == data


def test_long_match_extension():
    # Match lengths >= 19 exercise the extended match-length encoding.
    data = b"X" * 3000 + b"unique-tail"
    assert roundtrip(data) == data


def test_window_limits_match_distance():
    """A repeat beyond the window must not be found; within, it must."""
    period = 512
    data = b"M" * 8 + bytes(range(256)) * ((period - 8) // 256 + 1)
    data = data[:period] + data[:period]
    small = LZCompressor(LZConfig(window_size=256, max_chain=512))
    large = LZCompressor(LZConfig(window_size=1 * KIB, max_chain=512))
    assert len(large.compress(data)) < len(small.compress(data))
    assert small.decompress(small.compress(data), len(data)) == data


def test_tokenize_structure():
    lz = LZCompressor()
    data = b"hello hello hello"
    tokens = lz.tokenize(data)
    assert tokens
    total = sum(len(t.literals) + t.match_length for t in tokens)
    assert total == len(data)
    assert any(t.match_length >= MIN_MATCH for t in tokens)


def test_token_validation():
    with pytest.raises(ValueError):
        LZToken(b"", match_length=2, match_offset=1)  # below MIN_MATCH
    with pytest.raises(ValueError):
        LZToken(b"", match_length=8, match_offset=0)  # match without offset


def test_config_validation():
    with pytest.raises(ValueError):
        LZConfig(window_size=0)
    with pytest.raises(ValueError):
        LZConfig(window_size=1 << 20)
    with pytest.raises(ValueError):
        LZConfig(max_chain=0)


def test_stats_accounting():
    lz = LZCompressor()
    data = b"pattern!" * 64
    stats = lz.stats(data)
    assert stats.input_bytes == len(data)
    assert stats.output_bytes == len(lz.compress(data))
    assert stats.literal_bytes + stats.matched_bytes == len(data)
    assert stats.match_count == len(stats.match_lengths)
    assert stats.token_count >= stats.match_count


def test_decompress_rejects_truncated_stream():
    lz = LZCompressor()
    compressed = lz.compress(b"hello world hello world")
    with pytest.raises(ValueError):
        lz.decompress(compressed[:2], 23)


def test_decompress_rejects_bad_offset():
    # Token: 0 literals, match len MIN_MATCH, offset 5 with empty history.
    stream = bytes([0x00, 0x05, 0x00])
    with pytest.raises(ValueError):
        LZCompressor().decompress(stream, 4)


@settings(max_examples=60, deadline=None)
@given(st.binary(min_size=0, max_size=2048))
def test_roundtrip_property_random(data):
    assert roundtrip(data) == data


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.sampled_from([b"alpha", b"beta", b"gamma-long-token", b"\x00\x00\x00\x00"]),
        min_size=0,
        max_size=200,
    )
)
def test_roundtrip_property_structured(parts):
    data = b"".join(parts)
    assert roundtrip(data) == data


@settings(max_examples=20, deadline=None)
@given(st.binary(min_size=0, max_size=1024),
       st.sampled_from([256, 512, 1024, 4096]))
def test_roundtrip_property_all_windows(data, window):
    config = LZConfig(window_size=window)
    assert roundtrip(data, config) == data


def test_window_cap_is_enforced_in_stream():
    """No serialized offset ever exceeds the configured window."""
    import random

    rng = random.Random(5)
    data = bytes(rng.choice(b"abcdef") for _ in range(4000))
    for window in (256, 1024):
        lz = LZCompressor(LZConfig(window_size=window))
        for token in lz.tokenize(data):
            if token.match_length:
                assert token.match_offset <= window


def test_incompressible_expansion_is_bounded():
    """Worst-case LZ expansion stays within ~7% (token bytes per 15
    literals plus run-length extensions)."""
    import random

    rng = random.Random(6)
    data = rng.randbytes(4096)
    lz = LZCompressor()
    compressed = lz.compress(data)
    assert len(compressed) <= len(data) * 1.07 + 16
    assert lz.decompress(compressed, len(data)) == data


_TOKEN_DIGEST = """
import hashlib, random, sys
from repro.compression.lz import LZCompressor
from repro.workloads.content import synthesizer_for

rng = random.Random(11)
pages = [synthesizer_for(profile, seed=3)(vpn)
         for profile in ("graph", "mcf", "omnetpp", "canneal")
         for vpn in range(3)]
pages += [rng.randbytes(4096), bytes(range(256)) * 16]
lz = LZCompressor()
digest = hashlib.sha256()
for page in pages:
    digest.update(repr(lz.tokenize(page)).encode())
print(digest.hexdigest())
"""


def _token_digest(hash_seed: str) -> str:
    src = Path(__file__).resolve().parents[2] / "src"
    env = dict(os.environ, PYTHONHASHSEED=hash_seed,
               PYTHONPATH=os.pathsep.join(
                   [str(src), os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-c", _TOKEN_DIGEST], env=env,
                          capture_output=True, text=True,
                          check=True).stdout.strip()


def test_tokens_do_not_depend_on_hash_seed():
    """Match chains are keyed by prefix bytes, not ``hash()``, so two
    processes with different hash seeds tokenize identically."""
    digests = {_token_digest(seed) for seed in ("1", "4242")}
    assert len(digests) == 1 and digests != {""}
