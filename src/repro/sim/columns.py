"""Virtual-address decomposition for the replay loop.

One access record ``(vaddr, is_write)`` splits into:

- ``vpn`` -- the 4 KB virtual page number, ``vaddr >> 12``;
- ``tag`` -- the TLB tag: the vpn itself for 4 KB pages, or the
  2 MiB-aligned vpn (``vpn >> 9`` == ``vaddr >> 21``) for huge pages;
- ``block_index`` -- the 64 B block within the page,
  ``(vaddr & 0xFFF) >> 6``.

:func:`decompose_vaddr` spells the split for one access;
:func:`trace_columns` splits a whole :class:`~repro.workloads.trace.Trace`
into columns for the replay loop's front-end pass, and
:func:`global_blocks` translates them to physical blocks.  Both
spellings of the split are defined here, side by side, so they cannot
drift apart.

The columns are compact: ``array('q')`` vpns, tags and global blocks
(8 B per access each) and a ``bytearray`` of block indices.  numpy fills
them in place from the trace's address column, in chunks where it needs
scratch space, so building them makes no full-length temporary.
"""

from __future__ import annotations

from array import array
from typing import Dict, Tuple

import numpy as np

from repro.workloads.trace import Trace

#: Accesses per chunk of numpy scratch space (512 KB per int64 array).
_CHUNK = 1 << 16


def decompose_vaddr(vaddr: int, huge_pages: bool) -> Tuple[int, int, int]:
    """One access: ``(vpn, tlb tag, block index within the page)``."""
    vpn = vaddr >> 12
    return vpn, (vpn >> 9) if huge_pages else vpn, (vaddr & 0xFFF) >> 6


def trace_columns(
    trace: Trace, huge_pages: bool,
) -> Tuple[array, array, bytearray, bytearray]:
    """Split a trace into ``(vpns, tags, block_indices, writes)``.

    Without huge pages the tag column is the vpn column; ``writes`` is
    the trace's own write column (1 for a write), not a copy.
    """
    count = len(trace)
    addresses = np.frombuffer(trace.addresses, dtype=np.uint64)
    vpns = _filled("q", 0, count)
    np.right_shift(addresses, 12, out=np.frombuffer(vpns, dtype=np.int64),
                   casting="unsafe")
    tags = vpns
    if huge_pages:
        tags = _filled("q", 0, count)
        np.right_shift(addresses, 21, out=np.frombuffer(tags, dtype=np.int64),
                       casting="unsafe")
    blocks = bytearray(count)
    view = np.frombuffer(blocks, dtype=np.uint8)
    np.right_shift(addresses, 6, out=view, casting="unsafe")  # keeps 8 bits
    np.bitwise_and(view, 63, out=view)
    return vpns, tags, blocks, trace.writes


def global_blocks(vpns: array, blocks: bytearray,
                  translation: Dict[int, int]) -> array:
    """Each access's global block, ``ppn * 64 + block index`` through
    ``translation`` (vpn -> ppn), or -1 where the vpn is unmapped.

    Every mapped page is translated once, into a sorted table that each
    chunk of accesses is looked up in.
    """
    count = len(vpns)
    out = _filled("q", -1, count)
    if not count or not translation:
        return out
    keys = np.fromiter(translation, dtype=np.int64, count=len(translation))
    ppns = np.fromiter(translation.values(), dtype=np.int64,
                       count=len(translation))
    order = np.argsort(keys)
    keys = keys[order]
    ppns = ppns[order]
    last = len(keys) - 1
    vpn_view = np.frombuffer(vpns, dtype=np.int64)
    block_view = np.frombuffer(blocks, dtype=np.uint8)
    out_view = np.frombuffer(out, dtype=np.int64)
    for start in range(0, count, _CHUNK):
        stop = start + _CHUNK
        vpn = vpn_view[start:stop]
        slot = np.searchsorted(keys, vpn)
        np.minimum(slot, last, out=slot)
        mapped = keys[slot] == vpn
        block = ppns[slot]
        block *= 64
        block += block_view[start:stop]
        np.copyto(out_view[start:stop], block, where=mapped)
    return out


def _filled(typecode: str, value: int, count: int) -> array:
    """An ``array`` of ``count`` copies of ``value``, allocated once."""
    return array(typecode, [value]) * count
