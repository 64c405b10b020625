"""Virtual-address decomposition for the replay loops.

One access record ``(vaddr, is_write)`` splits into:

- ``vpn`` -- the 4 KB virtual page number, ``vaddr >> 12``;
- ``tag`` -- the TLB tag: the vpn itself for 4 KB pages, or the
  2 MiB-aligned vpn (``vpn >> 9`` == ``vaddr >> 21``) for huge pages;
- ``block_index`` -- the 64 B block within the page,
  ``(vaddr & 0xFFF) >> 6``;
- the global block -- ``ppn * 64 + block_index`` through the address
  space's translation, or -1 where the vpn is unmapped.

:func:`decompose_vaddr` spells the split for one access;
:func:`trace_columns` splits a span of a
:class:`~repro.workloads.trace.Trace` at once, for both replay engines,
and translates it through a :func:`translation_table`.  Both spellings
of the split are defined here, side by side, so they cannot drift apart.

The replay loops ask for one span of a few thousand accesses at a time,
so no column is ever as long as the trace: numpy derives each span's
vpns, tags and global blocks from the trace's own address column, and
the loops read them as lists (indexing an ``array`` would make an int
per read anyway).
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.workloads.trace import Trace


class TranslationTable(NamedTuple):
    """An address space's translation as sorted int64 columns."""

    keys: np.ndarray  # the mapped vpns, sorted
    ppns: np.ndarray  # their ppns


def decompose_vaddr(vaddr: int, huge_pages: bool) -> Tuple[int, int, int]:
    """One access: ``(vpn, tlb tag, block index within the page)``."""
    vpn = vaddr >> 12
    return vpn, (vpn >> 9) if huge_pages else vpn, (vaddr & 0xFFF) >> 6


def translation_table(translation: Dict[int, int]) -> TranslationTable:
    """``translation`` (vpn -> ppn) as sorted int64 columns, built once
    per run and searched by every span."""
    keys = np.fromiter(translation, dtype=np.int64, count=len(translation))
    ppns = np.fromiter(translation.values(), dtype=np.int64,
                       count=len(translation))
    order = np.argsort(keys)
    return TranslationTable(keys[order], ppns[order])


def trace_columns(
    trace: Trace, huge_pages: bool, table: TranslationTable,
    start: int = 0, stop: Optional[int] = None, stride: int = 1,
) -> Tuple[List[int], List[int], List[int]]:
    """Accesses ``start, start + stride, ...`` below ``stop`` split into
    ``(vpns, tags, global blocks)`` lists, translated through ``table``.

    Without huge pages the tag list is the vpn list.
    """
    addresses = np.frombuffer(trace.addresses,
                              dtype=np.uint64)[start:stop:stride]
    # Below 2**52 after the shift, so the int64 view is exact.
    vpns = (addresses >> 12).view(np.int64)
    keys, ppns = table
    if len(keys):
        slot = np.searchsorted(keys, vpns)
        np.minimum(slot, len(keys) - 1, out=slot)
        blocks = ppns[slot]
        blocks *= 64
        blocks += (addresses >> 6).view(np.int64) & 63
        blocks[keys[slot] != vpns] = -1
    else:
        blocks = np.full(len(vpns), -1, dtype=np.int64)
    vpn_list = vpns.tolist()
    tags = (vpns >> 9).tolist() if huge_pages else vpn_list
    return vpn_list, tags, blocks.tolist()
