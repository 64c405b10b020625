"""Virtual-address decomposition for the replay loop.

One access record ``(vaddr, is_write)`` splits into:

- ``vpn`` -- the 4 KB virtual page number, ``vaddr >> 12``;
- ``tag`` -- the TLB tag: the vpn itself for 4 KB pages, or the
  2 MiB-aligned vpn (``vpn >> 9`` == ``vaddr >> 21``) for huge pages;
- ``block_index`` -- the 64 B block within the page,
  ``(vaddr & 0xFFF) >> 6``.

:func:`decompose_vaddr` spells the split for one access;
:func:`trace_columns` pre-splits a whole trace into columns for the
replay loop's front-end pass.  Both spellings are defined here, side by
side, so they cannot drift apart.

``trace_columns`` vectorizes with numpy when available (and not masked
out via ``REPRO_NO_NUMPY``); addresses beyond int64 overflow
``numpy.fromiter`` and fall back to the pure-python path, which has
arbitrary precision.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.common.numpy_compat import numpy_or_none


def decompose_vaddr(vaddr: int, huge_pages: bool) -> Tuple[int, int, int]:
    """One access: ``(vpn, tlb tag, block index within the page)``."""
    vpn = vaddr >> 12
    return vpn, (vpn >> 9) if huge_pages else vpn, (vaddr & 0xFFF) >> 6


def trace_columns(
    trace: Sequence, huge_pages: bool,
) -> Tuple[List[int], List[int], List[int], List[bool]]:
    """Split a trace into ``(vpns, tags, block_indices, writes)`` columns."""
    np = numpy_or_none()
    if np is not None:
        try:
            vaddrs = np.fromiter((record[0] for record in trace),
                                 dtype=np.int64, count=len(trace))
        except OverflowError:  # addresses beyond int64: rare, stay portable
            pass
        else:
            vpns = (vaddrs >> 12).tolist()
            tags = (vaddrs >> 21).tolist() if huge_pages else vpns
            blocks = ((vaddrs & 0xFFF) >> 6).tolist()
            writes = [record[1] for record in trace]
            return vpns, tags, blocks, writes
    vpns = [record[0] >> 12 for record in trace]
    tags = [vpn >> 9 for vpn in vpns] if huge_pages else vpns
    blocks = [(record[0] & 0xFFF) >> 6 for record in trace]
    writes = [record[1] for record in trace]
    return vpns, tags, blocks, writes
