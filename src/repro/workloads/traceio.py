"""Trace file I/O.

The simulator is trace-driven, so users with their own address traces
(from Pin, DynamoRIO, gem5, or production sampling) can replay them
through every memory system here.  The format is deliberately simple:

Binary format ``.rtrc`` (little-endian):

```
magic   4 B   b"RTRC"
version 2 B   1
flags   2 B   reserved (0)
count   8 B   number of records
records count x 8 B each: (virtual byte address << 1) | is_write
        -- byte addresses up to 2^62 round-trip exactly.
```

A text format (one ``R <hex addr>`` / ``W <hex addr>`` per line, ``#``
comments) is also supported for hand-written traces.
"""

from __future__ import annotations

import struct
import sys
from array import array
from pathlib import Path
from typing import Callable, Iterable, Optional, Union

import numpy as np

from repro.workloads.trace import Access, Trace, Workload, address_error

_MAGIC = b"RTRC"
_VERSION = 1
_HEADER = struct.Struct("<4sHHQ")


def save_trace(trace: Iterable[Access], path: Union[str, Path]) -> None:
    """Write a trace (a :class:`Trace` or records) as binary ``.rtrc``."""
    words = array("Q")
    for address, is_write in trace:
        if address < 0 or address >= 1 << 62:
            raise ValueError(f"address {address:#x} out of range")
        words.append((address << 1) | (1 if is_write else 0))
    if sys.byteorder == "big":
        words.byteswap()
    with Path(path).open("wb") as f:
        f.write(_HEADER.pack(_MAGIC, _VERSION, 0, len(words)))
        words.tofile(f)


def load_trace(path: Union[str, Path]) -> Trace:
    """Read a binary ``.rtrc`` trace."""
    path = Path(path)
    data = path.read_bytes()
    if len(data) < _HEADER.size:
        raise ValueError(f"{path} is not a trace file (too short)")
    magic, version, _flags, count = _HEADER.unpack_from(data)
    if magic != _MAGIC:
        raise ValueError(f"{path} is not a trace file (bad magic)")
    if version != _VERSION:
        raise ValueError(f"unsupported trace version {version}")
    expected = _HEADER.size + count * 8
    if len(data) != expected:
        raise ValueError(
            f"trace truncated: {len(data)} bytes, expected {expected}"
        )
    addresses = array("Q")
    addresses.frombytes(memoryview(data)[_HEADER.size:])
    del data
    if sys.byteorder == "big":
        addresses.byteswap()
    # Split each (address << 1) | is_write word in place.
    words = np.frombuffer(addresses, dtype=np.uint64)
    writes = bytearray(words.astype(np.uint8) & 1)
    np.right_shift(words, 1, out=words)
    return Trace(addresses, writes)


def save_trace_text(trace: Iterable[Access], path: Union[str, Path]) -> None:
    """Write the human-readable text format."""
    path = Path(path)
    with path.open("w") as f:
        f.write("# repro trace: 'R <hex address>' or 'W <hex address>'\n")
        for address, is_write in trace:
            f.write(f"{'W' if is_write else 'R'} {address:#x}\n")


def load_trace_text(path: Union[str, Path]) -> Trace:
    """Read the text format (``R``/``W`` + address per line); raises
    :class:`~repro.common.errors.ConfigError` for an address that does
    not fit 64 bits."""
    trace = Trace()
    add_address = trace.addresses.append
    add_write = trace.writes.append
    for line_number, line in enumerate(Path(path).read_text().splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2 or parts[0] not in ("R", "W"):
            raise ValueError(f"{path}:{line_number}: expected 'R|W <addr>'")
        address = int(parts[1], 0)
        try:
            add_address(address)
        except OverflowError:
            raise address_error(len(trace.writes), address) from None
        add_write(parts[0] == "W")
    return trace


def workload_from_trace(
    path: Union[str, Path],
    name: Optional[str] = None,
    content: Optional[Callable[[int], bytes]] = None,
    compute_cycles_per_access: float = 4.0,
) -> Workload:
    """Wrap a trace file as a :class:`Workload` the simulator accepts.

    The footprint is derived from the trace's address range; page
    contents default to the ``graph`` profile (override ``content`` if
    your pages' compressibility matters to the experiment).
    """
    path = Path(path)
    if path.suffix == ".rtrc":
        trace = load_trace(path)
    else:
        trace = load_trace_text(path)
    if not trace:
        raise ValueError(f"{path} contains no accesses")
    base_vpn = min(trace.addresses) >> 12
    footprint_pages = (max(trace.addresses) >> 12) - base_vpn + 1
    if content is None:
        from repro.workloads.content import ContentSynthesizer

        content = ContentSynthesizer("graph", seed=1).page
    return Workload(
        name=name or path.stem,
        trace=trace,
        footprint_pages=footprint_pages,
        content=content,
        compute_cycles_per_access=compute_cycles_per_access,
        description=f"trace loaded from {path}",
        base_vpn=base_vpn,
    )
