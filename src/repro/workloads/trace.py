"""Traces and workloads.

A :class:`Trace` stores its accesses as two columns: ``addresses``, an
``array('Q')`` of virtual byte addresses, and ``writes``, a
``bytearray`` holding 1 for a write and 0 for a read.  That is 9 B per
access, where a list of ``(vaddr, is_write)`` tuples costs about 90 B,
and the simulator replays traces of millions of accesses.  Producers
append to the two columns; every consumer that wants records goes
through :meth:`Trace.records`, which yields ``(vaddr, is_write)`` with
``is_write`` a ``bool``.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Optional, Tuple

from repro.common.errors import ConfigError

#: One memory access: (virtual byte address, is_write).
Access = Tuple[int, bool]


class Trace:
    """A workload's accesses as an address column and a write-flag column.

    Build one empty and append to both columns (the generators do), or
    from records with :meth:`from_records`.  A trace is treated as
    immutable once its workload is built.
    """

    __slots__ = ("addresses", "writes")

    def __init__(self, addresses: Optional[array] = None,
                 writes: Optional[bytearray] = None) -> None:
        self.addresses = array("Q") if addresses is None else addresses
        self.writes = bytearray() if writes is None else writes
        if len(self.addresses) != len(self.writes):
            raise ConfigError(f"trace has {len(self.addresses)} addresses "
                              f"but {len(self.writes)} write flags")

    @classmethod
    def from_records(cls, records: Iterable[Access]) -> "Trace":
        """A trace of ``(vaddr, is_write)`` records; raises
        :class:`ConfigError` for an address that does not fit 64 bits."""
        trace = cls()
        add_address = trace.addresses.append
        add_write = trace.writes.append
        for index, (address, is_write) in enumerate(records):
            try:
                add_address(address)
            except OverflowError:
                raise address_error(index, address) from None
            add_write(1 if is_write else 0)
        return trace

    def truncate(self, length: int) -> None:
        """Keep the first ``length`` accesses."""
        del self.addresses[length:]
        del self.writes[length:]

    def records(self, start: int = 0, stop: Optional[int] = None
                ) -> Iterator[Access]:
        """``(vaddr, is_write)`` for accesses ``[start, stop)``."""
        addresses = memoryview(self.addresses)[start:stop]
        writes = memoryview(self.writes)[start:stop]
        return zip(addresses, map(bool, writes))

    def __iter__(self) -> Iterator[Access]:
        return self.records()

    def __len__(self) -> int:
        return len(self.addresses)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Trace):
            return NotImplemented
        return self.addresses == other.addresses and self.writes == other.writes

    def __repr__(self) -> str:
        return f"Trace({len(self)} accesses)"


def address_error(index: int, address: int) -> ConfigError:
    """The error for access ``index`` whose address is not 64-bit."""
    return ConfigError(f"access {index}: address {address:#x} does not fit "
                       f"64 bits")


@dataclass
class Workload:
    """A benchmark: its trace, footprint, contents, and intensity.

    ``compute_cycles_per_access`` models how much non-memory work separates
    consecutive accesses -- the knob behind Figure 16's memory-intensity
    spread (canneal/shortestPath are intense, kcore/triCount less so).

    ``content`` maps a vpn to that page's 4 KB of bytes; the compression
    controllers call it when a page first migrates to ML2 and cache the
    result, so content is synthesized lazily.

    Simulators share one address space per workload
    (:class:`repro.sim.space.AddressSpace`): the populated page table,
    the translation and the warm placement, which every controller would
    build identically, and the replay loop's front-end recording, which it
    owns.  It lives and dies with this object, is replaced when a
    simulator needs a differently shaped one, and is never pickled.  The
    workload is treated as immutable once built.
    """

    name: str
    trace: Trace
    footprint_pages: int
    content: Callable[[int], bytes]
    compute_cycles_per_access: float = 4.0
    description: str = ""
    #: vpn of the first mapped page (regions are contiguous from here).
    base_vpn: int = 0
    _space: Optional[object] = field(default=None, init=False, repr=False,
                                     compare=False)

    def __getstate__(self):
        state = self.__dict__.copy()
        state["_space"] = None
        return state

    @property
    def access_count(self) -> int:
        return len(self.trace)
