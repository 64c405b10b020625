"""Hardware free lists for ML1 and ML2 (Figure 3).

ML1 tracks free 4 KB chunks in a doubly linked list whose pointers live in
the free chunks themselves ("for free").  ML2 keeps one free list per
sub-chunk size class; equally-sized sub-chunks are carved
fragmentation-free by dividing a *super-chunk* of M interlinked 4 KB
chunks into N sub-chunks, with M, N chosen to minimize the leftover
``(4KB * M) mod subchunk_size``.

Allocation always pops from the top of a list and super-chunks that regain
a free sub-chunk are pushed back on top, so super-chunks near the bottom
drain naturally and can be dismantled back into ML1 chunks -- the paper's
graceful grow/shrink behaviour (Section IV-A/B).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.common.errors import ModelInvariantError
from repro.common.units import PAGE_SIZE


class ML1FreeList:
    """Free 4 KB chunks, LIFO (freed chunks are reused first)."""

    def __init__(self) -> None:
        self._chunks: List[int] = []  # flat stack, top at the end

    def push(self, chunk: int) -> None:
        self._chunks.append(chunk)

    def push_many(self, chunks) -> None:
        self._chunks.extend(chunks)

    def pop(self) -> Optional[int]:
        return self._chunks.pop() if self._chunks else None

    def pop_many(self, count: int) -> Optional[List[int]]:
        """Pop exactly ``count`` chunks, or ``None`` (and no change)."""
        if len(self._chunks) < count:
            return None
        return [self._chunks.pop() for _ in range(count)]

    @property
    def count(self) -> int:
        return len(self._chunks)


def superchunk_geometry(subchunk_size: int, max_chunks: int = 8) -> Tuple[int, int]:
    """Choose (M chunks, N sub-chunks) minimizing carve waste.

    Picks the smallest M in [1, max_chunks] whose waste
    ``(M * 4KB) mod subchunk_size`` is minimal; N = usable sub-chunks.
    """
    if not 0 < subchunk_size <= PAGE_SIZE:
        raise ValueError(f"subchunk_size must be in (0, {PAGE_SIZE}]")
    best: Optional[Tuple[int, int, int]] = None  # (waste, M, N)
    for m in range(1, max_chunks + 1):
        total = m * PAGE_SIZE
        n = total // subchunk_size
        waste = total - n * subchunk_size
        if best is None or waste < best[0]:
            best = (waste, m, n)
        if waste == 0:
            break
    _, m, n = best
    return m, n


@dataclass
class SuperChunk:
    """M interlinked chunks carved into N equal sub-chunks."""

    subchunk_size: int
    chunk_ids: List[int]
    free_slots: List[int] = field(default_factory=list)
    total_slots: int = 0
    #: First backing chunk at carve time; survives dismantling so error
    #: messages can still name the super-chunk's address.
    origin_chunk: Optional[int] = None

    @classmethod
    def carve(cls, subchunk_size: int, chunk_ids: List[int], slots: int) -> "SuperChunk":
        return cls(
            subchunk_size=subchunk_size,
            chunk_ids=list(chunk_ids),
            free_slots=list(range(slots - 1, -1, -1)),  # allocate slot 0 first
            total_slots=slots,
            origin_chunk=chunk_ids[0] if chunk_ids else None,
        )

    @property
    def fully_free(self) -> bool:
        return len(self.free_slots) == self.total_slots

    @property
    def has_free(self) -> bool:
        return bool(self.free_slots)


@dataclass(frozen=True)
class SubChunk:
    """A handle to one allocated sub-chunk."""

    superchunk: SuperChunk
    slot: int

    @property
    def size(self) -> int:
        return self.superchunk.subchunk_size


class ML2FreeLists:
    """One free list per sub-chunk size class.

    Size classes default to 256 B steps (the zsmalloc-like "practically
    ideal matching sub-physical page" of Section IV-A).  ``alloc`` grows a
    class from the ML1 free list when it runs dry; ``free`` dismantles
    fully-free super-chunks back into ML1 chunks.
    """

    def __init__(self, size_classes: Optional[List[int]] = None) -> None:
        self.size_classes = sorted(size_classes or
                                   [256 * i for i in range(1, 17)])
        if any(s <= 0 or s > PAGE_SIZE for s in self.size_classes):
            raise ValueError("size classes must be in (0, 4096]")
        self._lists: Dict[int, List[SuperChunk]] = {
            size: [] for size in self.size_classes
        }

    def class_for(self, compressed_size: int) -> int:
        """Smallest size class that fits ``compressed_size`` bytes."""
        classes = self.size_classes
        idx = bisect_left(classes, compressed_size)
        if idx == len(classes):
            raise ValueError(
                f"compressed size {compressed_size} exceeds the largest class"
            )
        return classes[idx]

    def alloc(self, compressed_size: int, ml1: ML1FreeList) -> Optional[SubChunk]:
        """Allocate a sub-chunk, growing from ML1 if needed.

        Returns ``None`` when the class is empty and ML1 cannot donate the
        chunks for a new super-chunk (the controller must evict first).
        """
        return self.alloc_many((self.class_for(compressed_size),), ml1)[0]

    def alloc_many(self, classes: Iterable[int],
                   ml1: ML1FreeList) -> List[Optional[SubChunk]]:
        """One allocation per size class in ``classes`` (sizes already
        rounded by :meth:`class_for`), in order; ``None`` where one
        fails.  Bulk placement takes every ML2 page's sub-chunk here in
        one call."""
        lists = self._lists
        subchunks: List[Optional[SubChunk]] = []
        append = subchunks.append
        for size in classes:
            stack = lists[size]
            while stack and not stack[-1].free_slots:
                stack.pop()  # fully-allocated super-chunks leave the list
            if not stack:
                m, n = superchunk_geometry(size)
                chunks = ml1.pop_many(m)
                if chunks is None:
                    append(None)
                    continue
                stack.append(SuperChunk.carve(size, chunks, n))
            superchunk = stack[-1]
            free_slots = superchunk.free_slots
            append(SubChunk(superchunk, free_slots.pop()))
            if not free_slots:
                stack.pop()
        return subchunks

    def free(self, subchunk: SubChunk, ml1: ML1FreeList) -> None:
        """Release a sub-chunk; dismantles empty super-chunks into ML1."""
        superchunk = subchunk.superchunk
        size = superchunk.subchunk_size
        origin = superchunk.origin_chunk
        where = f"size class {size} B, chunk {origin}"
        if origin is not None:
            address = origin * PAGE_SIZE + subchunk.slot * size
            where += f", address {address:#x}"
        if superchunk.total_slots == 0:
            raise ModelInvariantError(
                f"free of sub-chunk slot {subchunk.slot} ({where}) whose "
                f"super-chunk was already dismantled into ML1"
            )
        if subchunk.slot in superchunk.free_slots:
            raise ModelInvariantError(
                f"double free of sub-chunk slot {subchunk.slot} ({where})"
            )
        had_free = superchunk.has_free
        superchunk.free_slots.append(subchunk.slot)
        stack = self._lists[superchunk.subchunk_size]
        if superchunk.fully_free:
            if superchunk in stack:
                stack.remove(superchunk)
            ml1.push_many(superchunk.chunk_ids)
            superchunk.chunk_ids = []
            superchunk.free_slots = []
            superchunk.total_slots = 0
        elif not had_free:
            # 0 free -> 1 free: back on top of its list (Section IV-B).
            stack.append(superchunk)
