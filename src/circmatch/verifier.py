"""Verification of a text block against every rotation of the pattern, and
the Occurrence record that every search reports.

A block is a stretch of text whose first m-k positions are the candidate
starts.  An occurrence extends at most m+k letters, so a block of
(m-k) + (m+k) = 2m letters holds every factor that can hit; a shorter
block is read as the end of the text.  `search` settles its runs of
verified windows with the same screen, one slice per run; verify_block is
the one-window form of that, for callers that hold a single block.

verify_block reports, for every candidate start and every rotation within
distance k, one occurrence: the minimal distance and, among those, the
minimal length.  It runs the packed bit-parallel kernel
`bitparallel.RotationScreen` (one field of m pattern bits plus a guard bit
per rotation, and a packed last-row score per field), built once per
(x, k) by `bitparallel.rotation_screen`.  One pass over the block yields
the distance of every (start, rotation) pair, and for each start that
hits, one more packed pass from that start finds the shortest length of
every hit rotation.

`circmatch.reference.verify_block_waves` is a second engine with the same
output, kept for cross-checks and work counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .alphabet import to_bytes
from .bitparallel import rotation_screen


@dataclass(frozen=True)
class Block:
    """A stretch of text starting at absolute position text_offset."""

    text_offset: int
    data: bytes

    def __post_init__(self):
        object.__setattr__(self, "data", to_bytes(self.data))
        if len(self.data) < 1:
            raise ValueError("block must contain at least one letter")
        if self.text_offset < 0:
            raise ValueError("negative block offset")


class Occurrence(NamedTuple):
    """A factor of the text within distance k of rotation `rotation`."""

    start: int
    length: int
    rotation: int
    distance: int


def verify_block(x: str | bytes, k: int, block: Block) -> list[Occurrence]:
    """All occurrences of any rotation of x with distance <= k whose start
    lies within the block's first m-k positions, one per (start, rotation),
    sorted by (start, rotation); an empty list is a normal outcome."""
    xb = to_bytes(x)
    m = len(xb)
    if m < 1:
        raise ValueError("pattern must be non-empty")
    if k < 0 or k >= m:
        raise ValueError("threshold must satisfy 0 <= k < len(pattern)")
    data = block.data
    starts = min(m - k, len(data))
    return [
        Occurrence(block.text_offset + p, length, r, d)
        for p, length, r, d in rotation_screen(xb, k).occurrences(data, starts)
    ]
