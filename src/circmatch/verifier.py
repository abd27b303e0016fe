"""Verification of a text block against every rotation of the pattern.

A block is the 2m-letter stretch of text that a triggered window may
contain occurrences in: candidate starts are the first m-k positions and
an occurrence extends at most m+k letters, so (m-k) + (m+k) = 2m covers
everything.

verify_block reports, for every candidate start and every rotation within
distance k, one occurrence: the minimal distance and, among those, the
minimal length.  Two engines produce identical output:

  * the default engine is the packed bit-parallel kernel
    `bitparallel.RotationScreen` (one field of m pattern bits plus a guard
    bit per rotation, and a packed last-row score per field).  One pass
    over the block yields the distance of every (start, rotation) pair, and
    most blocks end there with no field within k.  For each start that
    hits, one more packed pass from that start finds the shortest length of
    every hit rotation;
  * the wave engine walks starts and rotations exactly as the scheme is
    defined, maintaining the wave representation across one-letter pattern
    rotations and text prefix drops, and charging each wave-entry update to
    a tally.  It exists for instrumentation and cross-checking.
"""

from __future__ import annotations

from dataclasses import dataclass

from .alphabet import to_bytes
from .bitparallel import RotationScreen
from .editcore import (
    WorkTally,
    occurrence_scan,
    waves_drop_text_prefix,
    waves_from_scratch,
    waves_rotate_pattern,
)


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


@dataclass(frozen=True, order=True)
class Occurrence:
    """A factor of the text within distance k of rotation `rotation`."""

    start: int
    length: int
    rotation: int
    distance: int


def rotate(x, i: int):
    """The i-th rotation x[i:] + x[:i]."""
    if not 0 <= i < len(x):
        raise ValueError(f"rotation index {i} out of range for length {len(x)}")
    return x[i:] + x[:i]


def dedup_occurrences(occs) -> list[Occurrence]:
    """Keep one occurrence per (start, rotation): minimal distance, then
    minimal length.  Sorted by (start, rotation)."""
    best: dict[tuple[int, int], Occurrence] = {}
    for o in occs:
        key = (o.start, o.rotation)
        old = best.get(key)
        if old is None or (o.distance, o.length) < (old.distance, old.length):
            best[key] = o
    return [best[key] for key in sorted(best)]


def screen_for(
    x: bytes, k: int, screen: RotationScreen | None = None
) -> RotationScreen:
    """`screen` after checking that it was built for (x, k), or, when it is
    None, a new screen of (x, k)."""
    if screen is None:
        return RotationScreen(x, k)
    if (screen.x, screen.k) != (x, k):
        raise ValueError("screen was built for a different pattern or threshold")
    return screen


def verify_block(
    x: str | bytes,
    k: int,
    block: Block,
    *,
    use_waves: bool = False,
    tally: WorkTally | None = None,
    screen: RotationScreen | None = None,
) -> list[Occurrence]:
    """All occurrences of any rotation of x with distance <= k whose start
    lies within the block's first m-k positions.  Deduplicated per
    (start, rotation); an empty list is a normal outcome.

    `screen` is the packed screen of (x, k); a caller verifying many blocks
    builds it once and passes it in, otherwise it is built here."""
    xb = to_bytes(x)
    m = len(xb)
    if m < 1:
        raise ValueError("pattern must be non-empty")
    if k < 0 or k >= m:
        raise ValueError("threshold must satisfy 0 <= k < len(pattern)")
    data = block.data
    starts = min(m - k, len(data))
    if starts <= 0:
        return []
    if use_waves:
        return _verify_waves(xb, k, block, starts, tally)
    screen = screen_for(xb, k, screen)
    return [
        Occurrence(block.text_offset + p, length, r, d)
        for p, length, r, d in screen.occurrences(data, starts)
    ]


def _verify_waves(
    xb: bytes, k: int, block: Block, starts: int, tally: WorkTally | None
) -> list[Occurrence]:
    m = len(xb)
    if tally is None:
        tally = WorkTally()
    suffix = block.data
    waves = waves_from_scratch(xb, suffix, k, tally)
    out: list[Occurrence] = []
    for p in range(starts):
        for r in range(m):
            for col, dist in occurrence_scan(waves):
                out.append(
                    Occurrence(
                        start=block.text_offset + p,
                        length=col,
                        rotation=r,
                        distance=dist,
                    )
                )
            if r < m - 1:
                waves = waves_rotate_pattern(waves, waves.pattern[0], suffix, tally)
        if p < starts - 1:
            # one more rotation step returns the pattern to rotation 0,
            # then the leading text letter is dropped for the next start
            waves = waves_rotate_pattern(waves, waves.pattern[0], suffix, tally)
            waves = waves_drop_text_prefix(waves, waves.pattern, suffix, tally)
            suffix = suffix[1:]
    return dedup_occurrences(out)
