"""Verification of a text block against every rotation of the pattern.

A block is the 2m-letter stretch of text that a triggered window may
contain occurrences in: candidate starts are the first m-k positions and
an occurrence extends at most m+k letters, so (m-k) + (m+k) = 2m covers
everything.

verify_block reports, for every candidate start and every rotation within
distance k, one occurrence: the minimal distance and, among those, the
minimal length.  Two engines produce identical output:

  * the default engine first screens the block with one packed
    bit-parallel pass that advances all m rotations together
    (`bitparallel.RotationScreen`: one field of m pattern bits plus a guard
    bit per rotation, and a packed last-row score per field).  It answers
    only whether some rotation comes within k at some candidate start, and
    most blocks stop there.  A block that hits goes to the vectorized banded
    kernel, which settles every (start, rotation) pair, distance and length,
    so the output does not depend on the screen beyond that yes/no;
  * the wave engine walks starts and rotations exactly as the scheme is
    defined, maintaining the wave representation across one-letter pattern
    rotations and text prefix drops, and charging each wave-entry update to
    a tally.  It exists for instrumentation and cross-checking.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import bitparallel
from ._vectordp import min_prefix_distances
from .alphabet import to_bytes
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


def verify_block(
    x: str | bytes,
    k: int,
    block: Block,
    *,
    use_waves: bool = False,
    tally: WorkTally | None = None,
    screen: bitparallel.RotationScreen | None = None,
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
    if screen is None:
        screen = bitparallel.RotationScreen(xb, k)
    elif (screen.x, screen.k) != (xb, k):
        raise ValueError("screen was built for a different pattern or threshold")
    return _verify_fast(xb, k, block, starts, screen)


def _verify_fast(
    xb: bytes, k: int, block: Block, starts: int, screen: bitparallel.RotationScreen
) -> list[Occurrence]:
    m = len(xb)
    data = block.data
    # cheap rejection; the batched band pass then settles every
    # (start, rotation) pair
    if not screen.hit(data, starts):
        return []
    rot_matrix = np.frombuffer(xb + xb, dtype=np.uint8)
    rot_matrix = np.lib.stride_tricks.sliding_window_view(rot_matrix, m)[:m]
    dmin, lmin = min_prefix_distances(
        rot_matrix, np.frombuffer(data, dtype=np.uint8), k, starts
    )
    out: list[Occurrence] = []
    for r, p in np.argwhere(dmin <= k):
        out.append(
            Occurrence(
                start=block.text_offset + int(p),
                length=int(lmin[r, p]),
                rotation=int(r),
                distance=int(dmin[r, p]),
            )
        )
    return dedup_occurrences(out)


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
