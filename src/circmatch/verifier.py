"""The Occurrence record that every search reports.

`search` verifies a run of candidate starts with one pass of
`bitparallel.RotationScreen.occurrences` over the run's slice of text,
which holds every factor within k of a rotation that starts in the run:
such a factor is at most m + k letters long.  For every start and every
rotation within distance k the screen reports one occurrence, with the
minimal distance and, among those, the minimal length.

`circmatch.reference.verify_block_waves` is a second engine with the
screen's output on one block of text, kept for cross-checks and work
counts.
"""

from __future__ import annotations

from typing import NamedTuple


class Occurrence(NamedTuple):
    """A factor of the text within distance k of rotation `rotation`."""

    start: int
    length: int
    rotation: int
    distance: int
