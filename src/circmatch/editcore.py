"""Edit-distance primitives: full and banded dynamic programming plus the
wave representation of the banded matrix.

The wave representation keeps, for every value h in [0, k] and every
diagonal d = j - i in [-k, k], the lowest cell (i, j) of the matrix whose
value is h, where "lowest" means the next cell down the diagonal either
leaves the matrix or holds h + 1.  Cells on the last row or column count
as lowest for their own value, so the k-wave carries all the information
an occurrence scan needs.  Waves for h = 0..k determine every matrix cell
with value <= k.

Waves are built with a diagonal frontier recurrence: the furthest row
reached on each diagonal with at most h differences extends the three
neighbouring frontiers of level h - 1 and then slides down the run of
matching letters.  One construction costs O((k+1)^2) frontier updates
plus the match-run scans.

`verify_block_waves` drives the waves over a verification block, one
start and one rotation at a time, as a reference engine with a work
count.
"""

from __future__ import annotations

from dataclasses import dataclass

from .alphabet import to_bytes
from .verifier import Block, Occurrence, dedup_occurrences


@dataclass
class WorkTally:
    """Mutable counter of wave-entry updates performed on its behalf."""

    wave_updates: int = 0


@dataclass
class DPMatrix:
    """Full dynamic programming matrix with boundary D[i][0]=i, D[0][j]=j."""

    cells: list[list[int]]

    @property
    def rows(self) -> int:
        return len(self.cells)

    @property
    def cols(self) -> int:
        return len(self.cells[0])

    @property
    def distance(self) -> int:
        return self.cells[-1][-1]

    def last_row(self) -> list[int]:
        return self.cells[-1]


def full_edit_distance(x: str | bytes, y: str | bytes) -> DPMatrix:
    """Textbook unit-cost edit distance matrix of x (rows) vs y (columns)."""
    xb, yb = to_bytes(x), to_bytes(y)
    m, n = len(xb), len(yb)
    cells = [list(range(n + 1))]
    for i in range(1, m + 1):
        prev = cells[i - 1]
        row = [i] + [0] * n
        xi = xb[i - 1]
        for j in range(1, n + 1):
            row[j] = min(
                prev[j - 1] + (xi != yb[j - 1]),
                prev[j] + 1,
                row[j - 1] + 1,
            )
        cells.append(row)
    return DPMatrix(cells)


def banded_edit_distance(x: str | bytes, y: str | bytes, k: int) -> int | None:
    """Edit distance if it is <= k, else None ("exceeds k").

    Only cells within k of the main diagonal are touched, so the cost is
    O(min(m, n) * k).
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    xb, yb = to_bytes(x), to_bytes(y)
    m, n = len(xb), len(yb)
    if abs(m - n) > k:
        return None
    big = k + 1
    # row 0 within the band
    prev = {j: j for j in range(0, min(n, k) + 1)}
    if m == 0:
        d = prev.get(n, big)
        return d if d <= k else None
    for i in range(1, m + 1):
        cur = {}
        xi = xb[i - 1]
        lo = max(0, i - k)
        hi = min(n, i + k)
        for j in range(lo, hi + 1):
            if j == 0:
                cur[0] = i
                continue
            best = prev.get(j - 1, big) + (xi != yb[j - 1])
            up = prev.get(j, big) + 1
            if up < best:
                best = up
            left = cur.get(j - 1, big) + 1
            if left < best:
                best = left
            cur[j] = best if best <= k else big
        if all(v > k for v in cur.values()):
            return None
        prev = cur
    d = prev.get(n, big)
    return d if d <= k else None


_NO_FRONTIER = -2  # diagonal does not intersect the matrix


@dataclass(frozen=True)
class WaveSet:
    """Waves of the banded matrix for `pattern` (rows) vs `text` (columns).

    waves[h] maps diagonal d to the lowest cell (i, j) with value h.
    The source strings ride along because the incremental operations and
    the match-run scans need them.
    """

    pattern: bytes
    text: bytes
    k: int
    waves: tuple

    @property
    def rows(self) -> int:
        return len(self.pattern)

    @property
    def cols(self) -> int:
        return len(self.text)

    def entries(self) -> dict:
        """Flat {(h, d): (i, j)} view, convenient for comparisons."""
        out = {}
        for h, wave in enumerate(self.waves):
            for d, cell in wave.items():
                out[(h, d)] = cell
        return out


def waves_from_scratch(
    x: str | bytes, y: str | bytes, k: int, tally: WorkTally | None = None
) -> WaveSet:
    """Build the waves of x vs y directly with the frontier recurrence."""
    xb, yb = to_bytes(x), to_bytes(y)
    return _build_waves(xb, yb, k, tally)


def waves_rotate_pattern(
    w: WaveSet, moved_letter: str | bytes | int, y: str | bytes, tally: WorkTally | None = None
) -> WaveSet:
    """Waves after deleting the pattern's first letter and appending
    `moved_letter` at its end (one rotation step when the moved letter is
    the deleted one).

    Realized by reconstruction; the result is contractually identical to
    waves_from_scratch on the rotated pattern.
    """
    if isinstance(moved_letter, int):
        moved = bytes([moved_letter])
    else:
        moved = to_bytes(moved_letter)
    if len(w.pattern) == 0:
        raise ValueError("cannot rotate an empty pattern")
    new_pattern = w.pattern[1:] + moved
    return _build_waves(new_pattern, to_bytes(y), w.k, tally)


def waves_drop_text_prefix(
    w: WaveSet, x: str | bytes, y: str | bytes, tally: WorkTally | None = None
) -> WaveSet:
    """Waves of x vs y with the first text letter removed."""
    yb = to_bytes(y)
    if len(yb) == 0:
        raise ValueError("text is empty, nothing to drop")
    return _build_waves(to_bytes(x), yb[1:], w.k, tally)


def _build_waves(xb: bytes, yb: bytes, k: int, tally: WorkTally | None) -> WaveSet:
    if k < 0:
        raise ValueError("k must be non-negative")
    m, n = len(xb), len(yb)
    width = 2 * k + 1
    off = k  # frontier index of diagonal d is d + off
    prev = [_NO_FRONTIER] * width
    waves = []
    count = 0
    for h in range(k + 1):
        cur = [_NO_FRONTIER] * width
        wave = {}
        for d in range(-h, h + 1):
            if d > n or -d > m:
                continue  # diagonal entirely outside the matrix
            count += 1
            best = 0 if d >= 0 else -d  # boundary cell, value |d| <= h
            if h > 0:
                di = d + off
                a = prev[di]
                if a != _NO_FRONTIER and a + 1 > best:
                    best = a + 1
                if d - 1 >= -h + 1:
                    b = prev[di - 1]
                    if b != _NO_FRONTIER and b > best:
                        best = b
                if d + 1 <= h - 1:
                    c = prev[di + 1]
                    if c != _NO_FRONTIER and c + 1 > best:
                        best = c + 1
            hi = m if m <= n - d else n - d
            if best > hi:
                best = hi
            i = best
            j = i + d
            while i < m and j < n and xb[i] == yb[j]:
                i += 1
                j += 1
            cur[d + off] = i
            # the frontier cell holds exactly h unless the diagonal end was
            # already reached with fewer differences (frontier unchanged)
            if i != prev[d + off]:
                wave[d] = (i, i + d)
        waves.append(wave)
        prev = cur
    if tally is not None:
        tally.wave_updates += count
    return WaveSet(pattern=xb, text=yb, k=k, waves=tuple(waves))


def occurrence_scan(w: WaveSet) -> list[tuple[int, int]]:
    """Columns j with D[m][j] <= k, with the value there, read off the waves.

    A wave entry that sits on the last row is by construction the unique
    witness for its column, so the scan is a walk over all entries.
    """
    m = w.rows
    hits: dict[int, int] = {}
    for h, wave in enumerate(w.waves):
        for _d, (i, j) in wave.items():
            if i == m:
                old = hits.get(j)
                if old is None or h < old:
                    hits[j] = h
    return sorted(hits.items())


def verify_block_waves(
    x: str | bytes, k: int, block: Block, tally: WorkTally | None = None
) -> list[Occurrence]:
    """`verifier.verify_block`'s output, found by walking starts and
    rotations exactly as the scheme is defined: the waves are carried
    across one-letter pattern rotations and text prefix drops, and each
    wave-entry update is charged to `tally`."""
    xb = to_bytes(x)
    m = len(xb)
    if not 0 <= k < m:
        raise ValueError("threshold must satisfy 0 <= k < len(pattern)")
    suffix = block.data
    starts = min(m - k, len(suffix))
    waves = waves_from_scratch(xb, suffix, k, tally)
    out: list[Occurrence] = []
    for p in range(starts):
        for r in range(m):
            for col, dist in occurrence_scan(waves):
                out.append(Occurrence(block.text_offset + p, col, r, dist))
            if r < m - 1:
                waves = waves_rotate_pattern(waves, waves.pattern[0], suffix, tally)
        if p < starts - 1:
            # one more rotation step returns the pattern to rotation 0,
            # then the leading text letter is dropped for the next start
            waves = waves_rotate_pattern(waves, waves.pattern[0], suffix, tally)
            waves = waves_drop_text_prefix(waves, waves.pattern, suffix, tally)
            suffix = suffix[1:]
    return dedup_occurrences(out)
