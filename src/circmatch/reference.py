"""Reference implementations that check the search; none of them is on
the search path, and `import circmatch` does not load this module.

* q-gram encoding: `encode_qgram`, `decode_qgram` and `enumerate_qgrams`
  spell out the big-endian base-sigma code that `search` reads off the
  index's two half-gram tables.
* rows: `rotate` and `dedup_occurrences` (one row per (start, rotation),
  minimal distance then minimal length).
* edit distance: the full and banded dynamic programming matrices, and
  the wave representation of the banded matrix.
* `verify_block_waves`: the rotation screen's output on one block of
  text, found by rebuilding the waves start by start and rotation by
  rotation with a work count.
* `min_prefix_distances` and `oracle_search`: a vectorized banded pass
  over every start and rotation, sharing no kernel with the search.
* `build_doubled` and `brute_force_index`: the doubled pattern x + x[:-1],
  and the q-gram index by exhaustive enumeration of its factors.

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

The vectorized band pass takes a batch of equal-length patterns (all
rotations of one pattern) and advances the band of each pattern-vs-suffix
matrix row by row simultaneously for every candidate start: the state is
one (band offset, pattern, start) array of cell values, and a row is a few
numpy operations over all of it.  The pass aborts once every tracked cell
exceeds the threshold.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .alphabet import Alphabet, AlphabetError, to_bytes
from .qgramindex import QGramIndex, pattern_digest
from .verifier import Occurrence


def encode_qgram(gram: str | bytes, a: Alphabet) -> int | None:
    """Big-endian base-sigma value of a q-gram, or None if any letter is
    foreign (the caller decides the policy for unencodable grams)."""
    g = to_bytes(gram)
    sigma = a.size
    code = 0
    for ch in g:
        r = a.rank(ch)
        if r is None:
            return None
        code = code * sigma + r
    return code


def decode_qgram(code: int, q: int, a: Alphabet) -> bytes:
    """Inverse of encode_qgram for codes in [0, sigma**q)."""
    sigma = a.size
    out = bytearray(q)
    for pos in range(q - 1, -1, -1):
        out[pos] = a.letters[code % sigma]
        code //= sigma
    if code:
        raise ValueError("code out of range for this q")
    return bytes(out)


def enumerate_qgrams(a: Alphabet, q: int, max_count: int | None = None):
    """Yield all sigma**q grams in encoding order (lexicographic by rank).

    The j-th gram yielded encodes to j.  With max_count set, refuses up
    front when sigma**q would exceed it.
    """
    if q < 1:
        raise ValueError("q must be at least 1")
    total = a.size**q
    if max_count is not None and total > max_count:
        raise AlphabetError(
            f"{a.size}^{q} = {total} q-grams exceed the configured limit {max_count}"
        )
    singles = [bytes([ch]) for ch in a.letters]
    for parts in itertools.product(singles, repeat=q):
        yield b"".join(parts)


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
    The source strings ride along because the rebuilds and the match-run
    scans need them.
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


def rebuild_waves_rotated(
    w: WaveSet, moved_letter: str | bytes | int, y: str | bytes, tally: WorkTally | None = None
) -> WaveSet:
    """Waves built from scratch for the pattern with its first letter
    deleted and `moved_letter` appended at its end (one rotation step when
    the moved letter is the deleted one)."""
    if isinstance(moved_letter, int):
        moved = bytes([moved_letter])
    else:
        moved = to_bytes(moved_letter)
    if len(w.pattern) == 0:
        raise ValueError("cannot rotate an empty pattern")
    new_pattern = w.pattern[1:] + moved
    return _build_waves(new_pattern, to_bytes(y), w.k, tally)


def rebuild_waves_dropped_prefix(
    w: WaveSet, x: str | bytes, y: str | bytes, tally: WorkTally | None = None
) -> WaveSet:
    """Waves built from scratch for x vs y with the first text letter
    removed."""
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
    x: str | bytes, k: int, block: bytes, tally: WorkTally | None = None
) -> list[Occurrence]:
    """Every occurrence of a rotation of x that starts in the first m - k
    positions of `block`, one per (start, rotation) with the minimal
    distance and then the minimal length, as
    `rotation_screen(x, k).occurrences(block, min(m - k, len(block)))`
    reports them.  Found by walking starts and rotations exactly as the
    scheme is defined: the waves are rebuilt after each one-letter pattern
    rotation and text prefix drop, and each wave-entry update is charged
    to `tally`."""
    xb = to_bytes(x)
    m = len(xb)
    if not 0 <= k < m:
        raise ValueError("threshold must satisfy 0 <= k < len(pattern)")
    suffix = to_bytes(block)
    starts = min(m - k, len(suffix))
    waves = waves_from_scratch(xb, suffix, k, tally)
    out: list[Occurrence] = []
    for p in range(starts):
        for r in range(m):
            for col, dist in occurrence_scan(waves):
                out.append(Occurrence(p, col, r, dist))
            if r < m - 1:
                waves = rebuild_waves_rotated(waves, waves.pattern[0], suffix, tally)
        if p < starts - 1:
            # one more rotation step returns the pattern to rotation 0,
            # then the leading text letter is dropped for the next start
            waves = rebuild_waves_rotated(waves, waves.pattern[0], suffix, tally)
            waves = rebuild_waves_dropped_prefix(waves, waves.pattern, suffix, tally)
            suffix = suffix[1:]
    return dedup_occurrences(out)


_BIG = np.int16(4096)


def min_prefix_distances(
    patterns: np.ndarray, text: np.ndarray, k: int, starts: int
) -> tuple[np.ndarray, np.ndarray]:
    """For each pattern row and each start p in [0, starts): the minimum
    over L of the edit distance to text[p:p+L], and the smallest such L
    among the minima.

    patterns has shape (R, m).  Returns (R, starts) arrays; distances
    above k come back as a value > k, callers test <= k.  Prefixes are
    clipped at the end of `text`.  Cells are int16 and unclamped, so the
    values are exact while m + k stays below 32 000, and k must stay below
    _BIG, the value that stands for a missing predecessor.
    """
    if patterns.ndim == 1:
        patterns = patterns[None, :]
    nrot, m = patterns.shape
    n = len(text)
    if starts <= 0 or nrot == 0:
        return (
            np.empty((nrot, 0), dtype=np.int16),
            np.empty((nrot, 0), dtype=np.int64),
        )
    width = 2 * k + 1
    # row lo + k of `windows` is the text from lo on, for lo >= -k; the pad
    # value 256 equals no letter
    pad = np.full(m + k + 2, 256, dtype=np.int16)
    tp = np.concatenate([pad[:k], text.astype(np.int16), pad])
    windows = np.lib.stride_tricks.sliding_window_view(tp, starts)
    pat = patterns.astype(np.int16)
    idx = np.arange(width, dtype=np.int16)[:, None, None]
    shape = (width, nrot, starts)
    # u[bi] = D[r][r + bi - k] - bi, so that the chain along a row is a
    # running minimum; row 0 holds D = b for b >= 0, and _BIG left of the
    # matrix
    u = np.empty(shape, dtype=np.int16)
    u[...] = np.where(idx >= k, -k, _BIG - idx)
    nxt = np.empty(shape, dtype=np.int16)
    tmp = np.empty(shape, dtype=np.int16)
    dead_check_from = k + 2
    dead = False
    for r in range(1, m + 1):
        # from D[r-1][j-1], plus one where the letter at lo = r - 1 + b differs
        np.not_equal(windows[r - 1 : r - 1 + width, None, :], pat[None, :, r - 1 : r], out=tmp)
        np.add(u, tmp, out=nxt)
        low = max(0, k + 1 - r)  # the offsets with j <= 0, which have no diagonal
        nxt[:low] = _BIG - idx[:low]
        # from D[r-1][j], at the next offset of the row above
        np.add(u[1:], 2, out=tmp[1:])
        np.minimum(nxt[:-1], tmp[1:], out=nxt[:-1])
        # from D[r][j-1], chained along the row.  A loop over the offsets:
        # np.minimum.accumulate along axis 0 is twenty times slower
        for bi in range(max(1, low), width):
            np.minimum(nxt[bi], nxt[bi - 1], out=nxt[bi])
        u, nxt = nxt, u
        if r >= dead_check_from and r < m and (r - dead_check_from) % 4 == 0:
            if int((u.min(axis=(1, 2)) + idx[:, 0, 0]).min()) > k:
                dead = True
                break
    if dead:
        return (
            np.full((nrot, starts), _BIG, dtype=np.int16),
            np.full((nrot, starts), m, dtype=np.int64),
        )
    stack = u + idx  # (width, R, starts)
    # ends beyond the text are not prefixes of anything real
    for bi, b in enumerate(range(-k, k + 1)):
        first_bad = max(0, n - m - b + 1)
        if first_bad < starts:
            stack[bi, :, first_bad:] = _BIG
    dmin = stack.min(axis=0)
    barg = stack.argmin(axis=0)  # first minimum: smallest offset, shortest prefix
    lmin = m + (barg.astype(np.int64) - k)
    return dmin, lmin


def oracle_search(t: str | bytes, x: str | bytes, k: int) -> list[Occurrence]:
    """Reference search: for every start and every rotation, the banded
    distance to every clipped prefix, minimum distance then minimum length.

    Independent of the window/filtration machinery; intended for
    correctness checking at desk scale.
    """
    tb, xb = to_bytes(t), to_bytes(x)
    n, m = len(tb), len(xb)
    if k < 0 or k >= m:
        raise ValueError("need 0 <= k < len(pattern)")
    if n == 0:
        return []
    arr = np.frombuffer(tb, dtype=np.uint8)
    doubled = np.frombuffer(xb + xb, dtype=np.uint8)
    rot_matrix = np.lib.stride_tricks.sliding_window_view(doubled, m)[:m]
    dmin, lmin = min_prefix_distances(rot_matrix, arr, k, n)
    # (p, r) pairs in increasing order, one each
    return [
        Occurrence(int(p), int(lmin[r, p]), int(r), int(dmin[r, p]))
        for p, r in np.argwhere(dmin.T <= k)
    ]


def build_doubled(x: str | bytes) -> bytes:
    """x concatenated with x[:-1]; every rotation of x occurs inside it."""
    xb = to_bytes(x)
    if len(xb) < 1:
        raise ValueError("pattern must be non-empty")
    return xb + xb[:-1]


def brute_force_index(x: str | bytes, q: int, a: Alphabet) -> QGramIndex:
    """Reference index by exhaustive enumeration: for every gram, the least
    plain DP distance to a factor of the doubled pattern of length 0..2q.

    Each such factor is a prefix of a head xp[i : i + 2q].  Column j of the
    DP of the gram against a head holds the distances of the gram's
    prefixes to the head's first j letters, so its last cell scores one
    factor.  Sorted heads reuse the columns of their common prefix with the
    previous head, and a head is left once its column minimum reaches the
    best score so far: no column's minimum is below the one before it.

    Desk-scale only (sigma^q <= 4096, len(x) <= 32).
    """
    xb = to_bytes(x)
    m = len(xb)
    if q < 1 or m < 1:
        raise ValueError("need q >= 1 and a non-empty pattern")
    if a.size**q > 4096 or m > 32:
        raise ValueError("brute-force index is limited to sigma^q <= 4096, m <= 32")
    xp = build_doubled(xb)
    heads = sorted({xp[i : i + 2 * q] for i in range(len(xp))})
    entries = bytearray(a.size**q)
    for gram in enumerate_qgrams(a, q):
        best = q  # the empty factor
        cols = [list(range(q + 1))]  # cols[j]: the column after the head's first j letters
        prev = b""
        for v in heads:
            j = 0
            while j < len(cols) - 1 and j < len(v) and v[j] == prev[j]:
                j += 1
            del cols[j + 1 :]
            while j < len(v) and min(cols[j]) < best:
                col, nxt = cols[j], [j + 1]
                for i in range(1, q + 1):
                    nxt.append(min(col[i - 1] + (gram[i - 1] != v[j]), col[i] + 1, nxt[i - 1] + 1))
                cols.append(nxt)
                best = min(best, nxt[q])
                j += 1
            prev = v
            if best == 0:
                break
        entries[encode_qgram(gram, a)] = best
    return QGramIndex(q=q, alphabet=a, entries=bytes(entries), digest=pattern_digest(xb))
