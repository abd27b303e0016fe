"""Bit-parallel verification of a stretch of text against every rotation of
a pattern.

The kernel, `RotationScreen._steps`, advances Myers' bit-vector DP (J. ACM
1999) for many rotations at once.  The rotations are packed side by side
into one Python int per bit vector (Hyyro, Fredriksson & Navarro, JEA
2005), so a step is about twenty operations on one int in place of one
pass per rotation:

  * field i occupies bits [i(m+1), i(m+1)+m] and holds one rotation, or
    its reverse, in its top m bits; `_pack` builds the per-letter masks of
    any list of them;
  * the bottom bit of each field is a guard.  It catches the carry out of
    (eq & vp) + vp from the field below, and the `& mask` right after the
    addition clears it, so no carry reaches a pattern bit; a shift left
    moves the top bit of a field into the guard above, cleared the same way;
  * the guard is also how a pass starts: `inject`, or'ed into the
    constant that hp is computed with, is the bit that the shift of hp
    moves into each field's first pattern bit.  It is 0 for a free start
    (D[0][j] = 0, a match may begin at any letter) and `ones`, every
    guard, for an anchored start (D[0][j] = j, the match begins at the
    first letter read), so either start costs no operation per step;
  * the last-row scores live in one more packed int, field i from bit
    i(m+1) on, each counting +1 / -1 off the top pattern bit of hp / hn,
    from m;
  * the test: with t = m.bit_length() and a bias of 2^t - d - 1 in a
    field, bit t of score + bias is clear exactly where score <= d.  From
    step `first` on, the kernel yields (step, score, z) wherever z, the
    test bits of score + bias that are clear, is not zero; each bit of z
    names a field, i = bit // (m+1).

`occurrences(data, starts)` settles the first `starts` positions of `data`
as candidate starts, `data` reaching m + k letters past the last of them
or to the end of the text.  `search` hands it one slice per run of
verified windows, the whole text in verify-all mode.  It drives the kernel
in two ways:

  * distances: one free-start pass reads the data right to left against
    all m reversed rotations, so after the letter at position p the score
    in field r is the least distance between rotation r and any factor of
    the data starting at p.  Only the last `starts` steps are tested, each
    field against k.  A hit is decoded into {rotation: distance} as the
    pass meets it, so the pass keeps no packed state per hit;
  * lengths: for each start that hit, one anchored pass reads the m + k
    letters from that start left to right, packing only the forward
    rotations that hit there.  The score of a rotation after j letters is
    its distance to the factor of length j, which never drops below the
    minimum found above; the first j where it meets that minimum is the
    shortest length, and the pass stops once every packed rotation has met
    its own.  Rotations that are the same string, as all are in a unary
    pattern, are packed once.
"""

from __future__ import annotations

import functools
from collections.abc import Iterable, Iterator

from .alphabet import to_bytes

SCREENS_KEPT = 8  # distinct (x, k) screens kept by rotation_screen


class RotationScreen:
    """Per-letter masks of the rotations of x, for threshold k: packed
    reversed rotations for the distance pass, and the letters' positions
    in x + x for the length passes to pack."""

    def __init__(self, x: str | bytes, k: int):
        xb = to_bytes(x)
        m = len(xb)
        if m < 1:
            raise ValueError("pattern must be non-empty")
        if k < 0 or k >= m:
            raise ValueError("threshold must satisfy 0 <= k < len(pattern)")
        self.x, self.m, self.k = xb, m, k
        self.width = width = m + 1
        self.ones = ones = ((1 << (m * width)) - 1) // ((1 << width) - 1)  # every field's guard
        self.t = t = m.bit_length()
        self.bias = ones * ((1 << t) - k - 1)
        # reversed rotation r is rev(x+x)[m-r : 2m-r], forward rotation r
        # is (x+x)[r : r+m]
        self.peq = _pack(_spread((xb + xb)[::-1]), [m - r for r in range(m)], m)
        self.spread = _spread(xb + xb)
        # rotations r and r + period are the same string
        self.period = next(q for q in range(1, m + 1) if xb[q:] + xb[:q] == xb)

    def occurrences(self, data: bytes, starts: int) -> Iterator[tuple[int, int, int, int]]:
        """Yield every (start, length, rotation, distance) with start <
        `starts` and distance <= k, sorted by (start, rotation): the least
        distance between the rotation and a factor of data at that start,
        and the shortest such factor.  Rows are yielded as the length passes
        find them, so the caller holds the only list of them."""
        for p, dist in self.distances(data, starts):
            length = self._lengths(data[p : p + self.m + self.k], dist)
            for r, d in dist.items():
                yield p, length[r], r, d

    def distances(self, data: bytes, starts: int) -> list[tuple[int, dict[int, int]]]:
        """(p, {rotation: distance}) for each start p < `starts` where some
        rotation is within k of a factor of data starting at p, in
        increasing p; the distances are the least over those factors."""
        n, width = len(data), self.width
        field = (1 << width) - 1
        hits = []
        steps = self._steps(self.peq, reversed(data), self.ones, 0, self.bias, n - starts + 1)
        for i, score, z in steps:
            dist = {}
            while z:
                b = z & -z
                r = (b.bit_length() - 1) // width
                dist[r] = (score >> (r * width)) & field
                z ^= b
            hits.append((n - i, dist))
        hits.reverse()
        return hits

    def _lengths(self, data: bytes, dist: dict[int, int]) -> dict[int, int]:
        """For each rotation r in `dist`, the least j at which rotation r is
        within dist[r] of data[:j].  Rotations that are the same string
        share one field; field i holds rotation rots[i]."""
        m, width, t, period = self.m, self.width, self.t, self.period
        want: dict[int, int] = {}
        for r, d in dist.items():
            want.setdefault(r % period, d)
        rots = list(want)
        ones = self.ones & ((1 << (len(rots) * width)) - 1)
        bias = sum(((1 << t) - d - 1) << (i * width) for i, d in enumerate(want.values()))
        pending, length = ones << t, {}
        # no length below m - d reaches distance d
        first = m - max(want.values())
        for j, _, z in self._steps(_pack(self.spread, rots, m), data, ones, ones, bias, first):
            z &= pending
            pending ^= z
            while z:
                b = z & -z
                length[rots[(b.bit_length() - 1) // width]] = j
                z ^= b
            if not pending:
                break
        return {r: length[r % period] for r in dist}

    def _steps(
        self, eq: list[int], data: Iterable[int], ones: int, inject: int, bias: int, first: int
    ) -> Iterator[tuple[int, int, int]]:
        """The packed Myers pass over `data` for the fields whose guard is
        set in `ones`, with a free start (`inject` 0) or an anchored one
        (`inject` = `ones`): yield (j, score, z) after each letter j >=
        `first` (from 1) where z, the bits t of score + bias that are
        clear, is not zero."""
        m = self.m
        mask, high, test = ones * ((1 << (m + 1)) - 2), ones << m, ones << self.t
        hmask = mask | inject
        vp, vn, score = mask, 0, ones * m
        for j, ch in enumerate(data, 1):
            x = eq[ch] | vn
            d0 = ((((x & vp) + vp) & mask) ^ vp) | x
            hp = vn | ((d0 | vp) ^ hmask)
            hn = vp & d0
            score += ((hp & high) - (hn & high)) >> m
            hps = hp << 1
            vn = hps & d0
            vp = ((hn << 1) | ((d0 | hps) ^ mask)) & mask
            if j >= first:
                z = test & ~(score + bias)
                if z:
                    yield j, score, z


@functools.lru_cache(maxsize=SCREENS_KEPT)
def rotation_screen(x: bytes, k: int) -> RotationScreen:
    """The screen of (x, k), built on first use and shared after that: a
    screen is never changed once built."""
    return RotationScreen(x, k)


def _spread(s: bytes) -> dict[int, int]:
    """Letter -> bit mask of its positions in s."""
    spread: dict[int, int] = {}
    for j, ch in enumerate(s):
        spread[ch] = spread.get(ch, 0) | (1 << j)
    return spread


def _pack(spread: dict[int, int], offsets: list[int], m: int) -> list[int]:
    """Letter value -> packed mask whose field i holds, above its guard,
    the m bits of the letter's `spread` mask from bit offsets[i] on."""
    low, width = (1 << m) - 1, m + 1
    table = [0] * 256
    for ch, bits in spread.items():
        packed = 0
        for off in reversed(offsets):
            packed = (packed << width) | ((bits >> off) & low)
        table[ch] = packed << 1
    return table
