"""Bit-parallel verification of a stretch of text against every rotation of
a pattern.

One pass over the text advances Myers' bit-vector DP (J. ACM 1999) for all
m rotations at once.  The rotations are packed side by side into one Python
int per bit vector (Hyyro, Fredriksson & Navarro, JEA 2005), so a step is
about twenty operations on m(m+1)-bit ints in place of m separate passes:

  * field r occupies bits [r(m+1), r(m+1)+m] and holds rotation r, or its
    reverse, in its low m bits;
  * the top bit of each field is a guard.  It catches the carry out of
    (eq & vp) + vp, and the `& mask` right after the addition clears it, so
    no carry reaches the next field and no stale bit is shifted into it;
  * the last-row scores live in one more packed int with the same layout,
    each field counting +1 / -1 off the top pattern bit of hp / hn.

`occurrences(data, starts)` settles the first `starts` positions of `data`
as candidate starts, `data` reaching m + k letters past the last of them
or to the end of the text.  `search` hands it one slice per run of
verified windows, the whole text in verify-all mode.  It runs two kinds of
pass:

  * distances: one pass reads the data right to left against the reversed
    rotations with a free start (D[0][j] = 0), so after the letter at
    position p the score in field r is the least distance between rotation
    r and any factor of the data starting at p.  Only the last `starts`
    steps are tested: with t = m.bit_length() and bias = 2^t - k - 1 in
    every field, bit t of score + bias is clear exactly where score <= k,
    and each clear bit names a hit field, r = bit // (m+1).  A hit is
    decoded into {rotation: distance} as the pass meets it, so the pass
    keeps no packed state per hit;
  * lengths: for each start that hit, one pass reads the m + k letters
    from that start left to right with a global start (a 1 shifted into
    hp, every score starting at m), packing only the forward rotations that
    hit there.  The score of a rotation after j letters is its distance to
    the factor of length j, which never drops below the minimum found
    above; the first j where it meets that minimum is the shortest length,
    and the pass stops once every packed rotation has met its own.
    Rotations that are the same string, as all are in a unary pattern, are
    packed once.
"""

from __future__ import annotations

import functools
from collections.abc import Iterator

from .alphabet import to_bytes

SCREENS_KEPT = 8  # distinct (x, k) screens kept by rotation_screen


class RotationScreen:
    """Per-letter masks of the rotations of x, for threshold k: packed
    reversed rotations for the distance pass, and one forward mask per
    rotation for the length passes to pack."""

    def __init__(self, x: str | bytes, k: int):
        xb = to_bytes(x)
        m = len(xb)
        if m < 1:
            raise ValueError("pattern must be non-empty")
        if k < 0 or k >= m:
            raise ValueError("threshold must satisfy 0 <= k < len(pattern)")
        self.x, self.m, self.k = xb, m, k
        self.width = width = m + 1
        low = (1 << m) - 1
        self.ones = ones = ((1 << (m * width)) - 1) // ((1 << width) - 1)  # bit 0 of every field
        self.mask = ones * low
        self.high = ones << (m - 1)
        self.t = t = m.bit_length()
        self.test = ones << t
        self.bias = ones * ((1 << t) - k - 1)
        self.start = ones * m
        # reversed rotation r is rev(x+x)[m-r : 2m-r]: one 2m-bit mask per
        # letter, shifted once per rotation; the forward rotations stay one
        # m-bit mask per (letter, rotation), packed per start in `_lengths`
        self.peq = [0] * 256
        for ch, bits in _spread((xb + xb)[::-1]).items():
            packed = 0
            for r in range(m - 1, -1, -1):
                packed = (packed << width) | ((bits >> (m - r)) & low)
            self.peq[ch] = packed
        self.eq = {
            ch: [(bits >> r) & low for r in range(m)] for ch, bits in _spread(xb + xb).items()
        }
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
        peq, mask, high, shift = self.peq, self.mask, self.high, self.m - 1
        test, bias, width = self.test, self.bias, self.width
        vp, vn, score = mask, 0, self.start
        first_test = len(data) - starts
        field = (1 << width) - 1
        hits = []
        for i, ch in enumerate(reversed(data)):
            x = peq[ch] | vn
            d0 = ((((x & vp) + vp) & mask) ^ vp) | x
            hp = vn | ((d0 | vp) ^ mask)
            hn = vp & d0
            score += ((hp & high) - (hn & high)) >> shift
            hps = hp << 1
            vn = hps & d0
            vp = ((hn << 1) | ((d0 | hps) ^ mask)) & mask
            if i >= first_test:
                z = test & ~(score + bias)
                if z:
                    dist = {}
                    while z:
                        b = z & -z
                        r = (b.bit_length() - 1) // width
                        dist[r] = (score >> (r * width)) & field
                        z ^= b
                    hits.append((len(data) - 1 - i, dist))
        hits.reverse()
        return hits

    def _lengths(self, data: bytes, dist: dict[int, int]) -> dict[int, int]:
        """For each rotation r in `dist`, the least j at which rotation r is
        within dist[r] of data[:j].  Rotations that are the same string
        share one slot; slot i holds rotation rots[i]."""
        m, width, t, period = self.m, self.width, self.t, self.period
        want: dict[int, int] = {}
        for r, d in dist.items():
            want.setdefault(r % period, d)
        rots = list(want)
        ones = self.ones & ((1 << (len(rots) * width)) - 1)
        mask, high, shift = ones * ((1 << m) - 1), ones << (m - 1), m - 1
        eq = [0] * 256
        for ch, masks in self.eq.items():
            packed = 0
            for r in reversed(rots):
                packed = (packed << width) | masks[r]
            eq[ch] = packed
        test = bias = 0
        for i, d in enumerate(want.values()):
            test |= 1 << (i * width + t)
            bias |= ((1 << t) - d - 1) << (i * width)
        # no length below m - d reaches distance d
        first = m - max(want.values())
        vp, vn, score = mask, 0, ones * m
        length = {}
        for j, ch in enumerate(data, 1):
            x = eq[ch] | vn
            d0 = ((((x & vp) + vp) & mask) ^ vp) | x
            hp = vn | ((d0 | vp) ^ mask)
            hn = vp & d0
            score += ((hp & high) - (hn & high)) >> shift
            hps = (hp << 1) | ones
            vn = hps & d0
            vp = ((hn << 1) | ((d0 | hps) ^ mask)) & mask
            if j >= first:
                z = test & ~(score + bias)
                if z:
                    test ^= z
                    while z:
                        b = z & -z
                        length[rots[(b.bit_length() - 1) // width]] = j
                        z ^= b
                    if not test:
                        break
        return {r: length[r % period] for r in dist}


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
