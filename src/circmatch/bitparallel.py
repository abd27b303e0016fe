"""Bit-parallel screen of a text block against every rotation of a pattern.

One pass over the block advances Myers' bit-vector DP (J. ACM 1999) for all
m rotations at once.  The rotations are packed side by side into one Python
int per bit vector (Hyyro, Fredriksson & Navarro, JEA 2005), so a step is
about twenty operations on m(m+1)-bit ints in place of m separate passes:

  * field r occupies bits [r(m+1), r(m+1)+m] and holds the reversed
    rotation r in its low m bits;
  * the top bit of each field is a guard.  It catches the carry out of
    (eq & vp) + vp, and the `& mask` right after the addition clears it, so
    no carry reaches the next field and no stale bit is shifted into it;
  * the last-row scores live in one more packed int with the same layout,
    each field counting +1 / -1 off the top pattern bit of hp / hn.

The pass reads the block right to left with a free start (D[0][j] = 0), so
after the letter at position p the score in field r is the least distance
between rotation r and any factor of the block starting at p.  Only the
last `starts` steps are tested: with t = m.bit_length() and
bias = 2^t - k - 1 in every field, bit t of score + bias stays clear exactly
where score <= k.  The screen answers only whether some rotation comes
within k at some start; the banded pass in `_vectordp` then settles every
(start, rotation) pair and picks the lengths.
"""

from __future__ import annotations

from .alphabet import to_bytes


class RotationScreen:
    """Packed per-letter masks of all rotations of x, for threshold k."""

    def __init__(self, x: str | bytes, k: int):
        xb = to_bytes(x)
        m = len(xb)
        if m < 1:
            raise ValueError("pattern must be non-empty")
        if k < 0 or k >= m:
            raise ValueError("threshold must satisfy 0 <= k < len(pattern)")
        self.x, self.m, self.k = xb, m, k
        width = m + 1
        low = (1 << m) - 1
        ones = ((1 << (m * width)) - 1) // ((1 << width) - 1)  # bit 0 of every field
        self.mask = ones * low
        self.high = ones << (m - 1)
        t = m.bit_length()
        self.test = ones << t
        self.bias = ones * ((1 << t) - k - 1)
        self.start = ones * m
        # reversed rotation r is rev(x+x)[m-r : 2m-r]: one 2m-bit mask per
        # letter, shifted once per rotation
        doubled = (xb + xb)[::-1]
        spread: dict[int, int] = {}
        for j, ch in enumerate(doubled):
            spread[ch] = spread.get(ch, 0) | (1 << j)
        self.peq = [0] * 256
        for ch, bits in spread.items():
            packed = 0
            for r in range(m - 1, -1, -1):
                packed = (packed << width) | ((bits >> (m - r)) & low)
            self.peq[ch] = packed

    def hit(self, data: bytes, starts: int) -> bool:
        """True when some rotation is within k of a factor of data that
        starts before position `starts`."""
        peq, mask, high, shift = self.peq, self.mask, self.high, self.m - 1
        test, bias = self.test, self.bias
        vp, vn, score = mask, 0, self.start
        first_test = len(data) - starts
        for i, ch in enumerate(reversed(data)):
            x = peq[ch] | vn
            d0 = ((((x & vp) + vp) & mask) ^ vp) | x
            hp = vn | ((d0 | vp) ^ mask)
            hn = vp & d0
            score += ((hp & high) - (hn & high)) >> shift
            hps = hp << 1
            vn = hps & d0
            vp = ((hn << 1) | ((d0 | hps) ^ mask)) & mask
            if i >= first_test and (score + bias) & test != test:
                return True
        return False
