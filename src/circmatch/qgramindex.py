"""Q-gram index: minimum edit distance from every q-gram to the factors
of the doubled pattern.

The doubled pattern x + x[:-1] contains every rotation of x as a factor.
The index table M holds, for each of the sigma^q grams, the minimum edit
distance to any factor of it, the empty factor included, so entries never
exceed q.  M[code] then lower-bounds the distance between that gram and
anything inside any rotation, which is what makes discarding windows on
summed lookups safe.

A factor longer than 2q is more than q edits from a q-gram and so never
beats the empty factor; the entry is therefore the least score of a
free-start Myers search (J. ACM 1999) with the gram as the pattern and the
doubled pattern as the text, the score starting at q for the empty factor.
The builder runs that search for all grams at once, packed as in Hyyro,
Fredriksson & Navarro (JEA 2005), one step per letter of x + x[:-1]:

  * gram code g is field g of q + 1 bits; bit i holds letter i of the gram
    and the top bit is a guard, which stops carries and shifts at the field;
  * 0 is shifted into hp, so an alignment may start at any letter;
  * a second packed int keeps each field's least score so far.  With its
    guard bits set, subtracting the scores leaves a guard bit exactly where
    the least score is not below the new one, and that bit selects the
    field's low bits for replacement;
  * the entries are read out as bit planes of a binary string, one byte per
    field, with no Python loop per gram.

A pass packs at most FIELDS_PER_PASS grams: the grams sharing their first
letters, in code order, so memory stays bounded under a large q.

The scan looks a gram up by its two halves: the first q // 2 letters map
to their code times sigma^(q - q // 2), the rest to their code, so the
gram's entry is entries[left + right].  A half holding a letter outside
the alphabet is in neither table.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from .alphabet import Alphabet, AlphabetError, to_bytes

MAGIC = b"CIRCIDX2"
OLD_MAGIC = b"CIRCIDX1"
DIGEST_LEN = 32
DEFAULT_MAX_ENTRIES = 1 << 26
DEFAULT_MAX_WORK = 1 << 29
# grams packed into one pass of the builder; its ints are at most
# FIELDS_PER_PASS * (q + 1) bits whatever q is
FIELDS_PER_PASS = 1 << 16


class IndexBudgetError(MemoryError):
    """Raised when sigma^q does not fit the configured budget."""

    def __init__(self, message: str, required: int):
        super().__init__(message)
        self.required = required


def build_doubled(x: str | bytes) -> bytes:
    """x concatenated with x[:-1]; every rotation of x occurs inside it."""
    xb = to_bytes(x)
    if len(xb) < 1:
        raise ValueError("pattern must be non-empty")
    return xb + xb[:-1]


def pattern_digest(x: str | bytes) -> bytes:
    """SHA-256 of the pattern an index was built from."""
    # imported here: hashlib loads OpenSSL, about 3.5 MB resident, which
    # runs that never build or load an index should not pay
    import hashlib

    return hashlib.sha256(to_bytes(x)).digest()


@dataclass
class QGramIndex:
    q: int
    alphabet: Alphabet
    entries: bytes  # sigma**q values in [0, q], indexed by gram code
    digest: bytes  # pattern_digest of the pattern

    @functools.cached_property
    def halves(self) -> tuple[dict[bytes, int], dict[bytes, int]]:
        """(left, right): the raw bytes of the first q // 2 letters of a
        gram -> their code times sigma^(q - q // 2), and the bytes of the
        other letters -> their code.  Built on first use, once per index."""
        h = self.q // 2
        return (
            _half_codes(self.alphabet.letters, h, self.alphabet.size ** (self.q - h)),
            _half_codes(self.alphabet.letters, self.q - h, 1),
        )

    def to_bytes(self) -> bytes:
        """MAGIC, sigma, q, pattern digest, letters, entries."""
        sigma = self.alphabet.size
        return (
            MAGIC
            + bytes([sigma, self.q])
            + self.digest
            + self.alphabet.letters
            + self.entries
        )

    def save(self, path) -> None:
        with open(path, "wb") as fh:
            fh.write(self.to_bytes())

    @classmethod
    def from_bytes(cls, blob: bytes) -> "QGramIndex":
        if blob.startswith(OLD_MAGIC):
            raise ValueError(
                "index file has the old CIRCIDX1 layout without a pattern digest; "
                "delete it so that it is rebuilt"
            )
        if not blob.startswith(MAGIC):
            raise ValueError("not an index file (bad magic)")
        off = len(MAGIC) + 2 + DIGEST_LEN
        if len(blob) < off or len(blob) < off + blob[len(MAGIC)]:
            raise ValueError("index file header is truncated")
        sigma, q = blob[len(MAGIC)], blob[len(MAGIC) + 1]
        if q < 1:
            raise ValueError("index file has q = 0")
        try:
            alphabet = Alphabet(blob[off : off + sigma])
        except AlphabetError as exc:
            raise ValueError(f"index file has bad letters: {exc}") from None
        body = blob[off + sigma :]
        if len(body) != sigma**q:
            raise ValueError(f"index body has {len(body)} entries, expected {sigma**q}")
        if body.translate(None, bytes(range(q + 1))):
            raise ValueError(f"index file has an entry above q = {q}")
        return cls(q=q, alphabet=alphabet, entries=body, digest=blob[off - DIGEST_LEN : off])

    @classmethod
    def load(cls, path) -> "QGramIndex":
        with open(path, "rb") as fh:
            return cls.from_bytes(fh.read())


def _half_codes(letters: bytes, length: int, scale: int) -> dict[bytes, int]:
    """Every string of `length` letters -> its big-endian code times scale;
    product enumerates them in code order."""
    return {bytes(g): c * scale for c, g in enumerate(itertools.product(letters, repeat=length))}


def _repeat(v: int, period: int, count: int) -> int:
    """`count` copies of v, `period` bits apart, by shift-and-or doublings."""
    out = pos = 0
    while count:
        if count & 1:
            out |= v << pos
            pos += period
        v |= v << period
        period *= 2
        count >>= 1
    return out


_BITS = bytes.maketrans(b"01", b"\x00\x01")  # a binary string's digits as bytes 0 and 1


def _least_scores(xp: bytes, peq: list[int], ones: int, q: int, fields: int) -> bytes:
    """One free-start Myers pass over xp with a gram in each field: the
    least score of every field, one byte per field."""
    w = q + 1
    mask = ones * ((1 << q) - 1)
    high, guard, shift = ones << (q - 1), ones << q, q - 1
    vp, vn = mask, 0
    score = ones * q  # the empty factor
    best = score | guard  # the least scores so far, guard bits kept set
    for ch in xp:
        x = peq[ch] | vn
        d0 = ((((x & vp) + vp) & mask) ^ vp) | x
        hp = vn | ((d0 | vp) ^ mask)
        hn = vp & d0
        score += ((hp & high) - (hn & high)) >> shift
        hps = hp << 1  # 0 shifted in: an alignment may start anywhere
        vn = hps & d0
        vp = ((hn << 1) | ((d0 | hps) ^ mask)) & mask
        # a field keeps its guard bit where best >= score, and then takes
        # the score through the low bits g - (g >> q)
        g = (best - score) & guard
        best ^= (best ^ score) & (g - (g >> q))
    # bit b of field f is bits[f * w + b]; the entries are at most q, so the
    # planes up to q.bit_length() add up to one byte per field
    bits = format(best ^ guard, f"0{fields * w}b").encode().translate(_BITS)[::-1]
    total = 0
    for b in range(q.bit_length()):
        total += int.from_bytes(bits[b::w], "little") << b
    return total.to_bytes(fields, "little")


def build_index(
    x: str | bytes, q: int, a: Alphabet, max_entries: int = DEFAULT_MAX_ENTRIES
) -> QGramIndex:
    """Index of minimum distances from every q-gram to the factors of the
    doubled pattern.

    Requires 1 <= q < len(x) and sigma^q within the entry budget.
    """
    xb = to_bytes(x)
    m = len(xb)
    if not 1 <= q < m:
        raise ValueError("need 1 <= q < len(pattern)")
    if q > 50:
        raise ValueError("index build supports q up to 50")
    sigma = a.size
    total = sigma**q
    if total > max_entries:
        raise IndexBudgetError(
            f"{sigma}^{q} = {total} index entries exceed the budget of {max_entries}",
            required=total,
        )
    xp = build_doubled(xb)
    # a pass packs the sigma^j grams that share their first q - j letters
    j = 0
    while j < q and sigma ** (j + 1) <= FIELDS_PER_PASS:
        j += 1
    fields, lead, w = sigma**j, q - j, q + 1
    ones = _repeat(1, w, fields)  # bit 0 of every field
    # tail[ch]: bit i of every field whose letter i (i >= lead) is ch.  Letter
    # i stays the same over runs of sigma^(q-1-i) fields; `first` marks the
    # runs of the alphabet's first letter, and those of the d-th start d
    # runs later
    tail = dict.fromkeys(a.letters, 0)
    for i in range(lead, q):
        run = sigma ** (q - 1 - i)
        first = _repeat(_repeat(1 << i, w, run), sigma * run * w, sigma ** (i - lead))
        for d, ch in enumerate(a.letters):
            tail[ch] |= first << (d * run * w)
    parts = []
    for prefix in itertools.product(a.letters, repeat=lead):
        peq = [0] * 256  # a letter outside the alphabet matches no gram
        for ch, bits in tail.items():
            peq[ch] = bits
        for i, ch in enumerate(prefix):
            peq[ch] |= ones << i
        parts.append(_least_scores(xp, peq, ones, q, fields))
    return QGramIndex(q=q, alphabet=a, entries=b"".join(parts), digest=pattern_digest(xb))
