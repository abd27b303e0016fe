"""Q-gram index: minimum edit distance from every q-gram to the factors
of the doubled pattern.

The doubled pattern x + x[:-1] contains every rotation of x as a factor.
The index table M holds, for each of the sigma^q grams, the minimum edit
distance to any factor of it, the empty factor included, so entries never
exceed q.  M[code] then lower-bounds the distance between that gram and
anything inside any rotation, which is what makes discarding windows on
summed lookups safe.

The builder need not read all 2m - 1 letters of x + x[:-1].  Take a
shortest factor f at the least distance d < q and an optimal alignment of
g with f.  Neither end letter of f is inserted, since dropping it would
cost one less, so each letter of f is aligned to a gram letter or
inserted between two.  Cut the alignment just before gram letter j
(0 < j < q): deleting g[:j] and keeping the rest aligns g with a shorter
factor, or with f itself if the front part holds no letter of f, at cost
j + d - c, where c is the cost of the front part; so c < j or the front
part is only deletions, and either way it holds fewer than j inserted
letters.  Likewise the part after gram letter q - 1 - j.  With j = 1 in
front and j = q - 2 at the back (q >= 3) the two parts cover every gap
between gram letters, so at most q - 3 letters of f are inserted (none
for q <= 2), and |f| <= L = max(q, 2q - 3).  A factor of x + x[:-1] that
short which starts in its second copy of x also occurs in x, so every one
occurs in x + x[:min(m, L) - 1], and the build reads m + min(m, L) - 1
letters instead of 2m - 1.  The bound is tight: one letter fewer loses
the factor x[m-1] + x[:L-1], which can be the only one at the least
distance (tests/test_qgramindex.py has a case for q = 2, 3 and 4).

Reversing both strings keeps every distance, so the builder reads that
text reversed, xr of n letters, and each gram from its last letter.  For
a gram suffix s, D_s[j] is the least distance from s reversed to a factor
of xr ending after its first j letters, E(s) = min D_s, and a letter c
put in front gives D_cs[0] = |s| + 1 and, for j >= 1,

  D_cs[j] = min(D_s[j-1] + [xr[j-1] != c], D_s[j] + 1, D_cs[j-1] + 1).

A trie node at level i is a suffix of i letters, coded with its first
letter most significant, so level i is sigma blocks of level i - 1, one
per letter in order.  For each t < i it keeps a lane of w >= n + 2 bits,
whole bytes, holding the columns j with D_s[j] <= t (Wu & Manber, CACM
1992); for t >= i that is every column.  With P level i - 1 replicated
sigma times, one int a threshold,

  child[t] = (((P[t] & N) | ((P[t-1] | child[t-1]) & R)) << 1) | P[t-1]

where N marks the columns j with xr[j] == c in letter c's block and R the
columns below n: a match, a substitution or an inserted text letter
moves a column on, a deleted gram letter keeps it.

The first gram letter needs no lanes: E(cs) = E(s) if xr[j] == c at a
least column j of s (D_s[j] = E(s)), else E(s) + 1.  Deleting c costs
one, and by induction on j every term of the recurrence is at least E(s)
with only a match able to equal it: a gram reaches its suffix's distance
only through a match at one of the suffix's least columns.  So level
q - 1 gives every entry: per node, its first nonempty lane (or every
column) meets each letter's N, a carry flags a hit, and each entry sits
in its lane's low byte, which one bytes slice reads out.

A pass holds at most PASS_BITS bits an int: above that, each pass fixes
the grams' last d letters, the least d that fits, and so the trie node v
at depth d, and writes entries[v::sigma**d].
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import os
import sys
from typing import NamedTuple

from .alphabet import Alphabet, AlphabetError, to_bytes

# the builtin SHA-256: hashlib would load OpenSSL, about 3.5 MB resident,
# for the digest of one short pattern.  The version picks the module, as a
# failed import searches the whole path.
try:
    if sys.version_info >= (3, 12):
        from _sha2 import sha256
    else:
        from _sha256 import sha256
except ImportError:  # an interpreter built without the builtin hashes
    from hashlib import sha256

# the layout of a cache file; a builder that writes other entries for some
# (pattern, q, alphabet) than the builders before it must change MAGIC, so
# that the files they wrote fail on it and are rebuilt
MAGIC = b"CIRCIDX3"
DIGEST_LEN = 32
# the most entries an index may hold, read at each build and plan
MAX_ENTRIES = 1 << 26
# the most bits of an int in one pass of the builder; 32 KiB stays in cache
PASS_BITS = 1 << 18


class IndexBudgetError(MemoryError):
    """Raised when sigma^q exceeds MAX_ENTRIES."""


def pattern_digest(x: str | bytes) -> bytes:
    """SHA-256 of the pattern an index was built from."""
    return sha256(to_bytes(x)).digest()


class QGramIndex(NamedTuple):
    """`entries` holds sigma**q values in [0, q], indexed by gram code, and
    `digest` is the pattern_digest of the pattern."""

    q: int
    alphabet: Alphabet
    entries: bytes
    digest: bytes

    def __repr__(self) -> str:
        return (
            f"QGramIndex(q={self.q}, alphabet={self.alphabet!r}, "
            f"entries=<{len(self.entries)} bytes>, digest={self.digest.hex()})"
        )

    def to_bytes(self) -> bytes:
        """MAGIC, sigma, q, pattern digest, entries digest, letters,
        entries."""
        sigma = self.alphabet.size
        return (
            MAGIC
            + bytes([sigma, self.q])
            + self.digest
            + sha256(self.entries).digest()
            + self.alphabet.letters
            + self.entries
        )

    def save(self, path) -> None:
        """Write the file whole or not at all: into a new file beside
        `path`, renamed over it once written, so that a failed or killed
        run leaves an earlier file as it was and a reader never sees half
        of one.  The new file's name has a fixed length, so that any name
        `path` may have fits.  An OSError names `path`, not the new file."""
        tmp = os.path.join(
            os.path.dirname(os.fsdecode(path)), f".circidx-{os.urandom(6).hex()}.tmp"
        )
        try:
            with open(os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666), "wb") as fh:
                fh.write(self.to_bytes())
            os.replace(tmp, path)
        except BaseException as exc:
            with contextlib.suppress(OSError):  # the new file may not exist
                os.unlink(tmp)
            if isinstance(exc, OSError):
                raise OSError(exc.errno, exc.strerror, os.fspath(path)) from exc
            raise

    @classmethod
    def from_bytes(cls, blob: bytes) -> "QGramIndex":
        if not blob.startswith(MAGIC):
            raise ValueError("not an index file (bad magic)")
        off = len(MAGIC) + 2 + 2 * DIGEST_LEN
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
        if sha256(body).digest() != blob[off - DIGEST_LEN : off]:
            raise ValueError("index entries do not match their digest")
        digest = blob[off - 2 * DIGEST_LEN : off - DIGEST_LEN]
        return cls(q=q, alphabet=alphabet, entries=body, digest=digest)

    @classmethod
    def load(cls, path) -> "QGramIndex":
        with open(path, "rb") as fh:
            return cls.from_bytes(fh.read())


@functools.lru_cache(maxsize=8)
def half_tables(alphabet: Alphabet, q: int) -> tuple[dict[bytes, int], dict[bytes, int]]:
    """(left, right): the raw bytes of the first q // 2 letters of a gram
    -> their code times sigma^(q - q // 2), and the bytes of the other
    letters -> their code, so a gram's entry is entries[left + right]; a
    foreign letter is in neither.  They depend on (alphabet, q) alone, so
    every index of that alphabet and q shares them; the 8 most recently
    used pairs are kept."""
    h = q // 2
    return (
        _half_codes(alphabet.letters, h, alphabet.size ** (q - h)),
        _half_codes(alphabet.letters, q - h, 1),
    )


def _half_codes(letters: bytes, length: int, scale: int) -> dict[bytes, int]:
    """Every string of `length` letters -> its big-endian code times scale;
    product enumerates them in code order."""
    return {bytes(g): c * scale for c, g in enumerate(itertools.product(letters, repeat=length))}


def _repeat(v: int, period: int, count: int) -> int:
    """`count` copies of v, `period` bits apart, by shift-and-or doublings."""
    out, done = v, 1
    while 2 * done <= count:
        out |= out << (done * period)
        done *= 2
    if done < count:
        out |= _repeat(v, period, count - done) << (done * period)
    return out


def _children(lanes: list[int], near: int, below: int, full: int, span: int, count: int):
    """The lanes of the level below, from `lanes` replicated `count` times,
    `span` bits apart: `near` is N, `below` is R, `full` every column."""
    out, prev, child = [], 0, 0
    for p in [*(_repeat(v, span, count) for v in lanes), full]:
        child = (((p & near) | ((prev | child) & below)) << 1) | prev
        out.append(child)
        prev = p
    return out


def build_index(x: str | bytes, q: int, a: Alphabet) -> QGramIndex:
    """Index of minimum distances from every q-gram to the factors of the
    doubled pattern, built level by level over the trie of gram suffixes.

    Requires 1 <= q < len(x) and sigma^q within MAX_ENTRIES.
    """
    xb = to_bytes(x)
    m = len(xb)
    if not 1 <= q < m:
        raise ValueError("need 1 <= q < len(pattern)")
    if q > 50:
        raise ValueError("index build supports q up to 50")
    sigma = a.size
    total = sigma**q
    if total > MAX_ENTRIES:
        raise IndexBudgetError(
            f"{sigma}^{q} = {total} index entries exceed the budget of {MAX_ENTRIES}"
        )
    # x and its first min(m, L) - 1 letters again, reversed, hold every
    # factor that can attain an entry, with L = max(q, 2q - 3)
    xr = (xb + xb[: min(m, max(q, 2 * q - 3)) - 1])[::-1]
    n = len(xr)
    w = (n + 9) // 8 * 8  # columns 0 .. n and a carry bit, in whole bytes
    col = (1 << (n + 1)) - 1  # every column of one lane
    near = dict.fromkeys(a.letters, 0)  # a letter outside the alphabet is in none
    for j, ch in enumerate(xr):
        if ch in near:
            near[ch] |= 1 << j
    d = 0
    while d < q - 1 and sigma ** (q - 1 - d) * w > PASS_BITS:
        d += 1
    # every pass shares the masks of levels d + 1 .. q - 1
    levels, nodes, full = [], 1, col
    for _ in range(d + 1, q):
        span = nodes * w
        block = sum(near[ch] << (b * span) for b, ch in enumerate(a.letters))
        near = {ch: _repeat(bits, span, sigma) for ch, bits in near.items()}
        nodes, full = nodes * sigma, _repeat(full, span, sigma)
        levels.append((block, (full >> 1) & full, full, span))
    ones = _repeat(1, w, nodes)
    top, low = ones << (w - 1), (ones << (w - 1)) - ones  # carry bits, the bits below
    entries = bytearray(total)
    for v, path in enumerate(itertools.product(a.letters, repeat=d)):
        lanes = []
        for ch in reversed(path):
            lanes = _children(lanes, near[ch] & col, col >> 1, col, w, 1)  # near's lane 0
        for level in levels:
            lanes = _children(lanes, *level, sigma)
        # least: each node's first nonempty lane; e: q + 1 less one per nonempty lane
        least, open_, e = 0, low, ones * (q + 1)
        for lane in [*lanes, full]:
            least |= lane & open_
            some = (lane + low) & top
            e -= some >> (w - 1)
            open_ = low ^ (some - (some >> (w - 1)))
        parts = []
        for ch in a.letters:
            hit = ((least & near[ch]) + low) & top
            parts.append((e - (hit >> (w - 1))).to_bytes(nodes * w // 8, "little")[:: w // 8])
        entries[v :: sigma**d] = b"".join(parts)
    return QGramIndex(q=q, alphabet=a, entries=bytes(entries), digest=pattern_digest(xb))
