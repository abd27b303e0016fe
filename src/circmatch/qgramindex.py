"""Q-gram index: minimum edit distance from every q-gram to the factors
of the doubled pattern.

The doubled pattern x + x[:-1] contains every rotation of x as a factor.
The index array M holds, for each of the sigma^q grams, the minimum edit
distance to any factor of it, the empty factor included, so entries never
exceed q.  M[code] then lower-bounds the distance between that gram and
anything inside any rotation, which is what makes discarding windows on
summed lookups safe.

A factor longer than 2q is more than q edits from a q-gram and so never
beats the empty factor; the entry is therefore the minimum of the last row
of the free-start DP of Sellers (1980) of the gram against the whole
doubled pattern.  The builder walks the prefix trie of all grams level by
level, one uint8 row of 2m cells per trie node, and advances all nodes of
a level with a few vectorized minima.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .alphabet import Alphabet, AlphabetError, encode_qgram, enumerate_qgrams, to_bytes
from .editcore import full_edit_distance

MAGIC = b"CIRCIDX2"
OLD_MAGIC = b"CIRCIDX1"
DIGEST_LEN = 32
DEFAULT_MAX_ENTRIES = 1 << 26
DEFAULT_MAX_WORK = 1 << 29


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
    entries: np.ndarray  # uint8, sigma**q values in [0, q]
    digest: bytes  # pattern_digest of the pattern

    def lookup(self, code: int) -> int:
        return int(self.entries[code])

    def __eq__(self, other):
        return (
            isinstance(other, QGramIndex)
            and self.q == other.q
            and self.alphabet == other.alphabet
            and self.digest == other.digest
            and np.array_equal(self.entries, other.entries)
        )

    def to_bytes(self) -> bytes:
        """MAGIC, sigma, q, pattern digest, letters, entries."""
        sigma = self.alphabet.size
        return (
            MAGIC
            + bytes([sigma, self.q])
            + self.digest
            + self.alphabet.letters
            + self.entries.tobytes()
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
        arr = np.frombuffer(body, dtype=np.uint8).copy()
        if arr.max() > q:
            raise ValueError(f"index file has an entry above q = {q}")
        return cls(q=q, alphabet=alphabet, entries=arr, digest=blob[off - DIGEST_LEN : off])

    @classmethod
    def load(cls, path) -> "QGramIndex":
        with open(path, "rb") as fh:
            return cls.from_bytes(fh.read())


def _grow(rows: np.ndarray, level: int, depth: int, mism: np.ndarray) -> np.ndarray:
    """DP rows of the trie nodes `depth` levels below the nodes `rows` at
    `level`; the children of node p are p*sigma .. p*sigma + sigma - 1."""
    sigma, w = len(mism), rows.shape[1]
    for i in range(level + 1, level + depth + 1):
        nxt = np.empty((len(rows), sigma, w), dtype=np.uint8)
        nxt[..., 0] = i
        np.minimum(rows[:, None, :-1] + mism, rows[:, None, 1:] + np.uint8(1), out=nxt[..., 1:])
        # min(D[j], D[j-1] + 1): cells are at most i, so chains shorter
        # than i suffice, and shifts 1, 2, 4, ... compose them
        s = 1
        while s < i:
            np.minimum(nxt[..., s:], nxt[..., :-s] + np.uint8(s), out=nxt[..., s:])
            s *= 2
        rows = nxt.reshape(-1, w)
    return rows


def build_index(
    x: str | bytes,
    q: int,
    a: Alphabet,
    max_entries: int = DEFAULT_MAX_ENTRIES,
    max_chunk_bytes: int = 48 << 20,
) -> QGramIndex:
    """Index of minimum distances from every q-gram to the factors of the
    doubled pattern.

    Requires 1 <= q < len(x) and sigma^q within the entry budget.  When the
    rows of the last trie level would exceed `max_chunk_bytes`, the top
    levels are built once and the subtree below each node of the shallowest
    depth that fits is finished in turn.
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
    xp = np.frombuffer(build_doubled(xb), dtype=np.uint8)
    mism = (xp != np.frombuffer(a.letters, dtype=np.uint8)[:, None]).view(np.uint8)
    row_bytes = 2 * (2 * m)  # a row of 2m cells and its share of one temporary
    depth = 0
    while depth < q and sigma ** (q - depth) * row_bytes > max_chunk_bytes:
        depth += 1
    # row 0 is all zero: an alignment may start anywhere in the pattern
    tops = _grow(np.zeros((1, 2 * m), dtype=np.uint8), 0, depth, mism)
    entries = np.concatenate(
        [_grow(top[None], depth, q - depth, mism).min(axis=1) for top in tops]
    )
    return QGramIndex(q=q, alphabet=a, entries=entries, digest=pattern_digest(xb))


def brute_force_index(x: str | bytes, q: int, a: Alphabet) -> QGramIndex:
    """Reference index by exhaustive enumeration: for every gram, the full
    DP distance to every factor of the doubled pattern of length 0..2q.

    Desk-scale only (sigma^q <= 4096, len(x) <= 32).
    """
    xb = to_bytes(x)
    m = len(xb)
    if q < 1 or m < 1:
        raise ValueError("need q >= 1 and a non-empty pattern")
    if a.size**q > 4096 or m > 32:
        raise ValueError("brute-force index is limited to sigma^q <= 4096, m <= 32")
    xp = build_doubled(xb)
    factors = {b""}
    for i in range(len(xp)):
        for length in range(1, 2 * q + 1):
            if i + length <= len(xp):
                factors.add(xp[i : i + length])
    factors = sorted(factors)
    entries = np.empty(a.size**q, dtype=np.uint8)
    for gram in enumerate_qgrams(a, q):
        best = q  # the empty factor
        for v in factors:
            d = full_edit_distance(gram, v).distance
            if d < best:
                best = d
                if best == 0:
                    break
        entries[encode_qgram(gram, a)] = best
    return QGramIndex(q=q, alphabet=a, entries=entries, digest=pattern_digest(xb))
