"""Q-gram index: minimum edit distance from every q-gram to the factors
of the doubled pattern.

The doubled pattern x + x[:-1] contains every rotation of x as a factor.
The index table M holds, for each of the sigma^q grams, the minimum edit
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


def _grow(rows: np.ndarray, level: int, depth: int, mism: np.ndarray) -> np.ndarray:
    """DP rows of the trie nodes `depth` levels below the nodes `rows` at
    `level`; the children of node p are p*sigma .. p*sigma + sigma - 1."""
    import numpy as np  # already loaded by build_index, the only caller

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
    # imported here: numpy takes about 0.1 s to load, which runs that
    # never build an index should not pay
    import numpy as np

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
    ).tobytes()
    return QGramIndex(q=q, alphabet=a, entries=entries, digest=pattern_digest(xb))
