"""Finite alphabets, letter ranks, and the q-gram <-> integer encoding."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field


class AlphabetError(ValueError):
    pass


def to_bytes(s: str | bytes | bytearray) -> bytes:
    """Canonical byte form of a letter sequence (latin-1 for str input)."""
    if isinstance(s, str):
        return s.encode("latin-1")
    return bytes(s)


FOREIGN = 0xFF  # rank of a letter outside the alphabet in rank_table()


@dataclass(frozen=True)
class Alphabet:
    """Ordered set of distinct byte values with ranks assigned in order.

    Immutable once constructed; safe to share between threads.
    """

    letters: bytes
    _ranks: bytes = field(repr=False, compare=False, default=b"")

    def __post_init__(self):
        if len(self.letters) == 0:
            raise AlphabetError("alphabet must not be empty")
        if len(set(self.letters)) != len(self.letters):
            raise AlphabetError("duplicate letter in alphabet")
        if len(self.letters) < 2:
            raise AlphabetError("alphabet needs at least two letters")
        if len(self.letters) > 255:
            raise AlphabetError("alphabets larger than 255 letters are not supported")
        table = bytearray([FOREIGN]) * 256
        for r, ch in enumerate(self.letters):
            table[ch] = r
        object.__setattr__(self, "_ranks", bytes(table))

    @property
    def size(self) -> int:
        return len(self.letters)

    def rank(self, letter: int | str | bytes) -> int | None:
        """Rank of a letter, or None for a foreign letter."""
        if isinstance(letter, (str, bytes)):
            letter = to_bytes(letter)[0]
        r = self._ranks[letter]
        return None if r == FOREIGN else r

    def unrank(self, r: int) -> int:
        return self.letters[r]

    def rank_table(self) -> bytes:
        """256-entry rank lookup table, 0xFF marking foreign bytes."""
        return self._ranks


def build_alphabet(spec: str | bytes, data: tuple = ()) -> Alphabet:
    """Build an alphabet from a preset name or an explicit letter list.

    Presets: "dna" is ACGT; "auto" is the sorted distinct letters of the
    sequences passed in `data`.  Anything else is taken as the letter list
    itself, ranks assigned in list order.
    """
    if spec == "dna":
        return Alphabet(b"ACGT")
    if spec == "auto":
        seen = set()
        for seq in data:
            seen.update(to_bytes(seq))
        if not seen:
            raise AlphabetError("auto alphabet needs at least one sequence")
        return Alphabet(bytes(sorted(seen)))
    return Alphabet(to_bytes(spec))


def encode_qgram(gram: str | bytes, a: Alphabet) -> int | None:
    """Big-endian base-sigma value of a q-gram, or None if any letter is
    foreign (the caller decides the policy for unencodable grams)."""
    g = to_bytes(gram)
    sigma = a.size
    ranks = a._ranks
    code = 0
    for ch in g:
        r = ranks[ch]
        if r == FOREIGN:
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
