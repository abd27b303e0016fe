"""Finite alphabets and letter ranks."""

from __future__ import annotations

class AlphabetError(ValueError):
    pass


def to_bytes(s: str | bytes | bytearray) -> bytes:
    """Canonical byte form of a letter sequence (latin-1 for str input)."""
    if isinstance(s, str):
        return s.encode("latin-1")
    return bytes(s)


FOREIGN = 0xFF  # rank of a letter outside the alphabet in the rank table


class Alphabet:
    """Ordered set of distinct byte values with ranks assigned in order.

    Immutable once constructed; safe to share between threads.  Alphabets
    with the same letters in the same order are equal and hash alike.
    """

    def __init__(self, letters: bytes):
        if len(letters) == 0:
            raise AlphabetError("alphabet must not be empty")
        if len(set(letters)) != len(letters):
            raise AlphabetError("duplicate letter in alphabet")
        if len(letters) > 255:
            raise AlphabetError("alphabets larger than 255 letters are not supported")
        table = bytearray([FOREIGN]) * 256
        for r, ch in enumerate(letters):
            table[ch] = r
        self.__dict__.update(letters=letters, _ranks=bytes(table))

    def __setattr__(self, name, value):
        raise AttributeError(f"Alphabet is immutable; cannot set {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.letters == other.letters

    def __hash__(self) -> int:
        return hash(self.letters)

    def __repr__(self) -> str:
        return f"Alphabet(letters={self.letters!r})"

    @property
    def size(self) -> int:
        return len(self.letters)

    def rank(self, letter: int | str | bytes) -> int | None:
        """Rank of a letter, or None for a foreign letter."""
        if isinstance(letter, (str, bytes)):
            letter = to_bytes(letter)[0]
        r = self._ranks[letter]
        return None if r == FOREIGN else r


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
