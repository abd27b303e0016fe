"""Finite alphabets and letter ranks."""

from __future__ import annotations

from typing import NamedTuple


class AlphabetError(ValueError):
    pass


def to_bytes(s: str | bytes | bytearray) -> bytes:
    """Canonical byte form of a letter sequence (latin-1 for str input)."""
    if isinstance(s, str):
        return s.encode("latin-1")
    return bytes(s)


class Alphabet(NamedTuple("Alphabet", [("letters", bytes)])):
    """Ordered set of distinct byte values with ranks assigned in order.

    Alphabets with the same letters in the same order are equal and hash
    alike.
    """

    __slots__ = ()

    def __new__(cls, letters: bytes):
        if len(letters) == 0:
            raise AlphabetError("alphabet must not be empty")
        if len(set(letters)) != len(letters):
            raise AlphabetError("duplicate letter in alphabet")
        if len(letters) > 255:
            raise AlphabetError("alphabets larger than 255 letters are not supported")
        return super().__new__(cls, letters)

    @property
    def size(self) -> int:
        return len(self.letters)

    def rank(self, letter: int | str | bytes) -> int | None:
        """Rank of a letter, or None for a foreign letter."""
        r = self.letters.find(to_bytes(letter) if isinstance(letter, str) else letter)
        return None if r < 0 else r


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
