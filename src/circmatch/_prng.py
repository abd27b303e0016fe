"""Deterministic pseudo-random generation used by the benchmark driver.

The generator is splitmix64 in its stateless form: output i of stream s
seeded with x is

    out(x, s, i) = mix64(x + s*0xD1B54A32D192ED03 + (i+1)*0x9E3779B97F4A7C15)

where mix64 is the standard splitmix64 finalizer.  Everything is mod 2**64.
The formula is spelled out so that tables can be reproduced outside Python;
here it is computed one output at a time with Python ints, so the driver
needs only the standard library.
"""

from __future__ import annotations

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_STREAM = 0xD1B54A32D192ED03
_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB


def mix64(z: int) -> int:
    """splitmix64 finalizer of a 64-bit state."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * _M1) & _MASK
    z = ((z ^ (z >> 27)) * _M2) & _MASK
    return z ^ (z >> 31)


def splitmix64_at(seed: int, stream: int, i: int) -> int:
    """The i-th 64-bit output (i >= 0) of the given seed/stream pair."""
    return mix64(seed + stream * _STREAM + (i + 1) * _GOLDEN)


def random_letters(seed: int, stream: int, count: int, sigma: int) -> bytes:
    """count letters drawn from an alphabet of byte values 0..sigma-1:
    letter i is splitmix64_at(seed, stream, i) % sigma.

    The modulo bias is below sigma/2**64 and irrelevant for benchmarking
    purposes.
    """
    base = seed + stream * _STREAM
    return bytes(mix64(base + i * _GOLDEN) % sigma for i in range(1, count + 1))
