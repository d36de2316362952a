"""GF(2) vectors, their dot product, and the two pairing involutions behind the constructions.

A vector of F_2^n is an int in range(2^n) read as a bitmask: bit n-1 holds
the first coordinate and bit 0 the last, so numeric order is lexicographic
order on coordinate tuples.  The sum of two vectors is ``u ^ v`` and the
zero vector is ``0``.
"""
from __future__ import annotations


def dot(u: int, v: int) -> int:
    """Standard dot product with values in GF(2)."""
    return (u & v).bit_count() & 1


def _require_nonzero(v: int, n: int) -> None:
    if not 0 < v < 1 << n:
        raise ValueError(f"{v} is not a nonzero vector of dimension {n}")


def nonorthogonal_mate(v: int, n: int) -> int:
    """Involution on nonzero vectors with dot(v, mate(v)) = 1.

    mate(v) flips every coordinate before the last 1 of v, that is every bit
    above its lowest set bit; the lowest set bit stays, which makes the map
    self-inverse.
    """
    _require_nonzero(v, n)
    return v ^ (((1 << n) - 1) & -((v & -v) << 1))


def orthogonal_mate(v: int, n: int) -> int:
    """Involution on nonzero vectors of dimension n >= 2 with dot(v, mate(v)) = 0.

    For even n this is v -> allones ^ v with the all-ones vector fixed.  For
    odd n the same rule applies off a six-element exceptional set (closed
    under complement) on which the pairing is spelled out: 11..1 <-> 110..0,
    10..0 <-> 00..01..1 (two leading zeros), and 01..1 fixed.
    """
    if n < 2:
        raise ValueError("orthogonal mate requires dimension >= 2")
    _require_nonzero(v, n)
    full = (1 << n) - 1
    if n % 2 == 0:
        swaps = {full: full}
    else:
        head1, head11 = 1 << (n - 1), 3 << (n - 2)
        swaps = {full: head11, head11: full, head1: full >> 2, full >> 2: head1, full >> 1: full >> 1}
    return swaps.get(v, full ^ v)
