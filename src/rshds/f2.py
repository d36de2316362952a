"""GF(2) vectors, hyperplanes, and the two pairing involutions behind the constructions.

Vectors are plain tuples of 0/1 ints; "lexicographic order" always means Python
tuple order on these tuples.
"""
from __future__ import annotations

from functools import lru_cache
from itertools import product
from typing import Iterator, Tuple

Vector = Tuple[int, ...]


def dot(u: Vector, v: Vector) -> int:
    """Standard dot product with values in GF(2)."""
    if len(u) != len(v):
        raise ValueError(f"dimension mismatch: {len(u)} vs {len(v)}")
    return sum(a & b for a, b in zip(u, v)) & 1


def xor(u: Vector, v: Vector) -> Vector:
    if len(u) != len(v):
        raise ValueError(f"dimension mismatch: {len(u)} vs {len(v)}")
    return tuple(a ^ b for a, b in zip(u, v))


def zero(n: int) -> Vector:
    return (0,) * n


def all_vectors(n: int) -> Iterator[Vector]:
    """All 2^n vectors in lexicographic order, starting at the zero vector."""
    return product((0, 1), repeat=n)


def nonzero_vectors(n: int) -> Iterator[Vector]:
    it = all_vectors(n)
    next(it)
    return it


def nonorthogonal_mate(v: Vector) -> Vector:
    """Involution on nonzero vectors with dot(v, mate(v)) = 1.

    mate(v) = p xor v where p has ones exactly in the positions before the
    last 1 of v; the position of the last 1 is preserved, which makes the map
    self-inverse.
    """
    if not any(v):
        raise ValueError("zero vector has no nonorthogonal mate")
    last = max(i for i, b in enumerate(v) if b)
    prefix = tuple(1 if i < last else 0 for i in range(len(v)))
    return xor(prefix, v)


def orthogonal_mate(v: Vector) -> Vector:
    """Involution on nonzero vectors of dimension >= 2 with dot(v, mate(v)) = 0.

    For even dimension this is v -> allones xor v with the all-ones vector
    fixed.  For odd dimension the same rule applies off a six-element
    exceptional set (closed under complement) on which the pairing is spelled
    out explicitly.
    """
    n = len(v)
    if n < 2:
        raise ValueError("orthogonal mate requires dimension >= 2")
    if not any(v):
        raise ValueError("zero vector has no orthogonal mate")
    allones = (1,) * n
    if n % 2 == 0:
        if v == allones:
            return allones
        return xor(allones, v)
    head1 = (1,) + (0,) * (n - 1)
    head11 = (1, 1) + (0,) * (n - 2)
    tail_from2 = (0,) + (1,) * (n - 1)
    tail_from3 = (0, 0) + (1,) * (n - 2)
    if v == allones:
        return head11
    if v == head11:
        return allones
    if v == head1:
        return tail_from3
    if v == tail_from3:
        return head1
    if v == tail_from2:
        return tail_from2
    return xor(allones, v)


@lru_cache(maxsize=None)
def hyperplane_members(normal: Vector) -> Tuple[Vector, ...]:
    """All 2^(n-1) vectors orthogonal to the given nonzero normal, in lex order."""
    if not any(normal):
        raise ValueError("hyperplane normal must be nonzero")
    return tuple(u for u in all_vectors(len(normal)) if dot(u, normal) == 0)


def gf2_rank(rows: list[int]) -> int:
    """Rank of a matrix given as a list of bitmask rows."""
    basis: dict[int, int] = {}
    for row in rows:
        cur = row
        while cur:
            lead = cur.bit_length() - 1
            if lead in basis:
                cur ^= basis[lead]
            else:
                basis[lead] = cur
                break
    return len(basis)


def square_map_nonsingular(n: int, k: int) -> bool:
    """Whether the GF(2) matrix behind the transversal-square map is invertible.

    The matrix is diag(0, I_k, 0) plus the (k+1)-fold cyclic coordinate shift;
    it is nonsingular exactly when k < n-1, which is what makes the squares of
    the 2^n transversal words pairwise distinct.
    """
    if n < 2:
        raise ValueError("dimension must be >= 2")
    if k < 0 or k > n - 1:
        raise ValueError(f"shift parameter {k} out of range 0..{n - 1}")
    rows = []
    for i in range(n):
        row = 0
        if 1 <= i <= k:
            row ^= 1 << i
        row ^= 1 << ((i - (k + 1)) % n)
        rows.append(row)
    return gf2_rank(rows) == n
