"""Exact integer group-algebra arithmetic.

Elements are dense coefficient vectors over a finite group, with Python
integers throughout: every identity certified downstream is an exact
equality, never a floating-point comparison.  Python integers are
arbitrary precision, so products can never silently wrap.
"""
from __future__ import annotations

from typing import Iterable, List, Sequence

from .groups import IDENTITY, FiniteGroup


class AlgebraError(ValueError):
    pass


class AlgebraElement:
    """Integer-coefficient element of the group algebra of a finite group."""

    __slots__ = ("group", "coeffs")

    def __init__(self, group: FiniteGroup, coeffs: Sequence[int]):
        if len(coeffs) != group.order:
            raise AlgebraError(
                f"coefficient vector length {len(coeffs)} != group order {group.order}"
            )
        self.group = group
        self.coeffs: List[int] = [int(c) for c in coeffs]

    def _check_same_group(self, other: "AlgebraElement") -> None:
        if self.group is not other.group:
            raise AlgebraError("elements belong to different groups")

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check_same_group(other)
        return AlgebraElement(
            self.group, [a + b for a, b in zip(self.coeffs, other.coeffs)]
        )

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check_same_group(other)
        return AlgebraElement(
            self.group, [a - b for a, b in zip(self.coeffs, other.coeffs)]
        )

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement(self.group, [-a for a in self.coeffs])

    def __rmul__(self, scalar: int) -> "AlgebraElement":
        if not isinstance(scalar, int):
            return NotImplemented
        return AlgebraElement(self.group, [scalar * a for a in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            return convolve(self, other)
        if isinstance(other, int):
            return AlgebraElement(self.group, [other * a for a in self.coeffs])
        return NotImplemented

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, AlgebraElement)
            and self.group is other.group
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((id(self.group), tuple(self.coeffs)))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def identity_coefficient(self) -> int:
        return self.coeffs[IDENTITY]

    def support(self) -> List[int]:
        return [g for g, c in enumerate(self.coeffs) if c]

    def star(self) -> "AlgebraElement":
        """Coefficientwise pullback along inversion: star(x)[g] = x[g^-1]."""
        inv = self.group.inv
        return AlgebraElement(self.group, [self.coeffs[inv(g)] for g in self.group.elements()])

    def __repr__(self) -> str:
        terms = [
            f"{c}*{self.group.element_name(g)}" for g, c in enumerate(self.coeffs) if c
        ]
        return " + ".join(terms) if terms else "0"


def unit(group: FiniteGroup) -> AlgebraElement:
    coeffs = [0] * group.order
    coeffs[IDENTITY] = 1
    return AlgebraElement(group, coeffs)


def from_set(group: FiniteGroup, indices: Iterable[int]) -> AlgebraElement:
    """0/1 indicator of a subset; duplicate indices are rejected."""
    coeffs = [0] * group.order
    for i in indices:
        i = int(i)
        if not (0 <= i < group.order):
            raise AlgebraError(f"element index {i} out of range")
        if coeffs[i]:
            raise AlgebraError(f"duplicate element index {i}")
        coeffs[i] = 1
    return AlgebraElement(group, coeffs)


def full_sum(group: FiniteGroup) -> AlgebraElement:
    return AlgebraElement(group, [1] * group.order)


def convolve(x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    """(x*y)[g] = sum over ab=g of x[a] y[b], exactly."""
    x._check_same_group(y)
    group = x.group
    table = group.table
    out = [0] * group.order
    ys = [(b, yb) for b, yb in enumerate(y.coeffs) if yb]
    for a, xa in enumerate(x.coeffs):
        if not xa:
            continue
        row = table[a]
        if xa == 1:
            for b, yb in ys:
                out[row[b]] += yb
        else:
            for b, yb in ys:
                out[row[b]] += xa * yb
    return AlgebraElement(group, out)


def regular_matrix(x: AlgebraElement) -> List[List[int]]:
    """Matrix of x in the regular representation: M[a][b] = x[a b^-1]."""
    coeffs, inv = x.coeffs, x.group._inv
    return [[coeffs[row[bi]] for bi in inv] for row in x.group.table]
