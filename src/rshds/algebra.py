"""Exact integer group-algebra arithmetic, as much of it as certification uses.

Elements are dense coefficient vectors over a finite group, with Python
integers throughout: every identity certified downstream is an exact
equality, never a floating-point comparison.  Python integers are
arbitrary precision, so products can never silently wrap.  An element
offers its support and its star (the pullback along inversion); the
operations are the indicator of a set and the convolution product.  Sums
and scalar multiples have no operators here: ``certify`` forms them on
class coordinates, after reading the class products off convolutions.
"""
from __future__ import annotations

from typing import Iterable, List, Sequence

from .groups import FiniteGroup, _index_set, _indices


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
        self.coeffs: List[int] = _indices(coeffs, error=AlgebraError)

    def _check_same_group(self, other: "AlgebraElement") -> None:
        if self.group is not other.group:
            raise AlgebraError("elements belong to different groups")

    def support(self) -> List[int]:
        return [g for g, c in enumerate(self.coeffs) if c]

    def star(self) -> "AlgebraElement":
        """Coefficientwise pullback along inversion: star(x)[g] = x[g^-1]."""
        inv = self.group.inv
        return AlgebraElement(self.group, [self.coeffs[inv(g)] for g in range(self.group.order)])


def from_set(group: FiniteGroup, indices: Iterable[int]) -> AlgebraElement:
    """0/1 indicator of a subset, given as element indices by the rule of ``groups._index_set``."""
    coeffs = [0] * group.order
    for i in _index_set(indices, group.order, AlgebraError):
        coeffs[i] = 1
    return AlgebraElement(group, coeffs)


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
