"""Built-in example groups: the order-36 screening survivor and permutation groups.

Each is built by ``screen.table_group``, so importing this module loads
``screen``, the subgroup lattice and the table proof with it.
"""
from __future__ import annotations

from typing import List, Sequence, Tuple

from .groups import CayleyTableGroup
from .screen import table_group


def g36_1() -> CayleyTableGroup:
    """The order-36 group C9 x| C4 with the order-4 generator inverting c.

    Elements are c^i a^j, ordered by (i, j) with the identity first.  Setting
    b = a^2 and d = c^6 recovers the four-generator presentation this group
    is usually quoted with (c^3 = d^2, d^3 = 1, c^a = c^2 d, d^a = d^2, with
    b central of order 2).
    """

    def product(a: int, b: int) -> int:
        # c^i a^j c^i2 a^j2 = c^(i + (-1)^j i2) a^(j+j2), c^i a^j at index 4i + j
        (i, j), (i2, j2) = divmod(a, 4), divmod(b, 4)
        return (i + (-i2 if j % 2 else i2)) % 9 * 4 + (j + j2) % 4

    names = []
    for i in range(9):
        for j in range(4):
            part = []
            if i:
                part.append(f"c{i}" if i > 1 else "c")
            if j:
                part.append(f"a{j}" if j > 1 else "a")
            names.append("*".join(part) if part else "1")
    return table_group(36, product, names)


def permutation_table_group(generators: Sequence[Tuple[int, ...]]) -> CayleyTableGroup:
    """Closure of permutation generators as a table group, identity at index 0.

    Permutations are tuples p with p[i] = image of i; the element order is
    lexicographic, which puts the identity first.
    """
    degree = len(generators[0])
    ident = tuple(range(degree))
    elems = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for p in frontier:
            for g in generators:
                q = tuple(p[g[i]] for i in range(degree))
                if q not in elems:
                    elems.add(q)
                    nxt.append(q)
        frontier = nxt
    ordered: List[Tuple[int, ...]] = sorted(elems)
    index = {p: i for i, p in enumerate(ordered)}

    def product(a: int, b: int) -> int:
        p, q = ordered[a], ordered[b]
        return index[tuple(p[q[i]] for i in range(degree))]

    names = ["".join(str(x) for x in p) for p in ordered]
    return table_group(len(ordered), product, names)


def alternating_group_5() -> CayleyTableGroup:
    """A5 as a table group (order 60, simple)."""
    return permutation_table_group([(1, 2, 3, 4, 0), (1, 2, 0, 3, 4)])
