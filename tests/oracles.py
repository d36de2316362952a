"""Independent brute-force oracles used to cross-check the library.

Nothing here goes through the algebra or certificate code paths: tallies are
naive double loops, counts come from closed formulas computed on the spot.
"""
from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from rshds.groups import IDENTITY, FiniteGroup

Word = Tuple[Tuple[int, ...], Tuple[int, ...]]


def word_mul(n: int, k: int, w1: Word, w2: Word) -> Word:
    """Product of two gnk:n,k normal-form words (e, f), one coordinate at a time.

    In 0-based coordinates the f-part is f1 + f2, plus coordinate j - 1 for
    every 1 <= j <= k with e1_j = e2_0 = 1 (the twist), plus coordinate
    (i + k) mod n for every i with e1_i = e2_i = 1 (the squares).
    """
    (e1, f1), (e2, f2) = w1, w2
    c = [x ^ y for x, y in zip(f1, f2)]
    if e2[0]:
        for j in range(1, k + 1):
            if e1[j]:
                c[j - 1] ^= 1
    for i in range(n):
        if e1[i] and e2[i]:
            c[(i + k) % n] ^= 1
    return (tuple(x ^ y for x, y in zip(e1, e2)), tuple(c))


def bits(v: int, n: int) -> Tuple[int, ...]:
    """Coordinate tuple of the n-bit vector v, first coordinate (bit n-1) first."""
    return tuple((v >> (n - 1 - i)) & 1 for i in range(n))


def from_bits(coords: Sequence[int]) -> int:
    """The bitmask of a 0/1 coordinate tuple: the inverse of ``bits``."""
    v = 0
    for b in coords:
        v = (v << 1) | b
    return v


def gnk_word(n: int, a: int) -> Word:
    """The normal-form word (e, f) of the gnk:n,k element with index a."""
    return bits(a >> n, n), bits(a, n)


def gnk_index(n: int, word: Word) -> int:
    e, f = word
    return (from_bits(e) << n) | from_bits(f)


def c4n_word(n: int, a: int) -> Tuple[int, ...]:
    """The C4^n word e + 2f, coordinates in 0..3, of the element with index a."""
    return tuple(x + 2 * y for x, y in zip(*gnk_word(n, a)))


def c4n_index(word: Sequence[int]) -> int:
    return gnk_index(len(word), (tuple(x % 2 for x in word), tuple(x // 2 for x in word)))


def naive_difference_tally(group: FiniteGroup, elements: Sequence[int]) -> Dict[int, int]:
    """Multiset {x y^-1 : x, y in D} tallied by two explicit loops."""
    counts: Dict[int, int] = {}
    elems = list(elements)
    for x in elems:
        for y in elems:
            g = group.mul(x, group.inv(y))
            counts[g] = counts.get(g, 0) + 1
    return counts


def naive_product_tally(
    group: FiniteGroup, left: Sequence[int], right: Sequence[int]
) -> Dict[int, int]:
    """Multiset {x y : x in A, y in B}."""
    counts: Dict[int, int] = {}
    for x in left:
        for y in right:
            g = group.mul(x, y)
            counts[g] = counts.get(g, 0) + 1
    return counts


def nonassociative_triple(table: Sequence[Sequence[int]]) -> Optional[Tuple[int, int, int]]:
    """First triple (a, b, c) with (ab)c != a(bc), by the O(n^3) loop, or None."""
    n = len(table)
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if table[table[a][b]][c] != table[a][table[b][c]]:
                    return (a, b, c)
    return None


def _closure(group: FiniteGroup, generators: Iterable[int]) -> FrozenSet[int]:
    table = group.table
    members = {IDENTITY}
    frontier = [IDENTITY]
    gens = set(generators)
    while frontier:
        frontier = [y for y in {table[x][g] for x in frontier for g in gens} if y not in members]
        members.update(frontier)
    return frozenset(members)


def subgroups_of_order_reference(group: FiniteGroup, m: int) -> List[Tuple[int, ...]]:
    """Sorted member tuples of all subgroups of order m, by plain layered closure.

    Every subgroup S met so far is extended by every element outside it, and
    closures whose order does not divide m are dropped: each subgroup of
    order m is reached through a chain of subgroups whose orders divide m.
    """
    seen = {frozenset({IDENTITY})}
    frontier = list(seen)
    while frontier:
        nxt = []
        for sub in frontier:
            if len(sub) == m:
                continue
            for g in range(group.order):
                if g in sub:
                    continue
                c = _closure(group, sub | {g})
                if m % len(c) == 0 and c not in seen:
                    seen.add(c)
                    nxt.append(c)
        frontier = nxt
    return sorted(tuple(sorted(s)) for s in seen if len(s) == m)


def gaussian_binomial(n: int, k: int, q: int) -> int:
    """Number of k-dimensional subspaces of an n-dimensional space over F_q."""
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (k - i) - 1
    assert num % den == 0
    return num // den


# A Latin square of order 5 with two-sided identity at 0 that is not a group:
# associativity fails, e.g. at the triple (1, 1, 2).
NONASSOCIATIVE_LOOP_5 = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 3, 4, 0, 1],
    [3, 4, 1, 2, 0],
    [4, 2, 0, 1, 3],
]
