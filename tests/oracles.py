"""Independent brute-force oracles used to cross-check the library.

Nothing here goes through the algebra or certificate code paths: tallies are
naive double loops, counts come from closed formulas computed on the spot.
``exhaustive_search_reference`` is the search's first tally loop, one
counter per element, kept to pin the packed-tally search to the same tree
and, with ``full_tree``, to the sets of the walk with no symmetry;
``find_hyperplane_assignment_reference`` is the matching search with its
first two-branch partner test and its hyperplanes read back through the
inverted coordinate map, kept to pin the one-branch search and
``constructions._hyperplanes``;
``f2_coordinates_reference`` is the first bitmask loop that put F_2
coordinates on H, kept to pin the one F_p coordinatization;
``hadamard_reference`` is 2D - J entry by entry from ``mul`` and ``inv``,
kept to pin the one-pass sign rows of ``certify.hadamard_matrix``;
``table_refusal_reference`` applies the proof of a Cayley table one rule at
a time over the whole table, to pin the refusals of the byte pass;
``mcfarland_set`` and ``mcfarland_count`` build and count the hyperplane
sets D(w, c) of a twist group, a perfect-matching count the library does
not have; ``build_parser_reference`` is the argparse parser the CLI had
before its command table, kept to pin what ``cli._parse`` reads.
"""
from __future__ import annotations

import argparse
import itertools
import operator
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from rshds import cli, f2
from rshds.certify import CHECK_ORDER
from rshds.constructions import (
    DEFAULT_SEARCH_BUDGET,
    UNAIDED_SEARCH_LIMIT,
    BudgetExceededError,
    ConstructionError,
    DifferenceSetCandidate,
    SearchResult,
    _check_assignment_preconditions,
)
from rshds.groups import IDENTITY, FiniteGroup, Subgroup, cosets

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


def gnk_square(n: int, k: int, e: Tuple[int, ...]) -> Tuple[int, ...]:
    """s(e), the f-part of (e, 0)^2 in gnk:n,k, read from ``word_mul`` with no table."""
    zero = (0,) * n
    return word_mul(n, k, (e, zero), (e, zero))[1]


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


def mcfarland_set(n: int, w: Sequence[int], c: Sequence[int]) -> FrozenSet[int]:
    """D(w, c) = {(e, f) : e != 0, w(e).f = c(e)} as indices e * 2^n + f.

    ``w`` and ``c`` are read at the nonzero e: w(e) a nonzero vector of F_2^n
    as a bitmask, c(e) a bit.  D meets each nontrivial coset of H = {(0, f)}
    in an affine hyperplane, |H|/2 points.
    """
    m = 1 << n
    return frozenset((e << n) | f for e in range(1, m) for f in range(m)
                     if bin(w[e] & f).count("1") % 2 == c[e])


def mcfarland_count(n: int, k: int, skew: bool) -> int:
    """The skew (or, with ``skew=False``, self-inverse) sets D(w, c) of twist (n, k), w a bijection.

    With s(e) = (e, 0)^2 from ``gnk_square``, (e, f)^-1 = (e, f + s(e)), so
    D^-1 meets the coset e in {f : w(e).f = c(e) + w(e).s(e)}: D is skew
    exactly when w(e).s(e) = 1 at every e, and self-inverse exactly when it
    is 0 at every e.  Every c is allowed, so the count is 2^(2^n - 1)
    perm(M) with M[e][u] = [u.s(e) = 1] (skew) or [u.s(e) = 0] over the
    nonzero e and u.  perm(M), the perfect matchings of M, is a subset DP:
    ways[used] counts the matchings of the first |used| rows onto the
    columns in ``used``.
    """
    m = 1 << n
    squares = [from_bits(gnk_square(n, k, bits(e, n))) for e in range(1, m)]
    allowed = [[u - 1 for u in range(1, m) if bin(u & s).count("1") % 2 == skew]
               for s in squares]
    ways = [0] * (1 << (m - 1))
    ways[0] = 1
    for used, count in enumerate(ways):
        row = bin(used).count("1")
        if count and row < m - 1:
            for col in allowed[row]:
                if not used >> col & 1:
                    ways[used | 1 << col] += count
    return 2 ** (m - 1) * ways[-1]


def naive_difference_tally(group: FiniteGroup, elements: Sequence[int]) -> Dict[int, int]:
    """Multiset {x y^-1 : x, y in D} tallied by two explicit loops."""
    counts: Dict[int, int] = {}
    elems = list(elements)
    for x in elems:
        for y in elems:
            g = group.mul(x, group.inv(y))
            counts[g] = counts.get(g, 0) + 1
    return counts


def hadamard_reference(group: FiniteGroup, elements: Sequence[int]) -> List[List[int]]:
    """2D - J by its definition: entry (a, b) is +1 when a b^-1 lies in D, else -1."""
    dset = set(elements)
    return [
        [1 if group.mul(a, group.inv(b)) in dset else -1 for b in range(group.order)]
        for a in range(group.order)
    ]


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


def class_products_reference(
    group: FiniteGroup, sub: Subgroup, elements: Sequence[int]
) -> Optional[Tuple[Tuple[Tuple[int, int, int, int], ...], ...]]:
    """All 16 products of the classes {1, H-1, D, D^-1}, each by a naive tally.

    Entry [i][j] is class_i * class_j expanded onto the four classes, or the
    whole result is None when some product is not constant on every class
    or is nonzero outside their union.
    """
    d = list(elements)
    classes = (
        [IDENTITY],
        [s for s in sub.members if s != IDENTITY],
        d,
        [group.inv(x) for x in d],
    )
    covered = set().union(*classes)
    rows = []
    for left in classes:
        row = []
        for right in classes:
            tally = naive_product_tally(group, left, right)
            if any(tally[g] for g in tally if g not in covered):
                return None
            coords = []
            for members in classes:
                values = {tally.get(g, 0) for g in members}
                if len(values) != 1:
                    return None
                coords.append(values.pop())
            row.append(tuple(coords))
        rows.append(tuple(row))
    return tuple(rows)


def nonassociative_triple(table: Sequence[Sequence[int]]) -> Optional[Tuple[int, int, int]]:
    """First triple (a, b, c) with (ab)c != a(bc), by the O(n^3) loop, or None."""
    n = len(table)
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if table[table[a][b]][c] != table[a][table[b][c]]:
                    return (a, b, c)
    return None


def light_first_failure_reference(
    table: Sequence[Sequence[int]], gens: Sequence[int]
) -> Optional[Tuple[int, int, int]]:
    """First (a, b, c) with (ab)c != a(bc), b over ``gens`` in their order, then a, then c."""
    n = len(table)
    for b in gens:
        for a in range(n):
            for c in range(n):
                if table[table[a][b]][c] != table[a][table[b][c]]:
                    return (a, b, c)
    return None


def _right_reach_reference(table: Sequence[Sequence[int]], gens: Sequence[int]) -> set:
    """Everything right multiplication by ``gens`` reaches from the identity."""
    reached, frontier = {IDENTITY}, [IDENTITY]
    while frontier:
        frontier = [y for y in {table[x][g] for x in frontier for g in gens} if y not in reached]
        reached.update(frontier)
    return reached


def table_refusal_reference(table: Sequence[Sequence[int]]) -> Optional[Tuple[str, dict]]:
    """The first refusal of a Cayley table as (message, witness), or None for a group.

    One rule at a time, each over the whole table: the integer rule on every
    row (a row holding a bool is refused as such, and otherwise each entry
    must be what ``operator.index`` takes), then each row's length, range
    and permutation, then the identity row and column, then Light's test.
    Its generators are the least elements not yet reached, each then dropped
    when the others reach every element, and its first failure is taken in
    generator, row, column order.
    """
    rows = []
    for row in table:
        try:
            row = list(row)
            if any(type(x) is bool for x in row):
                raise TypeError("a bool is not an integer here")
            rows.append([operator.index(x) for x in row])
        except TypeError as exc:
            return f"expected integers: {exc}", {}
    n = len(rows)
    if n == 0:
        return "empty table", {}
    for i, row in enumerate(rows):
        if len(row) != n:
            return f"table is not {n}x{n}", {"row": i, "length": len(row)}
        for j, x in enumerate(row):
            if not 0 <= x < n:
                return "table entry out of range", {"row": i, "col": j, "value": x}
        if sorted(row) != list(range(n)):
            return "row is not a permutation", {"row": i}
    for j in range(n):
        if rows[0][j] != j:
            return "identity is not at index 0 (row)", {"col": j}
    for i in range(n):
        if rows[i][0] != i:
            return "identity is not at index 0 (column)", {"row": i}
    gens: List[int] = []
    for b in range(n):
        if b not in _right_reach_reference(rows, gens):
            gens.append(b)
    for b in list(gens):
        rest = [g for g in gens if g != b]
        if len(_right_reach_reference(rows, rest)) == n:
            gens = rest
    first = light_first_failure_reference(rows, gens)
    return None if first is None else ("associativity violated", {"triple": list(first)})


def _closure(group: FiniteGroup, generators: Iterable[int]) -> FrozenSet[int]:
    return frozenset(_right_reach_reference(group.table, set(generators)))


def is_subgroup_reference(group: FiniteGroup, members: Iterable[int]) -> bool:
    """Whether ``members`` holds the identity and the product of every pair of its members."""
    s = set(members)
    return IDENTITY in s and all(group.mul(a, b) in s for a in s for b in s)


def is_abelian_reference(group: FiniteGroup) -> bool:
    """Whether every pair of elements commutes, by the all-pairs scan."""
    n = group.order
    return all(group.mul(a, b) == group.mul(b, a) for a in range(n) for b in range(a + 1, n))


def f2_coordinates_reference(group: FiniteGroup, sub: Subgroup) -> Dict[int, int]:
    """F_2 coordinates on an elementary abelian 2-subgroup, by the first bitmask loop.

    The basis is picked among the members in increasing order, each member
    not yet spanned, and the first basis element lands in the highest bit.
    """
    coords = {IDENTITY: 0}
    for g in sub.members:
        if g not in coords:
            coords = {x: c << 1 for x, c in coords.items()}
            for x, c in list(coords.items()):
                coords[group.mul(x, g)] = c | 1
    return coords


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


def is_normal_reference(group: FiniteGroup, members: Iterable[int]) -> bool:
    """Full conjugation scan: g s g^-1 lies in N for every g in G and s in N."""
    member_set = set(members)
    return all(
        group.mul(group.mul(g, s), group.inv(g)) in member_set
        for g in range(group.order)
        for s in member_set
    )


def quotient_reference(
    group: FiniteGroup, members: Iterable[int]
) -> Optional[Tuple[List[List[int]], List[int]]]:
    """Quotient table and projection by the all-pairs check, or None if N is not normal.

    Right cosets Ng are numbered in the order of their least element; the
    product of cosets i and j is read off every pair (a, b) in them, and N
    is normal exactly when every pair gives the same answer.
    """
    member_set = set(members)
    proj = [-1] * group.order
    count = 0
    for g in range(group.order):
        if proj[g] < 0:
            for s in member_set:
                proj[group.mul(s, g)] = count
            count += 1
    qtable: List[List[Optional[int]]] = [[None] * count for _ in range(count)]
    for a in range(group.order):
        for b in range(group.order):
            c = proj[group.mul(a, b)]
            if qtable[proj[a]][proj[b]] is None:
                qtable[proj[a]][proj[b]] = c
            elif qtable[proj[a]][proj[b]] != c:
                return None
    return qtable, proj


def prime_index_reference(group: FiniteGroup) -> List[Tuple[Tuple[int, ...], int]]:
    """(members, p) of every normal subgroup of prime index p, sorted by (p, members).

    A subgroup of prime index p is a kernel onto C_p exactly when it is
    normal, so these are the index-p subgroups the full scan finds normal.
    """
    primes = [p for p in range(2, group.order + 1)
              if group.order % p == 0 and all(p % d for d in range(2, p))]
    return [
        (s, p)
        for p in primes
        for s in subgroups_of_order_reference(group, group.order // p)
        if is_normal_reference(group, s)
    ]


def _fingerprint_reference(table: Sequence[Sequence[int]]) -> Tuple[int, bool, Tuple[int, ...]]:
    """(order, abelian?, element-order multiset) of a table, by all-pairs and power scans."""
    n = len(table)
    abelian = all(table[a][b] == table[b][a] for a in range(n) for b in range(n))
    orders = []
    for a in range(n):
        x, k = a, 1
        while x != IDENTITY:
            x, k = table[x][a], k + 1
        orders.append(k)
    return (n, abelian, tuple(sorted(orders)))


def structural_tests_reference(
    group: FiniteGroup, h: int, subs: Sequence[Optional[Sequence[int]]], swallowing: FrozenSet
) -> List[Tuple[bool, Dict[str, dict]]]:
    """(passed, witnesses) of the T1-T4 screen for each H in ``subs``, by full scans.

    T1 intersects the prime-index kernels of ``prime_index_reference`` and
    every normal subgroup of order |G|/d whose quotient has a fingerprint in
    ``swallowing``, with d running over the orders in ``swallowing``; T2
    closes the involutions; T3 counts the normal subgroups of order h; T4
    names the least subgroup of order h, in member-tuple order, that meets H
    in the identity alone (H = None skips T4).  Normality is
    ``is_normal_reference`` and quotients are ``quotient_reference``.  Only
    T2 and T4 depend on H, so T1 and T3 are found once for all of ``subs``.
    """
    n = group.order
    prime_kernels = prime_index_reference(group)
    core = set(range(n))
    for s, _ in prime_kernels:
        core &= set(s)
    extra = 0
    for d in sorted({f[0] for f in swallowing}):
        if n % d:
            continue
        for s in subgroups_of_order_reference(group, n // d):
            found = quotient_reference(group, s)
            if found is not None and _fingerprint_reference(found[0]) in swallowing:
                core &= set(s)
                extra += 1
    t1 = len(core) % h == 0
    invs = _closure(group, [g for g in range(1, n) if group.mul(g, g) == IDENTITY])
    order_h = subgroups_of_order_reference(group, h)
    normal_h = [s for s in order_h if is_normal_reference(group, s)]
    t3 = bool(normal_h)
    screens = []
    for sub in subs:
        witnesses: Dict[str, dict] = {
            "T1": {"pass": t1, "core_order": len(core),
                   "prime_index_kernels": len(prime_kernels), "swallowing_kernels": extra},
        }
        if sub is not None:
            t2 = invs <= set(sub)
        else:
            t2 = all(group.mul(g, g) == IDENTITY for g in invs) and h % len(invs) == 0
        witnesses["T2"] = {"pass": t2, "involution_closure_order": len(invs)}
        witnesses["T3"] = {"pass": t3, "normal_subgroups_of_order_h": len(normal_h)}
        t4 = None
        witnesses["T4"] = {"pass": None}
        if sub is not None:
            complement = next((s for s in order_h if len(set(sub).intersection(s)) == 1), None)
            t4 = complement is None
            witnesses["T4"] = {"pass": t4}
            if complement is not None:
                witnesses["T4"]["complement"] = list(complement)
        screens.append((t1 and t2 and t3 and t4 is not False, witnesses))
    return screens


def gaussian_binomial(n: int, k: int, q: int) -> int:
    """Number of k-dimensional subspaces of an n-dimensional space over F_q."""
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (k - i) - 1
    assert num % den == 0
    return num // den


def exhaustive_search_reference(
    group: FiniteGroup,
    sub: Subgroup,
    *,
    budget: Optional[int] = None,
    full_tree: bool = False,
    found: Optional[List[DifferenceSetCandidate]] = None,
) -> SearchResult:
    """``constructions.exhaustive_search`` as it was written first: one counter
    per element, decremented again on the way out of every node.

    It walks the same tree (same blocks, same choice order, same node and
    leaf numbering, the same budget stop), so its result and its
    ``BudgetExceededError`` progress are what the library must reproduce.
    Products and inverses go through ``group.mul`` and ``group.inv``.

    The blocks are sorted by their number of choices, and a first-block
    choice is walked only when no central involution z of G in H maps it to
    an earlier one; the sets found are then closed under right translation
    by those z.  With ``full_tree`` the walk keeps the coset label order and
    takes every choice, as it first did: its sets are every solution with no
    appeal to symmetry, and its nodes and leaves count the whole tree.
    A ``found`` list receives each set as its leaf finds it, before the
    closure, and keeps what the walk found when a budget stop raises.
    """
    h = sub.order
    if group.order != h * h:
        raise ConstructionError(
            f"group order {group.order} is not the square of subgroup order {h}"
        )
    if h % 2:
        raise ConstructionError(f"subgroup order {h} must be even")
    if budget is None:
        if group.order > UNAIDED_SEARCH_LIMIT:
            raise ConstructionError(
                f"group order {group.order} > {UNAIDED_SEARCH_LIMIT}: pass an explicit budget"
            )
        budget = DEFAULT_SEARCH_BUDGET
    lam = h * (h - 2) // 4
    k = h * (h - 1) // 2
    dec = cosets(group, sub)
    inv = group.inv
    mul = group.mul
    u = dec.num_cosets
    members_by_coset = [[] for _ in range(u)]
    for g in range(group.order):
        members_by_coset[dec.coset_of[g]].append(g)
    pairing = [dec.coset_of[inv(rep)] for rep in dec.transversal]

    blocks: List[List[Tuple[int, ...]]] = []
    for i in range(1, u):
        j = pairing[i]
        if i > j:
            continue
        if i == j:
            mem = members_by_coset[i]
            if any(inv(x) == x for x in mem):
                return SearchResult([], nodes=0, leaves=0)
            pairs: List[Tuple[int, int]] = []
            seen = set()
            for x in mem:
                if x in seen:
                    continue
                y = inv(x)
                seen.add(x)
                seen.add(y)
                pairs.append((x, y))
            blocks.append([tuple(choice) for choice in itertools.product(*pairs)])
        else:
            mem_i = members_by_coset[i]
            mem_j = members_by_coset[j]
            choices = []
            for t_part in itertools.combinations(mem_i, h // 2):
                t_inv = {inv(x) for x in t_part}
                comp = tuple(y for y in mem_j if y not in t_inv)
                choices.append(t_part + comp)
            blocks.append(choices)

    shifts = [IDENTITY]
    if not full_tree:
        blocks.sort(key=len)
        shifts += [
            z for z in sub.members
            if z != IDENTITY and mul(z, z) == IDENTITY
            and all(mul(z, g) == mul(g, z) for g in range(group.order))
        ]
    if blocks and len(shifts) > 1:
        position = {frozenset(c): n for n, c in enumerate(blocks[0])}
        blocks[0] = [
            c for n, c in enumerate(blocks[0])
            if min(position[frozenset(mul(a, z) for a in c)] for z in shifts) == n
        ]

    counts = [0] * group.order
    chosen: List[Tuple[int, ...]] = []
    flat: List[int] = []
    found = [] if found is None else found
    nodes = 0
    leaves = 0

    def apply(new: Sequence[int]) -> List[int]:
        touched = []
        for a in new:
            ai = inv(a)
            for b in flat:
                g1 = mul(a, inv(b))
                g2 = mul(b, ai)
                counts[g1] += 1
                counts[g2] += 1
                touched.append(g1)
                touched.append(g2)
        for a in new:
            ai = inv(a)
            for b in new:
                g1 = mul(b, ai)
                counts[g1] += 1
                touched.append(g1)
        return touched

    def undo(touched: List[int]) -> None:
        for g in touched:
            counts[g] -= 1

    def extend(depth: int) -> None:
        nonlocal nodes, leaves
        if depth == len(blocks):
            leaves += 1
            if counts[IDENTITY] == k and all(
                counts[g] == lam for g in range(1, group.order)
            ):
                elements = tuple(sorted(flat))
                found.append(DifferenceSetCandidate(group, sub, elements))
            return
        for choice in blocks[depth]:
            nodes += 1
            if nodes > budget:
                raise BudgetExceededError(
                    f"search exceeded {budget} nodes",
                    nodes=nodes,
                    leaves=leaves,
                    found=len(found),
                )
            touched = apply(choice)
            ok = all(g == IDENTITY or counts[g] <= lam for g in touched)
            if ok:
                chosen.append(choice)
                flat.extend(choice)
                extend(depth + 1)
                del flat[len(flat) - len(choice):]
                chosen.pop()
            undo(touched)

    extend(0)
    closed = {tuple(sorted(mul(a, z) for a in c.elements)) for c in found for z in shifts}
    candidates = [DifferenceSetCandidate(group, sub, d) for d in sorted(closed)]
    return SearchResult(candidates, nodes=nodes, leaves=leaves)



def find_hyperplane_assignment_reference(
    group: FiniteGroup, sub: Subgroup
) -> Optional[Tuple[Tuple[Optional[int], ...], Tuple[int, ...]]]:
    """``constructions.find_hyperplane_assignment`` as it was written first.

    A self-paired coset i takes a hyperplane that conjugation by t_i fixes;
    a cross pair (i, j) takes a hyperplane w and its conjugate by t_i^-1,
    another unused one.  Same blocks, same normal order, so the same first
    solution: returns (normals, transversal), or None when no matching
    exists.  H's F_2 coordinates are its members themselves when it is the
    distinguished subgroup and ``f2_coordinates_reference`` otherwise.
    """
    _check_assignment_preconditions(group, sub)
    h = sub.order
    dec = cosets(group, sub)
    reps = dec.transversal
    pairing = [dec.coset_of[group.inv(rep)] for rep in reps]
    if sub == group.distinguished_subgroup():
        coords = {m: m for m in sub.members}
    else:
        coords = f2_coordinates_reference(group, sub)
    member = {v: m for m, v in coords.items()}
    members_of = {
        w: frozenset(member[v] for v in range(h) if not f2.dot(v, w)) for w in range(1, h)
    }
    normal_of_set = {s: w for w, s in members_of.items()}

    def conj_normal(w: int, g: int) -> Optional[int]:
        gi = group.inv(g)
        return normal_of_set.get(
            frozenset(group.mul(group.mul(g, m), gi) for m in members_of[w])
        )

    blocks = [(i, pairing[i]) for i in range(1, h) if i <= pairing[i]]
    assigned: Dict[int, int] = {}
    used: set = set()

    def extend(depth: int) -> bool:
        if depth == len(blocks):
            return True
        i, j = blocks[depth]
        ti, tj = reps[i], reps[j]
        anchor = group.mul(ti, tj)
        for w in range(1, h):
            if w in used or anchor not in members_of[w]:
                continue
            if i == j:
                if conj_normal(w, ti) != w:
                    continue
                assigned[i] = w
                used.add(w)
                if extend(depth + 1):
                    return True
                del assigned[i]
                used.discard(w)
            else:
                partner = conj_normal(w, group.inv(ti))
                if partner is None or partner == w or partner in used:
                    continue
                assigned[i], assigned[j] = w, partner
                used.update((w, partner))
                if extend(depth + 1):
                    return True
                del assigned[i], assigned[j]
                used.difference_update((w, partner))
        return False

    if not extend(0):
        return None
    return tuple(assigned.get(i) for i in range(h)), reps


# A Latin square of order 5 with two-sided identity at 0 that is not a group:
# associativity fails, e.g. at the triple (1, 1, 2).
NONASSOCIATIVE_LOOP_5 = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 3, 4, 0, 1],
    [3, 4, 1, 2, 0],
    [4, 2, 0, 1, 3],
]


def build_parser_reference() -> argparse.ArgumentParser:
    """The argparse parser of the CLI before the command table replaced it."""
    parser = argparse.ArgumentParser(
        prog="rshds",
        description="Construct and exactly certify difference sets disjoint from a subgroup.",
    )
    # each subcommand takes --json and --out only if it reads them
    as_json = argparse.ArgumentParser(add_help=False)
    as_json.add_argument("--json", action="store_true", help="emit reports as JSON")
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", help="output file path")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("params", help="print (v,k,lambda) = (h^2, h(h-1)/2, h(h-2)/4) for an even h")
    p.add_argument("h", type=int)
    p.set_defaults(func=cli._cmd_params)

    p = sub.add_parser("construct", parents=[as_json, out],
                       help="build the canonical difference set of a gnk: or c4n: group")
    p.add_argument("spec")
    p.set_defaults(func=cli._cmd_construct)

    p = sub.add_parser("certify", parents=[as_json], help="run certificates on a dset-v1 file")
    p.add_argument("dset")
    p.add_argument("--checks", help=f"comma list from {','.join(CHECK_ORDER)} (default all)")
    p.set_defaults(func=cli._cmd_certify)

    p = sub.add_parser("thm81", parents=[as_json, out],
                       help="search a hyperplane-to-coset matching and build its difference set")
    p.add_argument("spec")
    p.add_argument("subgroup")
    p.set_defaults(func=cli._cmd_thm81)

    p = sub.add_parser("screen", parents=[as_json], help="run the four structural tests")
    p.add_argument("spec")
    p.add_argument("h", type=int)
    p.add_argument("subgroup", nargs="?", default=None)
    p.set_defaults(func=cli._cmd_screen)

    p = sub.add_parser("search", parents=[out],
                       help="exhaustively enumerate all partition difference sets")
    p.add_argument("spec")
    p.add_argument("subgroup")
    p.add_argument("--budget", type=int, default=None, help="node budget for the search")
    p.set_defaults(func=cli._cmd_search)

    p = sub.add_parser("quotient", parents=[as_json],
                       help="quotient distribution checks for a dset-v1 file")
    p.add_argument("dset")
    p.add_argument("--kernel", help="subgroup token for the normal kernel (default: all prime-index)")
    p.set_defaults(func=cli._cmd_quotient)

    p = sub.add_parser("export-hadamard", parents=[as_json],
                       help="write the +-1 matrix of a certified m=0 set")
    p.add_argument("dset")
    p.add_argument("--out", required=True, help="output file path")
    p.set_defaults(func=cli._cmd_export_hadamard)

    p = sub.add_parser("dump-table", parents=[out], help="write a cayley-v1 table")
    p.add_argument("spec")
    p.set_defaults(func=cli._cmd_dump_table)
    return parser
