"""The subgroup lattice, the structural screens and the Cayley-table proof.

This is the code that only some commands run, kept apart from the modules
that every ``rshds`` process loads.  ``construct``, ``certify``,
``export-hadamard`` and ``thm81`` on a gnk: or c4n: spec never import it;
``screen``, ``quotient``, an ``auto-<order>`` subgroup token and a ``file:``
spec do (every ``CayleyTableGroup`` is proved here), and so does
``rshds.fixtures``.

The entries stay where callers find them: ``groups.subgroups_of_order``,
``groups.quotient``, ``groups.normal_subgroups_of_prime_index``,
``certify.structural_tests`` and ``certify.quotient_check`` import their
bodies (``_subgroups_of_order`` and the others of the same name) from here
inside the call, and ``CayleyTableGroup`` imports ``_proved_table``.  Their
docstrings state what the bodies do and prove.  The code here calls those
entries and ``closure_members``, ``cosets`` and ``is_normal`` under the
names it imports from ``groups``, so a wrapper put on a ``groups`` function
in every ``rshds`` namespace sees the calls made from here.  The small
standard groups (``cyclic_group`` and the others) are built here too, all
through ``table_group``.
"""
from __future__ import annotations

import itertools
import math
import operator
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .certify import CertReport, PreconditionError, _unpinned_params
from .groups import (
    IDENTITY,
    CayleyTableGroup,
    FiniteGroup,
    GroupError,
    GroupTableError,
    Subgroup,
    _index_set,
    _indices,
    _irredundant_generators,
    closure,
    closure_members,
    coordinatize_elementary_abelian,
    cosets,
    is_normal,
    quotient,
    subgroups_of_order,
)

SUBGROUP_ENUM_CAP = 256


# ---------------------------------------------------------------------------
# the Cayley-table proof
# ---------------------------------------------------------------------------


def _byte_proof(table: Sequence[Sequence[int]]) -> Optional[Tuple[list, List[bytes], List[int]]]:
    """(int rows, ``bytes`` rows, inverses) when 0 < n <= 256 and every row is a list
    (``bytes()`` would read another buffer's raw memory) that is a permutation of
    0..n-1 with no bool, else None.  ``bytes(row)`` refuses every non-integer but
    a bool, and in a row that is a permutation (n bytes, none of 0..n-1 missing)
    only the entries 0 and 1 can be bools; ``find(1)`` is -1 at n = 1.
    """
    n = len(table)
    if not 0 < n <= 256 or {*map(type, table)} != {list}:
        return None
    everything = bytes(range(n))
    try:
        rows = [bytes(row) for row in table]
    except (TypeError, ValueError):  # a non-integer, or an entry outside 0..255
        return None
    if any(len(b) != n or everything.translate(None, b) or type(row[b.index(0)]) is bool
           or type(row[b.find(1)]) is bool for row, b in zip(table, rows)):
        return None
    return [list(b) for b in rows], rows, [b.index(0) for b in rows]


def _check_rows(table: Sequence[Sequence[int]]) -> None:
    """Raise the size, range or permutation error of the first bad row, with its witness."""
    n = len(table)
    everything = set(range(n))
    for i, row in enumerate(table):
        if len(row) != n:
            raise GroupTableError(f"table is not {n}x{n}", {"row": i, "length": len(row)})
        if set(row) != everything:
            for j, x in enumerate(row):
                if x not in everything:
                    raise GroupTableError(
                        "table entry out of range", {"row": i, "col": j, "value": x}
                    )
            raise GroupTableError("row is not a permutation", {"row": i})


def validate_group_table(table: Sequence[Sequence[int]]) -> None:
    """Check a multiplication table is a group with identity at index 0.

    Exact at every order.  Each row keeps the rule of ``groups._indices`` (no
    bool or float entry) and must be a permutation of 0..n-1, and row and
    column 0 must be the identity.  Associativity is Light's test (Clifford &
    Preston, *The Algebraic Theory of Semigroups* I, 1961, section 1.2): the
    elements b with (ab)c = a(bc) for all a, c are closed under products, so
    it suffices to check b over the generators from
    ``groups._irredundant_generators``, at most log2(n) at n^2 lookups each.
    Columns need no check of their own: a monoid whose rows all hold the
    identity is a group.  Raises GroupTableError with a witness on the first
    violation.

    The rows pick the kernel, and ``_byte_proof`` runs once.  List rows of
    order n <= 256 that it reads as ``bytes`` (every entry fits in a byte)
    take the byte kernel: the row a(b.) of Light's test is
    ``row_b.translate(row_a padded to 256 bytes)``, which composes the two
    rows in C.  Every other table (rows of another type, rows the byte pass
    refuses, or n > 256) is read by ``_indices`` and ``_check_rows``, and
    its tuple rows are composed by ``operator.itemgetter``.  Both kernels
    run the same loop over the same generators, so every refusal names the
    same first violation and witness.
    """
    _proved_table(table)


def _proved_table(table: Sequence[Sequence[int]]) -> Tuple[List[List[int]], List[int], List[int]]:
    """``validate_group_table``'s proof: the int rows, the generators it ran on and the inverses."""
    table = list(table)
    n = len(table)
    proof = _byte_proof(table)
    if proof is not None:
        table, rows, inv = proof
        maps = [row + bytes(256 - n) for row in rows]  # translate tables
    else:
        table = [_indices(row, error=GroupTableError) for row in table]
        if n == 0:
            raise GroupTableError("empty table")
        _check_rows(table)
        rows = maps = list(map(tuple, table))  # compared as tuples, the type itemgetter returns
        inv = [row.index(IDENTITY) for row in rows]
    col = next((j for j in range(n) if table[0][j] != j), None)
    if col is not None:
        raise GroupTableError("identity is not at index 0 (row)", {"col": col})
    i = next((i for i in range(n) if table[i][0] != i), None)
    if i is not None:
        raise GroupTableError("identity is not at index 0 (column)", {"row": i})
    gens = _irredundant_generators(rows)
    for b in gens:
        # a(bc) for every c, as a function of the map of row a; n >= 2 here
        # (C1 has no generators), so itemgetter returns a tuple
        compose = operator.itemgetter(*rows[b]) if proof is None else rows[b].translate
        for a, (row_a, map_a) in enumerate(zip(rows, maps)):
            left, right = rows[row_a[b]], compose(map_a)
            if left != right:
                c = next(c for c in range(n) if left[c] != right[c])
                raise GroupTableError("associativity violated", {"triple": [a, b, c]})
    return table, gens, inv


# ---------------------------------------------------------------------------
# small standard groups (fingerprint references, fixtures, tests)
# ---------------------------------------------------------------------------


def table_group(
    order: int, product: Callable[[int, int], int], names: Optional[List[str]] = None
) -> CayleyTableGroup:
    """The proved table group on 0..order-1 whose product of a and b is ``product(a, b)``."""
    table = [[product(a, b) for b in range(order)] for a in range(order)]
    return CayleyTableGroup(table, names=names)


def cyclic_group(n: int) -> CayleyTableGroup:
    return table_group(n, lambda a, b: (a + b) % n, [f"t{i}" if i else "1" for i in range(n)])


def direct_product(g1: FiniteGroup, g2: FiniteGroup) -> CayleyTableGroup:
    """G1 x G2, the pair (a1, a2) at index a1 * |G2| + a2."""
    t1, t2, n2 = g1.table, g2.table, g2.order
    names = [
        f"({g1.element_name(a1)},{g2.element_name(a2)})"
        for a1 in range(g1.order)
        for a2 in range(n2)
    ]
    return table_group(
        g1.order * n2, lambda a, b: t1[a // n2][b // n2] * n2 + t2[a % n2][b % n2], names
    )


def dihedral_group(n: int) -> CayleyTableGroup:
    """Dihedral group of order 2n: the rotation r^i and the reflection r^i s at i and i + n."""

    def product(a: int, b: int) -> int:
        # (r^i s^j)(r^i2 s^j2) = r^(i + (-1)^j i2) s^(j+j2)
        (j, i), (j2, i2) = divmod(a, n), divmod(b, n)
        return (i + (-i2 if j else i2)) % n + n * ((j + j2) % 2)

    return table_group(2 * n, product)


def elementary_abelian_2_group(r: int) -> CayleyTableGroup:
    return table_group(1 << r, operator.xor)


# ---------------------------------------------------------------------------
# classes, fingerprints and the subgroup lattice
# ---------------------------------------------------------------------------


def _conjugates(group: FiniteGroup, seeds: Iterable[int]) -> set:
    """The orbit of ``seeds`` under conjugation by the generators of G.

    This is their orbit under all of G: conjugation by a product is the
    composite of the conjugations by its factors, every element of G is a
    product of generators, and a permutation's inverse is one of its powers.
    """
    table = group.table
    maps = [(table[g], group._inv[g]) for g in group._generating_set()]
    orbit = set(seeds)
    stack = list(orbit)
    while stack:
        x = stack.pop()
        for row, gi in maps:
            y = table[row[x]][gi]
            if y not in orbit:
                orbit.add(y)
                stack.append(y)
    return orbit


def _class_closures(group: FiniteGroup) -> List[Tuple[int, frozenset]]:
    """(x, ncl(x)) for each distinct normal closure of a conjugacy class, found once per group.

    Each class is the ``_conjugates`` orbit of its least element x, and
    each closure keeps the x of the first class that has it.  The class
    of x^k, for k prime to the order of x, is skipped: its members y^k
    generate the same cyclic groups as the members y of the class of x.
    The list is kept on the group as ``_ncl``.
    """
    if group._ncl is None:
        table = group.table
        found: Dict[frozenset, int] = {}
        classed: set = set()
        for x in range(group.order):
            if x not in classed:
                cls = _conjugates(group, [x])
                found.setdefault(closure_members(group, cls), x)
                o = group.element_order(x)
                for y in cls:
                    p = y
                    for k in range(1, o):
                        if math.gcd(k, o) == 1:
                            classed.add(p)
                        p = table[p][y]
        group._ncl = [(x, c) for c, x in found.items()]
    return group._ncl


def fingerprint(
    group: FiniteGroup, kernel: Optional[Subgroup] = None
) -> Tuple[int, bool, Tuple[int, ...]]:
    """Cheap isomorphism fingerprint of G/N: (order, abelian?, element-order multiset).

    N is ``kernel``, a normal subgroup (trivial by default), and G/N is
    read off G: the order of the coset xN is that of any of its x
    modulo N, and G/N is abelian exactly when the commutators of the
    generators of G lie in N.
    """
    kernel = closure(group, []) if kernel is None else kernel
    if kernel.parent is not group:
        raise GroupError("subgroup belongs to a different group")
    table, inv, n = group.table, group._inv, kernel.member_set
    orders = sorted(group.element_order(x, n) for x in cosets(group, kernel).transversal)
    abelian = all(table[table[inv[a]][inv[b]]][table[a][b]] in n
                  for a, b in itertools.combinations(group._generating_set(), 2))
    return (len(orders), abelian, tuple(orders))


def involutions(group: FiniteGroup) -> List[int]:
    return [g for g in range(1, group.order) if group.mul(g, g) == IDENTITY]


def _subgroups_of_order(group: FiniteGroup, orders: Sequence[int], normal: bool) -> List[Subgroup]:
    """The body of ``groups.subgroups_of_order``."""
    targets = set(_indices(orders))
    if group.order > SUBGROUP_ENUM_CAP:
        raise GroupError(f"group order {group.order} exceeds enumeration cap {SUBGROUP_ENUM_CAP}")
    if not targets or any(m <= 0 or group.order % m for m in targets):
        raise GroupError(f"orders {sorted(targets)} are not one or more divisors of {group.order}")
    walk = _normal_subgroups_dividing if normal else _subgroups_dividing
    found = sorted(tuple(sorted(s)) for s in walk(group, targets) if len(s) in targets)
    return [Subgroup(group, s, validate=False) for s in found]


def _walk_orders(orders: Iterable[int]) -> Tuple[set, set]:
    """(keep, grow): every divisor of a target order, and those below a target they divide."""
    pairs = [(d, m) for m in set(orders) for d in range(1, m + 1) if m % d == 0]
    return {d for d, _ in pairs}, {d for d, m in pairs if d < m}


def _subgroups_dividing(
    group: FiniteGroup, orders: Iterable[int], avoid: frozenset = frozenset()
) -> set:
    """Member sets of the subgroups met by the closure search for ``orders``.

    Each subgroup S keeps the generators it was first reached by, so a
    closure runs over at most log2(m) + 1 generators.  Once g has been tried
    on S, the rest of the double coset SgS is skipped, since <S, sgr> is
    <S, g> for s, r in S.  Only subgroups that miss ``avoid``, a set of
    non-identity elements, are met: generators in it and closures that meet
    it are skipped.  Every subgroup of a subgroup that misses ``avoid``
    misses it too, so the chain to each one survives.
    """
    table = group.table
    keep, grow = _walk_orders(orders)
    triv = frozenset({IDENTITY})
    seen = {triv: ()}
    frontier = [triv]
    while frontier:
        nxt = []
        for sub in frontier:
            if len(sub) not in grow:
                continue
            gens = seen[sub]
            rows = [table[s] for s in sub]
            tried = set(sub) | avoid
            for g in range(1, group.order):
                if g in tried:
                    continue
                for row in rows:
                    sg = table[row[g]]
                    tried.update([sg[r] for r in sub])
                c = closure_members(group, gens + (g,))
                if len(c) not in keep or c in seen or not avoid.isdisjoint(c):
                    continue
                seen[c] = gens + (g,)
                nxt.append(c)
        frontier = nxt
    return set(seen)


def _normal_subgroups_dividing(group: FiniteGroup, orders: Iterable[int]) -> set:
    """Member sets of the normal subgroups whose order divides some m in ``orders``.

    Every normal N is the join of the closures ncl(x), x in N, and each
    partial join lies in N, so the walk joins one class closure K = ncl(x)
    at a time and prunes every join whose order divides no m.  For N
    normal the join is NK, the union of the cosets Ny, y in K, of order
    |N||K|/|N meet K|, which is checked before the join is built.  NK is
    the least normal subgroup holding N and x, and one holding N and x
    holds every x' in Nx, so NK depends only on the coset Nx: it is N when
    x lies in N, and each coset of N gives one join.
    """
    table = group.table
    keep, grow = _walk_orders(orders)
    closures = [(x, c) for x, c in _class_closures(group) if len(c) in keep]
    seen = {c for _, c in closures}
    frontier = list(seen)
    while frontier:
        nxt = []
        for n in frontier:
            if len(n) not in grow:
                continue
            rows = [table[y] for y in n]
            done = set(n)
            for x, k in closures:
                if x in done:
                    continue
                done.update([row[x] for row in rows])
                if len(n) * len(k) // len(n & k) not in keep:
                    continue
                join = set(n)
                for y in k:
                    if y not in join:
                        join.update([row[y] for row in rows])
                join = frozenset(join)
                if join not in seen:
                    seen.add(join)
                    nxt.append(join)
        frontier = nxt
    return seen


def _prime_factors(n: int) -> List[int]:
    return [p for p in range(2, n + 1) if n % p == 0 and all(p % d for d in range(2, p))]


def _commutator_power_subgroup(group: FiniteGroup, p: int) -> frozenset:
    """Member set of K_p = G'G^p, the least normal N with G/N elementary abelian of exponent p.

    With X the generators of G from ``_irredundant_generators``, K is the
    closure of the ``_conjugates`` of the commutators a^-1 b^-1 a b and the
    powers a^p for a, b in X.  K is normal and lies in G'G^p; modulo K the
    generators commute and have order p, so G/K is elementary abelian and
    K = G'G^p.
    """
    table, inv = group.table, group._inv
    gens = group._generating_set()
    seeds = {table[table[inv[a]][inv[b]]][table[a][b]] for a in gens for b in gens}
    for a in gens:
        x = a
        for _ in range(p - 1):
            x = table[x][a]
        seeds.add(x)
    return closure_members(group, _conjugates(group, seeds))


def _quotient(group: FiniteGroup, normal_sub: Subgroup) -> Tuple[CayleyTableGroup, List[int]]:
    """The body of ``groups.quotient``."""
    if not is_normal(group, normal_sub):
        raise GroupError("quotient requires a normal subgroup")
    table = group.table
    dec = cosets(group, normal_sub)
    reps = dec.transversal
    proj = list(dec.coset_of)
    qtable = [[proj[table[r][t]] for t in reps] for r in reps]
    return CayleyTableGroup(qtable), proj


def _normal_subgroups_of_prime_index(group: FiniteGroup) -> List[Tuple[Subgroup, int]]:
    """The body of ``groups.normal_subgroups_of_prime_index``."""
    out: List[Tuple[Subgroup, int]] = []
    for p in _prime_factors(group.order):
        kernel = Subgroup(group, _commutator_power_subgroup(group, p), validate=False)
        w, proj = quotient(group, kernel)
        if w.order == 1:
            continue
        coords = coordinatize_elementary_abelian(w, p, range(w.order))
        for phi in itertools.product(range(p), repeat=len(coords[IDENTITY])):
            if next((x for x in phi if x), 0) != 1:  # one functional per kernel: first nonzero 1
                continue
            zero = {x for x, c in coords.items() if sum(a * b for a, b in zip(phi, c)) % p == 0}
            members = [g for g in range(group.order) if proj[g] in zero]
            out.append((Subgroup(group, members, validate=False), p))
    out.sort(key=lambda t: (t[1], t[0].members))
    return out


# ---------------------------------------------------------------------------
# quotient distributions and the structural screens
# ---------------------------------------------------------------------------


# ``fingerprint`` of each quotient shape that forces H inside the kernel.
# The elementary abelian ones, C2^2, C2^3 and C3xC3, are counted off G/K_p
# by ``_structural_tests``; the other seven are D3, C6, C9, C10, D5, C2xD3
# and C2xC6
_ELEMENTARY_SWALLOWING = frozenset({
    (4, True, (1, 2, 2, 2)),
    (8, True, (1, 2, 2, 2, 2, 2, 2, 2)),
    (9, True, (1, 3, 3, 3, 3, 3, 3, 3, 3)),
})
_SWALLOWING_FINGERPRINTS = _ELEMENTARY_SWALLOWING | frozenset({
    (6, False, (1, 2, 2, 2, 3, 3)),
    (6, True, (1, 2, 3, 3, 6, 6)),
    (9, True, (1, 3, 3, 9, 9, 9, 9, 9, 9)),
    (10, True, (1, 2, 5, 5, 5, 5, 10, 10, 10, 10)),
    (10, False, (1, 2, 2, 2, 2, 2, 5, 5, 5, 5)),
    (12, False, (1, 2, 2, 2, 2, 2, 2, 2, 3, 3, 6, 6)),
    (12, True, (1, 2, 2, 2, 3, 3, 6, 6, 6, 6, 6, 6)),
})


def _quotient_check(
    group: FiniteGroup, sub: Subgroup, elements: Sequence[int], normal_sub: Subgroup
) -> CertReport:
    """The body of ``certify.quotient_check``."""
    if sub.parent is not group:
        raise PreconditionError("subgroup belongs to a different group")
    dset = _index_set(elements, group.order, PreconditionError)
    q, proj = quotient(group, normal_sub)
    u = q.order
    xs = [0] * u
    ys = [0] * u
    for g in dset:
        xs[proj[g]] += 1
    for m in sub.members:
        ys[proj[m]] += 1
    h = sub.order
    params = _unpinned_params(h)
    witnesses: Dict[str, object] = {"quotient_order": u, "x": xs, "y": ys}
    warnings: List[str] = []
    problems: List[str] = []
    if _prime_factors(u) == [u]:
        p = u
        witnesses["case"] = "prime-index"
        if ys[0] != h:
            problems.append("subgroup is not contained in the kernel")
        if 2 * p * xs[0] != h * (h - p):
            problems.append(f"|N meet D| != h(h-p)/(2p) for p={p}")
        for i in range(1, u):
            if 2 * p * xs[i] != h * h:
                problems.append(f"coset {i} does not meet D in h^2/(2p) points")
                break
    elif u == 4 and any(q.element_order(a) == 4 for a in range(1, 4)):
        witnesses["case"] = "cyclic-4"
        gen = min(a for a in range(1, 4) if q.element_order(a) == 4)
        seq = [IDENTITY, gen, q.mul(gen, gen), q.mul(q.mul(gen, gen), gen)]
        low, high, sq = h * (h - 2), h * (h + 2), h * h
        # the solved families as (2y, 8x), both read along 1, g, g^2, g^3
        families = {
            "i": ([h, 0, h, 0], [low, low, low, high]),
            "ii": ([h, 0, h, 0], [low, high, low, low]),
            "iii": ([2 * h, 0, 0, 0], [sq - 4 * h, sq, sq, sq]),
        }
        profile = ([2 * ys[a] for a in seq], [8 * xs[a] for a in seq])
        family = next((f for f, shape in families.items() if shape == profile), None)
        if family is None:
            problems.append("profile matches none of the three solved families")
        else:
            witnesses["family"] = family
    elif fingerprint(q) in _SWALLOWING_FINGERPRINTS:
        witnesses["case"] = "swallowing-quotient"
        witnesses["quotient_fingerprint_order"] = u
        if ys[0] != h:
            problems.append("subgroup is not contained in the kernel")
    else:
        witnesses["case"] = "profile-only"
        warnings.append("no pass/fail criterion applies to this quotient; profile reported")
    if problems:
        witnesses["problems"] = problems
    return CertReport("quotient-distribution", not problems, params, witnesses, warnings)


def _screen_order(group: FiniteGroup, h_candidate: int) -> int:
    """The h of a screen of G: a positive int with |G| = h^2, else GroupError."""
    (h,) = _indices([h_candidate])
    if h <= 0:
        raise GroupError(f"h = {h} is not positive")
    if group.order != h * h:
        raise GroupError(f"group order {group.order} != h^2 = {h * h}")
    return h


def _subspace_count(p: int, order: int, index: int) -> int:
    """Subspaces of index ``index`` in the F_p-space of ``order`` elements.

    With order = p^s and index = p^r this is the Gaussian binomial [s r]_p,
    which counts the subspaces of dimension r and, by duality, those of
    codimension r: the ordered independent r-tuples, the product of
    p^s - p^i over i < r, over the ordered bases of one r-space, the product
    of p^r - p^i.  When r > s the factor p^s - p^s makes it 0.
    """
    num = den = q = 1
    while q < index:
        num *= order - q
        den *= index - q
        q *= p
    return num // den


def _structural_tests(
    group: FiniteGroup, h_candidate: int, sub: Optional[Subgroup], unique_normal_h: bool
) -> CertReport:
    """The body of ``certify.structural_tests``."""
    h = _screen_order(group, h_candidate)
    if sub is not None and (sub.parent is not group or sub.order != h):
        raise GroupError(f"H must be a subgroup of this group of order h = {h}")
    witnesses: Dict[str, object] = {}
    warnings: List[str] = []
    prime_cores = {p: _commutator_power_subgroup(group, p) for p in _prime_factors(group.order)}
    spaces = {p: group.order // len(k) for p, k in prime_cores.items()}  # |G:K_p| = p^s
    # C_p^r of order d = p^r: every non-identity element has order p
    elementary = sum(_subspace_count(p, spaces[p], d)
                     for d, _, (_, p, *_) in _ELEMENTARY_SWALLOWING if p in spaces)
    swallowing = _SWALLOWING_FINGERPRINTS - _ELEMENTARY_SWALLOWING
    orders = {group.order // d for d, _, _ in swallowing if group.order % d == 0}  # kernels
    normal = subgroups_of_order(group, h, *orders, normal=True)
    normal_h = [s for s in normal if s.order == h]
    if sub is None and unique_normal_h and len(normal_h) == 1:
        sub = normal_h[0]
    kernels = [s for s in normal if s.order in orders and fingerprint(group, s) in swallowing]
    core = set(range(group.order)).intersection(*prime_cores.values(),
                                                *(s.member_set for s in kernels))
    t1 = len(core) % h == 0
    witnesses["T1"] = {
        "pass": t1,
        "core_order": len(core),
        "prime_index_kernels": sum(_subspace_count(p, spaces[p], p) for p in spaces),
        "swallowing_kernels": len(kernels) + elementary,
    }
    inv_closure = closure(group, involutions(group))
    if sub is not None:
        t2 = all(m in sub for m in inv_closure.members)
    else:
        t2 = inv_closure.is_elementary_abelian_2() and h % inv_closure.order == 0
    witnesses["T2"] = {"pass": t2, "involution_closure_order": inv_closure.order}
    t3 = bool(normal_h)
    witnesses["T3"] = {"pass": t3, "normal_subgroups_of_order_h": len(normal_h)}
    t4: Optional[bool]
    if sub is not None:
        missing = _subgroups_dividing(group, [h], sub.member_set - {IDENTITY})
        complement = min((sorted(s) for s in missing if len(s) == h), default=None)
        t4 = complement is None
        entry: Dict[str, object] = {"pass": t4}
        if complement is not None:
            entry["complement"] = complement
        witnesses["T4"] = entry
    else:
        t4 = None
        witnesses["T4"] = {"pass": None}
        warnings.append("T4 skipped: no candidate subgroup given")
    passed = t1 and t2 and t3 and (t4 is not False)
    return CertReport("structural-tests", passed, _unpinned_params(h), witnesses, warnings)
