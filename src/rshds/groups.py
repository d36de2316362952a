"""Finite groups as one integer multiplication table, identity at index 0.

``FiniteGroup`` holds the table and answers every product and inverse by
lookup.  The backends only supply the table: ``CayleyTableGroup`` proves a
given one, and the two-parameter 2-group family behind the ``gnk:`` spec
strings builds its own with ``_twisted_table`` on first use; the powers of
the cyclic group of order 4 (``c4n:``) are its untwisted case k = 0.  Their
product twist is bilinear over F_2, so one list ``_twists`` holds it, and
its diagonal gives their inverses without a table.  In these two the
element with index e * 2^n + f is the normal-form word (e, f), where e and f
are vectors of F_2^n held as int bitmasks, first coordinate in bit n-1 (the
``f2`` convention).  The distinguished subgroup H is the indices below 2^n,
each member its own F_2 vector, and index order is (coset of H, then
lexicographic normal form inside the coset), so matrices written in this
order are block aligned with H.

Everything here is plain Python on lists of ints, and every check is exact
at every order.  One greedy routine, ``_greedy_reach``, computes every
closure: it right multiplies from the identity by each candidate not yet
reached and skips the others, which serves ``closure_members``, the
generating set of a whole table (every element a candidate, least first)
and its pruning in ``_irredundant_generators``.
A subset is a subgroup exactly when it is its closure.
Other group facts are proved on generators from ``_irredundant_generators``:
``is_normal`` (which ``quotient`` calls) conjugates every member of the
subgroup by generators of the group, since every element of a finite group
is a product of generators, and the table proof and the fingerprints use
them too.  A group finds its generating set once, with no spare generator
(a table group in its proof).  All groups are immutable after construction
and all functions here are pure.

The subgroup lattice, the table proof and the small standard groups live in
``screen``, which a process loads only when it runs them:
``subgroups_of_order``, ``quotient`` and ``normal_subgroups_of_prime_index``
import their bodies from it inside the call, and so does
``CayleyTableGroup``, which every ``file:`` spec builds.  So the commands
``construct``, ``certify``, ``export-hadamard`` and ``thm81`` on a gnk: or
c4n: spec never load it, while ``screen``, ``quotient``, an ``auto-<order>``
subgroup token and a ``file:`` spec do.  ``validate_group_table`` and the
table builders (``cyclic_group`` and the others) are defined there and
still resolve here.
"""
from __future__ import annotations

import itertools
import operator
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

IDENTITY = 0


class GroupError(ValueError):
    """Invalid group-theoretic input (non-subgroup, non-normal, cap exceeded...)."""


class GroupTableError(GroupError):
    """A multiplication table failed validation; carries a witness."""

    def __init__(self, message: str, witness: Optional[dict] = None):
        super().__init__(message)
        self.witness = witness or {}


class _ParameterFields(NamedTuple):
    h: int
    v: int
    k: int
    lam: int
    m: Optional[int]


class ParameterSet(_ParameterFields):
    """Difference-set parameters of an even subgroup order h: ``ParameterSet(h, m)``.

    v = h^2, k = h(h-1)/2, lam = h(h-2)/4.  m is 0 on a certified skew
    partition G = D + D^-1 + H, the only value a difference set disjoint
    from H allows (the coset lemma in ``certify``), and None where no
    partition is certified.  h = 2 is legal but degenerate (lam = 0).
    """

    __slots__ = ()

    def __new__(cls, h: int, m: Optional[int] = 0) -> "ParameterSet":
        (h,) = _indices([h])
        if h < 2 or h % 2:
            raise GroupError(f"subgroup order h={h} must be even and >= 2")
        if m not in (0, None):
            raise GroupError(f"m={m} is neither 0 nor None")
        return super().__new__(cls, h, h * h, h * (h - 1) // 2, h * (h - 2) // 4, m)

    def __getnewargs__(self) -> Tuple[int, Optional[int]]:
        return (self.h, self.m)

    def as_dict(self) -> dict:
        return {"h": self.h, "v": self.v, "k": self.k, "lambda": self.lam, "m": self.m}


# ---------------------------------------------------------------------------
# group backends
# ---------------------------------------------------------------------------


class FiniteGroup:
    """Base class: a finite group on indices 0..order-1, identity at 0.

    Every product and inverse is a lookup: in one integer table, which a
    subclass sets as ``_table`` or builds in ``_build_table`` (the ``table``
    property calls it once), and in the list ``_inv`` that it sets.
    """

    order: int
    _inv: List[int]
    _table: Optional[List[List[int]]] = None
    _gens: Optional[List[int]] = None
    _ncl: Optional[List[Tuple[int, frozenset]]] = None  # ``screen._class_closures``

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self._inv[a]

    def element_name(self, a: int) -> str:
        return str(a)

    @property
    def table(self) -> List[List[int]]:
        """Dense multiplication table, built once on first use."""
        if self._table is None:
            self._table = self._build_table()
        return self._table

    def _build_table(self) -> List[List[int]]:
        raise NotImplementedError

    def _generating_set(self) -> List[int]:
        """Generating set of the whole group from ``_irredundant_generators``, found once."""
        if self._gens is None:
            self._gens = _irredundant_generators(self.table)
        return self._gens

    def element_order(self, a: int, kernel: frozenset = frozenset({IDENTITY})) -> int:
        """The least k >= 1 with a^k in ``kernel``: the order of a, or of aN if it is a normal N."""
        table, k, x = self.table, 1, a
        while x not in kernel:
            k, x = k + 1, table[x][a]
        return k

    def distinguished_subgroup(self) -> Optional["Subgroup"]:
        """The H of a gnk or c4n group, each member its own F_2 vector; else None."""
        return None


class CayleyTableGroup(FiniteGroup):
    """Group of an explicit table that ``screen.validate_group_table``'s proof passes.

    It keeps the proof's generators and inverses; ``names`` is None or a
    list of one str per element.
    """

    def __init__(self, table: Sequence[Sequence[int]], *, names: Optional[List[str]] = None):
        from .screen import _proved_table

        self._table, self._gens, self._inv = _proved_table(table)
        self.order = len(self._table)
        if not (names is None or type(names) is list and [*map(type, names)] == [str] * self.order):
            raise GroupError("names must be a list of one str per element")
        self.names = None if names is None else list(names)

    def element_name(self, a: int) -> str:
        return str(a) if self.names is None else self.names[a]


def _twists(n: int, k: int) -> List[List[int]]:
    """beta[e1][e2] = twist(e1, e2), the f-part flip of (e1, 0)(e2, 0).

    e1 and e2 are GF(2) n-vectors read as bitmasks with the first coordinate
    most significant.  The twist flips coordinate (i + k) mod n for every i
    with e1_i = e2_i = 1 and, when e2_0 = 1, coordinate j - 1 for every
    1 <= j <= k with e1_j = 1.  Every term is a bit of e1 times a bit of e2,
    so the twist is bilinear over GF(2): twist(e1 ^ e1', e2) = twist(e1, e2)
    ^ twist(e1', e2).  Only the n rows of the unit vectors are read off the
    rule; every other row is beta[e1 ^ low] ^ beta[low], low the lowest set
    bit of e1, two rows already built.
    """
    m, top = 1 << n, 1 << (n - 1)
    beta = [[0] * m] * m  # every row but row 0 is replaced below
    for i in range(n):
        unit = top >> i
        square = top >> (i + k) % n
        twist = 1 << (n - i) if 1 <= i <= k else 0
        beta[unit] = [(square if e2 & unit else 0) ^ (twist if e2 & top else 0) for e2 in range(m)]
    for e1 in range(1, m):
        low = e1 & -e1
        if e1 != low:
            beta[e1] = [*map(operator.xor, beta[e1 ^ low], beta[low])]
    return beta


def _twisted_table(n: int, k: int) -> List[List[int]]:
    """Table of (e1, f1)(e2, f2) = (e1 ^ e2, f1 ^ f2 ^ twist(e1, e2)).

    The element index is e * 2^n + f, and row e1 of the twists is row e1
    of one ``_twists`` list.  Every twist term is a bit of e1 times a bit of
    e2, so twist(., e2) is linear in e1 and each row past the unit vectors
    is the XOR of two rows built before it.  At k = 0 only the squares
    remain, which is C4^n with a_i^2 = b_i.

    The products of (e1, f1) with the coset e2 are the 2^n indices
    (e1 ^ e2, c ^ f) for f in order, where c = f1 ^ twist(e1, e2), so each
    row joins 2^n of the 4^n shared blocks ``block[e][c]``.  All rows share
    the same int objects, and an order-4096 table costs little more than its
    pointers.
    """
    m = 1 << n
    ints = list(range(m * m))
    block = [[[ints[(e << n) | (c ^ f)] for f in range(m)] for c in range(m)] for e in range(m)]
    table = []
    for e1, tw in enumerate(_twists(n, k)):
        for f1 in range(m):
            table.append(list(itertools.chain.from_iterable(
                [block[e1 ^ e2][f1 ^ tw[e2]] for e2 in range(m)]
            )))
    return table


class GnkGroup(FiniteGroup):
    """The two-parameter family of 2-groups of order 2^(2n).

    The element e * 2^n + f is the normal-form word (e, f): the bits of e
    are the exponents of the order-4 generators a_1..a_n, the bits of f those
    of the central involutions b_1..b_n, a_1 and b_1 in bit n-1.  The
    relations folded into the product are a_i^2 = b_{i+k} (indices wrapped
    into 1..n) and, for 2 <= j <= k+1, the twist a_j a_1 = a_1 a_j b_{j-1};
    all other generator pairs commute.  Requires 0 <= k < n-1 (so n >= 2),
    which makes the squares (e, 0)^2, e != 0, distinct and nonzero, as
    ``constructions.gnk_difference_set`` proves; at k = n-1 they collide.
    """

    def __init__(self, n: int, k: int):
        n, k = _indices([n, k])
        if not 0 <= k < n - 1:
            raise GroupError(f"gnk group needs 0 <= k < n-1, got n={n}, k={k}")
        self.n, self.k, self.order = n, k, 1 << (2 * n)
        self._inv = self._inverses()

    def _build_table(self) -> List[List[int]]:
        return _twisted_table(self.n, self.k)

    def _inverses(self) -> List[int]:
        """(e, f)^-1 = (e, f ^ twist(e, e)), read off the diagonal of ``_twists``.

        (e, f)(e, f') = (0, f ^ f' ^ twist(e, e)) is the identity exactly when
        f' = f ^ twist(e, e).  Every twist term is a bit of e1 times a bit of
        e2, so the twists form one bilinear list and no table is built.
        """
        n = self.n
        squares = [row[e] for e, row in enumerate(_twists(n, self.k))]
        return [a ^ squares[a >> n] for a in range(self.order)]

    def _bits(self, v: int) -> List[int]:
        """Coordinates of an n-bit vector, first coordinate first."""
        return [(v >> (self.n - 1 - i)) & 1 for i in range(self.n)]

    def element_name(self, a: int) -> str:
        e, f = self._bits(a >> self.n), self._bits(a)
        parts = [f"a{i + 1}" for i, bit in enumerate(e) if bit]
        parts += [f"b{i + 1}" for i, bit in enumerate(f) if bit]
        return "*".join(parts) if parts else "1"

    def distinguished_subgroup(self) -> "Subgroup":
        return Subgroup(self, range(1 << self.n), validate=False)


class C4PowerGroup(GnkGroup):
    """Direct power of the cyclic group of order 4, written additively.

    This is the k = 0 table of :class:`GnkGroup`, also for n = 1: the index
    e * 2^n + f is the word e + 2f, so words are ordered by (parity vector,
    word), and H is the subgroup 2 C4^n.
    """

    def __init__(self, n: int):
        (n,) = _indices([n])
        if n < 1:
            raise GroupError(f"c4n group needs n >= 1, got n={n}")
        self.n, self.k, self.order = n, 0, 4**n
        self._inv = self._inverses()

    def element_name(self, a: int) -> str:
        e, f = self._bits(a >> self.n), self._bits(a)
        return "(" + ",".join(str(x + 2 * y) for x, y in zip(e, f)) + ")"


# ---------------------------------------------------------------------------
# closures and generators
# ---------------------------------------------------------------------------


def _greedy_reach(
    table: Sequence[Sequence[int]], candidates: Iterable[int]
) -> Tuple[List[int], set]:
    """(kept, reached): the candidates kept, in order, and what multiplying by them reaches from 1.

    The one closure routine.  A candidate is kept only when it is not yet
    reached, so in a group the kept ones generate what all the candidates
    do, and each lies outside the subgroup of those before it.  The reached
    set is closed under right multiplication by the earlier kept candidates,
    so only its products with a new one, and what they reach, can be new.
    This is reachability alone, so on a table not yet proved a group the
    reached set is still every left-normed product of the kept candidates.
    """
    reached = {IDENTITY}
    kept: List[int] = []
    for b in candidates:
        if b not in reached:
            kept.append(b)
            new = {table[x][b] for x in reached} - reached
            reached |= new
            stack = list(new)
            while stack:
                row = table[stack.pop()]
                for g in kept:
                    y = row[g]
                    if y not in reached:
                        reached.add(y)
                        stack.append(y)
    return kept, reached


def _irredundant_generators(table: Sequence[Sequence[int]]) -> List[int]:
    """The greedy generators of the whole table, least first, less each one the rest can spare.

    Light's test and conjugation by G cost a pass per generator.  Pruning
    pays on file tables: a label-order dump of gnk:5,3 proves with 5 of its
    10 greedy generators in 240 ms, and with all 10 in 370-390 ms (2 vCPUs,
    Python 3.11).  Each greedy generator lies outside what those before it
    reach, so ``_greedy_reach`` keeps every ``rest`` whole.  The last one is
    kept untested: the others lie among those before it, which miss it.
    """
    n = len(table)
    gens = _greedy_reach(table, range(n))[0]
    for b in gens[:-1]:
        rest = [g for g in gens if g != b]
        if len(_greedy_reach(table, rest)[1]) == n:
            gens = rest
    return gens


# ---------------------------------------------------------------------------
# subgroups, cosets, quotients
# ---------------------------------------------------------------------------


class Subgroup:
    """Subgroup as a sorted member-index set with constant-time membership."""

    def __init__(self, parent: FiniteGroup, members: Iterable[int], *, validate: bool = True):
        self.parent = parent
        self.member_set = frozenset(_index_set(members, parent.order))
        self.members: Tuple[int, ...] = tuple(sorted(self.member_set))
        self.order = len(self.members)
        if validate and closure_members(parent, self.members) != self.member_set:
            raise GroupError("members do not form a subgroup: they generate a larger set")

    def __contains__(self, a: int) -> bool:
        return a in self.member_set

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Subgroup)
            and self.parent is other.parent
            and self.members == other.members
        )

    def __hash__(self) -> int:
        return hash((id(self.parent), self.members))

    def __repr__(self) -> str:
        return f"Subgroup(order={self.order}, members={list(self.members)})"

    def is_elementary_abelian_2(self) -> bool:
        """Exponent 2: such a group is an F_2 space, so its order is already 2^r."""
        return all(self.parent.mul(a, a) == IDENTITY for a in self.members)


def _indices(
    values: Iterable[int], order: Optional[int] = None, error: type = GroupError
) -> List[int]:
    """``values`` as ints, and with an ``order`` as element indices in range(order).

    The one rule for every integer a caller passes in: what ``operator.index``
    takes is an int (numpy integers pass), except a bool, and nothing is
    coerced.  A float, a bool or an index out of range raises ``error``, the
    caller's own error class.
    """
    try:
        values = list(values)
        types = set(map(type, values))
        if bool in types:
            raise TypeError("a bool is not an integer here")
        ints = values if types <= {int} else list(map(operator.index, values))
    except TypeError as exc:
        raise error(f"expected integers: {exc}") from None
    if order is not None and ints and not (0 <= min(ints) and max(ints) < order):
        raise error(f"element index outside 0..{order - 1}")
    return ints


def _index_set(values: Iterable[int], order: Optional[int], error: type = GroupError) -> set:
    """``_indices`` as a set of elements, which must not repeat one."""
    ints = _indices(values, order, error)
    found = set(ints)
    if len(found) != len(ints):
        raise error("the set repeats an element")
    return found


def closure(group: FiniteGroup, generators: Iterable[int]) -> Subgroup:
    """Smallest subgroup containing the generators."""
    gens = _indices(generators, group.order)
    return Subgroup(group, closure_members(group, gens), validate=False)


def closure_members(group: FiniteGroup, generators: Iterable[int]) -> frozenset:
    """Member set of the generated subgroup: what ``_greedy_reach`` reaches from 1."""
    return frozenset(_greedy_reach(group.table, generators)[1])


def is_normal(group: FiniteGroup, sub: Subgroup) -> bool:
    """Whether g s g^-1 lies in ``sub`` for every member s of sub and generator g of G.

    ``sub`` must be a subgroup (every ``Subgroup`` the library builds is
    closed).  The check on the generators of G is exact: every element of a
    finite group is a product of generators, and conjugation by a product is
    the composite of the conjugations by its factors, so conjugation by all
    of G keeps sub once each generator does.
    """
    if sub.parent is not group:
        raise GroupError("subgroup belongs to a different group")
    table, inv, members = group.table, group._inv, sub.member_set
    return all(table[table[g][s]][inv[g]] in members
               for g in group._generating_set() for s in sub.members)


class CosetDecomposition(NamedTuple):
    """Right cosets Hg with lexicographically least representatives, H first."""

    transversal: Tuple[int, ...]
    coset_of: Tuple[int, ...]

    @property
    def num_cosets(self) -> int:
        return len(self.transversal)

    def coset_members(self, i: int) -> List[int]:
        return [g for g in range(len(self.coset_of)) if self.coset_of[g] == i]


def cosets(group: FiniteGroup, sub: Subgroup) -> CosetDecomposition:
    rows = [group.table[s] for s in sub.members]
    coset_of = [-1] * group.order
    transversal: List[int] = []
    for g in range(group.order):
        if coset_of[g] >= 0:
            continue
        idx = len(transversal)
        transversal.append(g)
        for row in rows:
            coset_of[row[g]] = idx
    return CosetDecomposition(tuple(transversal), tuple(coset_of))


def quotient(
    group: FiniteGroup, normal_sub: Subgroup
) -> Tuple[CayleyTableGroup, List[int]]:
    """Quotient group and the projection map; rejects non-normal subgroups.

    The one quotient builder.  Normality is proved by ``is_normal``, at
    |gens| * |N| lookups.  For N normal the coset of a product depends only
    on the cosets of its factors, so the quotient table is read off the
    coset representatives alone, one lookup per pair of cosets; quotient
    element i is the coset ``transversal[i]``.
    """
    from .screen import _quotient

    return _quotient(group, normal_sub)


def subgroups_of_order(group: FiniteGroup, *orders: int, normal: bool = False) -> List[Subgroup]:
    """All subgroups whose order is one of ``orders``, or with ``normal=True`` the normal ones.

    One walk serves all the orders and returns the union of the one-order
    calls, sorted by member tuple.  It prunes every subgroup whose order
    divides no target m, which is safe since each subgroup of order m is
    reached through a chain of subgroups whose orders divide m.  The walks
    are ``screen._subgroups_dividing`` and ``screen._normal_subgroups_dividing``.
    """
    from .screen import _subgroups_of_order

    return _subgroups_of_order(group, orders, normal)


def coordinatize_elementary_abelian(
    group: FiniteGroup, p: int, members: Sequence[int]
) -> Dict[int, Tuple[int, ...]]:
    """Coordinates over F_p of the elementary abelian p-group on ``members``.

    Deterministic: the basis is each member, in the given order, that the
    earlier ones do not span, and the first basis element is coordinate 0.
    """
    coords: Dict[int, Tuple[int, ...]] = {IDENTITY: ()}
    for g in members:
        if g in coords:
            continue
        if group.element_order(g) != p:
            raise GroupError(f"element {g} has order != {p}; group not elementary abelian")
        coords = {x: c + (0,) for x, c in coords.items()}
        items = list(coords.items())
        power = IDENTITY
        for j in range(1, p):
            power = group.mul(power, g)
            for x, cx in items:
                coords[group.mul(x, power)] = cx[:-1] + (j,)
    if len(coords) != len(members):
        raise GroupError("coordinatization failed; group not elementary abelian")
    return coords


def normal_subgroups_of_prime_index(group: FiniteGroup) -> List[Tuple[Subgroup, int]]:
    """All kernels of surjections onto a cyclic group of prime order.

    Every surjection onto C_p kills K = ``screen._commutator_power_subgroup``,
    so the kernels of index p are the pull-backs of the hyperplanes of G/K
    over F_p.  Sorted by (p, member tuple).
    """
    from .screen import _normal_subgroups_of_prime_index

    return _normal_subgroups_of_prime_index(group)


# What ``screen`` defines and callers outside the package read from here:
# the small table builders and the table proof.  A process that reads none
# of them never loads ``screen`` for them.
_FROM_SCREEN = frozenset({
    "cyclic_group", "dihedral_group", "direct_product", "validate_group_table",
})


def __getattr__(name: str):
    if name in _FROM_SCREEN:
        from . import screen

        return getattr(screen, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
