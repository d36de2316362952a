"""Difference-set constructions and the exhaustive coset-paired search.

A difference set D with G = D + D^-1 + H (disjointly) meets every nontrivial
coset of H in h/2 points.  Each construction here picks, for an elementary
abelian H, one hyperplane (index-2 subgroup) H_i of H for every nontrivial
coset i, recorded by its normal in a :class:`HyperplaneAssignment`, and
``assignment_difference_set`` alone turns that choice into
D = union of H_i t_i over the coset representatives t_i:

* ``_square_mates`` -- the one square-mate recipe: coset i gets a mate of
  t_i^2 as its normal.  ``gnk_difference_set`` (the two-parameter family)
  takes the nonorthogonal mate, so the square avoids H_i; pairing cosets to
  hyperplanes through the square keeps the map one-to-one and makes D, D^-1
  and H a partition of G.  ``c4n_standard_assignment`` (powers of C4) takes
  the orthogonal mate, so the square lies in H_i and D is self-inverse.
* ``find_hyperplane_assignment`` -- the transversal/maximal-subgroup
  matching (CLI subcommand ``thm81``): a backtracking search assigns
  distinct hyperplanes so that conjugation by t_i maps the partner coset's
  hyperplane onto H_i and ``t_i t_j(i)`` lands in H_i; D is self-inverse.

``exhaustive_search`` enumerates every D with G = D + D^-1 + H, for
nonexistence certificates.  It walks the fewest-choice cosets first and
only one first-coset choice per orbit under right translation by the
central involutions of H, and after the walk builds one candidate per set
found or translated.  A :class:`DifferenceSetCandidate` records only
(G, H, D): what D is, ``certify`` proves.
"""
from __future__ import annotations

import itertools
from typing import (
    Callable, Dict, FrozenSet, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple,
)

from . import f2
from .groups import (
    IDENTITY,
    C4PowerGroup,
    CosetDecomposition,
    FiniteGroup,
    GnkGroup,
    GroupError,
    ParameterSet,
    Subgroup,
    _index_set,
    _indices,
    coordinatize_elementary_abelian,
    cosets,
    is_normal,
)


class ConstructionError(GroupError):
    """Input no construction accepts: invalid group-theoretic input, as a ``GroupError``."""


class AssignmentPreconditionError(ConstructionError):
    """The matching construction's hypotheses on H are not met."""


class BudgetExceededError(RuntimeError):
    """Search ran out of node budget; carries progress statistics."""

    def __init__(self, message: str, *, nodes: int, leaves: int, found: int):
        super().__init__(message)
        self.nodes = nodes
        self.leaves = leaves
        self.found = found


class _CandidateFields(NamedTuple):
    group: FiniteGroup
    subgroup: Subgroup
    elements: Tuple[int, ...]


class DifferenceSetCandidate(_CandidateFields):
    """A k-subset D of G \\ H proposed as a difference set, k = h(h-1)/2.

    ``elements`` is stored sorted; they must be element indices by the rule
    of ``groups._index_set``, none of them in H.  The candidate records
    neither its origin nor a self-inverse flag, and ``params.m`` is None:
    m = 0 holds once ``certify.check_rshds`` has proved the skew partition,
    which no construction claims for itself.
    """

    __slots__ = ()

    def __new__(
        cls, group: FiniteGroup, subgroup: Subgroup, elements: Sequence[int]
    ) -> "DifferenceSetCandidate":
        dset = _index_set(elements, group.order, ConstructionError)
        self = super().__new__(cls, group, subgroup, tuple(sorted(dset)))
        if len(dset) != self.params.k:
            raise ConstructionError(f"candidate has {len(dset)} elements, not k={self.params.k}")
        inside = dset & subgroup.member_set
        if inside:
            raise ConstructionError(f"element {min(inside)} lies in the excluded subgroup")
        return self

    @property
    def params(self) -> ParameterSet:
        return ParameterSet(self.subgroup.order, m=None)


class HyperplaneAssignment(NamedTuple):
    """A hyperplane of H for each nontrivial coset of H.

    ``normals[i]`` is the normal of the hyperplane H_i given to coset i of
    ``decomposition`` (i = 1..h-1; ``normals[0]`` is None), in the F_2
    coordinates that ``_subgroup_f2_coordinates`` puts on H.  Those
    coordinates and the pairing of each coset with its inverse coset follow
    from (G, H) and are derived where they are needed, not stored, so
    equality and hashing are a tuple's own.
    """

    group: FiniteGroup
    subgroup: Subgroup
    decomposition: CosetDecomposition
    normals: Tuple[Optional[int], ...]


def assignment_difference_set(assignment: HyperplaneAssignment) -> DifferenceSetCandidate:
    """D = union over the nontrivial cosets i of H_i t_i, t_i their representatives.

    The one place where a choice of hyperplanes becomes a set.
    """
    group, sub, dec, normals = assignment
    members_of = _hyperplanes(group, sub)
    elements = [
        group.mul(m, t)
        for i, t in enumerate(dec.transversal[1:], 1)
        for m in members_of[normals[i]]
    ]
    return DifferenceSetCandidate(group, sub, elements)


def _subgroup_f2_coordinates(group: FiniteGroup, sub: Subgroup) -> Dict[int, int]:
    """F_2 coordinates, as bitmasks, on an elementary abelian 2-subgroup.

    The members of ``distinguished_subgroup`` are their own vectors;
    otherwise ``coordinatize_elementary_abelian`` picks the basis among the
    members in increasing order, its first coordinate read as the highest bit.
    """
    if sub == group.distinguished_subgroup():
        return {m: m for m in sub.members}
    coords = coordinatize_elementary_abelian(group, 2, sub.members)
    return {m: sum(b << i for i, b in enumerate(reversed(c))) for m, c in coords.items()}


def _hyperplanes(group: FiniteGroup, sub: Subgroup) -> Dict[int, FrozenSet[int]]:
    """The members of every hyperplane of H, {m : dot(coords[m], w) = 0}, by its normal w."""
    coords = _subgroup_f2_coordinates(group, sub).items()
    return {w: frozenset(m for m, c in coords if not f2.dot(c, w)) for w in range(1, sub.order)}


def _conjugate(group: FiniteGroup, g: int, members: FrozenSet[int]) -> FrozenSet[int]:
    """{g m g^-1 : m in members}."""
    gi = group.inv(g)
    return frozenset(group.mul(group.mul(g, m), gi) for m in members)


def _coset_pairing(group: FiniteGroup, dec: CosetDecomposition) -> Tuple[int, ...]:
    """Coset index j with t_i^-1 in H t_j, for each coset index i."""
    return tuple(dec.coset_of[group.inv(rep)] for rep in dec.transversal)


def _square_mates(group: GnkGroup, mate: Callable[[int, int], int]) -> HyperplaneAssignment:
    """The square-mate recipe of gnk and c4n: coset i gets the normal mate(t_i^2, n).

    H is the distinguished subgroup, whose members are their own F_2
    vectors, and every transversal representative t_i squares into H.
    """
    sub = group.distinguished_subgroup()
    dec = cosets(group, sub)
    normals = (None, *(mate(group.mul(t, t), group.n) for t in dec.transversal[1:]))
    return HyperplaneAssignment(group, sub, dec, normals)


# ---------------------------------------------------------------------------
# the two-parameter family
# ---------------------------------------------------------------------------


def gnk_difference_set(n: int, k: int) -> DifferenceSetCandidate:
    """Build the canonical difference set in the order-2^(2n) family group.

    The coset representatives are the words (e, 0), index e * 2^n, for the
    nonzero a-exponent vectors e.  The square-mate recipe ``_square_mates``,
    shared with ``c4n_standard_assignment``, gives coset e the normal that is
    a mate of the square s(e) = (e, 0)^2, here the nonorthogonal one.  H is
    central, so H_i t_i = t_i H_i.

    Nothing is checked here: the group's 0 <= k < n-1 makes s injective and
    nonzero on E - 0.  The twist of ``groups._twists`` gives
    s(e) = sum_i e_i u_{(i+k) mod n} + e_0 sum_{1<=j<=k} e_j u_{j-1}, whose
    coordinate k is e_0.  So a collision lies in one half e_0 = 0 or 1, and
    on each half s is a constant plus a linear map of d = e - e_0 u_0.  On
    e_0 = 0 that map permutes coordinates.  On e_0 = 1, with t = n-1-k >= 1
    (this is where k < n-1 is used), a kernel vector d has d_j = 0 for
    j <= t (coordinate j+k) and d_{j+t} = d_j for 1 <= j <= k (coordinate
    j-1), so d = 0.  And s(e) = 0 only at e = 0: coordinate k is 1 on the
    half e_0 = 1, and s is linear and injective on the other.
    ``f2.nonorthogonal_mate`` is an involution with dot(v, mate(v)) = 1, so
    the cosets get distinct hyperplanes and no square lies in its own.
    """
    return assignment_difference_set(_square_mates(GnkGroup(n, k), f2.nonorthogonal_mate))


# ---------------------------------------------------------------------------
# transversal / maximal-subgroup matching
# ---------------------------------------------------------------------------


def _check_assignment_preconditions(group: FiniteGroup, sub: Subgroup) -> None:
    h = sub.order
    if group.order != h * h:
        raise AssignmentPreconditionError(
            f"subgroup has index {group.order // h}, expected {h} (|G| must be |H|^2)"
        )
    if not sub.is_elementary_abelian_2():
        raise AssignmentPreconditionError("subgroup is not elementary abelian of 2-power order")
    if h < 2:
        raise AssignmentPreconditionError("subgroup must be nontrivial")
    if not is_normal(group, sub):
        raise AssignmentPreconditionError("subgroup is not normal")


def find_hyperplane_assignment(group: FiniteGroup, sub: Subgroup) -> Optional[HyperplaneAssignment]:
    """Search for a valid hyperplane-to-coset matching by backtracking.

    Cosets are coupled in inverse pairs (i, j), and assigning H_i to coset i
    forces its partner ``H_j = t_i^-1 H_i t_i`` on coset j: another unused
    hyperplane on a cross pair, H_i itself on a self-paired coset (a
    subgroup is fixed by conjugation with t_i exactly when it is fixed by
    t_i^-1).  ``t_i t_j in H_i`` prunes candidates.  Normals are tried in
    increasing (lexicographic) order and blocks in increasing coset order,
    so the first solution found is the lexicographically least.

    Returns a :class:`HyperplaneAssignment`, or None when no matching exists.
    Precondition violations raise :class:`AssignmentPreconditionError`
    distinctly.
    """
    _check_assignment_preconditions(group, sub)
    h = sub.order
    dec = cosets(group, sub)
    reps = dec.transversal
    pairing = _coset_pairing(group, dec)
    members_of = _hyperplanes(group, sub)
    normal_of = {s: w for w, s in members_of.items()}
    blocks = [(i, pairing[i]) for i in range(1, h) if i <= pairing[i]]
    normals: List[Optional[int]] = [None] * h
    used: set = set()

    def extend(depth: int) -> bool:
        if depth == len(blocks):
            return True
        i, j = blocks[depth]
        anchor = group.mul(reps[i], reps[j])
        ti_inv = group.inv(reps[i])
        for w, members in members_of.items():
            if w in used or anchor not in members:
                continue
            partner = normal_of.get(_conjugate(group, ti_inv, members))
            if partner is None or (partner == w) != (i == j) or partner in used:
                continue
            normals[i], normals[j] = w, partner
            used.update((w, partner))
            if extend(depth + 1):
                return True
            used.difference_update((w, partner))
        return False

    if not extend(0):
        return None
    return HyperplaneAssignment(group, sub, dec, tuple(normals))


def verify_hyperplane_assignment(assignment: HyperplaneAssignment) -> Tuple[bool, List[str]]:
    """Re-check every condition of a matching; returns (ok, problems).

    Self-contained: the coordinates on H and the coset pairing are derived
    from (G, H) and the decomposition, as the search derives them.
    """
    group, sub, dec, normals = assignment
    h = sub.order
    _check_assignment_preconditions(group, sub)
    pairing = _coset_pairing(group, dec)
    members_of = _hyperplanes(group, sub)
    problems: List[str] = []
    if any(normals[i] not in members_of for i in range(1, h)):
        problems.append("assignment is incomplete or has a normal outside H")
        return False, problems
    if len(set(normals[1:h])) != h - 1:
        problems.append("assigned hyperplanes are not pairwise distinct")
    for i in range(1, h):
        j = pairing[i]
        ti, tj = dec.transversal[i], dec.transversal[j]
        if group.mul(ti, tj) not in members_of[normals[i]]:
            problems.append(f"t_{i} t_{j} not in assigned subgroup of coset {i}")
        if _conjugate(group, ti, members_of[normals[j]]) != members_of[normals[i]]:
            problems.append(
                f"conjugate by t_{i} of coset {j}'s subgroup is not coset {i}'s subgroup"
            )
    return not problems, problems


def c4n_standard_assignment(group: C4PowerGroup) -> HyperplaneAssignment:
    """The orthogonal-mate matching for powers of C4.

    The square-mate recipe ``_square_mates`` with the orthogonal mate: the
    hyperplane of each coset contains the square of its representative.
    """
    if group.n < 2:
        raise AssignmentPreconditionError("orthogonal mate needs dimension >= 2")
    return _square_mates(group, f2.orthogonal_mate)


def c4n_difference_set(n: int) -> DifferenceSetCandidate:
    """Self-inverse difference set in the n-th power of C4 (n >= 2)."""
    return assignment_difference_set(c4n_standard_assignment(C4PowerGroup(n)))


# ---------------------------------------------------------------------------
# exhaustive search
# ---------------------------------------------------------------------------

DEFAULT_SEARCH_BUDGET = 1_000_000_000
UNAIDED_SEARCH_LIMIT = 64


class SearchResult(NamedTuple):
    """The sets ``exhaustive_search`` found and the size of the tree it walked."""

    candidates: List[DifferenceSetCandidate]
    nodes: int
    leaves: int

    @property
    def count(self) -> int:
        return len(self.candidates)


def exhaustive_search(
    group: FiniteGroup,
    sub: Subgroup,
    *,
    budget: Optional[int] = None,
) -> SearchResult:
    """Enumerate every difference set with G = D + D^-1 + H disjointly.

    Any such D meets each nontrivial coset of H in exactly h/2 points, and
    choosing D inside a coset forces D on the inverse coset, so the search
    walks coset pairs and picks half-cosets: 2^(h/2) ways on a self-paired
    coset (one element from each inverse pair; an involution outside H kills
    the search immediately), binomial(h, h/2) ways on a cross pair.  Each
    pair is one depth of the tree, and each choice at it one node.  The
    pairs are sorted by their number of choices, stably, so the fewest-choice
    cosets are walked first (fail first); when every block has the same size
    the order is the label order of the cosets.

    One first-block choice per orbit.  Let S be the central involutions of
    G in H together with 1 (z in H, z^2 = 1, row z of the table equal to
    column z); S is a group, since central involutions commute.  For z in
    S, D -> Dz maps solutions to solutions, block by block:
    - Hgz = Hzg = Hg, as z is central and in H, so the part of D in a coset
      Hg, moved by z, is the part of Dz in Hg;
    - (Dz)^-1 = z^-1 D^-1 = D^-1 z, as z is central and z^-1 = z, so
      G = Gz = Dz + (Dz)^-1 + Hz is the partition again, with Hz = H;
    - (az)(bz)^-1 = a b^-1, so Dz has the differences of D;
    - an inverse pair {x, x^-1} goes to the inverse pair {xz, x^-1 z}, so a
      self-paired choice goes to a self-paired choice, and a cross-pair
      choice T + (coset j - T^-1) to Tz + (coset j - (Tz)^-1).
    The walk takes a first-block choice c only when no z in S maps c to an
    earlier choice of that block.  A leaf keeps only the elements of the
    set F it finds; after the walk each distinct Fz, for F found and z in S,
    becomes one candidate, in sorted order.  This is exact.  A solution
    D with first-block choice c has a z with cz the earliest of the orbit
    cS; the subtree of cz is walked whole, so it finds Dz, and D = (Dz)z is
    added.  And every Fz is a solution.  The test is lazy: the first choice
    of the block is the earliest of its orbit and is taken untested, and S
    and the test are computed only when the walk reaches a later
    first-block choice, so a walk that stops inside the first subtree
    computes nothing for them.  Nodes, leaves and the budget count the
    reduced walk, and the ``found`` of a budget stop counts the sets found
    before the expansion.

    The differences b a^-1 (a != b in D so far) are tallied in one Python
    int, a w-bit field per element.  A choice c carries the packed tally of
    its own differences; a node adds it to its parent's tally, then adds
    cross(c, q), the differences between c and q both ways, for each choice
    q above it, and is pruned as soon as any field exceeds lambda.  The
    tally is passed down the recursion, so nothing is undone on the way out.

    cross(c, q) is the sum over a in c of M_q[a], the tally of the
    differences of a with every b in q both ways (pair[a b^-1], summed over
    b).  M_q[a] depends on a and q only, so it is read from the table rows
    and the inverse list once per call, when a choice holding a first meets
    q, and cross(c, q) then costs |c| additions, not |c| |q| lookups.  This
    is exact: it adds the same integers as the |c| |q| lookups, in another
    order, so each node gets the same tally and is pruned or kept the same.
    Each q that has been on the path keeps a list of v slots, filled
    lazily, so the tallies are at most (number of choices) x v ints, and
    they are dropped when the call returns.  cross(c, q) itself is cached
    in a dict that belongs to the depth where q was chosen; the dict is
    dropped when that depth moves to its next choice, so the caches hold at
    most (number of pairs) x (number of choices) tallies.

    Field width: before an addition every field is at most lambda, and one
    addition adds at most 2h to a field (for fixed a exactly one b has
    a b^-1 = g, and a choice has at most h elements).  The running tally
    starts from the bias 2^(w-1) - 1 - lambda in every field but the
    identity's, so a field's top bit is set exactly when its count of
    differences exceeds lambda, and a test is one AND.  With w bits where
    2^(w-1) > lambda + 2h, a field holds at most 2^(w-1) - 1 + 2h < 2^w, so
    none carries into the next.  The identity field stays 0, since a != b.

    A leaf (every pair chosen) is a solution exactly when every field counts
    lambda, which is checked.  No pruned-to-leaf assignment can fail it:
    the fields add up to k(k-1) = lambda(v-1) and none exceeds lambda.

    An empty result is a nonexistence proof at this group's scale.  Raises
    BudgetExceededError with progress statistics when the node budget runs
    out, and requires an explicit budget for groups of order above 64.  The
    budget is an int >= 0 by the rule of ``groups._indices``, checked
    before any block is built.
    """
    h = sub.order
    if group.order != h * h:
        raise ConstructionError(
            f"group order {group.order} is not the square of subgroup order {h}"
        )
    if budget is None:
        if group.order > UNAIDED_SEARCH_LIMIT:
            raise ConstructionError(
                f"group order {group.order} > {UNAIDED_SEARCH_LIMIT}: pass an explicit budget"
            )
        budget = DEFAULT_SEARCH_BUDGET
    (budget,) = _indices([budget], error=ConstructionError)
    if budget < 0:
        raise ConstructionError(f"node budget {budget} is negative")
    v = group.order
    lam = ParameterSet(h).lam
    dec = cosets(group, sub)
    table = group.table
    inv = [group.inv(g) for g in range(v)]
    u = dec.num_cosets
    members_by_coset = [[] for _ in range(u)]
    for g in range(v):
        members_by_coset[dec.coset_of[g]].append(g)
    pairing = _coset_pairing(group, dec)

    blocks: List[List[Tuple[int, ...]]] = []
    for i in range(1, u):
        j = pairing[i]
        if i > j:
            continue
        if i == j:
            mem = members_by_coset[i]
            if any(inv[x] == x for x in mem):
                return SearchResult([], nodes=0, leaves=0)
            pairs = [(x, inv[x]) for x in mem if x < inv[x]]
            blocks.append(list(itertools.product(*pairs)))
        else:
            mem_i = members_by_coset[i]
            mem_j = members_by_coset[j]
            choices = []
            for t_part in itertools.combinations(mem_i, h // 2):
                t_inv = {inv[x] for x in t_part}
                comp = tuple(y for y in mem_j if y not in t_inv)
                choices.append(t_part + comp)
            blocks.append(choices)
    blocks.sort(key=len)

    # w-bit fields, one per element; 2^(w-1) > lambda + 2h, and every tally
    # carries the bias (see the docstring)
    w = (lam + 2 * h).bit_length() + 1
    fields = sum(1 << (g * w) for g in range(1, v))
    high = fields << (w - 1)
    bias = fields * ((1 << (w - 1)) - 1 - lam)
    target = fields * lam + bias
    # pair[g]: the tally of g and g^-1, the differences of a, b both ways
    pair = [(1 << (g * w)) + (1 << (inv[g] * w)) for g in range(v)]

    # choices are numbered through all blocks, and depth d walks depths[d]
    elements_of = [c for block in blocks for c in block]
    invs = [[inv[a] for a in c] for c in elements_of]
    internal = [
        sum([pair[table[a][ib]] for n, a in enumerate(c) for ib in ivs[n + 1:]])
        for c, ivs in zip(elements_of, invs)
    ]
    depths: List[Iterable[int]] = []
    first = 0
    for block in blocks:
        depths.append(range(first, first + len(block)))
        first += len(block)

    def first_choices(block: range) -> Iterator[int]:
        """The choices of ``block`` that no z in S maps to an earlier one."""
        choices = iter(block)
        yield next(choices)
        shifts = _central_involutions(table, sub)
        index = {frozenset(elements_of[c]): c for c in block} if shifts else {}
        for c in choices:
            if all(index[frozenset([table[a][z] for a in elements_of[c]])] >= c for z in shifts):
                yield c

    if depths:  # depth 0 is entered once, so a generator serves it
        depths[0] = first_choices(depths[0])

    path: List[Tuple[Dict[int, int], int]] = []
    tallies: Dict[int, List[int]] = {}  # q -> M_q, filled lazily
    found: List[List[int]] = []
    nodes = 0
    leaves = 0

    def extend(depth: int, total: int) -> None:
        nonlocal nodes, leaves
        if depth == len(depths):
            leaves += 1
            if total == target:
                found.append([a for _, q in path for a in elements_of[q]])
            return
        for c in depths[depth]:
            nodes += 1
            if nodes > budget:
                raise BudgetExceededError(
                    f"search exceeded {budget} nodes",
                    nodes=nodes,
                    leaves=leaves,
                    found=len(found),
                )
            t = total + internal[c]
            if t & high:
                continue
            for cache, q in path:
                x = cache.get(c)
                if x is None:
                    mq = tallies.get(q)
                    if mq is None:
                        mq = tallies[q] = [0] * v
                    x = 0
                    for a in elements_of[c]:
                        y = mq[a]
                        if not y:  # M_q[a] > 0 once filled
                            ra = table[a]
                            y = mq[a] = sum([pair[ra[ib]] for ib in invs[q]])
                        x += y
                    cache[c] = x
                t += x
                if t & high:
                    break
            else:
                path.append(({}, c))
                extend(depth + 1, t)
                path.pop()

    extend(0, bias)
    shifts = [IDENTITY, *_central_involutions(table, sub)]
    sets = sorted({tuple(sorted([table[a][z] for a in f])) for f in found for z in shifts})
    candidates = [DifferenceSetCandidate(group, sub, d) for d in sets]
    return SearchResult(candidates, nodes=nodes, leaves=leaves)


def _central_involutions(table: Sequence[Sequence[int]], sub: Subgroup) -> List[int]:
    """The z != 1 in H with z^2 = 1 whose row of the table equals its column."""
    return [
        z for z in sub.members
        if z != IDENTITY and table[z][z] == IDENTITY and table[z] == [row[z] for row in table]
    ]
