"""Difference-set constructions and the exhaustive coset-paired search.

Three producers of :class:`DifferenceSetCandidate`:

* ``gnk_difference_set`` -- the two-parameter family construction.  Each
  nontrivial coset of the distinguished subgroup H contributes the half-coset
  ``rep * M`` where M is the index-2 subgroup of H avoiding the square of the
  coset representative.  Pairing reps to subgroups through the square keeps
  the map one-to-one and makes D, D^-1 and H a partition of the group.
* ``assignment_difference_set`` -- the transversal/maximal-subgroup matching
  (CLI subcommand ``thm81``): a backtracking search assigns a distinct
  hyperplane H_i of H to every nontrivial coset so that conjugation by the
  representative maps partner cosets' subgroups onto each other and
  ``t_i t_j(i)`` lands in H_i; the resulting D is self-inverse.
* ``exhaustive_search`` -- complete enumeration of all difference sets D with
  G = D + D^-1 + H (disjointly), used for nonexistence certificates.
"""
from __future__ import annotations

import itertools
from typing import Dict, FrozenSet, List, NamedTuple, Optional, Sequence, Tuple

from . import f2
from .groups import (
    IDENTITY,
    C4PowerGroup,
    CosetDecomposition,
    FiniteGroup,
    GnkGroup,
    ParameterSet,
    Subgroup,
    cosets,
    is_normal,
)


class ConstructionError(ValueError):
    pass


class PairingInvariantError(ConstructionError):
    """A coset representative's square landed inside its assigned subgroup."""


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
    params: ParameterSet
    provenance: str
    self_inverse_expected: bool = False


class DifferenceSetCandidate(_CandidateFields):
    """A subset of G \\ H proposed as a difference set, with its provenance.

    ``elements`` is stored sorted and without repeats.
    """

    __slots__ = ()

    def __new__(
        cls,
        group: FiniteGroup,
        subgroup: Subgroup,
        elements: Sequence[int],
        params: ParameterSet,
        provenance: str,
        self_inverse_expected: bool = False,
    ) -> "DifferenceSetCandidate":
        elems = tuple(sorted(set(elements)))
        if len(elems) != params.k:
            raise ConstructionError(
                f"candidate has {len(elems)} elements, expected k={params.k}"
            )
        for g in elems:
            if not (0 <= g < group.order):
                raise ConstructionError(f"element index {g} out of range")
            if g in subgroup:
                raise ConstructionError(
                    f"element {g} lies in the excluded subgroup"
                )
        return super().__new__(
            cls, group, subgroup, elems, params, provenance, self_inverse_expected
        )


# ---------------------------------------------------------------------------
# the two-parameter family
# ---------------------------------------------------------------------------


def gnk_difference_set(n: int, k: int) -> DifferenceSetCandidate:
    """Build the canonical difference set in the order-2^(2n) family group.

    For every nonzero a-exponent vector e, the coset word (e, 0), whose index
    is e * 2^n, is paired with the hyperplane of H whose normal is the
    nonorthogonal mate of the word's square; the square therefore avoids the
    hyperplane, which is asserted during construction together with
    distinctness of the assigned hyperplanes.  Either assertion firing
    indicates an implementation bug.
    """
    group = GnkGroup(n, k)
    sub = group.distinguished_subgroup()
    used: Dict[int, int] = {}
    elements: List[int] = []
    for e in range(1, 1 << n):
        rep = e << n
        sq = group.h_vector(group.mul(rep, rep))
        if not sq:
            raise PairingInvariantError(
                f"transversal word {e:0{n}b} has trivial square; cannot avoid any hyperplane"
            )
        normal = f2.nonorthogonal_mate(sq, n)
        if f2.dot(sq, normal) != 1:
            raise PairingInvariantError(
                f"square {sq:0{n}b} of word {e:0{n}b} lies in its assigned hyperplane {normal:0{n}b}"
            )
        if normal in used:
            raise PairingInvariantError(
                f"hyperplane {normal:0{n}b} assigned to both {used[normal]:0{n}b} and {e:0{n}b}"
            )
        used[normal] = e
        for m in f2.hyperplane_members(normal, n):
            elements.append(group.mul(rep, m))
    params = ParameterSet.from_subgroup_order(1 << n, m=0)
    return DifferenceSetCandidate(
        group, sub, tuple(elements), params, "gnk-construction"
    )


# ---------------------------------------------------------------------------
# transversal / maximal-subgroup matching
# ---------------------------------------------------------------------------


class HyperplaneAssignment(NamedTuple):
    """A matching of hyperplanes of H to the nontrivial cosets of H.

    ``h_coords`` maps each member of H to its F_2 vector (an int bitmask, see
    ``f2``).  ``pairing[i]`` is the coset index j with t_i^-1 in H t_j, and
    ``normals[i]`` is the normal of the hyperplane assigned to coset i, in
    those coordinates; both are indexed by coset index 1..h-1.  Equality and
    hashing leave ``h_coords`` out.
    """

    group: FiniteGroup
    subgroup: Subgroup
    decomposition: CosetDecomposition
    pairing: Tuple[int, ...]
    normals: Tuple[Optional[int], ...]
    h_coords: Dict[int, int]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HyperplaneAssignment):
            return NotImplemented
        return self[:5] == other[:5]

    def __ne__(self, other: object) -> bool:  # tuple's own would compare h_coords
        return not self == other

    def __hash__(self) -> int:
        return hash(self[:5])

    def hyperplane_members(self, coset_index: int) -> FrozenSet[int]:
        return _hyperplanes(self.h_coords, [self.normals[coset_index]])[0]


def _hyperplanes(h_coords: Dict[int, int], normals: Sequence[int]) -> List[FrozenSet[int]]:
    """The members of H in the hyperplane of each normal, under ``h_coords``."""
    member = {v: m for m, v in h_coords.items()}
    n = len(h_coords).bit_length() - 1
    return [frozenset(member[v] for v in f2.hyperplane_members(w, n)) for w in normals]


def _subgroup_f2_coordinates(group: FiniteGroup, sub: Subgroup) -> Dict[int, int]:
    """F_2 coordinates on an elementary abelian 2-subgroup.

    The distinguished subgroup of a gnk or c4n group has its own; otherwise
    the basis is picked among the members in increasing order, the first
    basis element in the highest bit.
    """
    if isinstance(group, GnkGroup) and sub == group.distinguished_subgroup():
        return {m: group.h_vector(m) for m in sub.members}
    coords = {IDENTITY: 0}
    for g in sub.members:
        if g not in coords:
            coords = {x: c << 1 for x, c in coords.items()}
            for x, c in list(coords.items()):
                coords[group.mul(x, g)] = c | 1
    return coords


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


def _coset_pairing(group: FiniteGroup, dec: CosetDecomposition) -> Tuple[int, ...]:
    pairing = [0] * dec.num_cosets
    for i, rep in enumerate(dec.transversal):
        pairing[i] = dec.coset_of[group.inv(rep)]
    return tuple(pairing)


class _AssignmentContext:
    def __init__(self, group: FiniteGroup, sub: Subgroup):
        _check_assignment_preconditions(group, sub)
        self.group = group
        self.sub = sub
        self.dec = cosets(group, sub)
        self.pairing = _coset_pairing(group, self.dec)
        self.h_coords = _subgroup_f2_coordinates(group, sub)
        self.all_normals = range(1, sub.order)
        self.members_of = dict(zip(self.all_normals, _hyperplanes(self.h_coords, self.all_normals)))
        self.normal_of_set = {s: w for w, s in self.members_of.items()}

    def conj_normal(self, w: int, by: int) -> Optional[int]:
        """Normal of {g m g^-1 : m in hyperplane w}, or None if not a hyperplane."""
        g = by
        gi = self.group.inv(g)
        conj = frozenset(
            self.group.mul(self.group.mul(g, m), gi) for m in self.members_of[w]
        )
        return self.normal_of_set.get(conj)


def find_hyperplane_assignment(group: FiniteGroup, sub: Subgroup) -> Optional[HyperplaneAssignment]:
    """Search for a valid hyperplane-to-coset matching by backtracking.

    Cosets are coupled in inverse pairs: assigning H_i to coset i forces
    ``H_j = t_i^-1 H_i t_i`` on its partner j, and ``t_i t_j in H_i`` prunes
    candidates.  Normals are tried in increasing (lexicographic) order and
    blocks in increasing coset order, so the first solution found is the
    lexicographically least.

    Returns a :class:`HyperplaneAssignment`, or None when no matching exists.
    Precondition violations raise :class:`AssignmentPreconditionError`
    distinctly.
    """
    ctx = _AssignmentContext(group, sub)
    h = sub.order
    reps = ctx.dec.transversal
    blocks: List[Tuple[int, int]] = []
    for i in range(1, h):
        j = ctx.pairing[i]
        if i <= j:
            blocks.append((i, j))
    assigned: Dict[int, int] = {}
    used: set = set()

    def extend(depth: int) -> bool:
        if depth == len(blocks):
            return True
        i, j = blocks[depth]
        ti, tj = reps[i], reps[j]
        anchor = group.mul(ti, tj)
        for w in ctx.all_normals:
            if w in used:
                continue
            if anchor not in ctx.members_of[w]:
                continue
            if i == j:
                if ctx.conj_normal(w, by=ti) != w:
                    continue
                assigned[i] = w
                used.add(w)
                if extend(depth + 1):
                    return True
                del assigned[i]
                used.discard(w)
            else:
                partner = ctx.conj_normal(w, by=group.inv(ti))
                if partner is None or partner == w or partner in used:
                    continue
                assigned[i] = w
                assigned[j] = partner
                used.add(w)
                used.add(partner)
                if extend(depth + 1):
                    return True
                del assigned[i]
                del assigned[j]
                used.discard(w)
                used.discard(partner)
        return False

    if not extend(0):
        return None
    normals: List[Optional[int]] = [None] * h
    for idx, w in assigned.items():
        normals[idx] = w
    return HyperplaneAssignment(group, sub, ctx.dec, ctx.pairing, tuple(normals), ctx.h_coords)


def verify_hyperplane_assignment(assignment: HyperplaneAssignment) -> Tuple[bool, List[str]]:
    """Re-check every condition of a matching; returns (ok, problems).

    Self-contained: works from the assignment's own coordinates, and also
    re-verifies that those coordinates are a GF(2) isomorphism on H.
    """
    group = assignment.group
    sub = assignment.subgroup
    dec = assignment.decomposition
    h = sub.order
    problems: List[str] = []
    _check_assignment_preconditions(group, sub)
    if tuple(assignment.pairing) != _coset_pairing(group, dec):
        problems.append("pairing does not match the transversal's inverse cosets")
    coords = assignment.h_coords
    if sorted(coords) != list(sub.members):
        problems.append("coordinates do not cover the subgroup")
        return False, problems
    for a in sub.members:
        for b in sub.members:
            if coords[group.mul(a, b)] != coords[a] ^ coords[b]:
                problems.append("coordinates are not a GF(2) homomorphism")
                return False, problems
    if sorted(coords.values()) != list(range(h)):
        problems.append("coordinates are not a bijection")
        return False, problems
    members_of = dict(zip(range(1, h), _hyperplanes(coords, range(1, h))))
    normals = [assignment.normals[i] for i in range(1, h)]
    if any(w not in members_of for w in normals):
        problems.append("assignment is incomplete or has a normal outside H")
        return False, problems
    if len(set(normals)) != h - 1:
        problems.append("assigned hyperplanes are not pairwise distinct")
    for i in range(1, h):
        w = assignment.normals[i]
        j = assignment.pairing[i]
        ti, tj = dec.transversal[i], dec.transversal[j]
        if group.mul(ti, tj) not in members_of[w]:
            problems.append(f"t_{i} t_{j} not in assigned subgroup of coset {i}")
        wj = assignment.normals[j]
        gi = group.inv(ti)
        conj = frozenset(
            group.mul(group.mul(ti, m), gi) for m in members_of[wj]
        )
        if conj != members_of[w]:
            problems.append(
                f"conjugate by t_{i} of coset {j}'s subgroup is not coset {i}'s subgroup"
            )
    return not problems, problems


def assignment_difference_set(assignment: HyperplaneAssignment) -> DifferenceSetCandidate:
    """D = union over nontrivial cosets i of H_i * t_i; self-inverse by design."""
    group = assignment.group
    sub = assignment.subgroup
    dec = assignment.decomposition
    h = sub.order
    elements: List[int] = []
    for i in range(1, h):
        ti = dec.transversal[i]
        for m in assignment.hyperplane_members(i):
            elements.append(group.mul(m, ti))
    params = ParameterSet.from_subgroup_order(h, m=None)
    return DifferenceSetCandidate(
        group,
        sub,
        tuple(elements),
        params,
        "thm81",
        self_inverse_expected=True,
    )


def c4n_standard_assignment(group: C4PowerGroup) -> HyperplaneAssignment:
    """The orthogonal-mate matching for powers of C4.

    Each transversal representative squares into H; its coset gets the
    hyperplane orthogonal to that square, which contains it by the mate's
    defining property.
    """
    if group.n < 2:
        raise AssignmentPreconditionError("orthogonal mate needs dimension >= 2")
    sub = group.distinguished_subgroup()
    dec = cosets(group, sub)
    pairing = _coset_pairing(group, dec)
    h_coords = {m: group.h_vector(m) for m in sub.members}
    h = sub.order
    normals: List[Optional[int]] = [None] * h
    for i in range(1, h):
        rep = dec.transversal[i]
        normals[i] = f2.orthogonal_mate(group.h_vector(group.mul(rep, rep)), group.n)
    return HyperplaneAssignment(group, sub, dec, pairing, tuple(normals), h_coords)


def c4n_difference_set(n: int) -> DifferenceSetCandidate:
    """Self-inverse difference set in the n-th power of C4 (n >= 2)."""
    if n < 2:
        raise ConstructionError("c4n construction needs n >= 2")
    group = C4PowerGroup(n)
    candidate = assignment_difference_set(c4n_standard_assignment(group))
    return DifferenceSetCandidate(
        group,
        candidate.subgroup,
        candidate.elements,
        candidate.params,
        "c4n",
        self_inverse_expected=True,
    )


# ---------------------------------------------------------------------------
# exhaustive search
# ---------------------------------------------------------------------------

DEFAULT_SEARCH_BUDGET = 1_000_000_000
UNAIDED_SEARCH_LIMIT = 64


class SearchResult:
    """The sets ``exhaustive_search`` found and the size of the tree it walked."""

    __slots__ = ("candidates", "nodes", "leaves")

    def __init__(self, candidates: List[DifferenceSetCandidate], nodes: int, leaves: int):
        self.candidates = candidates
        self.nodes = nodes
        self.leaves = leaves

    @property
    def count(self) -> int:
        return len(self.candidates)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SearchResult):
            return NotImplemented
        return (self.candidates, self.nodes, self.leaves) == (
            other.candidates, other.nodes, other.leaves
        )

    def __repr__(self) -> str:
        return (f"SearchResult(candidates={self.candidates!r}, "
                f"nodes={self.nodes!r}, leaves={self.leaves!r})")


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
    pair is one depth of the tree, and each choice at it one node.

    The differences b a^-1 (a != b in D so far) are tallied in one Python
    int, a w-bit field per element.  A choice c carries the packed tally of
    its own differences; a node adds it to its parent's tally, then adds
    cross(c, q), the differences between c and q both ways, for each choice
    q above it, and is pruned as soon as any field exceeds lambda.  The
    tally is passed down the recursion, so nothing is undone on the way out.
    cross(c, q) is read from the table rows and the inverse list and cached
    in a dict that belongs to the depth where q was chosen; the dict is
    dropped when that depth moves to its next choice, so the caches hold at
    most (number of pairs) x (number of choices) tallies.

    Field width: before an addition every field is at most lambda, and one
    addition adds at most 2h to a field (for fixed a exactly one b has
    a b^-1 = g, and a choice has at most h elements).  With w bits where
    2^(w-1) > lambda + 2h, no field carries into the next, and after adding
    2^(w-1) - 1 - lambda to every field its top bit is set exactly when the
    field exceeds lambda.  The identity field stays 0, since a != b.

    A leaf (every pair chosen) is a solution exactly when every field is
    lambda, which is checked.  No pruned-to-leaf assignment can fail it:
    the fields add up to k(k-1) = lambda(v-1) and none exceeds lambda.

    An empty result is a nonexistence proof at this group's scale.  Raises
    BudgetExceededError with progress statistics when the node budget runs
    out, and requires an explicit budget for groups of order above 64.
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
    v = group.order
    lam = h * (h - 2) // 4
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
            pairs: List[Tuple[int, int]] = []
            seen = set()
            for x in mem:
                if x in seen:
                    continue
                y = inv[x]
                seen.add(x)
                seen.add(y)
                pairs.append((x, y))
            blocks.append([tuple(choice) for choice in itertools.product(*pairs)])
        else:
            mem_i = members_by_coset[i]
            mem_j = members_by_coset[j]
            choices = []
            for t_part in itertools.combinations(mem_i, h // 2):
                t_inv = {inv[x] for x in t_part}
                comp = tuple(y for y in mem_j if y not in t_inv)
                choices.append(t_part + comp)
            blocks.append(choices)

    # w-bit fields, one per element; 2^(w-1) > lambda + 2h (see the docstring)
    w = (lam + 2 * h).bit_length() + 1
    fields = sum(1 << (g * w) for g in range(1, v))
    high = fields << (w - 1)
    bias = fields * ((1 << (w - 1)) - 1 - lam)
    target = fields * lam
    # pair[g]: the tally of g and g^-1, the differences of a, b both ways
    pair = [(1 << (g * w)) + (1 << (inv[g] * w)) for g in range(v)]

    # choices are numbered through all blocks, and depth d walks depths[d]
    elements_of = [c for block in blocks for c in block]
    rows = [[table[a] for a in c] for c in elements_of]
    invs = [[inv[a] for a in c] for c in elements_of]
    internal = [
        sum([pair[ra[ib]] for n, ra in enumerate(rs) for ib in ivs[n + 1:]])
        for rs, ivs in zip(rows, invs)
    ]
    depths: List[range] = []
    first = 0
    for block in blocks:
        depths.append(range(first, first + len(block)))
        first += len(block)

    path: List[Tuple[Dict[int, int], int]] = []
    found: List[DifferenceSetCandidate] = []
    nodes = 0
    leaves = 0
    params = ParameterSet.from_subgroup_order(h, m=0)

    def extend(depth: int, total: int) -> None:
        nonlocal nodes, leaves
        if depth == len(depths):
            leaves += 1
            if total == target:
                elements = tuple(sorted(a for _, q in path for a in elements_of[q]))
                found.append(
                    DifferenceSetCandidate(group, sub, elements, params, "search")
                )
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
            if (t + bias) & high:
                continue
            for cache, q in path:
                x = cache.get(c)
                if x is None:
                    rs, iq = rows[c], invs[q]
                    x = cache[c] = sum([pair[ra[ib]] for ra in rs for ib in iq])
                t += x
                if (t + bias) & high:
                    break
            else:
                path.append(({}, c))
                extend(depth + 1, t)
                path.pop()

    extend(0, 0)
    found.sort(key=lambda c: c.elements)
    return SearchResult(found, nodes=nodes, leaves=leaves)
