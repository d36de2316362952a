from __future__ import annotations

import math
from collections import Counter
from functools import lru_cache
from itertools import combinations, permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    bits,
    c4n_index,
    c4n_word,
    exhaustive_search_reference,
    f2_coordinates_reference,
    find_hyperplane_assignment_reference,
    from_bits,
    gnk_square,
    mcfarland_count,
    mcfarland_set,
    naive_difference_tally,
)
from rshds import certify, f2, fixtures, groups
from rshds.constructions import (
    AssignmentPreconditionError,
    BudgetExceededError,
    ConstructionError,
    DifferenceSetCandidate,
    HyperplaneAssignment,
    _subgroup_f2_coordinates,
    assignment_difference_set,
    c4n_difference_set,
    c4n_standard_assignment,
    exhaustive_search,
    find_hyperplane_assignment,
    gnk_difference_set,
    verify_hyperplane_assignment,
)
from rshds.formats import build_group
from rshds.groups import (
    C4PowerGroup,
    CayleyTableGroup,
    FiniteGroup,
    GnkGroup,
    Subgroup,
    closure,
    coordinatize_elementary_abelian,
    cosets,
    subgroups_of_order,
)
from rshds.screen import cyclic_group, dihedral_group, direct_product, elementary_abelian_2_group


# ---------------------------------------------------------------------------
# family construction
# ---------------------------------------------------------------------------


def test_gnk_candidate_sizes(cand20, cand31, gnk4_candidates):
    assert len(cand20.elements) == 6
    assert (cand20.params.v, cand20.params.k, cand20.params.lam) == (16, 6, 2)
    assert len(cand31.elements) == 28
    assert cand31.params.lam == 12
    for cand in gnk4_candidates:
        assert len(cand.elements) == 120
        assert cand.params.lam == 56
        assert cand.group.order == 256


@pytest.mark.parametrize("n,k", [(n, k) for n in range(2, 7) for k in range(0, n - 1)])
def test_gnk_construction_and_square_law(n, k):
    # the table's squares (e, 0)^2 are the closed form s(e), which the
    # gnk_difference_set docstring proves injective and nonzero on E - 0
    cand = gnk_difference_set(n, k)
    assert len(cand.elements) == 2 ** (n - 1) * (2**n - 1)
    g = cand.group
    for e in range(1 << n):
        t = e << n  # the word (e, 0); a member of H is its own vector
        assert bits(g.mul(t, t), n) == gnk_square(n, k, bits(e, n))


@pytest.mark.parametrize("n", range(2, 11))
def test_square_map_is_injective_and_nonzero_past_the_tables(n):
    # the precondition gnk_difference_set relies on, for every k, with no
    # table: coordinate k of s(e) is e_0, and s is injective and nonzero on
    # E - 0 exactly when k < n-1
    for k in range(n):
        squares = {bits(e, n): gnk_square(n, k, bits(e, n)) for e in range(1, 1 << n)}
        assert all(sq[k] == e[0] for e, sq in squares.items())
        bijective = len(set(squares.values())) == 2**n - 1 and (0,) * n not in squares.values()
        assert bijective == (k < n - 1)


def test_gnk_candidates_are_partition_sets(cand20, cand30, cand31):
    for cand in (cand20, cand30, cand31):
        group = cand.group
        d = set(cand.elements)
        dinv = {group.inv(g) for g in d}
        hmem = cand.subgroup.member_set
        assert not d & dinv
        assert not d & hmem
        assert d | dinv | hmem == set(range(group.order))


def test_gnk_half_coset_per_coset(cand31):
    group, sub = cand31.group, cand31.subgroup
    from rshds.groups import cosets

    dec = cosets(group, sub)
    for i in range(1, dec.num_cosets):
        assert sum(1 for g in cand31.elements if dec.coset_of[g] == i) == sub.order // 2


def test_gnk_rejects_bad_parameters():
    with pytest.raises(ValueError):
        gnk_difference_set(3, 2)
    with pytest.raises(ValueError):
        gnk_difference_set(1, 0)


@pytest.mark.parametrize("elements, message", [
    ([4, 7, 8, 9, 12], "candidate has 5 elements, not k=6"),
    ([1, 7, 8, 9, 12, 14], "element 1 lies in the excluded subgroup"),
])
def test_a_candidate_refuses_a_wrong_size_or_an_element_of_h(gnk20, elements, message):
    with pytest.raises(ConstructionError, match=message):
        DifferenceSetCandidate(gnk20, gnk20.distinguished_subgroup(), elements)


# ---------------------------------------------------------------------------
# McFarland sets D(w, c), counted by the perfect matchings of M
# ---------------------------------------------------------------------------


def _kind(group, elements):
    inverses = {group.inv(g) for g in elements}
    if inverses == set(elements):
        return "self-inverse"
    return "mixed" if inverses & set(elements) else "skew"


def test_mcfarland_sets_are_every_set_that_misses_h_at_order_16(cand20):
    # the brute force over every 6-subset of G - H, H the distinguished
    # subgroup of gnk:2,0, finds exactly the 48 sets D(w, c) with w a
    # bijection of the nonzero vectors, and the permanent counts their kinds
    group, sub = cand20.group, cand20.subgroup
    brute = set()
    for d in combinations([g for g in range(16) if g not in sub], 6):
        tally = naive_difference_tally(group, d)
        if all(tally.get(g, 0) == 2 for g in range(1, 16)):
            brute.add(frozenset(d))
    sets = {mcfarland_set(2, (0, *w), (0, *c))
            for w in permutations(range(1, 4)) for c in product((0, 1), repeat=3)}
    assert len(sets) == 48 and sets == brute
    kinds = Counter(_kind(group, d) for d in sets)
    assert kinds == {"skew": 16, "self-inverse": 8, "mixed": 24}
    assert (mcfarland_count(2, 0, skew=True), mcfarland_count(2, 0, skew=False)) == (16, 8)


# twist (n, k) is gnk:n,k for k < n-1 (c4n:n at k = 0); GnkGroup refuses
# k = n-1, whose squares collide, but its squares are nonzero and M still
# has perfect matchings.  18,432 is the count of the complete order-64
# searches on gnk:3,1 and c4n:3.
@pytest.mark.parametrize("n, k, skew, self_inverse", [
    (3, 0, 18_432, 3_072),
    (3, 1, 18_432, 3_072),
    (3, 2, 6_144, None),
    (4, 0, 5_253_348_982_784, 806_141_034_496),
    (4, 1, 5_253_348_982_784, 806_141_034_496),
    (4, 2, 5_253_348_982_784, 806_141_034_496),
    (4, 3, 190_253_629_440, None),
])
def test_mcfarland_counts(n, k, skew, self_inverse):
    # s(e), the square the oracle reads off its word product, is the
    # diagonal of the library's twist list
    diagonal = [row[e] for e, row in enumerate(groups._twists(n, k))]
    assert diagonal == [from_bits(gnk_square(n, k, bits(e, n))) for e in range(1 << n)]
    assert mcfarland_count(n, k, skew=True) == skew
    if self_inverse is not None:
        assert mcfarland_count(n, k, skew=False) == self_inverse


# ---------------------------------------------------------------------------
# matching construction
# ---------------------------------------------------------------------------



def test_assignment_precondition_rejects_a_trivial_subgroup():
    trivial = cyclic_group(1)
    with pytest.raises(AssignmentPreconditionError, match="nontrivial"):
        find_hyperplane_assignment(trivial, closure(trivial, []))


def test_assignment_precondition_rejects_a_non_normal_subgroup():
    # <(s, 1), (1, c)> in D4 x C2, s a reflection: a C2^2 that r conjugates
    # out of itself
    group = direct_product(dihedral_group(4), cyclic_group(2))
    sub = closure(group, [8, 1])
    assert sub.order == 4 and sub.is_elementary_abelian_2()
    with pytest.raises(AssignmentPreconditionError, match="not normal"):
        find_hyperplane_assignment(group, sub)


def test_assignment_on_c4_squared():
    group = C4PowerGroup(2)
    sub = group.distinguished_subgroup()
    assignment = find_hyperplane_assignment(group, sub)
    assert assignment is not None
    ok, problems = verify_hyperplane_assignment(assignment)
    assert ok, problems
    cand = assignment_difference_set(assignment)
    assert len(cand.elements) == 6
    assert {group.inv(g) for g in cand.elements} == set(cand.elements)
    tally = naive_difference_tally(group, cand.elements)
    assert tally[0] == 6
    assert all(tally.get(g, 0) == 2 for g in range(1, 16))


def test_assignment_on_elementary_abelian_16():
    group = elementary_abelian_2_group(4)
    sub = closure(group, [1, 2])
    assignment = find_hyperplane_assignment(group, sub)
    assert assignment is not None
    ok, problems = verify_hyperplane_assignment(assignment)
    assert ok, problems
    cand = assignment_difference_set(assignment)
    tally = naive_difference_tally(group, cand.elements)
    assert tally[0] == 6
    assert all(tally.get(g, 0) == 2 for g in range(1, 16))


def test_assignment_precondition_rejects_cyclic_subgroup():
    c16 = cyclic_group(16)
    sub = closure(c16, [4])  # C4 inside C16
    with pytest.raises(AssignmentPreconditionError):
        find_hyperplane_assignment(c16, sub)


def test_assignment_precondition_rejects_wrong_index():
    group = elementary_abelian_2_group(4)
    sub = closure(group, [1])  # order 2, index 8
    with pytest.raises(AssignmentPreconditionError):
        find_hyperplane_assignment(group, sub)


def test_assignment_exists_in_gnk31(gnk31):
    sub = gnk31.distinguished_subgroup()
    assignment = find_hyperplane_assignment(gnk31, sub)
    assert assignment is not None
    ok, problems = verify_hyperplane_assignment(assignment)
    assert ok, problems
    cand = assignment_difference_set(assignment)
    assert len(cand.elements) == 28
    report = certify.check_difference_set(gnk31, cand.elements)
    assert report.passed


def test_verifier_reports_each_tampering(gnk31):
    good = find_hyperplane_assignment(gnk31, gnk31.distinguished_subgroup())
    normals = list(good.normals)
    duplicate, missing, outside = normals[:], normals[:], normals[:]
    duplicate[2], missing[3], outside[3] = normals[1], None, 8
    cases = [
        (good._replace(normals=tuple(duplicate)), "assigned hyperplanes are not pairwise distinct"),
        (good._replace(normals=tuple(duplicate)), "t_2 t_2 not in assigned subgroup of coset 2"),
        (good._replace(normals=tuple(missing)), "assignment is incomplete or has a normal outside H"),
        (good._replace(normals=tuple(outside)), "assignment is incomplete or has a normal outside H"),
    ]
    for bad, problem in cases:
        ok, problems = verify_hyperplane_assignment(bad)
        assert not ok and problem in problems


def test_verifier_checks_conjugation_on_a_noncentral_subgroup():
    # H = {0, 4, 8, 12} in D4 x C2 is normal and elementary abelian but not
    # central, and no matching exists on it
    group = direct_product(dihedral_group(4), cyclic_group(2))
    sub = Subgroup(group, [0, 4, 8, 12])
    assert find_hyperplane_assignment(group, sub) is None
    dec = cosets(group, sub)
    for normals in permutations([1, 2, 3]):
        assignment = HyperplaneAssignment(group, sub, dec, (None, *normals))
        ok, problems = verify_hyperplane_assignment(assignment)
        assert not ok
        assert any(p.startswith("conjugate by t_") for p in problems)


def _f2_cubed_by_c4_x_c2():
    """F_2^3 x| (C4 x C2), element (v, a, b) at index (2a + b) * 8 + v.

    The C4 acts by the unipotent (x, y, z) -> (x + y, y + z, z) of order 4,
    the C2 by the transvection (x, y, z) -> (x + z, y, z), which commutes
    with it.  Conjugation by t and by t^-1 then differ on H = F_2^3 for t
    of order 4 mod H, so the direction of the partner test matters.
    """
    def act(a, b, v):
        for _ in range(a):
            v ^= (v << 1) & 0b110
        return v ^ (v & 1) << 2 if b else v

    def mul(x, y):
        (k1, v1), (k2, v2) = divmod(x, 8), divmod(y, 8)
        (a1, b1), (a2, b2) = divmod(k1, 2), divmod(k2, 2)
        return (2 * ((a1 + a2) % 4) + (b1 ^ b2)) * 8 + (v1 ^ act(a1, b1, v2))

    table = [[mul(x, y) for y in range(64)] for x in range(64)]
    return CayleyTableGroup(table)  # which proves it a group


# every elementary abelian normal subgroup of order h = sqrt|G|: 54 (G, H)
# pairs, 44 of them with a matching
MATCHING_GROUPS = {
    "gnk:2,0": (lambda: build_group("gnk:2,0"), 1, 1),
    "c4n:2": (lambda: build_group("c4n:2"), 1, 1),
    "C2^4": (lambda: elementary_abelian_2_group(4), 35, 35),
    "D4xC2": (lambda: direct_product(dihedral_group(4), cyclic_group(2)), 5, 1),
    "gnk:3,0": (lambda: build_group("gnk:3,0"), 1, 1),
    "gnk:3,1": (lambda: build_group("gnk:3,1"), 1, 1),
    "c4n:3": (lambda: build_group("c4n:3"), 1, 1),
    "C2^3:(C4xC2)": (_f2_cubed_by_c4_x_c2, 9, 5),
}


@lru_cache(maxsize=None)
def _matching_subgroups(name):
    group = MATCHING_GROUPS[name][0]()
    subs = subgroups_of_order(group, math.isqrt(group.order), normal=True)
    return group, [sub for sub in subs if sub.is_elementary_abelian_2()]


@pytest.mark.parametrize("name", sorted(MATCHING_GROUPS))
def test_matching_search_matches_the_reference(name):
    group, subs = _matching_subgroups(name)
    _, pairs, matched = MATCHING_GROUPS[name]
    assert len(subs) == pairs
    found = [find_hyperplane_assignment(group, sub) for sub in subs]
    assert sum(a is not None for a in found) == matched
    for sub, a in zip(subs, found):
        got = None if a is None else (a.normals, a.decomposition.transversal)
        assert got == find_hyperplane_assignment_reference(group, sub), sub.members
        assert a is None or verify_hyperplane_assignment(a) == (True, [])


@pytest.mark.parametrize("name", sorted(MATCHING_GROUPS))
def test_subgroup_coordinates_are_an_f2_isomorphism(name):
    group, subs = _matching_subgroups(name)
    for sub in subs:
        coords = _subgroup_f2_coordinates(group, sub)
        expected = f2_coordinates_reference(group, sub)
        tuples = coordinatize_elementary_abelian(group, 2, sub.members)
        assert {m: from_bits(c) for m, c in tuples.items()} == expected
        if sub == group.distinguished_subgroup():  # H's members are their own vectors
            assert coords == {m: m for m in sub.members}
        else:
            assert coords == expected
        assert sorted(coords) == list(sub.members)
        assert sorted(coords.values()) == list(range(sub.order))
        for a in sub.members:
            for b in sub.members:
                assert coords[group.mul(a, b)] == coords[a] ^ coords[b]


def test_two_searches_give_equal_assignments(gnk31):
    sub = gnk31.distinguished_subgroup()
    first = find_hyperplane_assignment(gnk31, sub)
    second = find_hyperplane_assignment(gnk31, sub)
    assert first is not second
    assert first == second and hash(first) == hash(second)
    assert first != first._replace(normals=(None, *reversed(first.normals[1:])))


def test_construction_types_record_only_what_they_decide(cand20):
    assert DifferenceSetCandidate._fields == ("group", "subgroup", "elements")
    assert HyperplaneAssignment._fields == ("group", "subgroup", "decomposition", "normals")
    assert cand20.params == (4, 16, 6, 2, None)


def test_candidate_refuses_a_repeated_element(cand20):
    elements = list(cand20.elements)
    elements[-1] = elements[0]
    with pytest.raises(ConstructionError, match="repeats an element"):
        DifferenceSetCandidate(cand20.group, cand20.subgroup, elements)
    assert DifferenceSetCandidate(*cand20) == cand20


def test_kappa_assignment_accepted_by_verifier():
    for n in (2, 3):
        assignment = c4n_standard_assignment(C4PowerGroup(n))
        ok, problems = verify_hyperplane_assignment(assignment)
        assert ok, problems


def test_c4n_difference_sets():
    for n, (v, k) in ((2, (16, 6)), (3, (64, 28))):
        cand = c4n_difference_set(n)
        group = cand.group
        assert (group.order, len(cand.elements)) == (v, k)
        assert {group.inv(g) for g in cand.elements} == set(cand.elements)
        report = certify.check_difference_set(group, cand.elements)
        assert report.passed


def test_c4n_square_lands_in_assigned_hyperplane():
    # t = (1,1) squares to (2,2), i.e. vector (1,1); its mate is (1,1) and
    # the dot of the two vanishes
    group = C4PowerGroup(2)
    t = c4n_index((1, 1))
    sq = group.mul(t, t)
    assert c4n_word(2, sq) == (2, 2)
    assert sq == 0b11  # a member of H is its own vector
    assert f2.dot(sq, f2.orthogonal_mate(sq, 2)) == 0


def test_c4n_rejects_n1():
    with pytest.raises(ConstructionError):
        c4n_difference_set(1)


# ---------------------------------------------------------------------------
# exhaustive search
# ---------------------------------------------------------------------------


def test_search_finds_the_construction(cand20):
    group, sub = cand20.group, cand20.subgroup
    result = exhaustive_search(group, sub)
    assert result.count >= 1
    assert any(c.elements == cand20.elements for c in result.candidates)
    for c in result.candidates:
        tally = naive_difference_tally(group, c.elements)
        assert all(tally.get(g, 0) == 2 for g in range(1, 16))


def test_search_rejects_wrong_orders():
    group = C4PowerGroup(2)
    with pytest.raises(ConstructionError):
        exhaustive_search(group, closure(group, [c4n_index((0, 2))]))


def test_search_requires_budget_above_limit():
    group = GnkGroup(4, 0)
    with pytest.raises(ConstructionError):
        exhaustive_search(group, group.distinguished_subgroup())


def test_search_budget_exceeded_reports_progress(cand20):
    with pytest.raises(BudgetExceededError) as exc:
        exhaustive_search(cand20.group, cand20.subgroup, budget=3)
    assert exc.value.nodes == 4
    assert exc.value.found == 0


def test_search_degenerate_h2():
    group = C4PowerGroup(1)
    result = exhaustive_search(group, group.distinguished_subgroup())
    assert result.count == 2
    assert all(c.params.h == 2 and c.params.lam == 0 for c in result.candidates)
    supports = [c.elements for c in result.candidates]
    assert supports == sorted(supports)


def test_search_deterministic(cand20):
    r1 = exhaustive_search(cand20.group, cand20.subgroup)
    r2 = exhaustive_search(cand20.group, cand20.subgroup)
    assert [c.elements for c in r1.candidates] == [c.elements for c in r2.candidates]
    assert (r1.nodes, r1.leaves) == (r2.nodes, r2.leaves)


def _outcome(search, group, sub, budget=None):
    """(count, nodes, leaves, sets) of a search, or the progress of its budget stop."""
    try:
        r = search(group, sub, budget=budget)
    except BudgetExceededError as exc:
        return ("budget", exc.nodes, exc.leaves, exc.found)
    return (r.count, r.nodes, r.leaves, [c.elements for c in r.candidates])


def _every_solution(group, sub):
    """The sets of the whole tree in label order, with no appeal to symmetry."""
    return [c.elements for c in exhaustive_search_reference(group, sub, full_tree=True).candidates]


# every subgroup of order h = sqrt|G|, normal or not: 115 (group, H) pairs
SEARCH_GROUPS = {
    "C4": (cyclic_group(4), 1),
    "C4xC4": (direct_product(cyclic_group(4), cyclic_group(4)), 7),
    "C2^4": (elementary_abelian_2_group(4), 35),
    "D4xC2": (direct_product(dihedral_group(4), cyclic_group(2)), 15),
    "C8xC2": (direct_product(cyclic_group(8), cyclic_group(2)), 3),
    "C16": (cyclic_group(16), 1),
    "gnk:2,0": (GnkGroup(2, 0), 7),
    "C6xC6": (direct_product(cyclic_group(6), cyclic_group(6)), 12),
    "D3xC6": (direct_product(dihedral_group(3), cyclic_group(6)), 12),
    "G36_1": (fixtures.g36_1(), 1),
    "D3xD3": (direct_product(dihedral_group(3), dihedral_group(3)), 20),
    "C36": (cyclic_group(36), 1),
}


@pytest.mark.parametrize("name", sorted(SEARCH_GROUPS))
def test_search_matches_the_reference_on_every_subgroup(name):
    group, pairs = SEARCH_GROUPS[name]
    subs = subgroups_of_order(group, int(group.order ** 0.5))
    assert len(subs) == pairs
    for sub in subs:
        expected = _outcome(exhaustive_search_reference, group, sub)
        assert _outcome(exhaustive_search, group, sub) == expected, sub.members
        assert expected[3] == _every_solution(group, sub), sub.members


# Past gnk:2,0 each stop lies inside the first subtree, which the reduced
# walk shares with the whole tree: nodes, leaves and found are the whole
# tree's (750 and 2,000 are the benchmark's budgets).
@pytest.mark.parametrize("spec, budget, found", [
    ("gnk:2,0", 20, 4),
    ("gnk:3,1", 750, 0),
    ("c4n:3", 2_000, 0),
    ("gnk:3,1", 10_000, 24),
    ("gnk:3,0", 20_000, 84),
])
def test_search_budget_stop_matches_the_reference(spec, budget, found):
    group = build_group(spec)
    sub = group.distinguished_subgroup()
    expected = _outcome(exhaustive_search_reference, group, sub, budget)
    assert expected == ("budget", budget + 1, found, found)
    assert _outcome(exhaustive_search, group, sub, budget) == expected


def test_search_walks_one_first_choice_per_translation_orbit():
    # H = C2 x C2 is central: half the first-coset choices are walked, and
    # right translation by H gives back all 16 sets of the whole tree
    group = GnkGroup(2, 0)
    sub = group.distinguished_subgroup()
    result = exhaustive_search(group, sub)
    assert (result.count, result.nodes, result.leaves) == (16, 34, 8)
    full = exhaustive_search_reference(group, sub, full_tree=True)
    assert (full.nodes, full.leaves) == (68, 16)
    assert [c.elements for c in result.candidates] == [c.elements for c in full.candidates]


def _relabel(group: FiniteGroup, p):
    table = [[0] * group.order for _ in range(group.order)]
    for a in range(group.order):
        for b in range(group.order):
            table[p[a]][p[b]] = p[group.mul(a, b)]
    return CayleyTableGroup(table)


# the order of the choices in a block, and so the tree, depends on the labels
@settings(deadline=None, max_examples=8)
@given(st.sampled_from(["G36_1", "C36"]), st.permutations(range(1, 36)))
def test_search_matches_the_reference_under_relabelling(name, perm):
    group = _relabel(SEARCH_GROUPS[name][0], [0, *perm])
    (sub,) = subgroups_of_order(group, 6)
    expected = _outcome(exhaustive_search_reference, group, sub)
    assert _outcome(exhaustive_search, group, sub) == expected
    assert expected[3] == _every_solution(group, sub)


# fail first walks the three self-paired cosets of G36_1 (8 choices each)
# before its cross pair (20), whatever the labels; the label order gave
# 5,984 to 8,264 nodes
@settings(deadline=None, max_examples=8)
@given(st.permutations(range(1, 36)))
def test_g36_1_tree_does_not_depend_on_the_labels(perm):
    group = _relabel(SEARCH_GROUPS["G36_1"][0], [0, *perm])
    (sub,) = subgroups_of_order(group, 6, normal=True)
    assert _outcome(exhaustive_search, group, sub) == (0, 2992, 0, [])


def test_search_makes_no_group_calls_past_set_up(monkeypatch, g36, g36_h):
    calls = []
    real_mul, real_inv = FiniteGroup.mul, FiniteGroup.inv

    def mul(self, a, b):
        calls.append(1)
        return real_mul(self, a, b)

    def inv(self, a):
        calls.append(1)
        return real_inv(self, a)

    monkeypatch.setattr(FiniteGroup, "mul", mul)
    monkeypatch.setattr(FiniteGroup, "inv", inv)
    assert exhaustive_search(g36, g36_h).nodes == 2992
    assert len(calls) <= 3 * g36.order
