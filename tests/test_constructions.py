from __future__ import annotations

from dataclasses import replace
from itertools import permutations

import pytest

from oracles import bits, c4n_index, c4n_word, naive_difference_tally
from rshds import certify, f2
from rshds.constructions import (
    AssignmentPreconditionError,
    BudgetExceededError,
    ConstructionError,
    HyperplaneAssignment,
    assignment_difference_set,
    c4n_difference_set,
    c4n_standard_assignment,
    exhaustive_search,
    find_hyperplane_assignment,
    gnk_difference_set,
    verify_hyperplane_assignment,
)
from rshds.groups import (
    C4PowerGroup,
    GnkGroup,
    Subgroup,
    closure,
    cosets,
    cyclic_group,
    dihedral_group,
    direct_product,
    elementary_abelian_2_group,
)


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
    # executing the construction is itself the proof that the square-based
    # pairing is injective and avoids every assigned hyperplane
    cand = gnk_difference_set(n, k)
    assert len(cand.elements) == 2 ** (n - 1) * (2**n - 1)
    # squares follow the closed form, b_{1+k} appears iff 1 is in the support,
    # and all 2^n squares are pairwise distinct (k < n-1)
    g = cand.group
    seen = {}
    for e_mask in range(1 << n):
        t = e_mask << n  # the word (e, 0)
        sq = bits(g.h_vector(g.mul(t, t)), n)
        e = bits(e_mask, n)
        expected = [0] * n
        if e[0]:
            for j in range(1, k + 1):
                if e[j]:
                    expected[j - 1] ^= 1
        for i in range(n):
            if e[i]:
                expected[(i + k) % n] ^= 1
        assert sq == tuple(expected)
        assert sq[k % n] == e[0]  # b_{1+k} coordinate tracks 1 in S
        assert sq not in seen
        seen[sq] = e
    ones = [sq for sq, e in seen.items() if e[0]]
    assert len(set(ones)) == 2 ** (n - 1)


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


# ---------------------------------------------------------------------------
# matching construction
# ---------------------------------------------------------------------------


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
    swapped = dict(good.h_coords)
    swapped[1], swapped[2] = swapped[2], swapped[1]
    cases = [
        (replace(good, normals=tuple(duplicate)), "assigned hyperplanes are not pairwise distinct"),
        (replace(good, normals=tuple(duplicate)), "t_2 t_2 not in assigned subgroup of coset 2"),
        (replace(good, normals=tuple(missing)), "assignment is incomplete or has a normal outside H"),
        (replace(good, normals=tuple(outside)), "assignment is incomplete or has a normal outside H"),
        (replace(good, h_coords=swapped), "coordinates are not a GF(2) homomorphism"),
        (replace(good, h_coords={m: 0 for m in swapped}), "coordinates are not a bijection"),
        (replace(good, h_coords={m: m << 1 for m in swapped}), "coordinates are not a bijection"),
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
    pairing = tuple(dec.coset_of[group.inv(t)] for t in dec.transversal)
    coords = {0: 0b00, 4: 0b10, 8: 0b01, 12: 0b11}
    for normals in permutations([1, 2, 3]):
        assignment = HyperplaneAssignment(group, sub, dec, pairing, (None, *normals), coords)
        ok, problems = verify_hyperplane_assignment(assignment)
        assert not ok
        assert any(p.startswith("conjugate by t_") for p in problems)


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
        assert cand.self_inverse_expected
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
    vec = group.h_vector(sq)
    assert vec == 0b11
    assert f2.dot(vec, f2.orthogonal_mate(vec, 2)) == 0


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
