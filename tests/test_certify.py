from __future__ import annotations

import sys
import threading
from collections import Counter
from functools import lru_cache
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    class_products_reference,
    exhaustive_search_reference,
    gnk_index,
    hadamard_reference,
    naive_difference_tally,
    structural_tests_reference,
    subgroups_of_order_reference,
)
from test_groups import REFERENCE_GROUPS
from rshds.certify import (
    PreconditionError,
    check_difference_set,
    check_hadamard,
    check_rshds,
    check_schur_ring,
    coset_profile,
    hadamard_matrix,
    quotient_check,
    spectrum,
    structural_tests,
)
from rshds import certify, fixtures, groups, schur, screen
from rshds.constructions import (
    BudgetExceededError,
    assignment_difference_set,
    c4n_difference_set,
    exhaustive_search,
    find_hyperplane_assignment,
    gnk_difference_set,
)
from rshds.formats import build_group, read_cayley, write_cayley
from rshds.groups import (
    IDENTITY,
    C4PowerGroup,
    CayleyTableGroup,
    GroupError,
    ParameterSet,
    closure,
    cosets,
    normal_subgroups_of_prime_index,
    quotient,
    subgroups_of_order,
)
from rshds.schur import SchurStructure
from rshds.screen import (
    cyclic_group,
    dihedral_group,
    direct_product,
    elementary_abelian_2_group,
    fingerprint,
    involutions,
)


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------


def test_parameter_formulas():
    expected = {4: (16, 6, 2), 6: (36, 15, 6), 8: (64, 28, 12), 16: (256, 120, 56)}
    for h, (v, k, lam) in expected.items():
        p = ParameterSet(h)
        assert (p.v, p.k, p.lam) == (v, k, lam)
    for bad in (5, 3, 0, -2, 1):
        with pytest.raises(GroupError):
            ParameterSet(bad)


# ---------------------------------------------------------------------------
# difference-set equation
# ---------------------------------------------------------------------------


def test_check_difference_set_matches_naive_oracle(cand20, cand31):
    for cand in (cand20, cand31):
        report = check_difference_set(cand.group, cand.elements)
        assert report.passed
        tally = naive_difference_tally(cand.group, cand.elements)
        lam = report.witnesses["lambda"]
        for g in range(1, cand.group.order):
            assert tally.get(g, 0) == lam


def test_check_difference_set_singleton(gnk20):
    report = check_difference_set(gnk20, [5])
    assert report.passed
    assert report.witnesses["k"] == 1
    assert report.witnesses["lambda"] == 0


def test_check_difference_set_degenerate_orders():
    # one element of C4 off 2C4 is a (4, 1, 0) set: h = 2, with its warning
    report = check_difference_set(C4PowerGroup(1), [2])
    assert report.passed and report.params == ParameterSet(2, m=None)
    assert report.warnings == ["degenerate h=2: lambda = 0, the structural theorems are vacuous"]
    # the trivial group has no difference to count: lambda = 0, and no h fits
    report = check_difference_set(cyclic_group(1), [])
    assert report.passed and report.params is None and report.warnings == []
    assert report.witnesses == {"k": 0, "lambda": 0}


def test_check_difference_set_two_elements_fails(gnk20):
    report = check_difference_set(gnk20, [4, 5])
    assert not report.passed
    assert report.witnesses["lambda_numerator"] == 2
    assert report.witnesses["lambda_denominator"] == 15


@lru_cache(maxsize=None)
def _groups_with_difference_sets():
    """gnk:2,0, c4n:2 and G36_1, each with the difference sets built in it."""
    gnk = gnk_difference_set(2, 0)
    found = exhaustive_search(gnk.group, gnk.subgroup).candidates
    c4 = c4n_difference_set(2)
    thm81 = assignment_difference_set(find_hyperplane_assignment(c4.group, c4.subgroup))
    return (
        (gnk.group, [gnk.elements] + [c.elements for c in found]),
        (c4.group, [c4.elements, thm81.elements]),
        (fixtures.g36_1(), []),
    )


@st.composite
def _subsets(draw):
    """A constructed set, a one-element mutation of one, or a random subset,
    possibly complemented."""
    group, constructed = _groups_with_difference_sets()[draw(st.integers(0, 2))]
    everything = set(range(group.order))
    if constructed and draw(st.booleans()):
        elements = set(draw(st.sampled_from(constructed)))
        if draw(st.booleans()):
            outside = sorted(everything - elements)
            elements.remove(draw(st.sampled_from(sorted(elements))))
            elements.add(draw(st.sampled_from(outside)))
    elif draw(st.booleans()):
        elements = draw(st.sets(st.integers(0, group.order - 1)))
    else:  # a size k at which k(k-1)/(v-1) is an integer
        v = group.order
        k = draw(st.sampled_from([k for k in range(v + 1) if k * (k - 1) % (v - 1) == 0]))
        elements = set(draw(st.permutations(range(v)))[:k])
    if draw(st.booleans()):
        elements = everything - elements
    return group, sorted(elements)


@settings(deadline=None, max_examples=300)
@given(_subsets())
def test_check_difference_set_agrees_with_naive_tally(case):
    group, elements = case
    tally = naive_difference_tally(group, elements)
    off_identity = {tally.get(g, 0) for g in range(1, group.order)}
    report = check_difference_set(group, elements)
    assert report.passed == (tally.get(IDENTITY, 0) == len(elements) and len(off_identity) == 1)
    if report.passed:
        assert report.witnesses["lambda"] == off_identity.pop()
    elif "element" in report.witnesses:
        g = report.witnesses["element"]
        assert report.witnesses["count"] == tally.get(g, 0) != report.witnesses["expected"]
    else:
        assert report.witnesses["lambda_numerator"] % report.witnesses["lambda_denominator"]


# ---------------------------------------------------------------------------
# partition structure
# ---------------------------------------------------------------------------


def test_check_rshds_passes_for_family(cand31):
    report = check_rshds(cand31.group, cand31.subgroup, cand31.elements)
    assert report.passed
    assert report.params.m == 0
    assert report.witnesses["difference_equation"] is True


def test_check_rshds_fails_for_self_inverse_set():
    cand = c4n_difference_set(2)
    report = check_rshds(cand.group, cand.subgroup, cand.elements)
    assert not report.passed
    assert "intersection_not_coset_union_at" in report.witnesses
    assert check_difference_set(cand.group, cand.elements).passed


def _assert_rejected_by_the_lemma(group, d):
    # D meet D^-1 is one whole coset of H: check_rshds names m = 1 and stops
    # before the equation, and the equation fails too, as the lemma says
    report = check_rshds(group, group.distinguished_subgroup(), d)
    assert not report.passed
    assert report.witnesses == {"m": 1}
    assert "h/2" in report.warnings[0]
    assert not check_difference_set(group, d).passed


def test_check_rshds_rejects_m1_at_h4(gnk20):
    sub = gnk20.distinguished_subgroup()
    dec = cosets(gnk20, sub)
    coset1 = dec.coset_members(1)
    coset3 = dec.coset_members(3)
    x = coset3[0]
    xi = gnk20.inv(x)
    rest = [y for y in coset3 if y not in (x, xi)]
    _assert_rejected_by_the_lemma(gnk20, sorted(coset1 + [x, rest[0]]))


def _m1_coset_set(group):
    """28 elements: coset 1 whole, coset 2 none, one of each inverse pair elsewhere."""
    dec = cosets(group, group.distinguished_subgroup())
    d = list(dec.coset_members(1))
    for i in range(3, dec.num_cosets):
        d += [g for g in dec.coset_members(i) if g < group.inv(g)]
    return sorted(d)


@pytest.mark.parametrize("spec", ["gnk:3,0", "gnk:3,1", "c4n:3"])
def test_check_rshds_runs_difference_equation_for_m1(spec):
    # the shape of an m = 1 partition: D meet D^-1 is coset 1 and the
    # complement of D + D^-1 is H and coset 2; the lemma says no difference
    # set has it
    group = build_group(spec)
    d = _m1_coset_set(group)
    assert len(d) == 28
    _assert_rejected_by_the_lemma(group, d)


def test_check_rshds_reports_a_wrong_size(gnk20):
    sub = gnk20.distinguished_subgroup()
    report = check_rshds(gnk20, sub, [4, 7, 8, 9, 12])
    assert not report.passed and report.witnesses == {"size": 5}


def test_check_rshds_reports_an_odd_subgroup_order_and_an_element_of_h(gnk20):
    c9 = cyclic_group(9)
    report = check_rshds(c9, closure(c9, [3]), [])
    assert not report.passed and report.witnesses == {"subgroup_order": 3}
    assert report.warnings == ["subgroup order must be even and at least 2"]
    sub, inside = gnk20.distinguished_subgroup(), [1, 7, 8, 9, 12, 14]
    report = check_rshds(gnk20, sub, inside)
    assert not report.passed and report.witnesses == {"element_in_subgroup": 1}
    report = coset_profile(gnk20, sub, inside)
    assert not report.passed and report.witnesses == {"profile": [1, 1, 2, 2], "bad_coset": 0}


def test_coset_profile_fails_where_check_rshds_does():
    # h/2 is no count for odd h, and the lemma's h/2 needs |G| = h^2: on C9
    # with H = <3> the profile [0, 1, 1] passed, and so did D = {1, 2, 3} on
    # C8 with H = <4>, whose params read v = 4
    c9 = cyclic_group(9)
    for check in (check_rshds, coset_profile):
        report = check(c9, closure(c9, [3]), [1, 2])
        assert not report.passed and report.params is None
        assert report.witnesses == {"subgroup_order": 3}
        assert report.warnings == ["subgroup order must be even and at least 2"]
    c8 = cyclic_group(8)
    for check in (check_rshds, coset_profile):
        report = check(c8, closure(c8, [4]), [1, 2, 3])
        assert not report.passed and report.params.v == 4
        assert report.witnesses == {"group_order": 8, "required_order": 4}


@pytest.mark.parametrize("members", [[0, 1, 2, 5], [0, 1, 10, 11]])
def test_a_subgroup_of_another_group_is_refused(cand20, members):
    # S is a subgroup of C2^4 with 3 and 5 swapped, not of gnk:2,0, and D +
    # D^-1 + S is not gnk:2,0; read as a set of gnk:2,0 it passed
    # rshds-structure ({0, 1, 2, 5}) and coset-profile ({0, 1, 10, 11})
    group, elements = cand20.group, cand20.elements
    p = [5 if a == 3 else 3 if a == 5 else a for a in range(16)]
    other = CayleyTableGroup([[p[p[a] ^ p[b]] for b in range(16)] for a in range(16)])
    sub = groups.Subgroup(other, members)
    kernel = normal_subgroups_of_prime_index(group)[0][0]
    for check in (check_rshds, coset_profile, check_schur_ring, spectrum, check_hadamard,
                  lambda g, s, d: quotient_check(g, s, d, kernel)):
        with pytest.raises(PreconditionError, match="subgroup belongs to a different group"):
            check(group, sub, elements)
    reports = certify.run_checks(group, sub, elements, certify.CHECK_ORDER)
    assert [r.passed for r in reports] == [True, False, False, False, False, False]
    for report in reports[1:]:
        assert report.witnesses == {"precondition": "subgroup belongs to a different group"}


def _count_convolutions(monkeypatch, calls):
    """Append (thread id, module name) to ``calls`` for each convolution of certify and schur."""
    for module in (certify, schur):
        def counted(x, y, name=module.__name__, real=module.convolve):
            calls.append((threading.get_ident(), name))
            return real(x, y)

        monkeypatch.setattr(module, "convolve", counted)


def test_the_run_checks_memo_ends_with_the_call(monkeypatch, cand31):
    # run_checks shares D*D^-1 and the five class products among its checks,
    # and only until it returns: a later check_schur_ring on the same set
    # certifies D*D^-1 in check_rshds and convolves the class products again
    args = (cand31.group, cand31.subgroup, cand31.elements)
    calls = []
    _count_convolutions(monkeypatch, calls)
    assert all(r.passed for r in certify.run_checks(*args, certify.CHECK_ORDER))
    assert Counter(name for _, name in calls) == {"rshds.certify": 1, "rshds.schur": 5}
    calls.clear()
    assert check_schur_ring(*args)[0].passed
    assert Counter(name for _, name in calls) == {"rshds.certify": 1, "rshds.schur": 5}


def test_a_run_checks_that_raises_leaves_no_memo(monkeypatch, cand31):
    # the class products fail after the dset and rshds reports went into the memo
    args = (cand31.group, cand31.subgroup, cand31.elements)

    def broken(x, y):
        raise RuntimeError("convolve failed")

    monkeypatch.setattr(schur, "convolve", broken)
    with pytest.raises(RuntimeError, match="convolve failed"):
        certify.run_checks(*args, certify.CHECK_ORDER)
    assert getattr(certify._run, "memo", None) is None
    calls = []
    _count_convolutions(monkeypatch, calls)
    assert check_rshds(*args).passed and len(calls) == 1


def test_threads_running_run_checks_share_no_memo(monkeypatch, cand31, gnk4_candidates):
    # each thread's memo is its own: both get the single-threaded reports, and
    # neither's end drops the other's memo, so each run makes its 6 convolutions
    cands = (gnk4_candidates[2], cand31)
    expected = [certify.run_checks(c.group, c.subgroup, c.elements, certify.CHECK_ORDER)
                for c in cands]
    calls, results = [], {}
    _count_convolutions(monkeypatch, calls)
    barrier = threading.Barrier(len(cands))

    def run(i, cand):
        barrier.wait(timeout=30)
        results[i] = (threading.get_ident(), certify.run_checks(
            cand.group, cand.subgroup, cand.elements, certify.CHECK_ORDER))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=run, args=item) for item in enumerate(cands)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert [results[i][1] for i in range(len(cands))] == expected
    per_thread = Counter(ident for ident, _ in calls)
    assert [per_thread[results[i][0]] for i in range(len(cands))] == [6, 6]


def test_a_passing_check_rshds_builds_no_coset_decomposition(monkeypatch, cand31):
    def refused(*args):
        raise AssertionError("cosets() called on the passing path")

    monkeypatch.setattr(certify, "cosets", refused)
    assert check_rshds(cand31.group, cand31.subgroup, cand31.elements).passed


def _right_coset_profile(group, sub, elements):
    """|D meet Hg| over the right cosets Hg, H first, from the cosets' members."""
    covered, profile = set(), []
    for g in range(group.order):
        if g not in covered:
            coset = {group.mul(s, g) for s in sub.members}
            covered |= coset
            profile.append(len(coset & set(elements)))
    return profile


@pytest.mark.parametrize("spec, dset_counts", [("gnk:2,0", [48] + [16] * 6), ("c2^4", [48])])
def test_coset_lemma_by_brute_force_at_order_16(spec, dset_counts):
    # every 6-subset of G - H, for every order-4 H of gnk:2,0 and the first
    # of C2^4: each difference set meets every coset outside H in h/2 = 2
    # points, and check_rshds passes exactly the skew ones (D meet D^-1
    # empty), which exist only on the distinguished H of gnk:2,0
    group = elementary_abelian_2_group(4) if spec == "c2^4" else build_group(spec)
    subs = subgroups_of_order(group, 4)[:len(dset_counts)]
    assert len(subs) == len(dset_counts)
    for sub, dset_count in zip(subs, dset_counts):
        outside = [g for g in range(16) if g not in sub]
        found = skew = 0
        for d in combinations(outside, 6):
            tally = naive_difference_tally(group, d)
            is_dset = all(tally.get(g, 0) == 2 for g in range(1, 16))
            is_skew = not any(group.inv(g) in d for g in d)
            if is_dset:
                found += 1
                assert _right_coset_profile(group, sub, d) == [0, 2, 2, 2]
            assert check_rshds(group, sub, d).passed == (is_dset and is_skew)
            skew += is_dset and is_skew
        assert found == dset_count
        distinguished = sub == group.distinguished_subgroup()
        assert skew == (16 if distinguished else 0)


def test_a_non_normal_subgroup_carries_difference_sets_but_no_skew_one():
    # H = <(s, 1), (1, c)> in D4 x C2, s a reflection, is not normal.  Among
    # the 924 6-subsets of G - H, 16 are difference sets: 8 self-inverse, 8
    # mixed and none skew.  Each meets every coset outside H in h/2 points,
    # but meets its inverse in a set that is no union of cosets.  So "H is
    # normal" holds for the skew partition G = D + D^-1 + H, not for every
    # difference set that misses H
    group = direct_product(dihedral_group(4), cyclic_group(2))
    sub = closure(group, [8, 1])
    assert sub.members == (0, 1, 8, 9) and not groups.is_normal(group, sub)
    outside = [g for g in range(16) if g not in sub]
    kinds = {"skew": 0, "self-inverse": 0, "mixed": 0}
    for d in combinations(outside, 6):
        tally = naive_difference_tally(group, d)
        if not all(tally.get(g, 0) == 2 for g in range(1, 16)):
            continue
        inverses = {group.inv(g) for g in d}
        kind = ("self-inverse" if inverses == set(d)
                else "mixed" if inverses & set(d) else "skew")
        kinds[kind] += 1
        assert check_difference_set(group, d).passed
        assert coset_profile(group, sub, d).passed
        rshds = check_rshds(group, sub, d)
        assert not rshds.passed and "intersection_not_coset_union_at" in rshds.witnesses
    assert kinds == {"skew": 0, "self-inverse": 8, "mixed": 8}


@pytest.mark.parametrize("check", [check_rshds, coset_profile])
def test_repeated_and_out_of_range_indices_are_refused(cand20, check):
    group, sub, elements = cand20.group, cand20.subgroup, list(cand20.elements)
    for bad in ([12 if x == 14 else x for x in elements],
                [-2 if x == 14 else x for x in elements],
                elements[:-1] + [group.order]):
        with pytest.raises(PreconditionError):
            check(group, sub, bad)


def test_difference_equation_refuses_repeated_and_negative_indices(cand20):
    group, sub, elements = cand20.group, cand20.subgroup, list(cand20.elements)
    assert elements == [4, 7, 8, 9, 12, 14]
    for bad in ([4, 7, 8, 9, 12, 12], [4, 7, 8, 9, 12, -2]):
        with pytest.raises(PreconditionError):
            check_difference_set(group, bad)
        for name in ("dset", "rshds", "profile"):
            (report,) = certify.run_checks(group, sub, bad, [name])
            assert not report.passed and list(report.witnesses) == ["precondition"]


def test_float_indices_are_refused_and_numpy_ints_pass(cand20):
    # 4.5 is not the index 4: a float is no index, while a numpy int is one
    group, sub, elements = cand20.group, cand20.subgroup, list(cand20.elements)
    bad = [4.5, *elements[1:]]
    with pytest.raises(PreconditionError):
        check_difference_set(group, bad)
    for name in ("dset", "rshds", "profile"):
        (report,) = certify.run_checks(group, sub, bad, [name])
        assert not report.passed and list(report.witnesses) == ["precondition"]
    as_numpy = list(np.array(elements))
    assert all(r.passed for r in certify.run_checks(group, sub, as_numpy, certify.CHECK_ORDER))


def test_quotient_check_refuses_repeated_and_negative_indices(cand20):
    group, sub, elements = cand20.group, cand20.subgroup, list(cand20.elements)
    kernel = normal_subgroups_of_prime_index(group)[0][0]
    for bad in (elements + [elements[0]], elements[:-1] + [-1]):
        with pytest.raises(PreconditionError):
            quotient_check(group, sub, bad, kernel)


def test_check_rshds_wrong_group_order(gnk20):
    sub = closure(gnk20, [1])  # order 2 inside order 16
    report = check_rshds(gnk20, sub, [4, 5])
    assert not report.passed
    assert report.witnesses["required_order"] == 4


def test_coset_profile(cand20, cand30):
    rep = coset_profile(cand20.group, cand20.subgroup, cand20.elements)
    assert rep.passed and rep.witnesses["profile"] == [0, 2, 2, 2]
    rep30 = coset_profile(cand30.group, cand30.subgroup, cand30.elements)
    assert rep30.passed and rep30.witnesses["profile"] == [0] + [4] * 7
    tampered = sorted(set(cand20.elements) - {max(cand20.elements)})
    rep_bad = coset_profile(cand20.group, cand20.subgroup, tampered)
    assert not rep_bad.passed
    assert "bad_coset" in rep_bad.witnesses


# ---------------------------------------------------------------------------
# Schur ring
# ---------------------------------------------------------------------------


def test_schur_ring_structure(cand20):
    report, structure = check_schur_ring(cand20.group, cand20.subgroup, cand20.elements)
    assert report.passed
    # D * D^-1 = k*1 + lam*(H-1) + lam*D + lam*D^-1
    assert structure.coordinates[2][3] == (6, 2, 2, 2)
    # D^2 = 2(D + D^-1) + 4(H-1)
    assert structure.coordinates[2][2] == (0, 4, 2, 2)
    # (H-1)^2 = (h-1)*1 + (h-2)*(H-1)
    assert structure.coordinates[1][1] == (3, 2, 0, 0)
    for i in range(4):
        for j in range(4):
            assert structure.coordinates[i][j] == structure.coordinates[j][i]
            assert all(c >= 0 for c in structure.coordinates[i][j])


def test_schur_ring_gnk31(cand31):
    report, structure = check_schur_ring(cand31.group, cand31.subgroup, cand31.elements)
    assert report.passed
    assert structure.coordinates[2][3] == (28, 12, 12, 12)


def _search_finds(spec, budget):
    """The sets a node-budgeted search on the distinguished H finds before it stops.

    They are read from the reference walk, which walks the library's tree,
    and the library's stop must count as many.
    """
    group = build_group(spec)
    sub = group.distinguished_subgroup()
    found = []
    with pytest.raises(BudgetExceededError):
        exhaustive_search_reference(group, sub, budget=budget, found=found)
    with pytest.raises(BudgetExceededError) as stop:
        exhaustive_search(group, sub, budget=budget)
    assert stop.value.found == len(found)
    return group, [c.elements for c in found]


def test_schur_table_matches_the_class_products_oracle(cand20, cand31, gnk4_candidates):
    # every one of the 16 class products, the D*D^-1 cell included, must be
    # what a naive tally of that product gives
    cases = [(cand20.group, c.elements)
             for c in exhaustive_search(cand20.group, cand20.subgroup).candidates]
    assert len(cases) == 16
    cases += [(c.group, c.elements) for c in (cand31, gnk4_candidates[2])]
    c4n3, found = _search_finds("c4n:3", 10_000)
    assert len(found) == 16
    cases += [(c4n3, elements) for elements in found]
    for group, elements in cases:
        sub = group.distinguished_subgroup()
        report, structure = check_schur_ring(group, sub, elements)
        assert report.passed
        assert structure.coordinates == class_products_reference(group, sub, elements)


def test_schur_ring_precondition():
    cand = c4n_difference_set(2)
    with pytest.raises(PreconditionError):
        check_schur_ring(cand.group, cand.subgroup, cand.elements)


def test_non_closing_product_is_the_witness(monkeypatch, cand20):
    # one coefficient of D*D moved off its class: schur names the first class
    # product read from it, and spectrum and hadamard refuse to run
    real = schur.convolve
    d_min = min(cand20.elements)

    def skewed(x, y):
        out = real(x, y)
        if x is y and len(x.support()) == len(cand20.elements):
            out.coeffs[d_min] += 1
        return out

    monkeypatch.setattr(schur, "convolve", skewed)
    args = (cand20.group, cand20.subgroup, cand20.elements)
    report, structure = check_schur_ring(*args)
    assert not report.passed and structure is None
    assert report.witnesses == {"non_closing_product": [2, 2]}
    for check in (spectrum, check_hadamard):
        with pytest.raises(PreconditionError, match="does not span a Schur ring"):
            check(*args)


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------


def test_spectrum_h4(cand20):
    report = spectrum(cand20.group, cand20.subgroup, cand20.elements)
    assert report.passed
    assert report.witnesses["traces"] == [16, 0, 0, 192]
    assert report.witnesses["expected_traces"] == [16, 0, 0, 192]
    assert report.witnesses["annihilation"] is True
    assert all(report.witnesses["maximal_divisors_nonzero"].values())
    assert report.witnesses["cube_identity"] is True
    assert report.witnesses["fourth_identity"] is True


def test_spectrum_h8(cand31):
    report = spectrum(cand31.group, cand31.subgroup, cand31.elements)
    assert report.passed
    assert report.witnesses["traces"] == [64, 0, 0, 21504]


def test_spectrum_precondition(gnk20):
    with pytest.raises(PreconditionError):
        spectrum(gnk20, gnk20.distinguished_subgroup(), [4, 5, 6])


def _spectrum_of(table):
    """``_spectrum`` at h = 4 (k = 6) on the class products ``table``, in the
    class order (1, H-1, D, D^-1)."""
    base = certify.CertReport("rshds", True, groups.ParameterSet(4, m=0))
    return schur._spectrum(base, SchurStructure(tuple(map(tuple, table))))


_UNIT = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))


def test_spectrum_fails_where_a_maximal_divisor_vanishes():
    # class 0 is the unit, D^2 = 12 + 4D and every other product is zero, so
    # (x-6)(2x+4) = 2D^2 - 8D - 24 vanishes and with it the annihilator
    table = [[_UNIT[i + j] if 0 in (i, j) else (0, 0, 0, 0) for j in range(4)] for i in range(4)]
    table[2][2] = (12, 0, 4, 0)
    report = _spectrum_of(table)
    assert not report.passed
    assert report.witnesses == {
        "annihilation": True,
        "maximal_divisors_nonzero": {
            "(x-k)(2x+h)": False, "(x-k)(4x^2+h^2)": True, "(2x+h)(4x^2+h^2)": True},
    }


def test_spectrum_fails_on_wrong_traces():
    # Z[x]/(8x^4 - 32x^3 - 64x^2 - 128x - 384), the annihilator
    # (x-6)(2x+4)(4x^2+16) expanded, with the classes (1, H-1, D, D^-1)
    # standing for (1, x^3, x, x^2): every maximal divisor has degree < 4 and
    # is nonzero, but x, x^2 and x^3 have no constant term, so the traces
    # miss the 192 that the spectrum of D^3 needs
    power = [(1, 0, 0, 0)]  # x^n in the basis (1, x, x^2, x^3)
    for _ in range(6):
        c0, c1, c2, c3 = power[-1]  # times x, with x^4 = 48 + 16x + 8x^2 + 4x^3
        power.append((48 * c3, c0 + 16 * c3, c1 + 8 * c3, c2 + 4 * c3))
    exponent = (0, 3, 1, 2)
    table = [[power[exponent[i] + exponent[j]] for j in range(4)] for i in range(4)]
    table = [[(c0, c3, c1, c2) for c0, c1, c2, c3 in row] for row in table]
    report = _spectrum_of(table)
    assert not report.passed
    assert report.witnesses == {
        "annihilation": True,
        "maximal_divisors_nonzero": {
            "(x-k)(2x+h)": True, "(x-k)(4x^2+h^2)": True, "(2x+h)(4x^2+h^2)": True},
        "traces": [16, 0, 0, 0],
        "expected_traces": [16, 0, 0, 192],
    }


# ---------------------------------------------------------------------------
# Hadamard
# ---------------------------------------------------------------------------


def _fails(check, cand) -> bool:
    try:
        return not check(cand.group, cand.subgroup, cand.elements).passed
    except PreconditionError:
        return True


@pytest.mark.parametrize("i", range(4))
@pytest.mark.parametrize("j", range(4))
def test_spectrum_and_hadamard_read_the_structure_constants(monkeypatch, cand20, i, j):
    # both checks evaluate in Z^4 with the certified table, so a table with
    # any one constant off by one must make each of them fail
    real = schur._schur_structure
    for t in range(4):
        def mutated(*args, t=t):
            base, structure, witnesses = real(*args)
            table = [[list(c) for c in row] for row in structure.coordinates]
            table[i][j][t] += 1
            coords = tuple(tuple(tuple(c) for c in row) for row in table)
            return base, SchurStructure(coords), witnesses

        monkeypatch.setattr(schur, "_schur_structure", mutated)
        assert _fails(spectrum, cand20) and _fails(check_hadamard, cand20), (i, j, t)
    monkeypatch.setattr(schur, "_schur_structure", real)
    assert not _fails(spectrum, cand20) and not _fails(check_hadamard, cand20)


def _not_symmetric(i, j):
    return [f"structure constants not symmetric at ({i},{j})",
            f"structure constants not symmetric at ({j},{i})"]


# each cell of gnk:2,0's structure table whose constants schur compares, and
# the problems it names when any one constant of that cell is lowered by 2
@pytest.mark.parametrize("cell, problems", [
    ((0, 1), _not_symmetric(0, 1)),
    ((0, 2), ["H*D != (h/2)(G-H)", "D and H do not commute", *_not_symmetric(0, 2)]),
    ((2, 2), ["D^2 != (k-lam-h/2)(D+D^-1) + (k-lam)(H-1)"]),
    ((2, 3), ["D and D^-1 do not commute", *_not_symmetric(2, 3)]),
], ids=["symmetry", "H*D", "D^2", "D*D^-1"])
def test_schur_ring_names_each_problem_of_a_changed_constant(monkeypatch, cand20, cell, problems):
    real = schur._schur_structure
    i, j = cell
    for t in range(4):
        def mutated(*args, t=t):
            base, structure, witnesses = real(*args)
            table = [[list(c) for c in row] for row in structure.coordinates]
            table[i][j][t] -= 2
            coords = tuple(tuple(tuple(c) for c in row) for row in table)
            return base, SchurStructure(coords), witnesses

        monkeypatch.setattr(schur, "_schur_structure", mutated)
        report, _ = check_schur_ring(cand20.group, cand20.subgroup, cand20.elements)
        assert not report.passed and report.witnesses["problems"] == problems, t


def test_hadamard_certificate(cand20, cand30):
    for cand in (cand20, cand30):
        report = check_hadamard(cand.group, cand.subgroup, cand.elements)
        assert report.passed


def test_hadamard_matrix_properties(cand20):
    m = hadamard_matrix(cand20.group, cand20.elements)
    n = len(m)
    assert n == 16
    assert all(sum(row) == -4 for row in m)  # 2k - h^2
    for i in range(n):
        for j in range(n):
            dot = sum(m[i][x] * m[j][x] for x in range(n))
            assert dot == (16 if i == j else 0)


def test_hadamard_matches_regular_representation(cand20, gnk4_candidates):
    # the certify ladder's order-256 sets: gnk:4,2, c4n:4 and thm81 on gnk:4,2
    gnk42 = gnk4_candidates[2]
    thm81 = assignment_difference_set(find_hyperplane_assignment(gnk42.group, gnk42.subgroup))
    for cand in (cand20, gnk42, c4n_difference_set(4), thm81):
        expected = hadamard_reference(cand.group, cand.elements)
        assert hadamard_matrix(cand.group, cand.elements) == expected


# ---------------------------------------------------------------------------
# quotient distributions
# ---------------------------------------------------------------------------


def test_quotient_index2(cand20):
    group, sub = cand20.group, cand20.subgroup
    kernels = normal_subgroups_of_prime_index(group)
    assert len(kernels) == 3
    for n, p in kernels:
        assert p == 2
        report = quotient_check(group, sub, cand20.elements, n)
        assert report.passed
        assert report.witnesses["x"] == [2, 4]
        assert report.witnesses["y"] == [4, 0]


def test_quotient_c2_squared_kernel(cand30):
    group, sub = cand30.group, cand30.subgroup
    a1 = gnk_index(3, ((1, 0, 0), (0, 0, 0)))
    kernel = closure(group, list(sub.members) + [a1])
    assert kernel.order == 16
    q, _ = quotient(group, kernel)
    assert fingerprint(q) == (4, True, (1, 2, 2, 2))
    report = quotient_check(group, sub, cand30.elements, kernel)
    assert report.passed
    assert report.witnesses["case"] == "swallowing-quotient"
    assert sorted(report.witnesses["x"]) == [4, 8, 8, 8]
    assert report.witnesses["y"] == [8, 0, 0, 0]


def test_quotient_profile_only():
    # G/N = C4 x C2 is neither of prime order, nor cyclic of order 4, nor on
    # the swallowing list: the counts are reported and nothing is judged
    cand = c4n_difference_set(3)
    group, sub = cand.group, cand.subgroup
    kernel = closure(group, [0, 1, 2, 3, 8, 9, 10, 11])
    assert kernel.members == (0, 1, 2, 3, 8, 9, 10, 11)
    q, proj = quotient(group, kernel)
    assert fingerprint(q) == (8, True, (1, 2, 2, 2, 4, 4, 4, 4))
    report = quotient_check(group, sub, cand.elements, kernel)
    assert report.passed
    assert report.witnesses["case"] == "profile-only"
    assert report.warnings == ["no pass/fail criterion applies to this quotient; profile reported"]
    # a naive count of D and of H in the coset rN of each quotient label
    cosets_of = [{group.mul(proj.index(a), n) for n in kernel.members} for a in range(q.order)]
    assert set().union(*cosets_of) == set(range(group.order))
    assert report.witnesses["x"] == [len(c & set(cand.elements)) for c in cosets_of]
    assert report.witnesses["y"] == [len(c & sub.member_set) for c in cosets_of]
    assert report.witnesses["x"] == [4, 0, 4, 4, 4, 4, 4, 4]
    assert report.witnesses["y"] == [4, 4, 0, 0, 0, 0, 0, 0]


def test_quotient_c4_families(cand20):
    group, sub = cand20.group, cand20.subgroup
    for gens in ([((1, 0), (0, 0))], [((0, 1), (0, 0))]):
        kernel = closure(group, [gnk_index(2, g) for g in gens])
        assert kernel.order == 4
        report = quotient_check(group, sub, cand20.elements, kernel)
        assert report.passed
        assert report.witnesses["case"] == "cyclic-4"
        assert report.witnesses["family"] in ("i", "ii", "iii")


def _c4_quotient_case(name):
    """(G, H, N) with G/N cyclic of order 4 for one of the synthetic cases."""
    if name == "C16":
        group = cyclic_group(16)
        sub = closure(group, [4])
        return group, sub, sub
    # C4 x C4, element (a, b) at index 4a + b; N = <(1,0)>, so the coset of
    # (a, b) is read off b, and H = <(2,0), (0,2)> meets N and (0,2)N twice
    group = direct_product(cyclic_group(4), cyclic_group(4))
    return group, closure(group, [8, 2]), closure(group, [4])


@pytest.mark.parametrize("name, elements, family", [
    ("C4xC4", [0, 1, 2, 3, 7, 11], "i"),
    ("C4xC4", [0, 1, 5, 9, 2, 3], "ii"),
    ("C16", [1, 5, 2, 6, 3, 7], "iii"),
    ("C4xC4", [0, 4, 1, 5, 2, 3], None),
])
def test_quotient_c4_family_of_a_synthetic_profile(name, elements, family):
    # the sets need not be difference sets: only their counts per coset of N
    # are read, along 1, g, g^2, g^3 for the least quotient label g of order 4
    group, sub, kernel = _c4_quotient_case(name)
    report = quotient_check(group, sub, elements, kernel)
    assert report.witnesses["case"] == "cyclic-4"
    assert report.passed is (family is not None)
    assert report.witnesses.get("family") == family
    if family is None:
        assert report.witnesses["problems"] == [
            "profile matches none of the three solved families"
        ]


# C2^4 with the kernel N = <1, 2, 4> of index 2, or N = <1, 2> with G/N =
# C2^2 on the swallowing list; the sets need not be difference sets, and a
# prime-index N must hold H, meet D in h(h-p)/(2p) = 2 points and every
# other coset in h^2/(2p) = 4
@pytest.mark.parametrize("h_gens, kernel_gens, elements, case, problem", [
    ([1, 2], [1, 2, 4], [4, 5, 8, 9, 10, 11], "prime-index", None),
    ([1, 8], [1, 2, 4], [4, 5, 8, 9, 10, 11], "prime-index",
     "subgroup is not contained in the kernel"),
    ([1, 2], [1, 2, 4], [4, 5, 6, 8, 9, 10, 11], "prime-index",
     "|N meet D| != h(h-p)/(2p) for p=2"),
    ([1, 2], [1, 2, 4], [4, 5, 8, 9, 10], "prime-index",
     "coset 1 does not meet D in h^2/(2p) points"),
    ([4, 8], [1, 2], [], "swallowing-quotient", "subgroup is not contained in the kernel"),
])
def test_quotient_check_names_each_problem(h_gens, kernel_gens, elements, case, problem):
    group = elementary_abelian_2_group(4)
    report = quotient_check(group, closure(group, h_gens), elements, closure(group, kernel_gens))
    assert report.witnesses["case"] == case
    assert report.passed is (problem is None)
    assert report.witnesses.get("problems") == (None if problem is None else [problem])


def test_quotient_requires_normal_kernel():
    s3 = dihedral_group(3)
    refl = next(x for x in involutions(s3) if x >= 3)
    with pytest.raises(GroupError):
        quotient_check(s3, closure(s3, []), [], closure(s3, [refl]))


def test_all_prime_index_kernels_contain_subgroup(cand20, cand30, cand31):
    # index-2 kernels swallow H and meet D in lambda points, on instances
    for cand in (cand20, cand30, cand31):
        for n, p in normal_subgroups_of_prime_index(cand.group):
            report = quotient_check(cand.group, cand.subgroup, cand.elements, n)
            assert report.passed
            assert report.witnesses["x"][0] == cand.params.lam


# ---------------------------------------------------------------------------
# structural screening
# ---------------------------------------------------------------------------


def test_structural_tests_family(cand20):
    report = structural_tests(cand20.group, 4, cand20.subgroup)
    assert report.passed
    assert all(report.witnesses[t]["pass"] for t in ("T1", "T2", "T3", "T4"))


def test_structural_tests_elementary_abelian_fails_t2(c2_4):
    report = structural_tests(c2_4, 4)
    assert not report.passed
    assert report.witnesses["T2"]["pass"] is False
    assert report.witnesses["T2"]["involution_closure_order"] == 16


def test_structural_tests_g36(g36, g36_h):
    report = structural_tests(g36, 6, g36_h)
    assert report.passed
    assert all(report.witnesses[t]["pass"] for t in ("T1", "T2", "T3", "T4"))
    assert report.witnesses["T1"]["core_order"] == 6


@pytest.mark.parametrize("factor,t1,t2,t3", [
    (cyclic_group(12), (False, 4, 7, 18), (True, 4), (True, 28)),
    (dihedral_group(6), (False, 1, 15, 66), (False, 144), (True, 14)),
], ids=["C12xC12", "D6xD6"])
def test_structural_tests_order_144(factor, t1, t2, t3):
    report = structural_tests(direct_product(factor, factor), 12)
    w = report.witnesses
    assert (w["T1"]["pass"], w["T1"]["core_order"], w["T1"]["prime_index_kernels"],
            w["T1"]["swallowing_kernels"]) == t1
    assert (w["T2"]["pass"], w["T2"]["involution_closure_order"]) == t2
    assert (w["T3"]["pass"], w["T3"]["normal_subgroups_of_order_h"]) == t3
    assert not report.passed and w["T4"] == {"pass": None}


def test_structural_tests_order_256_certified_group():
    # gnk:4,2 carries a certified set, so the paper's theorems force T1-T4
    g = build_group("gnk:4,2")
    report = structural_tests(g, 16, g.distinguished_subgroup())
    assert report.passed
    assert all(report.witnesses[t]["pass"] for t in ("T1", "T2", "T3", "T4"))


@pytest.mark.parametrize("spec", ["c4n:4", "gnk:4,0"])
def test_structural_tests_order_256_with_h(spec):
    g = build_group(spec)
    report = structural_tests(g, 16, g.distinguished_subgroup())
    assert report.passed
    assert report.witnesses == {
        "T1": {"pass": True, "core_order": 16, "prime_index_kernels": 15, "swallowing_kernels": 50},
        "T2": {"pass": True, "involution_closure_order": 16},
        "T3": {"pass": True, "normal_subgroups_of_order_h": 771},
        "T4": {"pass": True},
    }


def test_screen_closure_count(monkeypatch):
    # classes by generator orbits, class closures found once per group, and a
    # T4 search that skips every subgroup meeting H: 999 closures before
    group = build_group("c4n:3")
    calls = []
    real = groups.closure_members

    def counted(group, generators):
        calls.append(1)
        return real(group, generators)

    monkeypatch.setattr(groups, "closure_members", counted)
    monkeypatch.setattr(screen, "closure_members", counted)  # screen's import of it
    assert structural_tests(group, 8, group.distinguished_subgroup()).passed
    assert 0 < len(calls) <= 250


@pytest.mark.parametrize("spec", ["c4n:3", "gnk:3,1", "file:c4n:3"])
def test_screen_finds_the_group_generators_once(monkeypatch, tmp_path, spec):
    # every is_normal call and the prime-index kernels conjugate by the same
    # generators of G: a gnk group finds them on first use, and a table read
    # by read_cayley keeps the ones its proof found
    whole = []
    real = groups._irredundant_generators

    def counted(table):
        if len(table) == 64:
            whole.append(1)
        return real(table)

    monkeypatch.setattr(groups, "_irredundant_generators", counted)
    monkeypatch.setattr(screen, "_irredundant_generators", counted)  # the table proof's
    if spec.startswith("file:"):
        path = tmp_path / "g.cayley.json"
        write_cayley(build_group(spec[5:]), path)
        group = read_cayley(path)
        sub = groups.Subgroup(group, range(8))  # the distinguished H of c4n:3
    else:
        group = build_group(spec)
        sub = group.distinguished_subgroup()
    assert structural_tests(group, 8, sub).passed
    assert len(whole) == 1


def test_structural_tests_t4_names_the_first_complement():
    g = direct_product(cyclic_group(4), cyclic_group(4))
    report = structural_tests(g, 4, closure(g, [1]))
    assert report.witnesses["T4"] == {"pass": False, "complement": [0, 4, 8, 12]}
    assert not report.passed


def _no_kernel_built(*args):
    raise AssertionError("a prime-index kernel or quotient table was built")


# the square REFERENCE_GROUPS and C6xC6, whose |G:K_3| = 9 gives it both a
# C2^2 and a C3xC3 quotient; order 4 is the kernel order of C9 and of C3xC3
_SCREEN_REFERENCE_GROUPS = {
    **{name: g for name, g in REFERENCE_GROUPS.items() if round(g.order ** 0.5) ** 2 == g.order},
    "C6xC6": direct_product(cyclic_group(6), cyclic_group(6)),
}


@pytest.mark.parametrize("name", sorted(_SCREEN_REFERENCE_GROUPS))
def test_structural_tests_match_the_reference_screen(monkeypatch, name):
    # H = None and every subgroup of order h, normal or not; T1 reads its
    # prime-index and elementary abelian kernels off G'G^p, so it builds no
    # quotient table
    g = _SCREEN_REFERENCE_GROUPS[name]
    h = round(g.order ** 0.5)
    subs = [None, *subgroups_of_order_reference(g, h)]
    expected = structural_tests_reference(g, h, subs, screen._SWALLOWING_FINGERPRINTS)
    for route in ("quotient", "normal_subgroups_of_prime_index"):
        monkeypatch.setattr(groups, route, _no_kernel_built)
    monkeypatch.setattr(screen, "quotient", _no_kernel_built)  # screen's import of it
    for members, reference in zip(subs, expected):
        report = structural_tests(g, h, None if members is None else groups.Subgroup(g, members))
        assert (report.passed, report.witnesses) == reference, members


def _subspaces_by_size(p, s):
    """Sizes of all subspaces of F_p^s, each grown from {0} one vector at a time."""
    vectors = list(product(range(p), repeat=s))
    zero = frozenset([(0,) * s])
    seen, frontier = {zero}, [zero]
    while frontier:
        nxt = []
        for space in frontier:
            for v in vectors:
                if v not in space:
                    grown = frozenset(tuple((a + c * b) % p for a, b in zip(u, v))
                                      for u in space for c in range(p))
                    if grown not in seen:
                        seen.add(grown)
                        nxt.append(grown)
        frontier = nxt
    return Counter(len(space) for space in seen)


@pytest.mark.parametrize("p, s", [(p, s) for p in (2, 3) for s in range(5)])
def test_subspace_count_is_the_brute_force_count(p, s):
    sizes = _subspaces_by_size(p, s)
    for r in range(1, s + 2):
        assert screen._subspace_count(p, p ** s, p ** r) == sizes[p ** (s - r)], r
    assert screen._subspace_count(p, p ** s, p) == (p ** s - 1) // (p - 1)


def test_a_c4n3_screen_walks_only_to_h_and_fingerprints_no_kernel(monkeypatch):
    # every swallowing shape of an order dividing 64 is elementary abelian, so
    # T1 counts its kernels off G/K_2 and the walk's one target is h = 8
    walks, shapes = [], []
    real_walk, real_fingerprint = screen._normal_subgroups_dividing, screen.fingerprint

    def walk(group, orders):
        walks.append(sorted(orders))
        return real_walk(group, orders)

    def counted(group, kernel=None):
        shapes.append(real_fingerprint(group, kernel))
        return shapes[-1]

    monkeypatch.setattr(screen, "_normal_subgroups_dividing", walk)
    monkeypatch.setattr(screen, "fingerprint", counted)
    group = C4PowerGroup(3)
    report = structural_tests(group, 8, group.distinguished_subgroup())
    assert report.passed and walks == [[8]] and shapes == []
    assert report.witnesses["T1"]["swallowing_kernels"] > 0


def test_swallowing_fingerprints_are_the_ten_shapes():
    # C2^2, C2^3, D3, C6, C9, C3xC3, C10, D5, C2xD3 and C2xC6
    c2, c3, c6 = cyclic_group(2), cyclic_group(3), cyclic_group(6)
    shapes = [
        elementary_abelian_2_group(2), elementary_abelian_2_group(3), dihedral_group(3), c6,
        cyclic_group(9), direct_product(c3, c3), cyclic_group(10), dihedral_group(5),
        direct_product(c2, dihedral_group(3)), direct_product(c2, c6),
    ]
    assert screen._SWALLOWING_FINGERPRINTS == {fingerprint(g) for g in shapes}
    assert len(screen._SWALLOWING_FINGERPRINTS) == 10


_SQUARE_GROUPS = sorted(
    name for name, g in REFERENCE_GROUPS.items() if round(g.order ** 0.5) ** 2 == g.order
)


def _screens(name):
    """Every screen of a REFERENCE_GROUPS group: H = None and each subgroup of order h."""
    g = REFERENCE_GROUPS[name]
    h = round(g.order ** 0.5)
    for sub in [None, *subgroups_of_order(g, h)]:
        yield g, h, sub


@pytest.mark.parametrize("name", _SQUARE_GROUPS)
def test_structural_tests_walk_the_normal_lattice_once(monkeypatch, name):
    # T1's kernels and T3's normal subgroups of order h come from one call
    calls = []
    real = screen.subgroups_of_order

    def counted(*args, **kwargs):
        calls.append(args[1:])
        return real(*args, **kwargs)

    monkeypatch.setattr(screen, "subgroups_of_order", counted)
    for g, h, sub in _screens(name):
        calls.clear()
        structural_tests(g, h, sub)
        assert len(calls) == 1 and calls[0][0] == h, calls


@pytest.mark.parametrize("name", _SQUARE_GROUPS)
def test_structural_tests_build_no_quotient(monkeypatch, name):
    # each swallowing kernel's quotient shape is read off G, and no kernel
    # is proved normal again: G'G^p is normal as the closure of a class union
    reports = [structural_tests(g, h, sub) for g, h, sub in _screens(name)]

    def refused(*args):
        raise AssertionError("structural_tests built a quotient or proved normality")

    monkeypatch.setattr(screen, "quotient", refused)
    for namespace in (groups, screen):
        monkeypatch.setattr(namespace, "is_normal", refused)
    assert [structural_tests(g, h, sub) for g, h, sub in _screens(name)] == reports


def test_structural_tests_wrong_order(g36):
    with pytest.raises(GroupError):
        structural_tests(g36, 4)


# ---------------------------------------------------------------------------
# instance-level theorem invariants
# ---------------------------------------------------------------------------


def test_involutions_inside_subgroup_for_candidates(cand20, cand30, cand31):
    for cand in (cand20, cand30, cand31):
        for g in involutions(cand.group):
            assert g in cand.subgroup


def test_row_sums_and_irreducibility(cand31):
    # every row/column of 2D - J sums to 2k - v, as D meets each translate in
    # k points, and the support generates the whole group (strong
    # connectivity of the Cayley digraph)
    matrix = hadamard_reference(cand31.group, cand31.elements)
    total = 2 * cand31.params.k - cand31.params.v
    assert all(sum(row) == total for row in matrix)
    assert all(sum(matrix[i][j] for i in range(64)) == total for j in range(64))
    assert closure(cand31.group, cand31.elements).order == cand31.group.order


def test_full_certificate_suite_on_all_constructions(gnk4_candidates):
    candidates = [gnk_difference_set(n, k) for n in (2, 3) for k in range(n - 1)]
    candidates += gnk4_candidates
    c4n_cands = [c4n_difference_set(n) for n in (2, 3)]
    for cand in candidates:
        assert check_difference_set(cand.group, cand.elements).passed
        assert coset_profile(cand.group, cand.subgroup, cand.elements).passed
        assert check_rshds(cand.group, cand.subgroup, cand.elements).passed
        assert check_schur_ring(cand.group, cand.subgroup, cand.elements)[0].passed
        assert spectrum(cand.group, cand.subgroup, cand.elements).passed
        assert check_hadamard(cand.group, cand.subgroup, cand.elements).passed
    for cand in c4n_cands:
        assert check_difference_set(cand.group, cand.elements).passed
        assert coset_profile(cand.group, cand.subgroup, cand.elements).passed
