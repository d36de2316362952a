from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import naive_difference_tally, naive_product_tally
from rshds.algebra import AlgebraElement, AlgebraError, convolve, from_set
from rshds.groups import IDENTITY, C4PowerGroup, GnkGroup
from rshds.screen import cyclic_group

# Sums and scalar multiples are formed on plain coefficient lists, and
# elements are compared by their ``coeffs``.


def _comb(*terms):
    """The coefficient list of sum c*x over the (c, x) pairs, x a list."""
    return [sum(c * x[g] for c, x in terms) for g in range(len(terms[0][1]))]


def _delta(group, g=IDENTITY):
    return [int(a == g) for a in range(group.order)]


def _oracle_product(group, x, y):
    """x*y by naive tallies: each coefficient list is split into its positive
    and negative parts, written as multisets of indices."""
    def parts(z):
        return ([g for g, c in enumerate(z) for _ in range(c)],
                [g for g, c in enumerate(z) for _ in range(-c)])

    (xp, xn), (yp, yn) = parts(x), parts(y)
    out = [0] * group.order
    for left, right, sign in ((xp, yp, 1), (xp, yn, -1), (xn, yp, -1), (xn, yn, 1)):
        for g, count in naive_product_tally(group, left, right).items():
            out[g] += sign * count
    return out


def _product(group, x, y):
    """convolve on coefficient lists, checked against the naive-tally oracle."""
    out = convolve(AlgebraElement(group, x), AlgebraElement(group, y)).coeffs
    assert out == _oracle_product(group, x, y)
    return out


def test_from_set_examples(gnk20):
    assert from_set(gnk20, []).coeffs == [0] * 16
    assert from_set(gnk20, [0]).coeffs == _delta(gnk20)
    assert from_set(gnk20, range(16)).coeffs == [1] * 16
    with pytest.raises(AlgebraError):
        from_set(gnk20, [3, 3])


def test_convolve_deltas(gnk20):
    for g in (1, 5, 11):
        for h in (2, 7, 14):
            prod = convolve(from_set(gnk20, [g]), from_set(gnk20, [h]))
            assert prod.coeffs == _delta(gnk20, gnk20.mul(g, h))


def test_subgroup_indicator_squares(gnk20, gnk31):
    for group in (gnk20, gnk31):
        h = group.distinguished_subgroup()
        h_el = from_set(group, h.members)
        assert convolve(h_el, h_el).coeffs == _comb((h.order, h_el.coeffs))


def test_difference_set_times_subgroup(cand20):
    group, h = cand20.group, cand20.subgroup
    d = from_set(group, cand20.elements)
    h_el = from_set(group, h.members)
    assert convolve(d, h_el).coeffs == _comb((2, [1] * group.order), (-2, h_el.coeffs))


def test_star(gnk20):
    x = from_set(gnk20, [5])
    assert x.star().coeffs == _delta(gnk20, gnk20.inv(5))
    coeffs = [i % 5 - 2 for i in range(16)]
    assert AlgebraElement(gnk20, coeffs).star().star().coeffs == coeffs
    h_el = from_set(gnk20, gnk20.distinguished_subgroup().members)
    assert h_el.star().coeffs == h_el.coeffs


def test_identity_coefficient(cand20):
    group = cand20.group
    d = from_set(group, cand20.elements)
    assert d.coeffs[IDENTITY] == 0
    prod = convolve(d, d.star())
    oracle = naive_difference_tally(group, cand20.elements)
    assert prod.coeffs[IDENTITY] == oracle[IDENTITY] == 6


def test_poly_eval_examples(cand20):
    # (D-6)(2D+4)(4D^2+16) = 0 for the canonical gnk:2,0 set, multiplied out
    # factor by factor in the group algebra (the certificates do it in Z^4)
    group = cand20.group
    d = from_set(group, cand20.elements).coeffs
    one = _delta(group)
    h_el = from_set(group, group.distinguished_subgroup().members).coeffs
    assert _product(group, h_el, h_el) == _comb((4, h_el))
    factors = [
        _comb((1, d), (-6, one)),
        _comb((2, d), (4, one)),
        _comb((4, _product(group, d, d)), (16, one)),
    ]
    assert all(any(f) for f in factors)
    first_two = _product(group, factors[0], factors[1])
    assert any(first_two)
    assert not any(_product(group, first_two, factors[2]))


def test_convolve_group_mismatch(gnk20, gnk31):
    with pytest.raises(AlgebraError):
        convolve(from_set(gnk20, [0]), from_set(gnk31, [0]))


def test_convolution_associative_distributive():
    rng = random.Random(20240811)
    for group in (GnkGroup(2, 0), C4PowerGroup(3), cyclic_group(12)):
        for _ in range(4):
            def sparse():
                coeffs = [0] * group.order
                for _ in range(5):
                    coeffs[rng.randrange(group.order)] += rng.randint(-3, 3)
                return coeffs

            x, y, z = sparse(), sparse(), sparse()
            assert (_product(group, _product(group, x, y), z)
                    == _product(group, x, _product(group, y, z)))
            assert (_product(group, x, _comb((1, y), (1, z)))
                    == _comb((1, _product(group, x, y)), (1, _product(group, x, z))))
            assert (_product(group, _comb((1, x), (1, y)), z)
                    == _comb((1, _product(group, x, z)), (1, _product(group, y, z))))


def test_parseval_identity():
    rng = random.Random(7)
    group = GnkGroup(3, 1)
    coeffs = [rng.randint(-4, 4) for _ in range(group.order)]
    x = AlgebraElement(group, coeffs)
    prod = _product(group, coeffs, x.star().coeffs)
    assert prod[IDENTITY] == sum(c * c for c in coeffs)


def test_convolution_matches_naive_tally():
    rng = random.Random(99)
    for group in (GnkGroup(2, 0), C4PowerGroup(3), cyclic_group(60)):
        support = rng.sample(range(group.order), min(40, group.order // 2))
        x = from_set(group, support)
        prod = convolve(x, x.star())
        oracle = naive_difference_tally(group, support)
        for g in range(group.order):
            assert prod.coeffs[g] == oracle.get(g, 0)
        other = rng.sample(range(group.order), 7)
        y = from_set(group, other)
        prod2 = convolve(x, y)
        oracle2 = naive_product_tally(group, support, other)
        for g in range(group.order):
            assert prod2.coeffs[g] == oracle2.get(g, 0)


_PROPERTY_GROUPS = (GnkGroup(2, 0), GnkGroup(3, 1), C4PowerGroup(2), cyclic_group(12))


@st.composite
def _subset_pairs(draw):
    group = draw(st.sampled_from(_PROPERTY_GROUPS))
    subset = st.sets(st.integers(0, group.order - 1), max_size=group.order)
    return group, sorted(draw(subset)), sorted(draw(subset))


@settings(deadline=None)
@given(_subset_pairs())
def test_convolve_matches_naive_product_tally(case):
    group, left, right = case
    prod = convolve(from_set(group, left), from_set(group, right))
    tally = naive_product_tally(group, left, right)
    assert prod.coeffs == [tally.get(g, 0) for g in range(group.order)]

