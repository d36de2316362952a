from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import naive_difference_tally, naive_product_tally
from rshds.algebra import (
    AlgebraElement,
    AlgebraError,
    convolve,
    from_set,
    full_sum,
    regular_matrix,
    unit,
)
from rshds.groups import C4PowerGroup, GnkGroup, cyclic_group


def test_from_set_examples(gnk20):
    assert from_set(gnk20, []).is_zero()
    assert from_set(gnk20, [0]) == unit(gnk20)
    assert from_set(gnk20, range(16)) == full_sum(gnk20)
    with pytest.raises(AlgebraError):
        from_set(gnk20, [3, 3])


def test_convolve_deltas(gnk20):
    for g in (1, 5, 11):
        for h in (2, 7, 14):
            prod = convolve(from_set(gnk20, [g]), from_set(gnk20, [h]))
            assert prod == from_set(gnk20, [gnk20.mul(g, h)])


def test_subgroup_indicator_squares(gnk20, gnk31):
    for group in (gnk20, gnk31):
        h = group.distinguished_subgroup()
        h_el = from_set(group, h.members)
        assert convolve(h_el, h_el) == h.order * h_el


def test_difference_set_times_subgroup(cand20):
    group, h = cand20.group, cand20.subgroup
    d = from_set(group, cand20.elements)
    h_el = from_set(group, h.members)
    g_el = full_sum(group)
    assert convolve(d, h_el) == 2 * (g_el - h_el)


def test_star(gnk20):
    x = from_set(gnk20, [5])
    assert x.star() == from_set(gnk20, [gnk20.inv(5)])
    rnd = AlgebraElement(gnk20, [i % 5 - 2 for i in range(16)])
    assert rnd.star().star() == rnd
    h_el = from_set(gnk20, gnk20.distinguished_subgroup().members)
    assert h_el.star() == h_el


def test_identity_coefficient(cand20):
    group = cand20.group
    d = from_set(group, cand20.elements)
    assert d.identity_coefficient() == 0
    prod = convolve(d, d.star())
    oracle = naive_difference_tally(group, cand20.elements)
    assert prod.identity_coefficient() == oracle[0] == 6
    assert unit(group).identity_coefficient() == 1


def test_poly_eval_examples(cand20):
    # (D-6)(2D+4)(4D^2+16) = 0 for the canonical gnk:2,0 set, multiplied out
    # factor by factor in the group algebra (the certificates do it in Z^4)
    group = cand20.group
    d = from_set(group, cand20.elements)
    one = unit(group)
    h_el = from_set(group, group.distinguished_subgroup().members)
    assert convolve(h_el, h_el) == 4 * h_el
    factors = [d - 6 * one, 2 * d + 4 * one, 4 * convolve(d, d) + 16 * one]
    assert not any(f.is_zero() for f in factors)
    product = convolve(convolve(factors[0], factors[1]), factors[2])
    assert product.is_zero()
    assert not convolve(factors[0], factors[1]).is_zero()


def test_convolve_group_mismatch(gnk20, gnk31):
    with pytest.raises(AlgebraError):
        convolve(unit(gnk20), unit(gnk31))


def test_convolution_associative_distributive():
    rng = random.Random(20240811)
    for group in (GnkGroup(2, 0), C4PowerGroup(3), cyclic_group(12)):
        for _ in range(4):
            def sparse():
                coeffs = [0] * group.order
                for _ in range(5):
                    coeffs[rng.randrange(group.order)] += rng.randint(-3, 3)
                return AlgebraElement(group, coeffs)

            x, y, z = sparse(), sparse(), sparse()
            assert convolve(convolve(x, y), z) == convolve(x, convolve(y, z))
            assert convolve(x, y + z) == convolve(x, y) + convolve(x, z)
            assert convolve(x + y, z) == convolve(x, z) + convolve(y, z)


def test_parseval_identity():
    rng = random.Random(7)
    group = GnkGroup(3, 1)
    coeffs = [rng.randint(-4, 4) for _ in range(group.order)]
    x = AlgebraElement(group, coeffs)
    prod = convolve(x, x.star())
    assert prod.identity_coefficient() == sum(c * c for c in coeffs)


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


def test_regular_matrix_is_faithful(cand20):
    group = cand20.group
    d = from_set(group, cand20.elements)
    m = regular_matrix(d)
    assert all(sum(row) == 6 for row in m)
    assert all(sum(m[i][j] for i in range(16)) == 6 for j in range(16))
    # matrix product of regular representations = representation of convolution
    h_el = from_set(group, group.distinguished_subgroup().members)
    mh = regular_matrix(h_el)
    prod = [
        [sum(m[i][k] * mh[k][j] for k in range(16)) for j in range(16)]
        for i in range(16)
    ]
    assert prod == regular_matrix(convolve(d, h_el))


def test_scalar_and_vector_ops(gnk20):
    x = from_set(gnk20, [1, 2, 3])
    assert (3 * x).coeffs[1] == 3
    assert (x * 2).coeffs[2] == 2
    assert (-x + x).is_zero()
    assert (x - x).is_zero()
    assert AlgebraElement(gnk20, [0] * 16).is_zero()
