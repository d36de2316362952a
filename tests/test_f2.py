from __future__ import annotations

import pytest

from rshds import f2
from rshds.constructions import _hyperplanes
from rshds.groups import IDENTITY, C4PowerGroup, GnkGroup, subgroups_of_order
from rshds.screen import elementary_abelian_2_group


def test_dot_examples():
    assert f2.dot(0b10, 0b10) == 1
    assert f2.dot(0b11, 0b11) == 0
    assert f2.dot(0b111, 0b110) == 0


def test_nonorthogonal_mate_examples():
    assert f2.nonorthogonal_mate(0b10, 2) == 0b10
    assert f2.nonorthogonal_mate(0b11, 2) == 0b01
    assert f2.nonorthogonal_mate(0b01, 2) == 0b11
    # prefix 110 xor 101 = 011, and the dot comes out 1
    assert f2.nonorthogonal_mate(0b101, 3) == 0b011
    assert f2.dot(0b101, 0b011) == 1


def test_orthogonal_mate_examples():
    assert f2.orthogonal_mate(0b11, 2) == 0b11
    assert f2.orthogonal_mate(0b111, 3) == 0b110
    assert f2.orthogonal_mate(0b010, 3) == 0b101
    assert f2.dot(0b010, 0b101) == 0


def test_mates_reject_zero_and_dimension_one():
    with pytest.raises(ValueError):
        f2.nonorthogonal_mate(0, 3)
    with pytest.raises(ValueError):
        f2.orthogonal_mate(0, 2)
    with pytest.raises(ValueError):
        f2.orthogonal_mate(1, 1)


def test_nonorthogonal_mate_involution_bijection_exhaustive():
    for n in range(1, 15):
        seen = set()
        for v in range(1, 1 << n):
            m = f2.nonorthogonal_mate(v, n)
            assert 0 < m < 1 << n
            assert f2.dot(v, m) == 1
            assert f2.nonorthogonal_mate(m, n) == v
            seen.add(m)
        assert len(seen) == 2**n - 1


def test_orthogonal_mate_involution_bijection_exhaustive():
    for n in range(2, 15):
        seen = set()
        for v in range(1, 1 << n):
            m = f2.orthogonal_mate(v, n)
            assert 0 < m < 1 << n
            assert f2.dot(v, m) == 0
            assert f2.orthogonal_mate(m, n) == v
            seen.add(m)
        assert len(seen) == 2**n - 1


def test_orthogonal_mate_exceptional_set_distinct_for_odd_n():
    for n in (3, 5, 7):
        full = (1 << n) - 1
        special = {0, 1 << (n - 1), 3 << (n - 2), full >> 1, full >> 2, full}
        assert len(special) == 6


def test_hyperplanes_are_subgroups_and_injective():
    # H's own vectors in c4n:1..4 and gnk:3,1, and the coordinates that
    # coordinatize_elementary_abelian picks on the 8 subgroups of C2^3 of order 4 or 8
    cases = [(group, group.distinguished_subgroup())
             for group in (*map(C4PowerGroup, range(1, 5)), GnkGroup(3, 1))]
    e8 = elementary_abelian_2_group(3)
    cases += [(e8, sub) for sub in subgroups_of_order(e8, 4, 8)]
    assert len(cases) == 13
    for group, sub in cases:
        planes = _hyperplanes(group, sub)
        assert sorted(planes) == list(range(1, sub.order))
        for members in planes.values():
            assert len(members) == sub.order // 2
            assert IDENTITY in members and members <= sub.member_set
            assert all(group.mul(a, b) in members for a in members for b in members)
        assert len(set(planes.values())) == sub.order - 1
