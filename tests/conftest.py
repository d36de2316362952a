from __future__ import annotations

import pytest

from rshds import constructions, fixtures, groups, screen


@pytest.fixture(scope="session")
def gnk20():
    return groups.GnkGroup(2, 0)


@pytest.fixture(scope="session")
def gnk31():
    return groups.GnkGroup(3, 1)


@pytest.fixture(scope="session")
def cand20():
    return constructions.gnk_difference_set(2, 0)


@pytest.fixture(scope="session")
def cand30():
    return constructions.gnk_difference_set(3, 0)


@pytest.fixture(scope="session")
def cand31():
    return constructions.gnk_difference_set(3, 1)


@pytest.fixture(scope="session")
def gnk4_candidates():
    return [constructions.gnk_difference_set(4, k) for k in (0, 1, 2)]


@pytest.fixture(scope="session")
def g36():
    return fixtures.g36_1()


@pytest.fixture(scope="session")
def g36_h(g36):
    normal6 = groups.subgroups_of_order(g36, 6, normal=True)
    assert len(normal6) == 1
    return normal6[0]


@pytest.fixture(scope="session")
def c2_4():
    return screen.elementary_abelian_2_group(4)
