from __future__ import annotations

import pytest

from rshds import f2


def test_dot_examples():
    assert f2.dot((1, 0), (1, 0)) == 1
    assert f2.dot((1, 1), (1, 1)) == 0
    assert f2.dot((1, 1, 1), (1, 1, 0)) == 0


def test_dot_dimension_mismatch():
    with pytest.raises(ValueError):
        f2.dot((1, 0), (1, 0, 0))


def test_nonorthogonal_mate_examples():
    assert f2.nonorthogonal_mate((1, 0)) == (1, 0)
    assert f2.nonorthogonal_mate((1, 1)) == (0, 1)
    assert f2.nonorthogonal_mate((0, 1)) == (1, 1)
    # prefix (1,1,0) xor (1,0,1) = (0,1,1), and the dot comes out 1
    assert f2.nonorthogonal_mate((1, 0, 1)) == (0, 1, 1)
    assert f2.dot((1, 0, 1), (0, 1, 1)) == 1


def test_orthogonal_mate_examples():
    assert f2.orthogonal_mate((1, 1)) == (1, 1)
    assert f2.orthogonal_mate((1, 1, 1)) == (1, 1, 0)
    assert f2.orthogonal_mate((0, 1, 0)) == (1, 0, 1)
    assert f2.dot((0, 1, 0), (1, 0, 1)) == 0


def test_mates_reject_zero_and_dimension_one():
    with pytest.raises(ValueError):
        f2.nonorthogonal_mate((0, 0, 0))
    with pytest.raises(ValueError):
        f2.orthogonal_mate((0, 0))
    with pytest.raises(ValueError):
        f2.orthogonal_mate((1,))


def test_nonorthogonal_mate_involution_bijection_exhaustive():
    for n in range(1, 15):
        seen = set()
        for v in f2.nonzero_vectors(n):
            m = f2.nonorthogonal_mate(v)
            assert any(m)
            assert f2.dot(v, m) == 1
            assert f2.nonorthogonal_mate(m) == v
            seen.add(m)
        assert len(seen) == 2**n - 1


def test_orthogonal_mate_involution_bijection_exhaustive():
    for n in range(2, 15):
        seen = set()
        for v in f2.nonzero_vectors(n):
            m = f2.orthogonal_mate(v)
            assert any(m)
            assert f2.dot(v, m) == 0
            assert f2.orthogonal_mate(m) == v
            seen.add(m)
        assert len(seen) == 2**n - 1


def test_orthogonal_mate_exceptional_set_distinct_for_odd_n():
    for n in (3, 5, 7):
        special = {
            f2.zero(n),
            (1,) + (0,) * (n - 1),
            (1, 1) + (0,) * (n - 2),
            (0,) + (1,) * (n - 1),
            (0, 0) + (1,) * (n - 2),
            (1,) * n,
        }
        assert len(special) == 6


def test_hyperplane_members_examples():
    assert set(f2.hyperplane_members((1, 0))) == {(0, 0), (0, 1)}
    assert set(f2.hyperplane_members((1, 1))) == {(0, 0), (1, 1)}
    members = f2.hyperplane_members((1, 1, 1))
    assert len(members) == 4
    assert all(f2.dot(m, (1, 1, 1)) == 0 for m in members)


def test_hyperplanes_are_subgroups_and_injective():
    for n in range(1, 7):
        seen = {}
        for normal in f2.nonzero_vectors(n):
            members = set(f2.hyperplane_members(normal))
            assert len(members) == 2 ** (n - 1)
            assert f2.zero(n) in members
            for a in members:
                for b in members:
                    assert f2.xor(a, b) in members
            key = frozenset(members)
            assert key not in seen
            seen[key] = normal


def test_square_map_nonsingular_examples():
    assert f2.square_map_nonsingular(3, 1) is True
    assert f2.square_map_nonsingular(3, 2) is False
    assert f2.square_map_nonsingular(2, 0) is True


def test_square_map_nonsingular_iff_k_below_n_minus_1():
    for n in range(2, 13):
        for k in range(0, n):
            assert f2.square_map_nonsingular(n, k) == (k < n - 1)


def test_square_map_rejects_bad_arguments():
    with pytest.raises(ValueError):
        f2.square_map_nonsingular(1, 0)
    with pytest.raises(ValueError):
        f2.square_map_nonsingular(3, 3)
    with pytest.raises(ValueError):
        f2.square_map_nonsingular(3, -1)
