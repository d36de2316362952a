from __future__ import annotations

import copy
import itertools
import pickle
import random
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    NONASSOCIATIVE_LOOP_5,
    _closure,
    c4n_index,
    c4n_word,
    gaussian_binomial,
    gnk_index,
    gnk_word,
    _fingerprint_reference,
    is_abelian_reference,
    is_normal_reference,
    is_subgroup_reference,
    light_first_failure_reference,
    nonassociative_triple,
    prime_index_reference,
    quotient_reference,
    subgroups_of_order_reference,
    word_mul,
)
from rshds import fixtures
from rshds.groups import (
    C4PowerGroup,
    CayleyTableGroup,
    GnkGroup,
    GroupError,
    GroupTableError,
    ParameterSet,
    Subgroup,
    closure,
    closure_members,
    coordinatize_elementary_abelian,
    cosets,
    _irredundant_generators,
    _twisted_table,
    is_normal,
    normal_subgroups_of_prime_index,
    quotient,
    subgroups_of_order,
)
from rshds.screen import (
    SUBGROUP_ENUM_CAP,
    cyclic_group,
    dihedral_group,
    direct_product,
    elementary_abelian_2_group,
    fingerprint,
    involutions,
    _commutator_power_subgroup,
    validate_group_table,
)


def word(group: GnkGroup, e, f=None):
    return gnk_index(group.n, (e, f if f is not None else (0,) * group.n))


# ---------------------------------------------------------------------------
# backends
# ---------------------------------------------------------------------------


def test_gnk_defining_relation_square():
    g = GnkGroup(2, 0)
    a1 = word(g, (1, 0))
    assert g.mul(a1, a1) == word(g, (0, 0), (1, 0))  # a1^2 = b1


def test_gnk_twist_relation():
    g = GnkGroup(3, 1)
    a1 = word(g, (1, 0, 0))
    a2 = word(g, (0, 1, 0))
    assert g.mul(a2, a1) == word(g, (1, 1, 0), (1, 0, 0))  # a2 a1 = a1 a2 b1


def test_gnk_square_of_two_letter_word():
    g = GnkGroup(3, 1)
    s = word(g, (1, 1, 0))
    assert g.mul(s, s) == word(g, (0, 0, 0), (1, 1, 1))


def test_gnk_rejects_bad_parameters():
    with pytest.raises(GroupError):
        GnkGroup(1, 0)
    with pytest.raises(GroupError):
        GnkGroup(3, 2)
    with pytest.raises(GroupError):
        GnkGroup(3, -1)


def test_c4_power_examples():
    g = C4PowerGroup(1)
    one = c4n_index((1,))
    assert c4n_word(1, g.mul(one, one)) == (2,)
    g2 = C4PowerGroup(2)
    x = c4n_index((1, 3))
    y = c4n_index((3, 1))
    assert g2.mul(x, y) == 0
    h = g2.distinguished_subgroup()
    assert {c4n_word(2, m) for m in h.members} == {(0, 0), (2, 0), (0, 2), (2, 2)}
    assert [g2.element_name(a) for a in (0, 1, 4, 15)] == ["(0,0)", "(0,2)", "(0,1)", "(3,3)"]


def test_gnk_element_names_read_the_index_bits():
    g = GnkGroup(3, 1)
    assert g.element_name(0) == "1"
    assert g.element_name(word(g, (1, 0, 1), (0, 1, 0))) == "a1*a3*b2"
    assert g.element_name(g.order - 1) == "a1*a2*a3*b1*b2*b3"


def test_h_members_are_their_own_vectors():
    # the members of H are the indices below 2^n, each its own F_2 vector
    for g in (GnkGroup(3, 1), C4PowerGroup(3)):
        assert g.distinguished_subgroup().members == tuple(range(8))


def test_group_axioms_all_backends():
    used = [
        GnkGroup(2, 0),
        GnkGroup(3, 0),
        GnkGroup(3, 1),
        C4PowerGroup(1),
        C4PowerGroup(2),
        C4PowerGroup(3),
        cyclic_group(6),
        dihedral_group(3),
        elementary_abelian_2_group(4),
        fixtures.g36_1(),
        fixtures.alternating_group_5(),
    ]
    for g in used:
        validate_group_table(g.table)
        for a in range(g.order):
            assert g.inv(g.inv(a)) == a
        for a in range(0, g.order, max(1, g.order // 7)):
            for b in range(0, g.order, max(1, g.order // 7)):
                assert g.inv(g.mul(a, b)) == g.mul(g.inv(b), g.inv(a))


def test_closed_form_inverses_match_the_row_scan():
    used = [C4PowerGroup(n) for n in range(1, 5)]
    used += [GnkGroup(n, k) for n in range(2, 5) for k in range(n - 1)]
    for g in used:
        assert [g.inv(a) for a in range(g.order)] == [row.index(0) for row in g.table]


_gnk = lru_cache(maxsize=None)(GnkGroup)
_c4n = lru_cache(maxsize=None)(C4PowerGroup)


@st.composite
def _gnk_products(draw):
    n = draw(st.integers(2, 5))
    k = draw(st.integers(0, n - 2))
    a, b = draw(st.lists(st.integers(0, 4**n - 1), min_size=2, max_size=2))
    return n, k, a, b


@settings(deadline=None)
@given(_gnk_products())
def test_gnk_table_follows_the_word_product(case):
    n, k, a, b = case
    g = _gnk(n, k)
    assert g.mul(a, b) == gnk_index(n, word_mul(n, k, gnk_word(n, a), gnk_word(n, b)))


@pytest.mark.parametrize("n, k", [(n, k) for n in range(1, 5) for k in range(n)])
def test_twisted_table_is_the_word_product(n, k):
    """The whole table, k = n-1 included: GnkGroup refuses it, the builder does not."""
    words = [gnk_word(n, a) for a in range(4**n)]
    expected = [[gnk_index(n, word_mul(n, k, w1, w2)) for w2 in words] for w1 in words]
    assert _twisted_table(n, k) == expected


def test_gnk_inverses_and_h_need_no_table():
    n, k = 7, 3
    g = GnkGroup(n, k)
    sub = g.distinguished_subgroup()
    assert (g.order, sub.members) == (16384, tuple(range(128)))
    zero = (0,) * n
    for a in [0, g.order - 1, *random.Random(7).sample(range(g.order), 300)]:
        assert word_mul(n, k, gnk_word(n, a), gnk_word(n, g.inv(a))) == (zero, zero)
    assert g._table is None


@st.composite
def _c4n_products(draw):
    n = draw(st.integers(1, 4))
    a, b = draw(st.lists(st.integers(0, 4**n - 1), min_size=2, max_size=2))
    return n, a, b


@settings(deadline=None)
@given(_c4n_products())
def test_c4n_table_adds_coordinates_mod_4(case):
    n, a, b = case
    g = _c4n(n)
    assert c4n_word(n, g.mul(a, b)) == tuple((x + y) % 4 for x, y in zip(c4n_word(n, a), c4n_word(n, b)))


def test_gnk_k0_isomorphic_to_c4_power():
    for n in (2, 3):
        g = GnkGroup(n, 0)
        c = C4PowerGroup(n)
        to_c = {}
        for i in range(g.order):
            e, f = gnk_word(n, i)
            to_c[i] = c4n_index(tuple(ei + 2 * fi for ei, fi in zip(e, f)))
        assert sorted(to_c.values()) == list(range(c.order))
        for a in range(g.order):
            for b in range(g.order):
                assert to_c[g.mul(a, b)] == c.mul(to_c[a], to_c[b])
        # C4^n is exactly the k = 0 table, under other names
        assert isinstance(c, GnkGroup) and c.table == g.table


def test_canonical_index_block_alignment():
    for g in (GnkGroup(2, 0), GnkGroup(3, 1), C4PowerGroup(2)):
        h = g.distinguished_subgroup()
        dec = cosets(g, h)
        for idx in range(g.order):
            assert dec.coset_of[idx] == idx // h.order
        assert dec.transversal[0] == 0


# ---------------------------------------------------------------------------
# table validation
# ---------------------------------------------------------------------------


def test_validate_rejects_duplicate_row():
    table = [[0, 1], [0, 1]]
    with pytest.raises(GroupTableError) as exc:
        validate_group_table(table)
    assert "identity" in str(exc.value) or "permutation" in str(exc.value)


def test_validate_rejects_identity_elsewhere():
    # C2 written with identity at index 1
    table = [[1, 0], [0, 1]]
    with pytest.raises(GroupTableError):
        validate_group_table(table)


def test_validate_rejects_nonassociative_loop():
    with pytest.raises(GroupTableError) as exc:
        validate_group_table(NONASSOCIATIVE_LOOP_5)
    assert exc.value.witness["triple"] == [1, 1, 2]


def test_validate_accepts_c4():
    validate_group_table(cyclic_group(4).table)


def _assert_real_witness(table, exc):
    a, b, c = exc.witness["triple"]
    assert table[table[a][b]][c] != table[a][table[b][c]]


@st.composite
def _random_loops(draw):
    """A random Latin square of order 4-8 with row and column 0 the identity."""
    n = draw(st.integers(4, 8))
    rnd = random.Random(draw(st.integers(0, 2**32)))
    table = [[i if j == 0 else None for j in range(n)] for i in range(n)]
    table[0] = list(range(n))
    cells = [(i, j) for i in range(1, n) for j in range(1, n)]

    def fill(t):
        if t == len(cells):
            return True
        i, j = cells[t]
        options = [
            x for x in range(n)
            if x not in table[i][:j] and all(table[r][j] != x for r in range(i))
        ]
        rnd.shuffle(options)
        for x in options:
            table[i][j] = x
            if fill(t + 1):
                return True
        table[i][j] = None
        return False

    assert fill(0)
    return table


_SMALL_GROUPS = [
    cyclic_group(n) for n in range(1, 9)
] + [
    elementary_abelian_2_group(2),
    elementary_abelian_2_group(3),
    dihedral_group(3),
    dihedral_group(4),
    direct_product(cyclic_group(2), cyclic_group(4)),
]


@st.composite
def _relabelled_groups(draw):
    """A small group table under a random relabelling that keeps 0 fixed."""
    g = draw(st.sampled_from(_SMALL_GROUPS))
    p = [0] + draw(st.permutations(range(1, g.order)))
    table = [[0] * g.order for _ in range(g.order)]
    for a in range(g.order):
        for b in range(g.order):
            table[p[a]][p[b]] = p[g.mul(a, b)]
    return table


@settings(deadline=None, max_examples=500)
@given(st.one_of(_random_loops(), _relabelled_groups()))
def test_validate_agrees_with_brute_force_associativity(table):
    try:
        validate_group_table(table)
    except GroupTableError as exc:
        _assert_real_witness(table, exc)
    else:
        assert nonassociative_triple(table) is None


def test_validate_rejects_one_swapped_intercalate():
    # rows a, aw and columns x, wx of a group table hold the 2x2 Latin
    # subsquare [[ax, awx], [awx, ax]] for an involution w; swapping its
    # columns keeps a Latin square with identity at 0 that is not a group.
    # The byte kernel (order 256) and the tuple kernel (order 1024) both
    # name Light's first failure in generator, row, column order.
    for g, a, x in ((GnkGroup(4, 2), 100, 200), (GnkGroup(5, 3), 100, 700)):
        w = involutions(g)[0]
        aw, wx = g.mul(a, w), g.mul(w, x)
        assert 0 not in (a, aw, x, wx)
        table = [list(row) for row in g.table]
        for r in (a, aw):
            table[r][x], table[r][wx] = table[r][wx], table[r][x]
        with pytest.raises(GroupTableError) as exc:
            validate_group_table(table)
        _assert_real_witness(table, exc.value)
        first = light_first_failure_reference(table, _irredundant_generators(table))
        assert exc.value.witness["triple"] == list(first)


def test_validate_names_a_byte_sized_entry_out_of_range():
    # 180 fits in a byte but not in an order-100 table
    table = [list(row) for row in cyclic_group(100).table]
    table[37][5] = 180
    with pytest.raises(GroupTableError, match="table entry out of range") as exc:
        validate_group_table(table)
    assert exc.value.witness == {"row": 37, "col": 5, "value": 180}


def test_validate_reads_buffer_rows_by_value():
    # as raw bytes these int8 rows are C256; as values they hold -128..-1
    table = [np.array(row, dtype=np.uint8).astype(np.int8) for row in cyclic_group(256).table]
    with pytest.raises(GroupTableError, match="table entry out of range") as exc:
        validate_group_table(table)
    assert exc.value.witness == {"row": 0, "col": 128, "value": -128}


@pytest.mark.parametrize("n", [256, 257], ids=["bytes", "tuples"])
def test_validate_accepts_cyclic_groups_on_both_kernels(n):
    validate_group_table(cyclic_group(n).table)


def test_generating_set_is_irredundant():
    # G/H is F_2^5, so no fewer than 5 elements generate gnk:5,3; the greedy
    # pass alone keeps 10
    g = GnkGroup(5, 3)
    gens = g._generating_set()
    assert len(gens) == 5
    assert closure(g, gens).order == g.order
    for b in gens:
        assert closure(g, [x for x in gens if x != b]).order < g.order


# ---------------------------------------------------------------------------
# subgroups, cosets, quotients
# ---------------------------------------------------------------------------


def test_closure_examples():
    g = GnkGroup(2, 0)
    b1 = word(g, (0, 0), (1, 0))
    b2 = word(g, (0, 0), (0, 1))
    assert closure(g, [b1, b2]) == g.distinguished_subgroup()
    assert closure(g, []).members == (0,)
    g31 = GnkGroup(3, 1)
    a1 = word(g31, (1, 0, 0))
    sub = closure(g31, [a1])
    assert sub.order == 4
    assert word(g31, (0, 0, 0), (0, 1, 0)) in sub  # a1^2 = b2


_ORDER_100 = {
    "C10xC10": direct_product(cyclic_group(10), cyclic_group(10)),
    "D5xD5": direct_product(dihedral_group(5), dihedral_group(5)),
}
_CLOSURE_GROUPS = {
    "D5xD5": _ORDER_100["D5xD5"], "G36_1": fixtures.g36_1(), "gnk:3,1": GnkGroup(3, 1),
}


@settings(deadline=None, max_examples=80)
@given(st.sampled_from(sorted(_CLOSURE_GROUPS)), st.data())
def test_closure_members_matches_the_reference(name, data):
    # the greedy closure skips each generator already reached: any list,
    # in any order and with repeats, closes to what the reference reaches
    g = _CLOSURE_GROUPS[name]
    drawn = data.draw(st.lists(st.integers(0, g.order - 1), max_size=5))
    repeats = data.draw(st.lists(st.sampled_from(drawn), max_size=3)) if drawn else []
    gens = data.draw(st.permutations(drawn + repeats))
    assert closure_members(g, gens) == _closure(g, drawn)


def test_subgroup_validation():
    g = GnkGroup(2, 0)
    a1 = word(g, (1, 0))
    with pytest.raises(GroupError):
        Subgroup(g, [0, a1])  # not closed: a1^2 = b1 missing
    with pytest.raises(GroupError):
        Subgroup(g, [1, 2])  # missing identity


def _accepted(g, members):
    try:
        Subgroup(g, members)
    except GroupError:
        return False
    return True


@pytest.mark.parametrize("g", [dihedral_group(4), cyclic_group(8)], ids=["D4", "C8"])
def test_subgroup_acceptance_matches_the_reference_on_every_subset(g):
    for mask in range(1 << g.order):
        members = [a for a in range(g.order) if mask >> a & 1]
        assert _accepted(g, members) == is_subgroup_reference(g, members), members


@settings(deadline=None, max_examples=60)
@given(st.sets(st.integers(0, 15)), st.booleans())
def test_subgroup_acceptance_matches_the_reference_on_gnk20(members, close):
    g = _gnk(2, 0)
    if close:  # a closed set half the time, or hardly any draw is a subgroup
        members = closure_members(g, members)
    assert _accepted(g, members) == is_subgroup_reference(g, members)


def test_float_indices_are_refused_and_numpy_ints_pass():
    g = GnkGroup(2, 0)
    with pytest.raises(GroupError):
        Subgroup(g, [0, 1.5])
    with pytest.raises(GroupError):
        closure(g, [1.5])
    h = g.distinguished_subgroup()
    assert Subgroup(g, np.arange(4)) == closure(g, np.array([1, 2])) == h


def test_is_normal_examples():
    g = GnkGroup(2, 0)
    assert is_normal(g, g.distinguished_subgroup())
    assert is_normal(g, Subgroup(g, range(g.order), validate=False))
    s3 = dihedral_group(3)
    reflection = next(x for x in involutions(s3) if x >= 3)
    c2 = closure(s3, [reflection])
    assert c2.order == 2
    assert not is_normal(s3, c2)


@pytest.mark.parametrize("group, members, message", [
    (cyclic_group(4), range(4), "element 1 has order != 2"),
    (elementary_abelian_2_group(2), [0, 1, 2], "coordinatization failed"),
], ids=["order-4-element", "not-closed"])
def test_coordinatize_elementary_abelian_refusals(group, members, message):
    with pytest.raises(GroupError, match=message):
        coordinatize_elementary_abelian(group, 2, members)


def test_cosets_examples():
    g = GnkGroup(2, 0)
    dec = cosets(g, g.distinguished_subgroup())
    assert dec.num_cosets == 4
    assert all(len(dec.coset_members(i)) == 4 for i in range(4))
    triv = closure(g, [])
    assert cosets(g, triv).num_cosets == g.order
    g30 = GnkGroup(3, 0)
    assert cosets(g30, g30.distinguished_subgroup()).num_cosets == 8


def test_quotient_examples():
    g = GnkGroup(2, 0)
    h = g.distinguished_subgroup()
    q, proj = quotient(g, h)
    assert q.order == 4
    assert all(q.mul(a, a) == 0 for a in range(4))  # exponent 2: C2 x C2
    whole = Subgroup(g, range(g.order), validate=False)
    assert quotient(g, whole)[0].order == 1
    q_triv, proj_triv = quotient(g, closure(g, []))
    assert q_triv.order == g.order
    assert q_triv.table == g.table
    assert proj_triv == list(range(g.order))


def test_quotient_rejects_non_normal():
    s3 = dihedral_group(3)
    reflection = next(x for x in involutions(s3) if x >= 3)
    with pytest.raises(GroupError):
        quotient(s3, closure(s3, [reflection]))


def test_involutions_examples():
    g = GnkGroup(2, 0)
    inv = involutions(g)
    assert len(inv) == 3
    h = g.distinguished_subgroup()
    assert all(x in h for x in inv)
    c4 = cyclic_group(4)
    assert involutions(c4) == [2]
    assert involutions(cyclic_group(1)) == []


def test_subgroups_of_order_examples(c2_4):
    g = GnkGroup(2, 0)
    h = g.distinguished_subgroup()
    subs4 = subgroups_of_order(g, 4)
    assert h in subs4
    assert all(len(s.member_set & h.member_set) > 1 for s in subs4)
    assert subgroups_of_order(g, 1) == [closure(g, [])]
    count = len(subgroups_of_order(c2_4, 4))
    assert count == gaussian_binomial(4, 2, 2) == 35


def test_subgroups_of_order_cap():
    assert SUBGROUP_ENUM_CAP < 512
    with pytest.raises(GroupError, match="exceeds enumeration cap"):
        subgroups_of_order(elementary_abelian_2_group(9), 2)
    g = C4PowerGroup(2)
    with pytest.raises(GroupError):
        subgroups_of_order(g, 3)


REFERENCE_GROUPS = {
    "C12": cyclic_group(12),
    "D4": dihedral_group(4),
    "D6": dihedral_group(6),
    "C2^4": elementary_abelian_2_group(4),
    "C4xC4": direct_product(cyclic_group(4), cyclic_group(4)),
    "D3xC6": direct_product(dihedral_group(3), cyclic_group(6)),
    "G36_1": fixtures.g36_1(),
    "gnk:2,0": GnkGroup(2, 0),
    "c4n:2": C4PowerGroup(2),
    "gnk:3,1": GnkGroup(3, 1),
    "c4n:3": C4PowerGroup(3),
}


def _members(subgroups):
    return [s.members for s in subgroups]


@pytest.mark.parametrize("name", sorted(REFERENCE_GROUPS))
def test_subgroups_of_order_matches_reference(name):
    g = REFERENCE_GROUPS[name]
    for m in (d for d in range(1, g.order + 1) if g.order % d == 0):
        expected = subgroups_of_order_reference(g, m)
        assert _members(subgroups_of_order(g, m)) == expected, m
        normal = [s for s in expected if is_normal_reference(g, s)]
        assert _members(subgroups_of_order(g, m, normal=True)) == normal, m


@lru_cache(maxsize=None)
def _one_order_walks(name, normal):
    g = REFERENCE_GROUPS[name]
    divisors = [d for d in range(1, g.order + 1) if g.order % d == 0]
    return {m: set(_members(subgroups_of_order(g, m, normal=normal))) for m in divisors}


@pytest.mark.parametrize("normal", [False, True], ids=["general", "normal"])
@pytest.mark.parametrize("name", sorted(REFERENCE_GROUPS))
def test_several_orders_give_the_union_of_one_order_walks(name, normal):
    # every pair of orders, whether or not one divides the other, a repeat, and all at once
    g, single = REFERENCE_GROUPS[name], _one_order_walks(name, normal)
    for orders in [*itertools.combinations(single, 2), (g.order, g.order), tuple(single)]:
        found = _members(subgroups_of_order(g, *orders, normal=normal))
        assert found == sorted(set().union(*(single[m] for m in orders))), orders


def _relabelled(g, p):
    """The table of g with every index a renamed p[a]."""
    table = [[0] * g.order for _ in range(g.order)]
    for a in range(g.order):
        for b in range(g.order):
            table[p[a]][p[b]] = p[g.mul(a, b)]
    return CayleyTableGroup(table)


_ORACLE_GROUPS = {
    **REFERENCE_GROUPS,
    "A5": fixtures.alternating_group_5(),
    "S4": fixtures.permutation_table_group([(1, 0, 2, 3), (1, 2, 3, 0)]),
    # under these labels the cubes and commutators of the generators 1, 3
    # generate an order-2 subgroup, so the index-3 kernel needs their conjugates
    "A4": _relabelled(
        fixtures.permutation_table_group([(1, 2, 0, 3), (0, 2, 3, 1)]),
        [0, 1, 2, 10, 6, 7, 9, 3, 5, 4, 11, 8],
    ),
}


def _all_subgroups(g):
    return [s for m in range(1, g.order + 1) if g.order % m == 0 for s in subgroups_of_order(g, m)]


@pytest.mark.parametrize("name", sorted(REFERENCE_GROUPS))
def test_abelian_and_exponent_two_match_the_scans(name):
    g = REFERENCE_GROUPS[name]
    assert fingerprint(g)[1] == is_abelian_reference(g)
    for s in _all_subgroups(g):
        order_is_power_of_2 = s.order & (s.order - 1) == 0
        expected = all(g.mul(a, a) == 0 for a in s.members) and order_is_power_of_2
        assert s.is_elementary_abelian_2() == expected, s.members
        if is_normal(g, s):
            q = quotient(g, s)[0]
            assert fingerprint(q)[1] == is_abelian_reference(q), s.members


@pytest.mark.parametrize("name", sorted(REFERENCE_GROUPS))
def test_fingerprint_of_a_kernel_matches_its_quotient(name):
    g = REFERENCE_GROUPS[name]
    trivial = _fingerprint_reference(g.table)
    assert fingerprint(g) == fingerprint(g, closure(g, [])) == trivial
    for s in _all_subgroups(g):
        found = quotient_reference(g, s.members)
        if found is not None:
            assert fingerprint(g, s) == _fingerprint_reference(found[0]), s.members


def test_fingerprint_refuses_a_kernel_of_another_group():
    with pytest.raises(GroupError, match="different group"):
        fingerprint(GnkGroup(2, 0), GnkGroup(2, 0).distinguished_subgroup())


def _assert_normality_and_quotient_match_the_scans(g, s):
    normal = is_normal_reference(g, s.members)
    assert is_normal(g, s) == normal, s.members
    expected = quotient_reference(g, s.members)
    if normal:
        q, proj = quotient(g, s)
        assert (q.table, proj) == expected, s.members
    else:
        assert expected is None
        with pytest.raises(GroupError, match="quotient requires a normal subgroup"):
            quotient(g, s)


@pytest.mark.parametrize("name", sorted(_ORACLE_GROUPS))
def test_normality_quotients_and_prime_index_kernels_match_the_scans(name):
    g = _ORACLE_GROUPS[name]
    for s in _all_subgroups(g):
        _assert_normality_and_quotient_match_the_scans(g, s)
    expected = prime_index_reference(g)
    assert [(s.members, p) for s, p in normal_subgroups_of_prime_index(g)] == expected
    _assert_prime_cores_match(g, expected)


def _assert_prime_cores_match(g, kernels):
    """For each prime p, K_p is the meet of the ``kernels`` of index p and counts them."""
    divisors = [p for p in range(2, g.order + 1) if g.order % p == 0]
    for p in (p for p in divisors if all(p % d for d in range(2, p))):
        of_p = [set(s) for s, q in kernels if q == p]
        core = _commutator_power_subgroup(g, p)
        assert core == set(range(g.order)).intersection(*of_p), p
        assert (g.order // len(core) - 1) // (p - 1) == len(of_p), p


@pytest.mark.parametrize("name", sorted(_ORDER_100))
def test_prime_cores_of_order_100_match_the_scans(name):
    g = _ORDER_100[name]
    _assert_prime_cores_match(g, prime_index_reference(g))


@lru_cache(maxsize=None)
def _prime_index_kernels(name):
    return [(s.members, p) for s, p in normal_subgroups_of_prime_index(_ORACLE_GROUPS[name])]


@settings(deadline=None, max_examples=30)
@given(st.sampled_from(["A4", "S4", "D6", "D3xC6", "G36_1", "gnk:2,0"]), st.data())
def test_normality_quotients_and_kernels_follow_a_relabelling(name, data):
    g = _ORACLE_GROUPS[name]
    p = [0, *data.draw(st.permutations(range(1, g.order)))]
    relabelled = _relabelled(g, p)
    sub = data.draw(st.sampled_from(_all_subgroups(relabelled)))
    _assert_normality_and_quotient_match_the_scans(relabelled, sub)
    expected = sorted(
        ((tuple(sorted(p[x] for x in s)), q) for s, q in _prime_index_kernels(name)),
        key=lambda t: (t[1], t[0]),
    )
    found = [(s.members, q) for s, q in normal_subgroups_of_prime_index(relabelled)]
    assert found == expected


_ORDER_36 = {
    "G36_1": REFERENCE_GROUPS["G36_1"],
    "C6xC6": direct_product(cyclic_group(6), cyclic_group(6)),
    "D3xC6": REFERENCE_GROUPS["D3xC6"],
}


@lru_cache(maxsize=None)
def _subgroups_36(name, m, normal):
    return _members(subgroups_of_order(_ORDER_36[name], m, normal=normal))


@settings(deadline=None, max_examples=40)
@given(
    st.sampled_from(sorted(_ORDER_36)),
    st.sampled_from([2, 3, 4, 6, 9, 12, 18]),
    st.booleans(),
    st.permutations(range(1, 36)),
)
def test_subgroups_of_order_follow_a_relabelling(name, m, normal, perm):
    g, p = _ORDER_36[name], [0, *perm]
    table = [[0] * 36 for _ in range(36)]
    for a in range(36):
        for b in range(36):
            table[p[a]][p[b]] = p[g.mul(a, b)]
    expected = sorted(tuple(sorted(p[x] for x in s)) for s in _subgroups_36(name, m, normal))
    assert _members(subgroups_of_order(CayleyTableGroup(table), m, normal=normal)) == expected


def test_prime_index_normals_gnk20():
    g = GnkGroup(2, 0)
    h = g.distinguished_subgroup()
    found = normal_subgroups_of_prime_index(g)
    assert len(found) == 3
    for sub, p in found:
        assert p == 2
        assert sub.order == 8
        assert all(m in sub for m in h.members)


def test_prime_index_normals_simple_group():
    a5 = fixtures.alternating_group_5()
    assert normal_subgroups_of_prime_index(a5) == []


def test_prime_index_normals_c6():
    c6 = cyclic_group(6)
    found = normal_subgroups_of_prime_index(c6)
    assert sorted(p for _, p in found) == [2, 3]
    orders = sorted(s.order for s, _ in found)
    assert orders == [2, 3]


def test_direct_product_and_dihedral():
    d10 = dihedral_group(5)
    assert d10.order == 10
    assert fingerprint(d10)[:2] == (10, False)
    c2xc6 = direct_product(cyclic_group(2), cyclic_group(6))
    assert c2xc6.order == 12
    assert fingerprint(c2xc6)[:2] == (12, True)
    assert max(fingerprint(c2xc6)[2]) == 6


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------


def test_parameter_set_validation():
    p = ParameterSet(4)
    assert (p.v, p.k, p.lam, p.m) == (16, 6, 2, 0)
    with pytest.raises(GroupError):
        ParameterSet(5)
    with pytest.raises(GroupError):
        ParameterSet(4, m=1)  # the coset lemma allows only m = 0
    with pytest.raises(GroupError):
        ParameterSet(8, m=1)
    none_m = ParameterSet(8, m=None)
    assert none_m.as_dict()["m"] is None


def test_parameter_set_copies_and_pickles():
    for p in (ParameterSet(4), ParameterSet(8, m=None)):
        for twin in (copy.copy(p), copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
            assert type(twin) is ParameterSet and twin == p
