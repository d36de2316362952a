"""Every public entry point refuses an input it would otherwise coerce.

An element index is an int (a numpy integer is one, a bool or a float is
not) in range(v), and an element set repeats none.  Each layer refuses with
its own error class, and numpy integers pass with the result plain ints give.
"""
from __future__ import annotations

import json
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import table_refusal_reference

from rshds.algebra import AlgebraElement, AlgebraError, from_set
from rshds.certify import (
    PreconditionError,
    check_difference_set,
    check_rshds,
    coset_profile,
    hadamard_matrix,
    structural_tests,
)
from rshds.constructions import (
    BudgetExceededError,
    ConstructionError,
    DifferenceSetCandidate,
    exhaustive_search,
)
from rshds.fixtures import g36_1
from rshds.formats import FormatError, read_cayley, read_dset, write_cayley, write_dset
from rshds.groups import (
    C4PowerGroup,
    CayleyTableGroup,
    GnkGroup,
    GroupError,
    GroupTableError,
    ParameterSet,
    Subgroup,
    closure,
    is_normal,
    subgroups_of_order,
)
from rshds.screen import (
    cyclic_group,
    dihedral_group,
    direct_product,
    elementary_abelian_2_group,
    validate_group_table,
)

G = GnkGroup(2, 0)
H = G.distinguished_subgroup()
D = [4, 7, 8, 9, 12, 14]  # gnk_difference_set(2, 0)


def _variants(base):
    """``base`` with one entry made a float, a bool, a repeat, -1 and v."""
    return {
        "float": [*base[:-1], base[-1] + 0.5],
        "bool": [base[0], True, *base[2:]],
        "repeat": [*base[:-1], base[0]],
        "negative": [*base[:-1], -1],
        "order": [*base[:-1], G.order],
    }


def _dset_bytes(path, elements, subgroup="distinguished"):
    write_dset(path, "gnk:2,0", subgroup, elements)
    return path.read_bytes()


# name -> (call of (input, path), the base input, the error, the refused variants)
SET_FORM = ("float", "bool", "repeat", "negative", "order")
LIST_FORM = ("float", "bool", "negative", "order")  # a generator list may repeat
TAKERS = {
    "from_set": (lambda x, p: from_set(G, x).coeffs, D, AlgebraError, SET_FORM),
    "check_difference_set": (lambda x, p: check_difference_set(G, x), D, PreconditionError,
                             SET_FORM),
    "check_rshds": (lambda x, p: check_rshds(G, H, x), D, PreconditionError, SET_FORM),
    "coset_profile": (lambda x, p: coset_profile(G, H, x), D, PreconditionError, SET_FORM),
    "hadamard_matrix": (lambda x, p: hadamard_matrix(G, x), D, PreconditionError, SET_FORM),
    "DifferenceSetCandidate": (lambda x, p: DifferenceSetCandidate(G, H, x), D,
                               ConstructionError, SET_FORM),
    "Subgroup": (lambda x, p: Subgroup(G, x), [0, 1, 2, 3], GroupError, SET_FORM),
    "closure": (lambda x, p: closure(G, x), [1, 2], GroupError, LIST_FORM),
    "write_dset": (lambda x, p: _dset_bytes(p, x), D, FormatError, SET_FORM),
    "write_dset subgroup": (lambda x, p: _dset_bytes(p, D, x), [1, 2], FormatError, LIST_FORM),
}
CASES = [(name, case) for name, row in TAKERS.items() for case in row[3]]


@pytest.mark.parametrize("name,case", CASES, ids=[f"{n}-{c}" for n, c in CASES])
def test_element_indices_are_refused_not_coerced(tmp_path, name, case):
    call, base, error, _ = TAKERS[name]
    with pytest.raises(error):
        call(_variants(base)[case], tmp_path / "d.json")


def _c4_table(directory):
    """A cayley-v1 file of C4 in ``directory``."""
    path = directory / "c4.json"
    write_cayley(cyclic_group(4), path)
    return path


@pytest.mark.parametrize("subgroup, elements", [([1], [-1, 9]), ([-1], [1, 2])],
                         ids=["element", "generator"])
def test_write_dset_refuses_a_negative_index_for_a_file_spec(tmp_path, subgroup, elements):
    table = _c4_table(tmp_path)
    path = tmp_path / "d.json"
    with pytest.raises(FormatError, match=re.escape("element index outside 0..3")):
        write_dset(path, f"file:{table}", subgroup, elements)
    assert not path.exists()


@pytest.mark.parametrize("subgroup, elements", [([1], [9]), ([4], [1, 2]), ([1], [1, 2, 3, 4])],
                         ids=["element", "generator", "order"])
def test_write_dset_takes_the_order_of_a_file_spec_from_its_table(tmp_path, subgroup, elements):
    # the order field of the cayley-v1 document bounds every index, so
    # write_dset writes no file that read_dset would refuse; the table is
    # read as JSON only, without its proof
    table = _c4_table(tmp_path)
    path = tmp_path / "d.json"
    with pytest.raises(FormatError, match=re.escape("element index outside 0..3")):
        write_dset(path, f"file:{table}", subgroup, elements)
    assert not path.exists()
    write_dset(path, f"file:{table}", [2], [1, 3])
    group, sub, elems, _ = read_dset(path)
    assert group.order == 4 and sub.members == (0, 2) and elems == (1, 3)


@pytest.mark.parametrize("order", [None, 4.0, "4", True])
def test_write_dset_refuses_a_file_spec_whose_order_is_no_int(tmp_path, order):
    # as read_cayley refuses it
    table = tmp_path / "c4.json"
    doc = {"format": "cayley-v1", "table": cyclic_group(4).table}
    table.write_text(json.dumps(doc if order is None else {**doc, "order": order}))
    with pytest.raises(FormatError, match="order/table mismatch") as refused:
        read_cayley(table)
    path = tmp_path / "d.json"
    with pytest.raises(FormatError, match=re.escape(str(refused.value))):
        write_dset(path, f"file:{table}", [2], [1])
    assert not path.exists()


def test_write_dset_refuses_an_unknown_subgroup_token(tmp_path):
    path = tmp_path / "d.json"
    with pytest.raises(FormatError, match="unknown subgroup token"):
        write_dset(path, "gnk:2,0", "everything", D)
    assert not path.exists()


@pytest.mark.parametrize("spec", ["gnk:3,2", "c4n:0"])
def test_write_dset_refuses_a_spec_that_read_dset_refuses(tmp_path, spec):
    # both take the group's order from build_group, so write_dset writes no
    # file that read_dset would refuse for its spec, and gives the same reason
    written_by_hand = tmp_path / "hand.json"
    doc = {"group": spec, "subgroup": "distinguished", "elements": [63]}
    written_by_hand.write_text(json.dumps(doc))
    with pytest.raises(GroupError) as refused:
        read_dset(written_by_hand)
    path = tmp_path / "d.json"
    with pytest.raises(GroupError, match=re.escape(str(refused.value))):
        write_dset(path, spec, "distinguished", [63])
    assert not path.exists()


@pytest.mark.parametrize("name", sorted(TAKERS))
def test_numpy_indices_pass(tmp_path, name):
    call, base, _, cases = TAKERS[name]
    assert call(np.array(base), tmp_path / "a.json") == call(base, tmp_path / "b.json")
    if "repeat" not in cases:
        call([*base, base[0]], tmp_path / "c.json")


COEFFS = [int(g in D) for g in range(G.order)]


@pytest.mark.parametrize("coeffs", [[0.5, *COEFFS[1:]], [1.0, *COEFFS[1:]], [True, *COEFFS[1:]],
                                    COEFFS[1:]], ids=["float", "integral-float", "bool", "short"])
def test_coefficients_are_refused_not_coerced(coeffs):
    with pytest.raises(AlgebraError):
        AlgebraElement(G, coeffs)


def test_any_integer_coefficient_passes():
    # -1 and v are coefficients, not indices, and numpy integers are ints
    assert AlgebraElement(G, [-1, G.order, *COEFFS[2:]]).coeffs[:2] == [-1, 16]
    coeffs = AlgebraElement(G, np.array(COEFFS)).coeffs
    assert coeffs == COEFFS and {type(c) for c in coeffs} == {int}


def _screen_without_walks(h, sub=None):
    """``structural_tests`` with each walk made to fail: only a refusal up front passes."""
    ran = AssertionError("a walk ran")
    with mock.patch("rshds.screen._normal_subgroups_dividing", side_effect=ran), \
            mock.patch("rshds.screen._subgroups_dividing", side_effect=ran), \
            mock.patch("rshds.screen._commutator_power_subgroup", side_effect=ran):
        return structural_tests(G, h, sub)


def _search_without_blocks(budget):
    """``exhaustive_search`` with its coset blocks made to fail: only a refusal up front passes."""
    with mock.patch("rshds.constructions.cosets", side_effect=AssertionError("blocks built")):
        return exhaustive_search(G, H, budget=budget)


SCALARS = {
    "ParameterSet float": lambda: ParameterSet(4.0),
    "ParameterSet bool": lambda: ParameterSet(True),
    "ParameterSet negative": lambda: ParameterSet(-4),
    "GnkGroup float n": lambda: GnkGroup(2.0, 0),
    "GnkGroup float k": lambda: GnkGroup(3, 0.0),
    "GnkGroup bool k": lambda: GnkGroup(3, False),
    "GnkGroup negative k": lambda: GnkGroup(3, -1),
    "GnkGroup k = n-1": lambda: GnkGroup(3, 2),
    "C4PowerGroup float": lambda: C4PowerGroup(2.0),
    "C4PowerGroup bool": lambda: C4PowerGroup(True),
    "C4PowerGroup negative": lambda: C4PowerGroup(-1),
    "subgroups_of_order float m": lambda: subgroups_of_order(G, 4.0),
    "subgroups_of_order bool m": lambda: subgroups_of_order(G, True),
    "subgroups_of_order no order": lambda: subgroups_of_order(G, normal=True),
    "subgroups_of_order one order of several": lambda: subgroups_of_order(G, 4, 3, normal=True),
    "structural_tests float h": lambda: _screen_without_walks(4.0),
    "structural_tests negative h": lambda: _screen_without_walks(-4),  # (-4)^2 = |G|
    "structural_tests H of order 2": lambda: _screen_without_walks(4, closure(G, [1])),
    "structural_tests H of another G": lambda: _screen_without_walks(
        4, GnkGroup(2, 0).distinguished_subgroup()),
    "is_normal H of another G": lambda: is_normal(G, GnkGroup(2, 0).distinguished_subgroup()),
    "exhaustive_search bool budget": lambda: _search_without_blocks(True),
    "exhaustive_search float budget": lambda: _search_without_blocks(2.5),
    "exhaustive_search string budget": lambda: _search_without_blocks("10"),
    "exhaustive_search negative budget": lambda: _search_without_blocks(-1),
}


@pytest.mark.parametrize("name", sorted(SCALARS))
def test_parameters_are_refused_not_coerced(name):
    with pytest.raises(GroupError):
        SCALARS[name]()


def test_numpy_parameters_pass():
    p = ParameterSet(np.int64(4))
    assert p == ParameterSet(4) and {type(x) for x in p[:4]} == {int}
    assert GnkGroup(np.int64(3), np.int64(1)).table == GnkGroup(3, 1).table
    assert C4PowerGroup(np.int64(2)).table == C4PowerGroup(2).table


def test_search_budgets_that_pass():
    # 0 stops at the first node, a numpy integer is an int, and None is the default
    with pytest.raises(BudgetExceededError) as stop:
        exhaustive_search(G, H, budget=0)
    assert stop.value.nodes == 1
    assert exhaustive_search(G, H, budget=np.int64(100)) == exhaustive_search(G, H)


C4_TABLE = cyclic_group(4).table
BAD_ENTRIES = {
    "float": [*C4_TABLE[:2], [2, 3, 0, 1.0], C4_TABLE[3]],
    "bool": [[0, 1], [True, 0]],
}


@pytest.mark.parametrize("case", sorted(BAD_ENTRIES))
@pytest.mark.parametrize("prove", [CayleyTableGroup, validate_group_table],
                         ids=["CayleyTableGroup", "validate_group_table"])
def test_table_entries_are_refused_not_coerced(prove, case):
    # bytes() takes a bool, and a row with 1.0 for 1 equals a permutation
    with pytest.raises(GroupTableError, match="expected integers"):
        prove(BAD_ENTRIES[case])


@pytest.mark.parametrize("prove", [CayleyTableGroup, validate_group_table],
                         ids=["CayleyTableGroup", "validate_group_table"])
def test_an_empty_table_is_refused(prove):
    with pytest.raises(GroupTableError, match="empty table"):
        prove([])


def test_a_table_group_is_proved_a_group():
    with pytest.raises(GroupTableError, match="identity") as exc:
        CayleyTableGroup([[0, 1], [0, 1]])
    assert exc.value.witness == {"row": 1}


def test_numpy_table_entries_pass():
    g = CayleyTableGroup(np.array(C4_TABLE, dtype=np.int8))
    assert g.table == C4_TABLE and {type(x) for row in g.table for x in row} == {int}


@pytest.mark.parametrize("names", [[0, 1], ["1"], ("1", "t1"), "1t"],
                         ids=["ints", "short", "tuple", "string"])
def test_table_group_names_are_a_list_of_strings(names):
    # write_cayley would write int names that read_cayley refuses
    with pytest.raises(GroupError):
        CayleyTableGroup(cyclic_group(2).table, names=names)


def _relabelled(g, p):
    """The table of ``g`` with element a renamed p[a]."""
    table = [[0] * g.order for _ in range(g.order)]
    for a, row in enumerate(g.table):
        new = table[p[a]]
        for b, ab in enumerate(row):
            new[p[b]] = p[ab]
    return table


_TABLE_GROUPS = [cyclic_group(1), cyclic_group(6), dihedral_group(4), g36_1(),
                 direct_product(cyclic_group(2), dihedral_group(3))]


@st.composite
def _table_groups(draw):
    """A table group relabelled with the identity kept at 0, with drawn names or none."""
    g = draw(st.sampled_from(_TABLE_GROUPS))
    p = [0, *draw(st.permutations(range(1, g.order)))]
    table = _relabelled(g, p)
    names = draw(st.none() | st.lists(st.text(max_size=4), min_size=g.order, max_size=g.order))
    return CayleyTableGroup(table, names=names)


@settings(deadline=None, max_examples=60)
@given(_table_groups())
def test_written_table_groups_read_back(tmp_path_factory, group):
    path = tmp_path_factory.mktemp("cayley") / "g.cayley.json"
    write_cayley(group, path)
    back = read_cayley(path)
    assert back.table == group.table
    assert back.names == [group.element_name(a) for a in range(group.order)]


# source groups of orders 2 to 256: the byte kernel
_PROVED_GROUPS = [cyclic_group(2), cyclic_group(5), elementary_abelian_2_group(2),
                  dihedral_group(3), GnkGroup(2, 0), g36_1(), C4PowerGroup(3),
                  direct_product(dihedral_group(5), dihedral_group(5)), GnkGroup(4, 2)]
# one entry of row i mutated: to the bool or float of its value, to a numpy
# integer (which must pass), to -1 or n, or to another entry of its row
# ("repeat" breaks the row's permutation, "swap" keeps it and breaks the group)
MUTATIONS = ("bool", "float", "numpy", "negative", "order", "repeat", "swap")


def _mutated(table, kind, i, j, k):
    """``table`` with entry (i, j) mutated by ``kind``; a repeat or swap also uses column k != j."""
    row = table[i]
    if kind == "bool":  # only an entry of value 0 or 1 can be a bool of its value
        j = row.index(j % 2)
        row[j] = bool(row[j])
    elif kind == "float":
        row[j] = float(row[j])
    elif kind == "numpy":
        row[j] = np.int64(row[j])
    elif kind in ("negative", "order"):
        row[j] = -1 if kind == "negative" else len(table)
    elif kind == "repeat":
        row[j] = row[k]
    else:
        row[j], row[k] = row[k], row[j]
    return table


def _assert_proofs_agree(table):
    expected = table_refusal_reference(table)
    for prove in (CayleyTableGroup, validate_group_table):
        try:
            prove(table)
        except GroupTableError as exc:
            assert (str(exc), exc.witness) == expected
        else:
            assert expected is None
    if expected is None:
        g = CayleyTableGroup(table)
        assert g.table == table and {type(x) for row in g.table for x in row} == {int}
        assert [g.inv(a) for a in range(g.order)] == [row.index(0) for row in g.table]
    return expected


@settings(deadline=None, max_examples=120)
@given(st.data(), st.sampled_from(_PROVED_GROUPS), st.sampled_from(MUTATIONS))
def test_byte_proof_refuses_as_the_reference_does(data, g, kind):
    # the byte pass reads list rows once; whatever it refuses must get the
    # verdict, message and witness of the rule-by-rule reference
    n = g.order
    p = [0, *data.draw(st.permutations(range(1, n)))]
    i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
    k = (j + data.draw(st.integers(1, n - 1))) % n
    expected = _assert_proofs_agree(_mutated(_relabelled(g, p), kind, i, j, k))
    assert (expected is None) == (kind == "numpy")


@pytest.mark.parametrize("kind", MUTATIONS)
def test_tuple_proof_refuses_as_the_reference_does(kind):
    # order 257 takes the tuple kernel
    g = cyclic_group(257)
    p = [0, *range(256, 0, -1)]
    expected = _assert_proofs_agree(_mutated(_relabelled(g, p), kind, 100, 3, 200))
    assert (expected is None) == (kind == "numpy")
