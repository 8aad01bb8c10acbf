"""Dense multiplication tables: construction, subgroup machinery, budgets."""

from __future__ import annotations

import numpy as np
import pytest

from hgcensus.catalog import catalog_orders, groups_of_order
from hgcensus.errors import BudgetError, StructureError
from hgcensus.perm import closure, parse_cycles
from hgcensus.table import GroupTable


def _table_of(gen_texts: list[str], degree: int) -> GroupTable:
    elems = closure([parse_cycles(t, degree) for t in gen_texts], degree)
    return GroupTable.from_perms(elems)


def test_from_perms_identity_first_and_inverses():
    T = _table_of(["(0 1 2)", "(0 1)"], 3)
    assert T.order == 6
    assert T.mul[0, 3] == 3 and T.mul[3, 0] == 3
    for a in range(T.order):
        assert T.mul[a, T.inv[a]] == 0
        assert T.mul[T.inv[a], a] == 0


def test_element_orders_match_cycle_structure():
    elems = closure([parse_cycles("(0 1 2 3)", 4)], 4)
    T = GroupTable.from_perms(elems)
    # C4: identity, two generators of order 4, one involution
    assert sorted(T.elem_order.tolist()) == [1, 2, 4, 4]


def test_from_perms_rejects_unsorted_or_nonclosed():
    elems = closure([parse_cycles("(0 1 2)", 3)], 3)
    with pytest.raises(StructureError):
        GroupTable.from_perms(list(reversed(elems)))
    with pytest.raises(StructureError):
        GroupTable.from_perms(elems[:2])


def test_from_perms_budget_is_enforced():
    elems = closure([parse_cycles("(0 1)", 5), parse_cycles("(0 1 2 3 4)", 5)], 5)
    with pytest.raises(BudgetError):
        GroupTable.from_perms(elems, table_budget=100)


def test_greedy_base_lookup_agrees_with_hashing():
    # same group tabled with and without a separating base
    elems = closure([parse_cycles("(0 1 2 3 4 5 6)", 7), parse_cycles("(1 2 4)(3 6 5)", 7)], 7)
    plain = GroupTable.from_perms(elems)
    based = GroupTable.from_perms(elems, base=[0, 1])
    assert np.array_equal(plain.mul, based.mul)


def test_subtable_relabels_consistently():
    T = _table_of(["(0 1 2 3)", "(1 3)"], 4)  # D4, order 8
    center = T.center()
    sub, idx = T.subtable(center)
    assert sub.order == 2
    # local product maps back to the global product
    for i in range(sub.order):
        for j in range(sub.order):
            assert idx[sub.mul[i, j]] == T.mul[idx[i], idx[j]]
    with pytest.raises(StructureError):
        T.subtable([1, 2])  # misses the identity


def test_closure_of_and_extend_subgroup():
    T = _table_of(["(0 1 2 3)", "(1 3)"], 4)
    rot = T.closure_of([1]) if T.elem_order[1] == 4 else None
    # pick an element of order 4 without caring about index layout
    four = int(np.nonzero(T.elem_order == 4)[0][0])
    rot = T.closure_of([four])
    assert len(rot) == 4
    outside = next(g for g in range(T.order) if g not in set(rot.tolist()))
    bigger = T.extend_subgroup(rot, T.small_generating_set(rot), outside)
    assert len(bigger) == 8


def test_small_generating_set_regenerates():
    T = _table_of(["(0 1 2 3 4 5)", "(1 5)(2 4)"], 6)  # D6, order 12
    everything = np.arange(T.order, dtype=np.int64)
    gens = T.small_generating_set(everything)
    assert len(gens) <= 3
    assert len(T.closure_of(gens)) == T.order


def test_center_and_derived_subgroup():
    T = _table_of(["(0 1 2)", "(0 1)"], 3)  # S3
    assert len(T.center()) == 1
    assert len(T.derived_subgroup()) == 3
    assert not T.is_abelian()
    C = _table_of(["(0 1 2 3 4)"], 5)
    assert len(C.center()) == 5
    assert C.is_abelian()


def test_all_subgroups_counts_known_lattices():
    # C6 has 4 subgroups; S3 has 6; D4 has 10; Q8 has 6
    assert len(_table_of(["(0 1 2 3 4 5)"], 6).all_subgroups()) == 4
    assert len(_table_of(["(0 1 2)", "(0 1)"], 3).all_subgroups()) == 6
    assert len(_table_of(["(0 1 2 3)", "(1 3)"], 4).all_subgroups()) == 10
    q8 = _table_of(["(0 2 1 3)(4 6 5 7)", "(0 4 1 5)(2 7 3 6)"], 8)
    assert len(q8.all_subgroups()) == 6


def test_conjugacy_classes_partition_s3():
    T = _table_of(["(0 1 2)", "(0 1)"], 3)
    classes = T.conjugacy_classes()
    sizes = sorted(len(c) for c in classes)
    assert sizes == [1, 2, 3]
    assert sum(sizes) == T.order


def test_normalizer_and_centralizer():
    T = _table_of(["(0 1 2 3)", "(1 3)"], 4)  # D4
    four = int(np.nonzero(T.elem_order == 4)[0][0])
    rot = T.closure_of([four])
    # the rotation subgroup is normal, its centralizer is itself
    assert len(T.normalizer_of(rot, T.small_generating_set(rot))) == 8
    assert len(T.centralizer_of([four])) == 4


def test_exponent():
    assert _table_of(["(0 1 2 3 4 5)"], 6).exponent() == 6
    assert _table_of(["(0 1 2)", "(0 1)"], 3).exponent() == 6
    assert _table_of(["(0 1)", "(2 3)"], 4).exponent() == 2


def _derived_by_all_commutators(T: GroupTable) -> np.ndarray:
    mul, inv = T.mul.astype(np.int64), T.inv.astype(np.int64)
    comms = mul[mul[mul, inv[:, None]], inv[None, :]]  # a b a^-1 b^-1 for all a, b
    return T.closure_of(np.unique(comms).tolist())


def test_derived_subgroup_matches_all_commutators_on_catalog_groups():
    for n in catalog_orders():
        for g in groups_of_order(n):
            T = g.as_table()
            assert np.array_equal(T.derived_subgroup(), _derived_by_all_commutators(T)), g.name
            assert T.is_abelian() == bool((T.mul == T.mul.T).all()), g.name


@pytest.mark.parametrize("degree", range(2, 11))
def test_derived_subgroup_matches_all_commutators_on_records(census, degree):
    for rec in census(degree).records:
        T, _ = rec.table_with_stab()
        assert np.array_equal(T.derived_subgroup(), _derived_by_all_commutators(T))
        assert T.is_abelian() == bool((T.mul == T.mul.T).all())


def test_element_orders_and_inverses_of_catalog_groups():
    for n in catalog_orders():
        for g in groups_of_order(n):
            T = g.as_table()
            assert (T.mul[np.arange(T.order), T.inv] == 0).all(), g.name
            for a in range(1, T.order):
                k, x = 1, a
                while x != 0:
                    x, k = int(T.mul[x, a]), k + 1
                assert T.elem_order[a] == k, (g.name, a)


def test_table_without_unique_inverses_is_rejected():
    mul = np.array([[0, 1, 2], [1, 0, 0], [2, 0, 1]], dtype=np.int16)
    with pytest.raises(StructureError):
        GroupTable(mul)
