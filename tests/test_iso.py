"""Table isomorphism search: invariant pruning, marked subsets, counts."""

from __future__ import annotations

import numpy as np
import pytest

from hgcensus.catalog import automorphism_group, catalog_orders, groups_of_order
from hgcensus.iso import IsoSearch
from hgcensus.perm import closure, parse_cycles
from hgcensus.table import GroupTable


def _table_of(gen_texts: list[str], degree: int) -> GroupTable:
    return GroupTable.from_perms(closure([parse_cycles(t, degree) for t in gen_texts], degree))


C4 = _table_of(["(0 1 2 3)"], 4)
V4 = _table_of(["(0 1)", "(2 3)"], 4)
S3 = _table_of(["(0 1 2)", "(0 1)"], 3)
C6 = _table_of(["(0 1 2 3 4 5)"], 6)


def test_same_order_different_groups_are_not_isomorphic():
    assert IsoSearch(C4, V4).run("count") == 0
    assert IsoSearch(C4, V4).run("first") is None
    assert IsoSearch(S3, C6).run("count") == 0


def test_different_orders_infeasible():
    s = IsoSearch(C4, S3)
    assert not s.feasible
    assert s.run("count") == 0
    assert s.run("all") == []


def test_identity_map_found_on_equal_tables():
    m = IsoSearch(C4, C4).run("first")
    assert m is not None
    # any iso fixes the identity
    assert m[0] == 0


def test_automorphism_counts_of_small_groups():
    assert IsoSearch(C4, C4).run("count") == 2
    assert IsoSearch(V4, V4).run("count") == 6
    assert IsoSearch(S3, S3).run("count") == 6
    assert IsoSearch(C6, C6).run("count") == 2


def test_automorphisms_of_elementary_abelian_rank3():
    # |GL(3, 2)| = 168
    E8 = _table_of(["(0 1)", "(2 3)", "(4 5)"], 6)
    assert E8.order == 8
    assert IsoSearch(E8, E8).run("count") == 168


def test_all_maps_are_distinct_bijections():
    maps = IsoSearch(V4, V4).run("all")
    assert len(maps) == 6
    seen = {tuple(m.tolist()) for m in maps}
    assert len(seen) == 6
    for m in maps:
        assert sorted(m.tolist()) == [0, 1, 2, 3]
        # homomorphism spot check over all pairs; order 4 is cheap
        for a in range(4):
            for b in range(4):
                assert m[V4.mul[a, b]] == V4.mul[m[a], m[b]]


def test_marked_subset_restricts_automorphisms():
    # C4xC2 has two subgroups of order 4: one cyclic, one Klein.
    T = _table_of(["(0 1 2 3)", "(4 5)"], 6)
    assert T.order == 8
    subs = [s for s in T.all_subgroups() if len(s) == 4]
    kinds = {}
    for s in subs:
        sub, _ = T.subtable(s)
        kinds[int(sub.elem_order.max())] = s
    cyc, klein = kinds[4], kinds[2]
    # no automorphism can carry the cyclic one onto the Klein one
    assert IsoSearch(T, T, marked1=cyc, marked2=klein).run("count") == 0
    plain = IsoSearch(T, T).run("count")
    fixing_cyc = IsoSearch(T, T, marked1=cyc, marked2=cyc).run("count")
    assert 0 < fixing_cyc <= plain


def test_marked_count_mismatch_is_infeasible():
    s = IsoSearch(C4, C4, marked1=np.array([0, 1]), marked2=np.array([0]))
    assert not s.feasible


def test_marked_maps_respect_the_marking():
    T = _table_of(["(0 1 2 3)", "(4 5)"], 6)
    cyc = next(s for s in T.all_subgroups()
               if len(s) == 4 and T.subtable(s)[0].elem_order.max() == 4)
    marked = set(cyc.tolist())
    for m in IsoSearch(T, T, marked1=cyc, marked2=cyc).run("all"):
        assert {int(m[i]) for i in cyc} == marked


@pytest.mark.parametrize("degree", range(2, 11))
def test_chain_count_equals_listed_maps_on_every_class(census, degree):
    # |Aut(G, G')| by the orbit-stabilizer chain against the full list
    for cls in census(degree).classes:
        T, mask = cls.members[0][1].table_with_stab()
        idx = np.flatnonzero(mask)
        search = IsoSearch(T, T, marked1=idx, marked2=idx)
        assert search.run("count") == len(search.run("all")), cls.label


def test_chain_count_equals_automorphism_group_order():
    checked = 0
    for n in catalog_orders():
        if n > 16:
            continue
        for g in groups_of_order(n):
            T = g.as_table()
            assert IsoSearch(T, T).run("count") == automorphism_group(g).order, g.name
            checked += 1
    e16 = next(g for g in groups_of_order(16) if g.name == "C2xC2xC2xC2")
    assert automorphism_group(e16).order == 20160  # |GL(4, 2)|
    assert checked == sum(len(groups_of_order(n)) for n in catalog_orders() if n <= 16)


def _relabeled(T: GroupTable, perm: np.ndarray) -> GroupTable:
    """The same group with element x renamed perm[x] (perm fixes 0)."""
    mul = np.empty_like(T.mul)
    mul[np.ix_(perm, perm)] = perm[T.mul]
    return GroupTable(mul)


def test_count_between_isomorphic_tables_is_the_target_aut_order():
    rng = np.random.default_rng(3)
    for T in (S3, C6, _table_of(["(0 1 2 3)", "(4 5)"], 6)):
        perm = np.concatenate([[0], 1 + rng.permutation(T.order - 1)])
        T2 = _relabeled(T, perm)
        assert not np.array_equal(T2.mul, T.mul)
        assert IsoSearch(T, T2).run("count") == IsoSearch(T2, T2).run("count")
        assert IsoSearch(T, T2).run("count") == len(IsoSearch(T, T2).run("all"))
        sub = next(s for s in T.all_subgroups() if 1 < len(s) < T.order)
        marked = IsoSearch(T, T2, marked1=sub, marked2=np.sort(perm[sub]))
        assert marked.run("count") == len(marked.run("all")) > 0
