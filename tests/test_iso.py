"""Table isomorphism search: invariant pruning, marked subsets, counts."""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest

from hgcensus import counts
from hgcensus.catalog import automorphism_group, catalog_orders, groups_of_order
from hgcensus.classify import classify_degree
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


def test_different_orders_infeasible(all_maps):
    s = IsoSearch(C4, S3)
    assert not s.feasible
    assert s.run("count") == 0
    assert all_maps(s) == []


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


def test_all_maps_are_distinct_bijections(all_maps):
    maps = all_maps(IsoSearch(V4, V4))
    assert len(maps) == 6
    seen = {tuple(m.tolist()) for m in maps}
    assert len(seen) == 6
    for m in maps:
        assert sorted(m.tolist()) == [0, 1, 2, 3]
        # homomorphism spot check over all pairs; order 4 is cheap
        for a in range(4):
            for b in range(4):
                assert m[V4.mul[a, b]] == V4.mul[m[a], m[b]]


def test_marked_subset_restricts_automorphisms(subtable):
    # C4xC2 has two subgroups of order 4: one cyclic, one Klein.
    T = _table_of(["(0 1 2 3)", "(4 5)"], 6)
    assert T.order == 8
    subs = [s for s in T.all_subgroups() if len(s) == 4]
    kinds = {}
    for s in subs:
        sub, _ = subtable(T, s)
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


def test_marked_maps_respect_the_marking(subtable, all_maps):
    T = _table_of(["(0 1 2 3)", "(4 5)"], 6)
    cyc = next(s for s in T.all_subgroups()
               if len(s) == 4 and subtable(T, s)[0].elem_order.max() == 4)
    marked = set(cyc.tolist())
    for m in all_maps(IsoSearch(T, T, marked1=cyc, marked2=cyc)):
        assert {int(m[i]) for i in cyc} == marked


@pytest.mark.parametrize("degree", range(2, 11))
def test_chain_count_equals_listed_maps_on_every_class(census, record_table, all_maps, degree):
    # |Aut(G, G')| by the orbit-stabilizer chain against the full list
    for cls in census(degree).classes:
        T, mask = record_table(cls.members[0][1])
        idx = np.flatnonzero(mask)
        search = IsoSearch(T, T, marked1=idx, marked2=idx)
        assert search.run("count") == len(all_maps(search)), cls.label


def test_chain_count_equals_listed_maps_on_small_catalog_groups(all_maps):
    # the one-sided chain refutes candidates by the keys of their products
    # with the pinned generators before searching them
    for n in catalog_orders():
        if n <= 12:
            for g in groups_of_order(n):
                search = IsoSearch(g, g)
                assert search.run("count") == len(all_maps(search)), g.name


def test_chain_count_equals_automorphism_group_order():
    # the census pre-check sizes Hol(N) by the chain count; the holomorph
    # is built from the listed maps
    orders = [n for n in catalog_orders() if n <= 16 or n in (41, 77)]
    checked = 0
    for n in orders:
        for g in groups_of_order(n):
            assert IsoSearch(g, g).run("count") == automorphism_group(g).order, g.name
            checked += 1
    e16 = next(g for g in groups_of_order(16) if g.name == "C2xC2xC2xC2")
    assert automorphism_group(e16).order == 20160  # |GL(4, 2)|
    assert checked == sum(len(groups_of_order(n)) for n in orders)


def _relabeled(T: GroupTable, perm: np.ndarray) -> GroupTable:
    """The same group with element x renamed perm[x] (perm fixes 0)."""
    mul = np.empty_like(T.mul)
    mul[np.ix_(perm, perm)] = perm[T.mul]
    return GroupTable(mul)


def test_count_between_isomorphic_tables_is_the_target_aut_order(all_maps):
    rng = np.random.default_rng(3)
    for T in (S3, C6, _table_of(["(0 1 2 3)", "(4 5)"], 6)):
        perm = np.concatenate([[0], 1 + rng.permutation(T.order - 1)])
        T2 = _relabeled(T, perm)
        assert not np.array_equal(T2.mul, T.mul)
        assert IsoSearch(T, T2).run("count") == IsoSearch(T2, T2).run("count")
        assert IsoSearch(T, T2).run("count") == len(all_maps(IsoSearch(T, T2)))
        sub = next(s for s in T.all_subgroups() if 1 < len(s) < T.order)
        marked = IsoSearch(T, T2, marked1=sub, marked2=np.sort(perm[sub]))
        assert marked.run("count") == len(all_maps(marked)) > 0


def _colour_test_tables(census, record_table) -> list[GroupTable]:
    tables = [g for n in catalog_orders() if n <= 16 for g in groups_of_order(n)]
    return tables + [record_table(rec)[0] for d in (6, 8) for rec in census(d).records]


def test_relabeling_keeps_colours(census, record_table):
    rng = np.random.default_rng(7)
    for T in _colour_test_tables(census, record_table):
        perm = np.concatenate([[0], 1 + rng.permutation(T.order - 1)])
        assert np.array_equal(_relabeled(T, perm).colours()[perm], T.colours())


def test_equal_colours_have_equal_order_and_class_size(census, record_table, conjugacy_classes):
    # colours of different tables compare directly, so check across all of them
    seen: dict[int, tuple[int, int]] = {}
    for T in _colour_test_tables(census, record_table):
        size = np.empty(T.order, dtype=np.int64)
        for cl in conjugacy_classes(T):
            size[cl] = len(cl)
        for c, o, s in zip(T.colours().tolist(), T.elem_order.tolist(), size.tolist()):
            assert seen.setdefault(c, (o, s)) == (o, s)


@pytest.mark.parametrize("degree", range(2, 9))
def test_constant_colours_change_no_count_or_partition(census, record_table, monkeypatch, degree):
    # colours only prune: with every colour 0 the keys are the marks alone
    c = census(degree)
    tables = [record_table(cls.members[0][1]) for cls in c.classes]
    plain = [IsoSearch(T, T).run("count") for T, _ in tables]

    def partition(classes):
        return [(cls.label, [id(rec) for rec in cls.records()]) for cls in classes]

    want_partition = partition(c.classes)
    # patch the one colour routine, which `colours()`, enumeration's batch
    # and a lone record's colours (classify's bucket keys) all call, and
    # drop the colours already set: on the records, and on the holomorph
    # tables, which a record of the whole holomorph shares
    def zeros(self, subgroups):
        return [np.zeros(len(elems), dtype=np.int64) for elems, _ in subgroups]

    monkeypatch.setattr(GroupTable, "subgroup_colours", zeros)
    for rec in c.records:
        monkeypatch.delitem(vars(rec), "colours", raising=False)
    for ctx in c.contexts:
        monkeypatch.setattr(ctx.table(), "_colours", None)
    tables = [record_table(cls.members[0][1]) for cls in c.classes]
    for cls, (T, mask), want in zip(c.classes, tables, plain):
        assert not T.colours().any()
        idx = np.flatnonzero(mask)
        assert IsoSearch(T, T).run("count") == want, cls.label
        assert IsoSearch(T, T, marked1=idx, marked2=idx).run("count") == cls.aut_marked_order
    assert not any(rec.colours.any() for rec in c.records)
    classes = classify_degree(c.records)
    assert partition(classes) == want_partition
    # the seeded weights, searched on zero colours, count what they did
    for cls, want in zip(classes, c.classes):
        assert counts._class_weight(cls) == want.aut_marked_order, cls.label


def test_search_is_freed_without_the_cycle_collector(all_maps):
    # no reference cycle keeps a finished search, and with it both tables, alive
    T = groups_of_order(8)[2]
    marked = T.closure_of([T.generators()[0]])
    runs = {"count": lambda s: s.run("count"), "first": lambda s: s.run("first"), "all": all_maps}
    gc.disable()
    try:
        for mode, run in runs.items():
            search = IsoSearch(T, T, marked1=marked, marked2=marked)
            run(search)
            ref = weakref.ref(search)
            del search
            assert ref() is None, mode
    finally:
        gc.enable()
