"""Dense multiplication tables: construction, subgroup machinery, budgets."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import compose
from hgcensus import table
from hgcensus.catalog import catalog_orders, groups_of_order
from hgcensus.enumeration import enumerate_transitive_classes, subgroup_classes
from hgcensus.errors import BudgetError, StructureError
from hgcensus.holomorph import build_holomorph
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


def test_from_perms_budget_is_enforced(monkeypatch):
    elems = closure([parse_cycles("(0 1)", 5), parse_cycles("(0 1 2 3 4)", 5)], 5)
    monkeypatch.setattr(table, "DEFAULT_TABLE_BUDGET", 100)
    with pytest.raises(BudgetError):
        GroupTable.from_perms(elems)


def test_base_keyed_tables_match_composition():
    def by_composition(elems):
        perms = [tuple(p) for p in elems.tolist()]
        index = {p: i for i, p in enumerate(perms)}
        return np.array([[index[compose(p, q)] for q in perms] for p in perms])

    elems = closure([parse_cycles("(0 1 2 3 4 5 6)", 7), parse_cycles("(1 2 4)(3 6 5)", 7)], 7)
    assert np.array_equal(GroupTable.from_perms(elems).mul, by_composition(elems))
    # C2^5, generator i swapping points 8i and 8i+1: a separating base needs
    # 5 points, one lookup level each
    elems = closure([parse_cycles(f"({8 * i} {8 * i + 1})", 40) for i in range(5)], 40)
    assert np.array_equal(GroupTable.from_perms(elems).mul, by_composition(elems))


def test_from_perms_rejects_duplicate_rows():
    elems = closure([parse_cycles("(0 1 2)", 3)], 3)
    with pytest.raises(StructureError, match="duplicate elements"):
        GroupTable.from_perms(np.concatenate([elems, elems[1:]]))


def test_from_perms_missing_prefix_stays_missing_through_later_levels():
    # base points 0 and 2; every product outside the set sends 0 to a point
    # no element sends it to, so its key is -1 after the first level, and its
    # image of 2 is one the last first-level prefix has: only the trailing
    # -1 block keeps it from reading that prefix's entry at the second level
    elems = np.array([parse_cycles(c, 5) for c in ["()", "(0 1 3)", "(0 1 3)(2 4)"]])
    base, _ = GroupTable._base_levels(elems.astype(np.int32))
    assert base == [0, 2]
    prods = elems[:, elems].reshape(-1, 5)  # p_i . p_j for every pair
    known = {tuple(p) for p in elems.tolist()}
    missing = np.array([p for p in prods.tolist() if tuple(p) not in known])
    assert len(missing) and not np.isin(missing[:, 0], elems[:, 0]).any()
    assert np.isin(missing[:, 2], elems[elems[:, 0] == elems[-1, 0], 2]).all()
    with pytest.raises(StructureError, match="not closed"):
        GroupTable.from_perms(elems)


def test_given_generators_are_kept_as_given():
    T = _table_of(["(0 1 2)", "(0 1)"], 3)
    greedy = T.generators()
    given = GroupTable(T.mul, "S3", [0, 3, 3, 1])  # identity and a repeat kept
    assert given.name == "S3" and given.generators() == [0, 3, 3, 1]
    given.validate("S3")
    assert GroupTable(T.mul).generators() == greedy


def test_subtable_relabels_consistently(subtable):
    T = _table_of(["(0 1 2 3)", "(1 3)"], 4)  # D4, order 8
    center = T.center()
    sub, idx = subtable(T, center)
    assert sub.order == 2
    # local product maps back to the global product
    for i in range(sub.order):
        for j in range(sub.order):
            assert idx[sub.mul[i, j]] == T.mul[idx[i], idx[j]]
    with pytest.raises(StructureError):
        subtable(T, [1, 2])  # misses the identity


def test_subtable_checks_closure_in_every_row_block(subtable):
    # C400 by index addition; the even elements form a subgroup of order 200
    m = 400
    mul = np.add.outer(np.arange(m), np.arange(m)).astype(np.int16) % m
    evens = np.arange(0, m, 2)
    sub, idx = subtable(GroupTable(mul), evens)
    assert np.array_equal(idx, evens)
    assert np.array_equal(sub.mul, np.add.outer(np.arange(200), np.arange(200)) % 200)
    # one product leaves the subgroup, in local row 150, far from the first
    # rows (8's powers never meet 300, so element orders stay finite)
    bad = mul.copy()
    bad[evens[150], evens[4]] = 1
    with pytest.raises(StructureError, match="not closed"):
        subtable(GroupTable(bad), evens)


def test_closure_of_and_extend_subgroup():
    T = _table_of(["(0 1 2 3)", "(1 3)"], 4)
    # pick an element of order 4 without caring about index layout
    four = int(np.nonzero(T.elem_order == 4)[0][0])
    rot = T.closure_of([four])
    assert len(rot) == 4
    gens = T.small_generating_set(rot)
    assert T.extend_subgroup(rot, gens, int(rot[2])) is rot  # already in H
    outside = next(g for g in range(T.order) if g not in set(rot.tolist()))
    assert np.array_equal(T.extend_subgroup(rot, gens, outside), np.arange(8))
    # C12 from the trivial group and one generator: the whole group
    C = _table_of(["(0 1 2 3 4 5 6 7 8 9 10 11)"], 12)
    twelve = int(np.nonzero(C.elem_order == 12)[0][0])
    assert np.array_equal(C.extend_subgroup(np.array([0]), [], twelve), np.arange(12))


def _closure_by_elements(T: GroupTable, seeds: list[int]) -> np.ndarray:
    """Breadth-first closure one element at a time: the reference for
    `extend_subgroup`'s coset fill."""
    seen, todo = {0}, [0]
    for x in todo:
        for g in seeds:
            y = int(T.mul[x, g])
            if y not in seen:
                seen.add(y)
                todo.append(y)
    return np.array(sorted(seen))


def _holomorph_tables(degrees) -> list[GroupTable]:
    return [build_holomorph(g).table() for n in degrees for g in groups_of_order(n)]


@pytest.fixture(scope="module")
def search_closures():
    """The holomorph tables of degrees 2-15 and Hol(C41), and every
    `close_extensions` call the subgroup-class search makes on them:
    (T, subgroups, jobs, the closures it returned in job order)."""
    calls = []
    close = GroupTable.close_extensions

    def record(T, subgroups, jobs):
        closures = []
        calls.append((T, list(subgroups), list(jobs), closures))
        for chunk in close(T, subgroups, jobs):
            closures.extend(chunk)
            yield chunk

    tables = _holomorph_tables([*range(2, 16), 41])
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(GroupTable, "close_extensions", record)
        for T in tables:
            subgroup_classes(T)
    return tables, calls


def test_extend_subgroup_matches_elementwise_closure(search_closures, monkeypatch):
    # replay every seventh extension the subgroup-class search makes, closed
    # alone by `extend_subgroup`, against the element-wise closure of H's
    # generators and the new element: some walks take the Lagrange stop
    _, calls = search_closures
    stops = []  # per walk of the call being replayed, whether it stopped
    walk = GroupTable._coset_walk

    def spy_walk(T, *args):
        out = walk(T, *args)
        stops.append(not out)
        return out

    monkeypatch.setattr(GroupTable, "_coset_walk", spy_walk)
    extensions = [(T, *subgroups[s], x) for T, subgroups, jobs, _ in calls for s, x in jobs]
    stopped = 0
    for T, elems, gens, new in extensions[::7]:
        stops.clear()
        got = T.extend_subgroup(elems, gens, new)
        want = _closure_by_elements(T, list(gens) + [new])
        assert np.array_equal(got, want) and np.isin(elems, want).all()
        if any(stops):  # the Lagrange stop
            stopped += 1
            assert len(want) == T.order
    assert stopped > 0


def test_normalized_extensions_match_elementwise_closure(search_closures):
    # every closure the search takes of H and an x normalizing H, the group
    # H<x>, which the kernel fills like any other job, against the
    # element-wise closure of H's generators and x; the trivial subgroup is
    # normal, so such closures come on every holomorph
    tables, calls = search_closures
    seen = set()
    for T, subgroups, jobs, closures in calls:
        assert len(closures) == len(jobs)
        for (s, x), got in zip(jobs, closures):
            elems, gens = subgroups[s]
            if not np.array_equal(np.sort(T.mul[elems, x]), np.sort(T.mul[x, elems])):
                continue
            want = _closure_by_elements(T, list(gens) + [x])
            assert np.array_equal(got, want) and np.isin(elems, want).all()
            seen.add(id(T))
    assert seen == {id(T) for T in tables}


def test_close_extensions_match_elementwise_closure(search_closures, monkeypatch):
    # replay the closure batches the subgroup-class search makes against the
    # element-wise closure of H's generators and the new element, every
    # seventh job; chunks mix subgroups of different orders, batches cross
    # chunk boundaries, lone jobs go through `extend_subgroup`, and every
    # Lagrange stop is a whole-group closure
    _, calls = search_closures
    stops = []  # per chunk, the jobs that took the Lagrange stop
    run = table._CosetFill.run

    def spy(fill):
        out = run(fill)
        stops.append(~fill.alive)
        return out

    monkeypatch.setattr(table._CosetFill, "run", spy)
    mixed = crossed = stopped = 0
    replayed = 0
    for T, subgroups, jobs, _ in calls:
        lo = 0
        for chunk in T.close_extensions(subgroups, jobs):
            part = jobs[lo : lo + len(chunk)]
            mixed += len({len(subgroups[s][0]) for s, _ in part}) > 1
            crossed += 0 < lo
            if len(part) == 1:  # a lone job is `extend_subgroup`'s walk
                stops.append([False])
            for (s, x), got, stop in zip(part, chunk, stops[-1]):
                elems, gens = subgroups[s]
                replayed += 1
                if stop:
                    stopped += 1
                    assert len(got) == T.order
                if replayed % 7 and not stop:
                    continue
                want = _closure_by_elements(T, list(gens) + [x])
                assert np.array_equal(got, want) and np.isin(elems, want).all()
            lo += len(chunk)
        assert lo == len(jobs)
    assert mixed > 0 and crossed > 0 and stopped > 0


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


def _classes_by_all_conjugates(T: GroupTable) -> list[list[int]]:
    mul, inv = T.mul.astype(np.int64), T.inv.astype(np.int64)
    conj = mul[mul, inv[:, None]]  # conj[a, x] = a x a^-1
    classes = {tuple(np.unique(conj[:, x]).tolist()) for x in range(T.order)}
    return [list(c) for c in sorted(classes)]


def test_conjugacy_classes_partition_s3(conjugacy_classes):
    T = _table_of(["(0 1 2)", "(0 1)"], 3)
    classes = conjugacy_classes(T)
    sizes = sorted(len(c) for c in classes)
    assert sizes == [1, 2, 3]
    assert sum(sizes) == T.order
    assert [c.tolist() for c in classes] == _classes_by_all_conjugates(T)


def test_conjugacy_classes_match_all_conjugates_on_catalog_groups(conjugacy_classes):
    for n in catalog_orders():
        for T in groups_of_order(n):
            assert [c.tolist() for c in conjugacy_classes(T)] == _classes_by_all_conjugates(T), T.name


@pytest.mark.parametrize("degree", range(2, 11))
def test_conjugacy_classes_match_all_conjugates_on_records(census, record_table, conjugacy_classes, degree):
    for rec in census(degree).records:
        T, _ = record_table(rec)
        assert [c.tolist() for c in conjugacy_classes(T)] == _classes_by_all_conjugates(T)


def _colours_by_classes(T: GroupTable, conjugacy_classes) -> np.ndarray:
    """Colours from the conjugacy classes and element-wise powers of T's
    own table: the reference for `subgroup_colours`."""
    size = np.empty(T.order, dtype=np.uint64)
    for cl in conjugacy_classes(T):
        size[cl] = len(cl)
    maps = [T.inv.astype(np.int64)]
    for p in table._prime_factors(T.exponent()):
        power = np.zeros(T.order, dtype=np.int64)
        for _ in range(p):
            power = T.mul[power, np.arange(T.order)].astype(np.int64)
        maps.append(power)
    c = table._mix(T.elem_order.astype(np.uint64), size)
    for _ in range(3):
        new = c
        for f in maps:
            new = table._mix(new, c[f])
        c = new
    return (c >> np.uint64(1)).astype(np.int64)


def test_colours_of_catalog_tables_match_the_class_reference(conjugacy_classes):
    for n in catalog_orders():
        if n <= 16:
            for T in groups_of_order(n):
                assert np.array_equal(T.colours(), _colours_by_classes(T, conjugacy_classes)), T.name


def test_subgroup_colours_on_the_holomorph_match_the_record_tables(census, record_table):
    records = [rec for n in range(2, 16) for rec in census(n).records]
    records += enumerate_transitive_classes(build_holomorph(groups_of_order(41)[0]))
    for rec in records:
        colours = rec.ctx.table().subgroup_colours([(rec.indices, rec.gens)])[0]
        own = record_table(rec)[0].colours()
        assert np.array_equal(colours, own), (rec.ctx.n, rec.type_name, rec.order)


@pytest.mark.parametrize("degree", [*range(2, 16), 41, 77])
def test_batch_colours_equal_one_record_colours(census, record_table, conjugacy_classes, degree):
    # enumeration colours each holomorph's records in one pass; a record
    # coloured alone gets the same values, bit for bit, and so does the
    # class reference on its own table wherever that table fits
    for rec in census(degree).records:
        alone = rec.ctx.table().subgroup_colours([(rec.indices, rec.gens)])[0]
        assert np.array_equal(rec.colours, alone), (rec.type_name, rec.order)
        if rec.order <= 2048:
            own = _colours_by_classes(record_table(rec)[0], conjugacy_classes)
            assert np.array_equal(rec.colours, own), (rec.type_name, rec.order)


@given(budget=st.integers(1, 2**20), width=st.integers(1, 5000), itemsize=st.sampled_from([1, 2, 4, 8]))
def test_rows_fit_the_budget_or_are_one(budget, width, itemsize):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(table, "_TEMP_BYTES", budget)
        rows = table._rows(width, itemsize)
    assert rows >= 1
    assert rows == 1 or rows * width * itemsize <= budget
    assert (rows + 1) * width * itemsize > budget  # as many as fit


@pytest.fixture(scope="module")
def s4_subgroups():
    """Hol(C2xC2) = S4, its 30 subgroups as (elements, generators), and
    their colours at the default budget."""
    T = build_holomorph(next(g for g in groups_of_order(4) if g.name == "C2xC2")).table()
    subgroups = [(h, T.small_generating_set(h)) for h in T.all_subgroups()]
    return T, subgroups, T.subgroup_colours(subgroups)


@given(picks=st.lists(st.integers(0, 29), max_size=12), budget=st.integers(1, 24 * 8 * 13))
def test_colour_runs_cover_the_subgroups_in_order_within_the_budget(s4_subgroups, picks, budget):
    # a run's position map, one row of `order` cells per subgroup, fits the
    # budget as int64 cells or the run holds one subgroup; the runs are
    # consecutive, as full as fit, and give the default budget's colours
    T, subgroups, want = s4_subgroups
    assert T.order == 24 and len(subgroups) == 30
    runs = []
    chunk = GroupTable._colour_chunk

    def spy(self, part):
        runs.append(list(part))
        return chunk(self, part)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(table, "_TEMP_BYTES", budget)
        patch.setattr(GroupTable, "_colour_chunk", spy)
        got = T.subgroup_colours([subgroups[i] for i in picks])
    flat = [s for run in runs for s in run]
    assert len(flat) == len(picks) and all(s is subgroups[i] for s, i in zip(flat, picks))
    assert all(len(run) == 1 or len(run) * T.order * 8 <= budget for run in runs)
    assert all(len(run) == max(1, budget // (T.order * 8)) for run in runs[:-1])
    assert len(got) == len(picks) and all(np.array_equal(c, want[i]) for c, i in zip(got, picks))


@pytest.mark.parametrize("order, name", [(8, "C2xC2xC2"), (77, "C77")])
def test_one_holomorphs_colour_batch_stays_small(order, name):
    # a chunk's position map, one row of `order` cells per subgroup, fits
    # `_TEMP_BYTES` as int64 cells, so the batch stays near 1 MB: Hol(C77)'s
    # records hold 20 328 positions
    ctx = build_holomorph(next(g for g in groups_of_order(order) if g.name == name))
    records = enumerate_transitive_classes(ctx)
    T = ctx.table()
    tracemalloc.start()
    try:
        colours = T.subgroup_colours([(rec.indices, rec.gens) for rec in records])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(np.array_equal(c, rec.colours) for c, rec in zip(colours, records))
    assert peak < 1.5 * 2**20, peak


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
        for T in groups_of_order(n):
            assert np.array_equal(T.derived_subgroup(), _derived_by_all_commutators(T)), T.name
            assert T.is_abelian() == bool((T.mul == T.mul.T).all()), T.name


@pytest.mark.parametrize("degree", range(2, 11))
def test_derived_subgroup_matches_all_commutators_on_records(census, record_table, degree):
    for rec in census(degree).records:
        T, _ = record_table(rec)
        assert np.array_equal(T.derived_subgroup(), _derived_by_all_commutators(T))
        assert T.is_abelian() == bool((T.mul == T.mul.T).all())


def test_element_orders_and_inverses_of_catalog_groups():
    for n in catalog_orders():
        for T in groups_of_order(n):
            assert (T.mul[np.arange(T.order), T.inv] == 0).all(), T.name
            for a in range(1, T.order):
                k, x = 1, a
                while x != 0:
                    x, k = int(T.mul[x, a]), k + 1
                assert T.elem_order[a] == k, (T.name, a)


def test_table_without_unique_inverses_is_rejected():
    mul = np.array([[0, 1, 2], [1, 0, 0], [2, 0, 1]], dtype=np.int16)
    with pytest.raises(StructureError):
        GroupTable(mul)


def test_inverse_check_covers_the_second_row_block():
    # Hol(Q8) has order 192: rows 150 and 170 sit in the second block of rows
    q8 = next(g for g in groups_of_order(8) if g.name == "Q8")
    t = build_holomorph(q8).table().mul
    none = t.copy()
    none[150, none[150] == 0] = 1  # no identity in the row
    two = t.copy()
    two[170, 5 if two[170, 5] != 0 else 6] = 0  # a second identity in the row
    for bad in (none, two):
        with pytest.raises(StructureError, match="unique inverse"):
            GroupTable(bad)


def test_inverses_of_holomorph_tables():
    for T in _holomorph_tables([*range(2, 16), 41, 77]):
        x = np.arange(T.order)
        assert (T.mul[x, T.inv] == 0).all() and (T.mul[T.inv, x] == 0).all()


def _associative_by_all_triples(t: np.ndarray) -> bool:
    return bool(np.array_equal(t[t], t[:, t]))  # (a b) c == a (b c), all a, b, c at once


def _intercalates(t: np.ndarray):
    """2x2 subsquares {u, v} off row and column 0, as (a, b, c, d)."""
    n = t.shape[0]
    for a in range(1, n):
        for b in range(a + 1, n):
            for c in range(1, n):
                d = int(np.argmax(t[b] == t[a, c]))
                if d > c and t[a, d] == t[b, c]:
                    yield a, b, c, d


def _swap_intercalate(t: np.ndarray, a: int, b: int, c: int, d: int) -> np.ndarray:
    out = t.copy()
    out[[a, a, b, b], [c, d, c, d]] = t[[a, a, b, b], [d, c, d, c]]
    return out


def test_validate_covers_the_last_row_and_column_block(monkeypatch):
    # Hol(Q8) has order 192 and int16 cells: a budget of 128 rows runs the
    # validation over two blocks of rows and of columns, with both defects
    # in the second block only, and a one-byte budget over blocks of one
    q8 = next(g for g in groups_of_order(8) if g.name == "Q8")
    t = build_holomorph(q8).table().mul
    m = len(t)
    assert m == 192
    bad = t.copy()
    bad[m - 1, [128, 129]] = t[m - 1, [129, 128]]  # the row stays a permutation
    swapped = _swap_intercalate(t, 189, 191, 1, 3)
    assert not _associative_by_all_triples(swapped)
    for budget in (128 * m * 2, 1):
        monkeypatch.setattr(table, "_TEMP_BYTES", budget)
        with pytest.raises(StructureError, match="not permutations"):
            GroupTable(bad).validate("Hol(Q8)")
        with pytest.raises(StructureError, match="not associative"):
            GroupTable(swapped).validate("Hol(Q8)")


def test_validate_accepts_every_catalog_group():
    for n in catalog_orders():
        for g in groups_of_order(n):
            g.validate(g.name)


@pytest.mark.parametrize("degree", range(2, 11))
def test_validate_accepts_every_record_table(census, record_table, degree):
    for rec in census(degree).records:
        T, _ = record_table(rec)
        T.validate(f"record of order {rec.order}")


def test_light_test_agrees_with_all_triples_on_swapped_intercalates():
    # a swap keeps the table Latin with identity 0; some swaps turn one
    # group table into another (C4 <-> C2xC2), most break associativity
    verdicts = set()
    for n in (4, 6, 8, 9):
        for g in groups_of_order(n):
            for cells in _intercalates(g.mul):
                t = _swap_intercalate(g.mul, *cells)
                assoc = _associative_by_all_triples(t)
                verdicts.add(assoc)
                if assoc:
                    GroupTable(t).validate("swapped")
                else:
                    with pytest.raises(StructureError):
                        GroupTable(t).validate("swapped")
    assert verdicts == {True, False}

