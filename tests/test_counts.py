"""Census counting layer: weights, member terms, flags, row assembly."""

from __future__ import annotations

import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import fields_by_stabilizer_orbits, regular_representation
from hgcensus import build_degree_census, catalog, counts, enumeration, table
from hgcensus.counts import (
    DegreeReportRow,
    bijective_correspondence,
    hgs_count_for_class,
    hopf_subalgebra_count,
    intermediate_field_count,
    is_almost_classical,
)
from hgcensus.errors import ConsistencyError
from hgcensus.expected import EXPECTED
from hgcensus.iso import IsoSearch
from hgcensus.table import GroupTable


def test_aut_stab_order_matches_plain_aut_count_when_unconstrained(census):
    # a trivial stabilizer marks nothing, so |Aut(G, 1)| = |Aut(G)|; the
    # left translations of N form a regular record with G = N
    seen = 0
    for cls in census(6).classes:
        for _, rec in cls.members:
            if rec.regular and np.array_equal(rec.rep.elements, regular_representation(rec.ctx.group).elements):
                hgs_count_for_class(cls)
                assert cls.aut_marked_order == rec.ctx.aut.order
                seen += 1
    assert seen == 2  # one per type, C6 and S3


def test_orbit_stabilizer_for_every_class(census):
    for degree in (6, 8):
        c = census(degree)
        for rec in c.records:
            hol_order = rec.ctx.hol.order
            assert rec.class_size * rec.normalizer_order == hol_order


def test_row_sums_match_per_class_counts(census):
    c = census(8)
    total = sum(hgs_count_for_class(cls) for cls in c.classes)
    assert total == c.row.hgs_total
    gal = sum(
        hgs_count_for_class(cls, galois_only=True) for cls in c.classes if cls.regular
    )
    assert gal == c.row.gal_hgs


def test_class_weight_is_cached_and_positive(census):
    for cls in census(6).classes:
        hgs_count_for_class(cls)
        assert cls.aut_marked_order is not None
        assert cls.aut_marked_order > 0


def _subgroup_class_count(perms, minimal_conjugate) -> int:
    """Subgroup conjugacy classes of a permutation group, by full scan."""
    T = GroupTable.from_perms(perms)
    return len({minimal_conjugate(T, s) for s in T.all_subgroups()})


@pytest.mark.parametrize("degree", [*range(2, 16), 30, 41, 77])
def test_almost_classical_record_count_equals_aut_subgroup_classes(census, minimal_conjugate, degree):
    # per type, records containing all right translations biject with
    # subgroup conjugacy classes of the base group's automorphism group
    c = census(degree)
    per_type = {}
    for rec, flag in zip(c.records, c.ac_flags):
        if flag:
            per_type[rec.type_name] = per_type.get(rec.type_name, 0) + 1
    for ctx in c.contexts:
        want = _subgroup_class_count(ctx.aut.elements, minimal_conjugate)
        assert per_type.get(ctx.group.name, 0) == want, ctx.group.name
    assert sum(per_type.values()) == c.row.ac_sbracoids


@pytest.mark.parametrize("degree", [2, 3, 5, 7, 11, 13, 41])
def test_prime_degree_row_is_the_divisor_count_of_p_minus_1(census, degree):
    # the one type is C_p, Hol(C_p) = AGL(1, p), and every transitive
    # subgroup is C_p extended by a subgroup of the cyclic Aut(C_p), one per
    # divisor of p - 1; only C_p itself is regular
    d = sum(1 for k in range(1, degree) if (degree - 1) % k == 0)
    assert census(degree).row.cells() == (1, d, d, 1, 1, d, d, d)


@pytest.mark.parametrize("degree", range(2, 16))
def test_whole_holomorph_weight_is_aut_times_multiple_holomorph(census, record_table, degree):
    # |Aut(Hol N, Aut N)| = |Aut N| |T(N)|, T(N) = NHol(N) / Hol(N), and
    # |T(N)| counts the normal regular subgroups of Hol(N) isomorphic to N
    # (Kohl, Comm. Algebra 2015): regular records of class size 1 here
    c = census(degree)
    for ctx in c.contexts:
        normal_copies = sum(
            1
            for rec in c.records
            if rec.ctx is ctx and rec.regular and rec.class_size == 1
            and IsoSearch(record_table(rec)[0], ctx.group).run("first") is not None
        )
        whole = [cls for cls in c.classes
                 if any(rec.ctx is ctx and rec.order == len(ctx.perms) for _, rec in cls.members)]
        assert len(whole) == 1, ctx.group.name
        assert whole[0].aut_marked_order == ctx.aut.order * normal_copies, ctx.group.name


def test_translation_records_and_the_containment_test(census):
    c = census(6)
    for rec in c.records:
        if np.array_equal(rec.rep.elements, regular_representation(rec.ctx.group, "right").elements):
            assert is_almost_classical(rec)  # contains itself
        if (rec.type_name == "S3" and rec.regular
                and np.array_equal(rec.rep.elements, regular_representation(rec.ctx.group).elements)):
            # left translations of a nonabelian group miss the right ones
            assert not is_almost_classical(rec)


def test_almost_classical_implies_correspondence(census):
    for degree in (6, 8):
        c = census(degree)
        for ac, bc in zip(c.ac_flags, c.bc_flags):
            if ac:
                assert bc


def test_field_count_of_regular_records_is_subgroup_count(census):
    # a regular group's blocks through 0 are exactly its subgroup orbits
    subgroup_counts = {"C6": 4, "S3": 6}
    for rec in census(6).records:
        if rec.regular:
            n_subs = len(rec.rep.table().all_subgroups())
            assert intermediate_field_count(rec) == n_subs
            if np.array_equal(rec.rep.elements, regular_representation(rec.ctx.group).elements):
                assert n_subs == subgroup_counts[rec.type_name]


@pytest.mark.parametrize("degree", range(2, 8))
def test_field_count_equals_subgroups_over_the_stabilizer(census, record_table, degree):
    # the block walk takes one atom per stabilizer orbit; the oracle lists
    # every subgroup of the record's table and keeps those over the stabilizer
    for rec in census(degree).records:
        T, mask = record_table(rec)
        over = sum(1 for s in T.all_subgroups() if np.isin(np.flatnonzero(mask), s).all())
        assert intermediate_field_count(rec) == over, (rec.type_name, rec.order)


@pytest.mark.parametrize("degree", [*range(2, 16), 41, 77])
def test_every_member_has_its_class_field_count(census, degree):
    # the census walks the block lattice once per class, on the leader
    c = census(degree)
    fields_of = {id(rec): fields for rec, (fields, _) in zip(c.records, c.bc_counts)}
    for cls in c.classes:
        want = intermediate_field_count(cls.members[0][1])
        for _, rec in cls.members:
            assert intermediate_field_count(rec) == want == fields_of[id(rec)], cls.label


def test_no_class_holds_a_plan_once_the_census_returns():
    c = build_degree_census(8)
    assert any(len(cls.members) > 1 for cls in c.classes)
    assert all(cls._plan is None for cls in c.classes)


def test_correspondence_returns_consistent_triple(census):
    for rec, counts in zip(census(6).records, census(6).bc_counts):
        ok, fields, hopfs = bijective_correspondence(rec)
        assert (fields, hopfs) == counts
        assert ok == (fields == hopfs)
        assert fields >= 2 or rec.ctx.n <= 3  # trivial and full blocks differ
        assert hopfs == hopf_subalgebra_count(rec)


def test_skip_flags_blank_cells_and_mark_partial(census):
    base = census(6)
    no_ac = census(6, skip_ac=True)
    assert no_ac.row.ac_hgs is None and no_ac.row.ac_sbracoids is None
    assert no_ac.row.partial
    assert no_ac.row.hgs_total == base.row.hgs_total
    no_bc = census(6, skip_bc=True)
    assert no_bc.row.bc_hgs is None
    assert no_bc.row.partial
    assert no_bc.row.sbraces == base.row.sbraces


def test_report_row_validation_catches_impossible_rows():
    with pytest.raises(ConsistencyError):
        DegreeReportRow(6, 2, 10, 4, 1, 7, 1, 1, 2).validate()  # sbraces > records
    with pytest.raises(ConsistencyError):
        DegreeReportRow(6, 2, 10, 4, 11, 2, 1, 1, 2).validate()  # gal > total
    with pytest.raises(ConsistencyError):
        DegreeReportRow(6, 2, -1, None, None, None, None, None, None).validate()
    DegreeReportRow(6, 2, None, None, None, None, None, None, None, partial=True).validate()


def test_build_report_row_matches_reference_at_degree_6():
    assert build_degree_census(6).row.cells() == EXPECTED[6].cells()


def _hopf_count_by_tuples(rec) -> int:
    """Subgroups H of N with r . lambda_h . r^-1 in lambda(H), by tuple conjugation."""
    ctx = rec.ctx
    count = 0
    for sub in ctx.group.all_subgroups():
        lam = {tuple(ctx.group.mul[h].tolist()) for h in sub.tolist()}
        if all(_conjugate(r, h) in lam for r in rec.rep.generators.tolist() for h in lam):
            count += 1
    return count


def _conjugate(a, p) -> tuple[int, ...]:
    """a . p . a^-1, the relabeling of p along a."""
    out = [0] * len(p)
    for i, j in enumerate(p):
        out[a[i]] = a[j]
    return tuple(out)


@pytest.mark.parametrize("degree", range(2, 11))
def test_index_flags_match_tuple_oracles(census, degree):
    c = census(degree)
    for rec, ac, (_, hopfs) in zip(c.records, c.ac_flags, c.bc_counts):
        right = {tuple(p) for p in regular_representation(rec.ctx.group, "right").elements.tolist()}
        assert ac == (right <= {tuple(p) for p in rec.rep.elements.tolist()})
        assert hopfs == _hopf_count_by_tuples(rec)


def test_groups_are_views_of_the_image_matrix(census):
    c = census(8)
    assert c.records
    for ctx in c.contexts:
        assert np.shares_memory(ctx.hol.elements, ctx.perms)
    for rec in c.records:
        assert np.array_equal(rec.rep.elements, rec.ctx.perms[rec.indices])


def test_block_budget_stop_blanks_only_the_bc_column(census, monkeypatch):
    # unknown, never wrong: a BC walk out of budget leaves every other cell
    full = census(8)
    # one below the largest block lattice: earlier records finish their
    # walk, the first record with the largest lattice stops it
    monkeypatch.setattr(counts, "DEFAULT_BLOCK_BUDGET", max(f for f, _ in full.bc_counts) - 1)
    c = build_degree_census(8)
    assert c.row.bc_hgs is None and c.row.partial
    assert c.bc_flags == [None] * len(c.records)
    assert c.bc_counts == [None] * len(c.records)
    assert c.row.cells()[:-1] == full.row.cells()[:-1]
    assert full.row.bc_hgs is not None and not full.row.partial
    assert c.ac_flags == full.ac_flags and c.terms == full.terms
    # the stop names the class whose walk ran out
    assert c.stop.layer == "bc" and c.stop.where in {cls.label for cls in c.classes}
    assert c.stop.reason.startswith("block lattice walk exceeded budget")
    assert full.stop is None


def test_weights_align_with_records(census):
    c = census(8)
    assert len(c.terms) == len(c.records)
    assert len(c.ac_flags) == len(c.records)
    assert len(c.bc_flags) == len(c.records)
    assert all(isinstance(t, int) and t > 0 for t in c.terms)
    # the members' terms reproduce the headline count
    assert sum(c.terms) == c.row.hgs_total


def _fresh_catalog(monkeypatch) -> None:
    """Reload the catalog for this test: its tables hold no automorphism count yet."""
    monkeypatch.setattr(catalog, "_catalog_cache", None)
    monkeypatch.setattr(catalog, "_checked_orders", set())


def test_oversized_holomorph_stops_degree_16_before_any_holomorph(monkeypatch):
    # |Hol(C2^4)| = 16 * 20160 exceeds the dense-table budget; the
    # automorphism count alone must stop the degree, before anything
    # closes Aut(C2^4)
    def refuse(group):
        raise AssertionError(f"built the holomorph of {group.name}")

    _fresh_catalog(monkeypatch)
    monkeypatch.setattr(counts, "build_holomorph", refuse)
    c = build_degree_census(16)
    assert c.row.types == 14
    assert c.row.partial
    assert c.row.cells()[1:] == (None,) * 7
    assert c.contexts == [] and c.records == []
    assert c.stop == counts.BudgetStop(
        "table", "C2xC2xC2xC2", "group too large to table densely (spent 322560, budget 6000)"
    )
    e16 = next(g for g in catalog.groups_of_order(16) if g.name == "C2xC2xC2xC2")
    assert catalog.automorphism_order(e16) == 20160
    assert e16._aut[1]._elements is None


def test_each_type_counts_its_automorphisms_once(monkeypatch):
    # the budget pre-check's chain count is the one automorphism_group closes
    _fresh_catalog(monkeypatch)
    groups = catalog.groups_of_order(8)
    chains = []
    count = IsoSearch._count

    def spy(self):
        if any(self.source.T is g for g in groups):
            chains.append(self.source.T.name)
        return count(self)

    monkeypatch.setattr(IsoSearch, "_count", spy)
    c = build_degree_census(8)
    assert sorted(chains) == sorted(g.name for g in groups)
    assert [ctx.aut.order for ctx in c.contexts] == [catalog.automorphism_order(g) for g in groups]


def test_the_budget_pre_check_reads_the_table_budget_where_it_is_kept(monkeypatch):
    # |Hol(C2^3)| = 1344 exceeds a budget of 1000 set on the table module,
    # so degree 8 stops at the automorphism counts, before any holomorph
    monkeypatch.setattr(table, "DEFAULT_TABLE_BUDGET", 1000)
    c = build_degree_census(8)
    assert c.row.types == 5
    assert c.row.partial
    assert c.row.cells()[1:] == (None,) * 7
    assert c.contexts == [] and c.records == []


def test_a_weight_the_normalizer_does_not_divide_is_refused(monkeypatch):
    # |N_A(G)| = normalizer_order / n divides |Aut(G, G')|; halving a class
    # weight that equals some member's |N_A(G)| breaks that at degree 4
    weight = counts._class_weight
    halved = []

    def fault(cls):
        w = weight(cls)
        if not halved and w % 2 == 0 and any(w == rec.normalizer_order // 4 for _, rec in cls.members):
            halved.append(cls.label)
        return w // 2 if cls.label in halved else w

    monkeypatch.setattr(counts, "_class_weight", fault)
    with pytest.raises(ConsistencyError, match="does not divide"):
        build_degree_census(4)
    assert halved == ["d4-o4-s1-c1"]


def test_a_class_size_off_by_one_is_refused(monkeypatch):
    # class size times |N_A(G)| is |Aut(N)|: that identity makes a member's
    # term Byott's count, so one record's class size off by one must raise
    enumerate_ = counts.enumerate_transitive_classes
    shifted = []

    def fault(ctx, *args):
        records = enumerate_(ctx, *args)
        if records and not shifted:
            records[-1].class_size += 1
            shifted.append(records[-1].type_name)
        return records

    monkeypatch.setattr(counts, "enumerate_transitive_classes", fault)
    with pytest.raises(ConsistencyError, match="class size"):
        build_degree_census(8)
    assert shifted == ["C8"]


@pytest.mark.parametrize("degree", [*range(2, 16), 41, 77])
def test_class_weight_equals_the_search_on_record_tables(census, record_table, degree):
    # the weight searches the leader inside its holomorph table, seeded with
    # its N_A(G); the oracle searches the leader's own k x k table, unseeded,
    # for every class whose table fits next to the dense holomorph tables
    for cls in census(degree).classes:
        if cls.order > 2048:
            continue
        T, mask = record_table(cls.members[0][1])
        stab = np.flatnonzero(mask)
        want = IsoSearch(T, T, marked1=stab, marked2=stab).run("count")
        assert counts._class_weight(replace(cls, aut_marked_order=None)) == want, cls.label


def test_class_weight_builds_no_record_table(census):
    # the largest proper record at degree 41 has order 820; its k x k int16
    # table would take k^2 * 2 bytes.  Its weight is certified, so the
    # seeded chain count the weight falls back to is run directly
    cls = max((cls for cls in census(41).classes if cls.order < 1640), key=lambda cls: cls.order)
    k = cls.order
    assert k == 820
    cls.members[0][1].ctx.table()
    tracemalloc.start()
    try:
        count = _leader_count(cls, True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == cls.aut_marked_order
    assert peak < k * k * 2, peak


def _leader_count(cls, seeded: bool) -> int:
    rec = cls.members[0][1]
    stab = rec.stab_positions
    seeds = rec.aut_normalizer if seeded else None
    return IsoSearch(rec.side, rec.side, stab, stab, seeds=seeds).run("count")


@pytest.mark.parametrize("degree", [*range(2, 16), 41, 77])
def test_seeded_and_unseeded_counts_agree(census, degree):
    # orbits under a subgroup of each level's stabilizer keep the chain exact
    for cls in census(degree).classes:
        assert _leader_count(cls, True) == _leader_count(cls, False) == cls.aut_marked_order, cls.label


def test_seeds_spare_the_weights_successful_searches(census, monkeypatch):
    # N_A(G) puts into each orbit images a search would only confirm, so
    # the seeded weights of degrees 2-15 find fewer witnesses by search
    classes = [cls for degree in range(2, 16) for cls in census(degree).classes]
    descend = IsoSearch._descend
    found = []

    def spy(self, *args):
        maps = descend(self, *args)
        found.append(bool(maps))
        return maps

    monkeypatch.setattr(IsoSearch, "_descend", spy)
    successes = {}
    for seeded in (True, False):
        found.clear()
        for cls in classes:
            _leader_count(cls, seeded)
        successes[seeded] = sum(found)
    assert 0 < successes[True] < successes[False], successes


def test_a_seed_that_does_not_normalize_the_class_is_refused(monkeypatch):
    # a seed proves itself before its orbits are used: in every record's
    # N_A(G), swap the last element for an automorphism of N outside it,
    # which keeps |N_A(G)| for the divisibility certificate, and some
    # level must refuse the seed
    enumerate_ = counts.enumerate_transitive_classes

    def corrupt(ctx, *args):
        records = enumerate_(ctx, *args)
        T, auts = ctx.table(), np.flatnonzero(ctx.perms[:, 0] == 0)
        for rec in records:
            member = np.zeros(T.order, dtype=bool)
            member[rec.indices] = True
            outside = [a for a in auts.tolist() if not member[T.conj_many(a, rec.indices)].all()]
            if outside and len(rec.aut_normalizer) > 1:
                rec.aut_normalizer = np.sort(np.append(rec.aut_normalizer[:-1], outside[0]))
        return records

    monkeypatch.setattr(counts, "enumerate_transitive_classes", corrupt)
    with pytest.raises(ConsistencyError, match="seed"):
        build_degree_census(8)


def _pinned_member(cls):
    return next((rec for _, rec in cls.members if counts._pins_translations(rec)), None)


@pytest.mark.parametrize("degree", [*range(2, 16), 30, 41, 77])
def test_pinned_translations_weigh_what_the_unseeded_chain_counts(census, degree):
    # where every automorphism of (G, G') must normalize lambda(N) or
    # rho(N), it lies in N_A(G): the chain count on that member's side,
    # unseeded, must find exactly |N_A(G)|
    for cls in census(degree).classes:
        rec = _pinned_member(cls)
        if rec is not None:
            stab = rec.stab_positions
            chain = IsoSearch(rec.side, rec.side, stab, stab).run("count")
            assert chain == len(rec.aut_normalizer) == cls.aut_marked_order, cls.label


def test_the_certificate_spares_the_chain_count(census, monkeypatch):
    # coverage floors: every class of degrees 41 and 77 and at least 105
    # of the 147 of degrees 2-15 are weighed without a chain count, so a
    # silent fallback to the count shows here
    groups = {"41+77": [41, 77], "2-15": range(2, 16)}
    classes = {name: [cls for d in degrees for cls in census(d).classes] for name, degrees in groups.items()}
    chains = []
    count = IsoSearch._count

    def spy(self):
        chains.append(1)
        return count(self)

    monkeypatch.setattr(IsoSearch, "_count", spy)
    fallbacks = {}
    for name, group in classes.items():
        chains.clear()
        for cls in group:
            assert counts._class_weight(replace(cls, aut_marked_order=None)) == cls.aut_marked_order, cls.label
        fallbacks[name] = len(chains)
        assert fallbacks[name] == sum(_pinned_member(cls) is None for cls in group), name
    assert len(classes["41+77"]) == 28 and fallbacks["41+77"] == 0
    assert len(classes["2-15"]) == 147 and fallbacks["2-15"] <= 147 - 105


def _corrupt_pinned_records(monkeypatch, change) -> list[str]:
    """Make enumeration hand `change` every record whose translations are
    pinned; returns the types of the records it changed."""
    enumerate_ = counts.enumerate_transitive_classes
    changed = []

    def corrupt(ctx, *args):
        records = enumerate_(ctx, *args)
        changed.extend(rec.type_name for rec in records if counts._pins_translations(rec) and change(rec))
        return records

    monkeypatch.setattr(counts, "enumerate_transitive_classes", corrupt)
    return changed


def test_a_certified_weight_missing_a_normalizer_element_is_refused(monkeypatch):
    # every class of degree 7 is one record of Hol(C7) whose translations
    # are pinned, so its weight is its own |N_A(G)|; one element short,
    # the weight still divides, and the class-size identity must refuse it
    def drop(rec):
        rec.aut_normalizer = rec.aut_normalizer[:-1]
        return True

    changed = _corrupt_pinned_records(monkeypatch, drop)
    with pytest.raises(ConsistencyError, match="class size"):
        build_degree_census(7, skip_bc=True)
    assert changed == ["C7"] * 4


def test_a_certified_weight_from_a_non_normalizer_is_refused(monkeypatch):
    # swap one element of each pinned record's N_A(G) for an automorphism
    # of N that does not normalize G: the size, and so the class-size
    # identity, still holds, and the proof of N_A(G)'s rows must refuse it
    def swap(rec):
        ctx = rec.ctx
        T, auts = ctx.table(), np.flatnonzero(ctx.perms[:, 0] == 0)
        member = np.zeros(T.order, dtype=bool)
        member[rec.indices] = True
        outside = [a for a in auts.tolist() if not member[T.conj_many(a, rec.indices)].all()]
        if outside and len(rec.aut_normalizer) > 1:
            rec.aut_normalizer = np.sort(np.append(rec.aut_normalizer[:-1], outside[0]))
        return bool(outside)

    changed = _corrupt_pinned_records(monkeypatch, swap)
    with pytest.raises(ConsistencyError, match="does not fix 0 and normalize"):
        build_degree_census(8, skip_bc=True)
    assert changed


@pytest.mark.parametrize(
    "degree, stopped, reason",
    [(8, "C4xC2", "subgroup search time budget exhausted"), (6, "S3", "enumeration time budget exhausted")],
)
def test_the_enumeration_budget_runs_on_one_clock_per_degree(monkeypatch, degree, stopped, reason):
    # on a fake clock each type takes 1000 s: with one clock per type no
    # type would exceed the 1800 s budget, with one clock per degree the
    # degree stops in its second type.  The search reads the clock every
    # 256 candidates, so Hol(C4xC2)'s search stops itself; Hol(S3)'s has
    # fewer, and the degree's check after it stops the degree
    now = [0.0]
    clock = SimpleNamespace(monotonic=lambda: now[0])
    monkeypatch.setattr(counts, "time", clock)
    monkeypatch.setattr(enumeration, "time", clock)
    enumerate_ = counts.enumerate_transitive_classes
    searched = []

    def slow(ctx, *args):
        now[0] += 1000.0
        searched.append(ctx.group.name)
        return enumerate_(ctx, *args)

    monkeypatch.setattr(counts, "enumerate_transitive_classes", slow)
    c = build_degree_census(degree, time_budget=1800.0)
    assert c.row.partial and c.row.cells()[1:] == (None,) * 7
    assert c.records == [] and c.classes == []
    assert searched == [g.name for g in catalog.groups_of_order(degree)][:2]
    assert c.stop == counts.BudgetStop("enumeration", stopped, f"{reason} (spent 2000.0, budget 1800.0)")


@pytest.mark.parametrize("degree", [*range(2, 16), 41, 77])
def test_field_counts_from_normalizer_orbits_match_stabilizer_orbits(census, degree):
    # one atom per N_A(G)-orbit, the rest its images, against one atom per
    # orbit of the point stabilizer on every record
    for rec in census(degree).records:
        assert intermediate_field_count(rec) == fields_by_stabilizer_orbits(rec), rec.type_name


def test_a_field_seed_that_does_not_normalize_the_group_is_refused(census):
    # swap one element of a record's N_A(G) for an automorphism of N that
    # does not normalize G: it would carry blocks of G to non-blocks
    for rec in census(8).records:
        ctx = rec.ctx
        T, auts = ctx.table(), np.flatnonzero(ctx.perms[:, 0] == 0)
        member = np.zeros(T.order, dtype=bool)
        member[rec.indices] = True
        outside = [a for a in auts.tolist() if not member[T.conj_many(a, rec.indices)].all()]
        if outside and len(rec.aut_normalizer) > 1:
            break
    else:
        pytest.fail("no record at degree 8 has an automorphism of N outside N_A(G)")
    bad = replace(rec, aut_normalizer=np.sort(np.append(rec.aut_normalizer[:-1], outside[0])))
    assert intermediate_field_count(rec) == fields_by_stabilizer_orbits(rec)
    with pytest.raises(ConsistencyError, match="N_A"):
        intermediate_field_count(bad)
