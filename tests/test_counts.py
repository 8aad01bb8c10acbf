"""Census counting layer: weights, integrality, flags, row assembly."""

from __future__ import annotations

import pytest

from hgcensus import build_degree_census, counts
from hgcensus.counts import (
    DegreeReportRow,
    bijective_correspondence,
    hgs_count_for_class,
    hopf_subalgebra_count,
    intermediate_field_count,
    is_almost_classical,
)
from hgcensus.enumeration import minimal_conjugate
from hgcensus.errors import ConsistencyError
from hgcensus.expected import EXPECTED
from hgcensus.perm import conjugate
from hgcensus.table import GroupTable


def test_aut_stab_order_matches_plain_aut_count_when_unconstrained(census):
    # a trivial stabilizer marks nothing, so |Aut(G, 1)| = |Aut(G)|; the
    # left translations of N form a regular record with G = N
    seen = 0
    for cls in census(6).classes:
        for _, rec in cls.members:
            if rec.regular and rec.rep.elements == rec.ctx.left.elements:
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


def _subgroup_class_count(perms) -> int:
    """Subgroup conjugacy classes of a permutation group, by full scan."""
    T = GroupTable.from_perms(perms)
    return len({minimal_conjugate(T, s) for s in T.all_subgroups()})


@pytest.mark.parametrize("degree", [4, 6, 9])
def test_almost_classical_record_count_equals_aut_subgroup_classes(census, degree):
    # per type, records containing all right translations biject with
    # subgroup conjugacy classes of the base group's automorphism group
    c = census(degree)
    per_type = {}
    for rec, flag in zip(c.records, c.ac_flags):
        if flag:
            per_type[rec.type_name] = per_type.get(rec.type_name, 0) + 1
    for ctx in c.contexts:
        want = _subgroup_class_count(ctx.aut.sorted_elements)
        assert per_type.get(ctx.group.name, 0) == want, ctx.group.name
    assert sum(per_type.values()) == c.row.ac_sbracoids


def test_translation_records_and_the_containment_test(census):
    c = census(6)
    for rec in c.records:
        if rec.rep.elements == rec.ctx.right.elements:
            assert is_almost_classical(rec)  # contains itself
        if (rec.type_name == "S3" and rec.regular
                and rec.rep.elements == rec.ctx.left.elements):
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
            n_subs = len(GroupTable.from_perms(rec.rep.sorted_elements).all_subgroups())
            assert intermediate_field_count(rec) == n_subs
            if rec.rep.elements == rec.ctx.left.elements:
                assert n_subs == subgroup_counts[rec.type_name]


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
    for sub in ctx.group.as_table().all_subgroups():
        lam = {ctx.embed_element(int(h)) for h in sub.tolist()}
        if all(conjugate(r, h) in lam for r in rec.rep.generators for h in lam):
            count += 1
    return count


@pytest.mark.parametrize("degree", range(2, 11))
def test_index_flags_match_tuple_oracles(census, degree):
    c = census(degree)
    for rec, ac, (_, hopfs) in zip(c.records, c.ac_flags, c.bc_counts):
        assert ac == (rec.ctx.right.elements <= rec.rep.elements)
        assert hopfs == _hopf_count_by_tuples(rec)


def test_census_never_builds_tuple_views():
    c = build_degree_census(8)
    assert c.records
    for ctx in c.contexts:
        assert "hol" not in vars(ctx), ctx.group.name
    for rec in c.records:
        assert "rep" not in vars(rec) and "stabilizer" not in vars(rec)


def test_weights_align_with_records(census):
    c = census(8)
    assert len(c.weights) == len(c.records)
    assert len(c.ac_flags) == len(c.records)
    assert len(c.bc_flags) == len(c.records)
    assert all(w > 0 for w in c.weights)
    # weights times conjugacy-class sizes reproduce the headline count
    total = sum(w * rec.class_size for w, rec in zip(c.weights, c.records))
    assert total == c.row.hgs_total


def test_oversized_holomorph_stops_degree_16_before_any_holomorph(monkeypatch):
    # |Hol(C2^4)| = 16 * 20160 exceeds the dense-table budget; the
    # automorphism count alone must stop the degree
    def refuse(group):
        raise AssertionError(f"built the holomorph of {group.name}")

    monkeypatch.setattr(counts, "build_holomorph", refuse)
    c = build_degree_census(16)
    assert c.row.types == 14
    assert c.row.partial
    assert c.row.cells()[1:] == (None,) * 7
    assert c.contexts == [] and c.records == []
