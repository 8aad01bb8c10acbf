"""Families of order twice-a-product-of-two-odd-primes and their witnesses."""

from __future__ import annotations

import numpy as np
import pytest

from hgcensus import degree2pq
from hgcensus.catalog import automorphism_group, groups_of_order
from hgcensus.classify import stab_respecting_iso
from hgcensus.degree2pq import build_family, witness_M_series, witness_four_types
from hgcensus.errors import ConsistencyError, StructureError
from hgcensus.holomorph import build_holomorph
from hgcensus.iso import IsoSearch
from hgcensus.perm import is_transitive, row_index


def test_family_rejects_bad_parameters():
    for p, q in [(4, 3), (7, 7), (3, 5), (5, 2), (9, 5)]:
        with pytest.raises(StructureError):
            build_family(p, q)


def test_family_sizes_depend_on_divisibility():
    assert len(build_family(5, 3).members) == 4  # 3 does not divide 4
    assert len(build_family(7, 3).members) == 6  # 3 divides 6
    assert build_family(5, 3).k is None
    assert build_family(7, 3).k is not None


def test_automorphism_order_formulas_at_5_3():
    fam = build_family(5, 3)
    p, q = 5, 3
    want = [
        (p - 1) * (q - 1),
        q * (p - 1) * (q - 1),
        p * (p - 1) * (q - 1),
        p * q * (p - 1) * (q - 1),
    ]
    assert [gd.aut.order for gd in fam.members] == want


def test_family_members_match_the_order30_catalog():
    fam = build_family(5, 3)
    catalog = groups_of_order(30)
    for gd in fam.members:
        hits = sum(1 for t in catalog if IsoSearch(gd.group, t).run("count") > 0)
        assert hits == 1, gd.group.name
    # and the four members are pairwise distinct types
    for i in range(4):
        for j in range(i + 1, 4):
            a = fam.members[i].group
            b = fam.members[j].group
            assert IsoSearch(a, b).run("count") == 0


def test_four_type_witnesses_at_5_3():
    fam = build_family(5, 3)
    reports = witness_four_types(fam)
    assert set(reports) == {"M2", "M3", "M4", "J2", "J3"}
    full = 2 * 5 * 3 * 4 * 2
    assert reports["M2"].normalizer_order == full
    assert reports["M3"].normalizer_order == full
    assert reports["M4"].normalizer_order == full
    assert reports["J2"].normalizer_order == 3 * full
    assert reports["J3"].normalizer_order == 5 * full
    cyclic_name = fam.members[0].group.name
    for name in ("M2", "M3", "M4"):
        assert reports[name].abstract == cyclic_name
    assert reports["J2"].abstract == fam.members[1].group.name
    assert reports["J3"].abstract == fam.members[2].group.name
    for rep in reports.values():
        assert rep.subgroup.order == 30
        assert is_transitive(rep.subgroup)
        assert (rep.subgroup.elements[:, 0] == 0).sum() == 1


def test_witness_normalizer_orders_match_the_holomorph_table():
    # every Hol(N) at (5, 3) fits the table budget, so the base-column
    # count over unsorted rows can be checked against the dense table's
    # normalizer, on a holomorph built here as the oracle
    fam = build_family(5, 3)
    gd_of = {gd.group.name: gd for gd in fam.members}
    ctx_of = {gd.group.name: build_holomorph(gd.group) for gd in fam.members}
    for rep in [*witness_four_types(fam).values(), *witness_M_series(fam)]:
        ctx = ctx_of[rep.host]
        idx = np.sort(row_index(rep.subgroup.elements, ctx.perms))
        assert (idx >= 0).all(), rep.name
        gens = row_index(rep.subgroup.generators, ctx.perms).tolist()
        want = len(ctx.table().normalizer_of(idx, gens))
        assert degree2pq._hol_normalizer_order(gd_of[rep.host], rep.subgroup) == want, rep.name
        assert rep.normalizer_order in (None, want), rep.name


def test_matched_series_at_5_3():
    fam = build_family(5, 3)
    series = witness_M_series(fam)
    assert [r.name for r in series] == ["M1", "M2", "M3", "M4"]
    target = 2 * 5 * 3 * 4
    for rep in series:
        assert rep.subgroup.order == target
        assert is_transitive(rep.subgroup)
        assert (rep.subgroup.elements[:, 0] == 0).sum() == target // 30
        assert rep.abstract == series[0].abstract
    assert [r.host for r in series] == [gd.group.name for gd in fam.members]


def test_series_model_is_shared_across_witnesses():
    fam = build_family(5, 3)
    series = witness_M_series(fam)
    t0 = series[0].subgroup.table()
    t3 = series[3].subgroup.table()
    assert IsoSearch(t0, t3).run("count") > 0


def test_six_member_family_at_7_3():
    fam = build_family(7, 3)
    p, q = 7, 3
    want = [
        (p - 1) * (q - 1),
        q * (p - 1) * (q - 1),
        p * (p - 1) * (q - 1),
        p * q * (p - 1) * (q - 1),
        p * (p - 1),
        p * (p - 1),
    ]
    assert [gd.aut.order for gd in fam.members] == want
    # extra members have the twist-by-k presentation and order 42
    for gd in fam.members[4:]:
        assert gd.group.order == 42
        assert automorphism_group(gd.group).order == p * (p - 1)


def test_degree30_census_types_match_family(census):
    c = census(30)
    assert c.row.types == 4
    fam = build_family(5, 3)
    catalog_tables = [ctx.group for ctx in c.contexts]
    for gd in fam.members:
        assert any(
            IsoSearch(gd.group, t).run("count") > 0 for t in catalog_tables
        )


def test_named_maps_are_generator_images():
    fam = build_family(5, 3)
    gd = fam.members[1]  # C5xD3
    r, s = gd.gen_index["r"], gd.gen_index["s"]
    assert np.array_equal(gd.auto(s=int(gd.group.mul[r, s])), gd.autos["shift_refl"])


def test_generator_images_without_an_automorphism_are_refused():
    fam = build_family(5, 3)
    gd = fam.members[1]  # C5xD3: an involution cannot go to a rotation
    with pytest.raises(StructureError):
        gd.auto(s=gd.gen_index["r"])
    with pytest.raises(StructureError):
        gd.auto(x=0)
    cyc = fam.members[0]
    with pytest.raises(StructureError):
        cyc.auto(x=cyc.power("x", 5))  # x^5 has order 6, not 30


def test_chain_check_refuses_a_map_with_two_images_swapped(monkeypatch):
    fam = build_family(5, 3)

    def swapped(g1, g2):
        phi = stab_respecting_iso(g1, g2).copy()
        moved = np.flatnonzero(g1.elements[:, 0] != 0)[-2:]
        phi[moved] = phi[moved[::-1]]
        return phi

    monkeypatch.setattr(degree2pq, "stab_respecting_iso", swapped)
    with pytest.raises(ConsistencyError, match="composition is not a matched isomorphism"):
        witness_M_series(fam)
