"""Subgroup-class enumeration inside holomorphs, checked against full scans."""

from __future__ import annotations

import numpy as np
import pytest

from hgcensus.catalog import groups_of_order
from hgcensus.enumeration import (
    enumerate_transitive_classes,
    minimal_conjugate,
    subgroup_classes,
)
from hgcensus.errors import SearchBudgetError
from hgcensus.expected import EXPECTED
from hgcensus.holomorph import build_holomorph
from hgcensus.perm import is_transitive
from hgcensus.table import GroupTable


def _ctx_of(order: int, name: str):
    g = next(x for x in groups_of_order(order) if x.name == name)
    return build_holomorph(g)


def _classes_by_scan(T: GroupTable) -> dict[tuple[int, ...], int]:
    """Canonical member -> class size, from the exhaustive subgroup scan."""
    out: dict[tuple[int, ...], int] = {}
    for elems in T.all_subgroups():
        key = minimal_conjugate(T, elems)
        out[key] = out.get(key, 0) + 1
    return out


@pytest.mark.parametrize("order,name", [(5, "C5"), (6, "S3"), (8, "D4")])
def test_classes_match_exhaustive_scan(order, name):
    T = _ctx_of(order, name).table()
    expected = _classes_by_scan(T)
    classes = subgroup_classes(T)
    got = {tuple(c.indices.tolist()): c.class_size for c in classes}
    assert got == expected
    assert sum(got.values()) == len(T.all_subgroups())


def test_class_sizes_obey_orbit_stabilizer():
    T = _ctx_of(6, "C6").table()
    for c in subgroup_classes(T):
        assert c.class_size * len(c.normalizer) == T.order


def test_canonical_member_is_stable_under_conjugation():
    T = _ctx_of(6, "S3").table()
    rng = np.random.default_rng(11)
    for c in subgroup_classes(T):
        for _ in range(3):
            a = int(rng.integers(T.order))
            moved = np.sort(T.conj_many(a, c.indices))
            assert minimal_conjugate(T, moved) == tuple(c.indices.tolist())


def test_generators_regenerate_the_canonical_member():
    T = _ctx_of(8, "C8").table()
    for c in subgroup_classes(T):
        assert np.array_equal(T.closure_of(c.gens), c.indices)
        assert len(c.normalizer) % c.order == 0  # H normalizes itself


def test_transitive_records_at_degree_4():
    total = 0
    for g in groups_of_order(4):
        recs = enumerate_transitive_classes(build_holomorph(g))
        for r in recs:
            assert is_transitive(r.rep)
            assert r.rep.order == r.order
            assert r.order % 4 == 0
            assert r.regular == (r.order == 4)
            assert r.stabilizer.order * 4 == r.order
        total += len(recs)
    assert total == EXPECTED[4].sbracoids_total


def test_record_count_matches_reference_at_degree_6(census):
    assert len(census(6).records) == EXPECTED[6].sbracoids_total


def test_records_are_sorted_and_deterministic():
    ctx = _ctx_of(8, "Q8")
    a = enumerate_transitive_classes(ctx)
    b = enumerate_transitive_classes(ctx)
    keys = [(r.order, tuple(r.indices.tolist())) for r in a]
    assert keys == sorted(keys)
    assert keys == [(r.order, tuple(r.indices.tolist())) for r in b]


def test_node_budget_is_enforced():
    T = _ctx_of(8, "C2xC2xC2").table(table_budget=2000)
    with pytest.raises(SearchBudgetError):
        subgroup_classes(T, node_budget=50)


def test_time_budget_is_enforced():
    T = _ctx_of(8, "C2xC2xC2").table(table_budget=2000)
    with pytest.raises(SearchBudgetError):
        subgroup_classes(T, time_budget=0.0)


def test_table_with_stab_marks_the_point_stabilizer():
    recs = enumerate_transitive_classes(_ctx_of(6, "C6"))
    for r in recs:
        T, mask = r.table_with_stab()
        assert T.order == r.order
        assert int(mask.sum()) == r.stabilizer.order
        assert mask[0]  # identity fixes 0
