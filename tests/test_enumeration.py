"""Subgroup-class enumeration inside holomorphs, checked against full scans."""

from __future__ import annotations

import hashlib
import json
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from hgcensus import enumeration, table
from hgcensus.catalog import groups_of_order
from hgcensus.enumeration import (
    _candidate_labels,
    _coset_leaders,
    _cyclic_families,
    enumerate_transitive_classes,
    subgroup_classes,
)
from hgcensus.errors import SearchBudgetError
from hgcensus.expected import EXPECTED
from hgcensus.holomorph import build_holomorph
from hgcensus.perm import is_transitive, orbit_labels
from hgcensus.table import GroupTable


def _ctx_of(order: int, name: str):
    g = next(x for x in groups_of_order(order) if x.name == name)
    return build_holomorph(g)


def _classes_by_scan(T: GroupTable, minimal_conjugate) -> dict[tuple[int, ...], int]:
    """Canonical member -> class size, from the exhaustive subgroup scan."""
    out: dict[tuple[int, ...], int] = {}
    for elems in T.all_subgroups():
        key = minimal_conjugate(T, elems)
        out[key] = out.get(key, 0) + 1
    return out


@pytest.mark.parametrize("order,name", [(5, "C5"), (6, "S3"), (8, "D4")])
def test_classes_match_exhaustive_scan(order, name, minimal_conjugate):
    T = _ctx_of(order, name).table()
    expected = _classes_by_scan(T, minimal_conjugate)
    classes = subgroup_classes(T)
    got = {tuple(c.indices.tolist()): c.class_size for c in classes}
    assert got == expected
    assert sum(got.values()) == len(T.all_subgroups())


def test_class_sizes_obey_orbit_stabilizer():
    T = _ctx_of(6, "C6").table()
    for c in subgroup_classes(T):
        assert c.class_size * len(c.normalizer) == T.order


def test_canonical_member_is_stable_under_conjugation(minimal_conjugate):
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
            assert (r.stabilizer.elements[:, 0] == 0).all()
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
    T = _ctx_of(8, "C2xC2xC2").table()
    with pytest.raises(SearchBudgetError) as exc:
        subgroup_classes(T, node_budget=50)
    assert exc.value.spent == 51 and exc.value.budget == 50


def test_time_budget_stops_a_wave_before_its_next_chunk(monkeypatch):
    # the clock runs out once a batch of several chunks has closed its
    # first: the search stops there, not at the next candidate listing
    T = _ctx_of(8, "C2xC2xC2").table()
    monkeypatch.setattr(table, "_FILL_BYTES", 4 * T.order)  # four jobs a chunk
    calls = []  # [jobs, chunks closed] per batch
    close = GroupTable.close_extensions

    def record(T, subgroups, jobs):
        calls.append([len(jobs), 0])
        for chunk in close(T, subgroups, jobs):
            calls[-1][1] += 1
            yield chunk

    def clock():
        return 10.0 if any(n > 4 and k for n, k in calls) else 0.0

    monkeypatch.setattr(GroupTable, "close_extensions", record)
    monkeypatch.setattr(enumeration, "time", SimpleNamespace(monotonic=clock))
    with pytest.raises(SearchBudgetError) as exc:
        subgroup_classes(T, time_budget=1.0)
    assert exc.value.spent == 10.0 and exc.value.budget == 1.0
    assert calls[-1][0] > 4 and calls[-1][1] == 1


def test_search_on_hol_c77_stays_small():
    # a wave's closures come a chunk at a time, each held in a few blocks
    # of `_FILL_BYTES`, and are registered before the next chunk is closed
    T = _ctx_of(77, "C77").table()
    tracemalloc.start()
    try:
        classes = subgroup_classes(T)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(classes) == 80
    assert peak < 3 * 2**20, peak


def test_time_budget_is_enforced():
    T = _ctx_of(8, "C2xC2xC2").table()
    with pytest.raises(SearchBudgetError) as exc:
        subgroup_classes(T, time_budget=0.0)
    assert exc.value.budget == 0.0  # seconds, not the node budget
    assert isinstance(exc.value.spent, float)


def test_stab_positions_mark_the_point_stabilizer(record_table):
    recs = enumerate_transitive_classes(_ctx_of(6, "C6"))
    for r in recs:
        T, mask = record_table(r)
        assert T.order == r.order
        assert int(mask.sum()) == r.stabilizer.order
        assert mask[0]  # identity fixes 0
        assert np.array_equal(r.stab_positions, np.flatnonzero(mask))


@pytest.mark.parametrize("order,name", [(8, "Q8"), (8, "D4"), (12, "C12")])
def test_cyclic_families_match_closing_every_element(order, name):
    # the family of x is the least y with <y> = <x>
    T = _ctx_of(order, name).table()
    cyclic = [tuple(T.closure_of([x]).tolist()) for x in range(T.order)]
    least: dict[tuple[int, ...], int] = {}
    for y, c in enumerate(cyclic):
        least.setdefault(c, y)
    assert _cyclic_families(T).tolist() == [least[c] for c in cyclic]


@pytest.mark.parametrize("degree", [*range(2, 13), 41])
def test_normalizer_gens_extend_the_class_gens(degree):
    for g in groups_of_order(degree):
        T = build_holomorph(g).table()
        for c in subgroup_classes(T):
            assert c.normalizer_gens[: len(c.gens)] == c.gens, g.name
            assert np.array_equal(T.closure_of(c.normalizer_gens), c.normalizer), g.name
            if len(c.normalizer) == T.order:
                assert c.class_size == 1, g.name


# sha256 of every field of every class `subgroup_classes` returns on the
# holomorph tables of degrees 2-15 and Hol(C41), in catalog order: the
# `normalizer_gens` decide which candidate orbits a class extends, and so
# which member of each class is discovered first
_CLASS_FIELDS_DIGEST = "5a6c9429f6ab86ec05650effa33c3b08bccfa345d140ee96b7beb0eb5e8ad6d8"


def test_subgroup_class_fields_match_the_pinned_digest():
    h = hashlib.sha256()
    for g in [g for n in [*range(2, 16), 41] for g in groups_of_order(n)]:
        fields = [
            [c.indices.tolist(), c.gens, c.normalizer.tolist(), c.normalizer_gens, c.class_size]
            for c in subgroup_classes(build_holomorph(g).table())
        ]
        h.update(json.dumps([g.name, fields]).encode())
    assert h.hexdigest() == _CLASS_FIELDS_DIGEST


def _full_maps(T: GroupTable, c) -> np.ndarray:
    """H's left and right multiplications plus conjugation by every
    normalizer generator, `gens` included: the reference map set."""
    rng = np.arange(T.order)
    h = np.array(c.gens, dtype=np.int64)[:, None]
    ng = np.array(c.normalizer_gens, dtype=np.int64)[:, None]
    return np.concatenate([T.mul[h, rng], T.mul[rng, h], T.conj_many(ng, rng)])


@pytest.mark.parametrize(
    "order,name", [(8, "Q8"), (8, "D4"), (12, "C12"), (41, "C41"), (8, "C2xC2xC2"), (77, "C77")]
)
def test_candidate_maps_give_the_full_orbit_partition(order, name):
    T = _ctx_of(order, name).table()
    rng = np.arange(T.order)
    sensitive = 0  # classes whose partition needs the last extra's conjugation
    for c in subgroup_classes(T):
        lab = orbit_labels(_full_maps(T, c))
        assert np.array_equal(_candidate_labels(T, c.gens, c.normalizer_gens), lab)
        if len(c.normalizer_gens) > len(c.gens):
            sensitive += not np.array_equal(_candidate_labels(T, c.gens, c.normalizer_gens[:-1]), lab)
        # the swept coset leaders of N lead the orbits of right
        # multiplication by N's generators
        right = T.mul[rng, np.array(c.normalizer_gens, dtype=np.int64)[:, None]]
        leaders = np.flatnonzero(orbit_labels(right) == rng)
        assert np.array_equal(_coset_leaders(T, c.normalizer), leaders)
    assert sensitive > 0
