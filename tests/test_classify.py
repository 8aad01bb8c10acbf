"""Cross-type clustering of transitive records and the pairing witness."""

from __future__ import annotations

import numpy as np
import pytest

from conftest import compose, regular_representation
from hgcensus import classify
from hgcensus.catalog import groups_of_order, invariants
from hgcensus.classify import classify_degree, stab_respecting_iso
from hgcensus.enumeration import enumerate_transitive_classes
from hgcensus.errors import ConsistencyError
from hgcensus.holomorph import build_holomorph
from hgcensus.iso import IsoSearch
from hgcensus.perm import PermGroup, parse_cycles


def _degree_records(n: int):
    out = []
    for g in groups_of_order(n):
        out.extend(enumerate_transitive_classes(build_holomorph(g)))
    return out


def test_iso_found_between_relabelings_of_one_action():
    s3a = PermGroup([parse_cycles("(0 1 2)", 3), parse_cycles("(0 1)", 3)], 3)
    s3b = PermGroup([parse_cycles("(0 2 1)", 3), parse_cycles("(0 2)", 3)], 3)
    phi = stab_respecting_iso(s3a, s3b)
    assert phi is not None
    ea = [tuple(p) for p in s3a.elements.tolist()]
    eb = [tuple(p) for p in s3b.elements.tolist()]
    assert sorted(phi.tolist()) == list(range(len(eb)))
    for i, x in enumerate(ea):
        for j, y in enumerate(ea):
            assert eb[phi[ea.index(compose(x, y))]] == compose(eb[phi[i]], eb[phi[j]])
        assert (x[0] == 0) == (eb[phi[i]][0] == 0)


def test_iso_refused_between_different_abstract_types():
    c6 = regular_representation(groups_of_order(6)[0])
    s3 = regular_representation(groups_of_order(6)[1])
    assert {g.name for g in groups_of_order(6)} == {"C6", "S3"}
    assert stab_respecting_iso(c6, s3) is None


def test_mismatched_degrees_refused():
    s3_reg = regular_representation(groups_of_order(6)[1])
    s3_nat = PermGroup([parse_cycles("(0 1 2)", 3), parse_cycles("(0 1)", 3)], 3)
    assert stab_respecting_iso(s3_reg, s3_nat) is None


def test_same_invariants_can_still_separate(census, record_table):
    # degree 8 has class pairs agreeing on order, stabilizer order, and
    # every cheap invariant; only the stabilizer-respecting search splits them
    classes = census(8).classes
    by_key = {}
    for cls in classes:
        T, _ = record_table(cls.members[0][1])
        key = (cls.order, cls.stabilizer_order, invariants(T))
        by_key.setdefault(key, []).append(cls)
    twins = [v for v in by_key.values() if len(v) > 1]
    assert twins, "expected at least one invariant-equal pair at degree 8"
    for group in twins:
        a, b = group[0].members[0][1], group[1].members[0][1]
        assert stab_respecting_iso(a.rep, b.rep) is None


def test_classify_groups_mutually_isomorphic_records(census):
    classes = census(6).classes
    for cls in classes:
        members = cls.records()
        first = members[0]
        for other in members[1:]:
            assert stab_respecting_iso(first.rep, other.rep) is not None
    # distinct classes never admit the witness
    for i in range(len(classes)):
        for j in range(i + 1, len(classes)):
            a = classes[i].members[0][1]
            b = classes[j].members[0][1]
            assert stab_respecting_iso(a.rep, b.rep) is None


def test_labels_are_deterministic_and_well_formed():
    records = _degree_records(6)
    first = [c.label for c in classify_degree(records)]
    second = [c.label for c in classify_degree(records)]
    assert first == second
    assert len(set(first)) == len(first)
    for cls in classify_degree(records):
        assert cls.label == f"d6-o{cls.order}-s{cls.stabilizer_order}-c{cls.label.rsplit('c', 1)[1]}"
        assert cls.label.startswith("d6-")


def test_sequence_numbers_start_at_one_per_shape():
    classes = classify_degree(_degree_records(6))
    seen: dict[tuple[int, int], list[int]] = {}
    for cls in classes:
        shape = (cls.order, cls.stabilizer_order)
        seen.setdefault(shape, []).append(int(cls.label.rsplit("c", 1)[1]))
    for shape, seqs in seen.items():
        assert seqs == list(range(1, len(seqs) + 1)), shape


def test_class_count_via_member_sum(census):
    c = census(8)
    classes = c.classes
    assert sum(len(cls.members) for cls in classes) == len(c.records)
    # member entries carry the type name of their holomorph of origin
    type_names = {g.name for g in groups_of_order(8)}
    for cls in classes:
        for name, rec in cls.members:
            assert name in type_names
            assert rec.type_name == name


def test_mixed_degrees_are_rejected():
    mixed = _degree_records(4) + _degree_records(6)
    with pytest.raises(ConsistencyError):
        classify_degree(mixed)


def test_empty_input_is_fine():
    assert classify_degree([]) == []


@pytest.mark.parametrize("degree", [6, 8, 12])
def test_partition_matches_pairwise_searches_on_record_tables(census, record_table, degree):
    # no colour buckets: each record joins the first earlier leader of its
    # shape that a search between the two records' own tables accepts
    records = census(degree).records
    shape = [(rec.order, rec.stabilizer_order) for rec in records]
    tables = [record_table(rec) for rec in records]

    def same(j: int, i: int) -> bool:
        (t1, m1), (t2, m2) = tables[j], tables[i]
        return shape[j] == shape[i] and (
            IsoSearch(t1, t2, np.flatnonzero(m1), np.flatnonzero(m2)).run("first") is not None
        )

    members: dict[int, list[int]] = {}
    for i in range(len(records)):
        members.setdefault(next((j for j in members if same(j, i)), i), []).append(i)
    seq: dict[tuple[int, int], int] = {}
    want = []
    for leader in sorted(members, key=lambda j: (shape[j], j)):
        seq[shape[leader]] = seq.get(shape[leader], 0) + 1
        order, stab = shape[leader]
        want.append((f"d{degree}-o{order}-s{stab}-c{seq[shape[leader]]}", members[leader]))
    position = {id(rec): i for i, rec in enumerate(records)}
    got = [(cls.label, [position[id(rec)] for rec in cls.records()]) for cls in classify_degree(records)]
    assert got == want


@pytest.mark.parametrize("degree", [8, 12])
def test_leader_plans_search_like_the_leader_side(census, monkeypatch, degree):
    # classify plans each leader once and compares its bucket from the
    # plan; every comparison must find what a search from the side finds
    compared = []
    search = classify.IsoSearch

    def spy(plan, side2, marked2):
        compared.append((plan, side2, marked2))
        return search(plan, side2, marked2=marked2)

    monkeypatch.setattr(classify, "IsoSearch", spy)
    records = census(degree).records
    classes = classify_degree(records)
    assert [c.label for c in classes] == [c.label for c in census(degree).classes]
    plans = {id(plan): plan for plan, _, _ in compared}
    leaders = {(id(plan.T), plan.elems.tobytes()) for plan in plans.values()}
    assert len(plans) == len(leaders) < len(compared)
    for plan, side2, marked2 in compared:
        marked1 = np.flatnonzero(plan.key & 1)
        side1 = (plan.T, plan.elems, plan.colours)
        first = search(plan, side2, marked2=marked2).run("first")
        want = search(side1, side2, marked1, marked2).run("first")
        assert (first is None) == (want is None)
        if first is not None:
            assert np.array_equal(first, want)
        assert (search(plan, side2, marked2=marked2).run("count")
                == search(side1, side2, marked1, marked2).run("count"))
    # a class of two or more records keeps its leader's plan for the weight
    for cls in classes:
        assert (cls._plan is not None) == (len(cls.members) > 1), cls.label
