"""Permutation primitives: composition order, cycle I/O, closure, orbits, row lookup."""

from __future__ import annotations

from collections import deque

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import compose
from hgcensus.errors import ClosureBudgetError, StructureError
from hgcensus.perm import (
    PermGroup,
    closure,
    format_cycles,
    is_transitive,
    orbit_labels,
    parse_cycles,
    row_index,
)


def test_identity_fixes_everything():
    e = parse_cycles("()", 5)
    assert e == (0, 1, 2, 3, 4)
    g = PermGroup([e], 5)
    assert g.order == 1
    assert g.elements.tolist() == [list(range(5))]


def test_compose_applies_right_factor_first():
    # p sends 0->1, q sends 1->2; (q after p) must send 0->2
    p = parse_cycles("(0 1)", 3)
    q = parse_cycles("(1 2)", 3)
    qp = compose(q, p)
    assert qp[0] == 2
    pq = compose(p, q)
    assert pq[0] == 1
    assert pq != qp
    # on image rows the same composite is indexing: (q . p)[x] = q[p[x]]
    assert np.array(q)[np.array(p)].tolist() == list(qp)


def test_inverse_undoes():
    # argsort inverts an image row; the group holds the inverse of each element
    g = PermGroup([parse_cycles("(0 1 2 3)(4 5)", 6)], 6)
    inverses = np.argsort(g.elements, axis=1)
    assert (g.elements[np.arange(g.order)[:, None], inverses] == np.arange(6)).all()
    assert (row_index(inverses, g.elements) >= 0).all()


def test_conjugate_relabels_cycle_structure():
    # a p a^-1 on rows: the image of a[x] is a[p[x]]
    a = np.array(parse_cycles("(0 1 2)", 4))
    p = np.array(parse_cycles("(0 1)", 4))
    c = np.empty_like(p)
    c[a] = a[p]
    # it swaps the images of 0 and 1 under a, namely 1 and 2
    assert tuple(c.tolist()) == parse_cycles("(1 2)", 4)
    assert PermGroup([c], 4).order == PermGroup([p], 4).order


def test_perm_order_is_lcm_of_cycle_lengths():
    # the cyclic group a permutation generates has its order as size
    assert PermGroup([parse_cycles("(0 1 2)(3 4)", 5)], 5).order == 6
    assert PermGroup([parse_cycles("(0 1 2 3 4 5)", 6)], 6).order == 6
    assert PermGroup([parse_cycles("(0 1 2 3)(4 5)", 6)], 6).order == 4
    assert PermGroup([parse_cycles("()", 1)], 1).order == 1


def test_parse_format_roundtrip():
    for text, degree in [
        ("(0 1 2)(3 4)", 5),
        ("(0 5)(1 4)(2 3)", 6),
        ("()", 4),
    ]:
        p = parse_cycles(text, degree)
        assert parse_cycles(format_cycles(p), degree) == p
    assert format_cycles((0, 1, 2)) == "()"


def test_parse_cycles_rejects_bad_input():
    with pytest.raises(StructureError):
        parse_cycles("(0 1)(1 2)", 3)  # repeated point
    with pytest.raises(StructureError):
        parse_cycles("(0 9)", 3)  # point out of range
    for text in ("(0 1) (2 3)", "(a b)", "(0 1)(2 x)"):  # a token that is not an integer
        with pytest.raises(StructureError, match="bad cycle notation"):
            parse_cycles(text, 4)


def test_closure_symmetric_group():
    gens = [parse_cycles("(0 1)", 4), parse_cycles("(0 1 2 3)", 4)]
    elems = closure(gens, 4)
    assert elems.shape == (24, 4)
    assert np.array_equal(np.lexsort(elems.T[::-1]), np.arange(24))
    assert len(np.unique(elems, axis=0)) == 24
    assert elems[0].tolist() == [0, 1, 2, 3]


def test_closure_below_two_points_and_without_generators():
    # one point: every generator is the identity, and the group is trivial
    assert closure([(0,), (0,)], 1).tolist() == [[0]]
    assert closure([], 1).tolist() == [[0]]
    assert closure([], 4).tolist() == [[0, 1, 2, 3]]
    assert closure([], 0).shape == (1, 0)
    with pytest.raises(StructureError):
        closure([(1,)], 1)


def test_closure_respects_budget():
    gens = [parse_cycles("(0 1)", 6), parse_cycles("(0 1 2 3 4 5)", 6)]
    with pytest.raises(ClosureBudgetError):
        closure(gens, 6, budget=100)


def test_permgroup_basic_properties():
    g = PermGroup([parse_cycles("(0 1 2 3)", 4)], 4)
    assert g.order == 4
    assert g.generators.shape == (1, 4)
    assert is_transitive(g)
    h = PermGroup([parse_cycles("(0 1)", 4), parse_cycles("(2 3)", 4)], 4)
    assert h.order == 4
    assert not is_transitive(h)
    # given elements are kept as they are
    rows = g.elements
    assert PermGroup(g.generators, 4, elements=rows).elements is rows
    assert g.table() is g.table() and g.table().order == 4


def test_orbit_and_stabilizer_sizes_multiply():
    # S3 acting on 3 points: orbit 3, stabilizer 2
    g = PermGroup([parse_cycles("(0 1)", 3), parse_cycles("(0 1 2)", 3)], 3)
    assert g.order == 6
    assert is_transitive(g)
    stab = g.elements[g.elements[:, 0] == 0]
    assert len(stab) == 2
    assert len(np.unique(g.elements[:, 0])) * len(stab) == g.order


def test_point_stabilizer_fixes_its_point():
    g = PermGroup([parse_cycles("(0 1 2 3 4)", 5), parse_cycles("(1 2 4 3)", 5)], 5)
    stab = g.elements[g.elements[:, 0] == 0]
    assert PermGroup(stab, 5).order == len(stab)  # a subgroup
    assert g.order == len(np.unique(g.elements[:, 0])) * len(stab)


@given(st.integers(1, 6).flatmap(
    lambda m: st.lists(st.permutations(range(m)), min_size=1, max_size=12).map(
        lambda rows: np.array(rows, dtype=np.int64).reshape(-1, m))))
def test_row_index_finds_each_row_or_minus_one(rows):
    members = np.unique(rows[: len(rows) // 2 + 1], axis=0)
    want = [next((i for i, m in enumerate(members.tolist()) if m == r), -1) for r in rows.tolist()]
    assert row_index(rows, members).tolist() == want
    assert row_index(rows.astype(np.int16), members).tolist() == want


def _labels_by_search(maps: np.ndarray) -> list[int]:
    """Least orbit point per point, by breadth-first search from each point."""
    m = maps.shape[1]
    out = []
    for x in range(m):
        seen, frontier = {x}, deque([x])
        while frontier:
            y = frontier.popleft()
            for row in maps:
                if int(row[y]) not in seen:
                    seen.add(int(row[y]))
                    frontier.append(int(row[y]))
        out.append(min(seen))
    return out


@given(st.integers(1, 60).flatmap(
    lambda m: st.lists(st.permutations(range(m)), min_size=0, max_size=4).map(
        lambda rows: np.array(rows, dtype=np.int64).reshape(-1, m))))
def test_orbit_labels_match_breadth_first_search(maps):
    lab = orbit_labels(maps)
    assert lab.dtype == np.int64
    assert lab.tolist() == _labels_by_search(maps)


def test_orbit_labels_fixed_cases():
    assert orbit_labels(np.zeros((0, 7), dtype=np.int64)).tolist() == list(range(7))
    assert orbit_labels(np.tile(np.arange(5), (3, 1))).tolist() == list(range(5))
    # one 6000-cycle through a random relabelling of the points
    order = np.random.default_rng(3).permutation(6000)
    cycle = np.empty(6000, dtype=np.int64)
    cycle[order] = np.roll(order, -1)
    assert not orbit_labels(cycle[None, :]).any()
