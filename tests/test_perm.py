"""Permutation primitives: composition order, cycle I/O, closure, orbits."""

from __future__ import annotations

from collections import deque

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hgcensus.errors import ClosureBudgetError, StructureError
from hgcensus.perm import (
    PermGroup,
    closure,
    compose,
    conjugate,
    format_cycles,
    identity,
    inverse,
    is_transitive,
    orbit,
    orbit_labels,
    parse_cycles,
    perm_order,
    point_stabilizer,
)


def test_identity_fixes_everything():
    e = identity(5)
    assert e == (0, 1, 2, 3, 4)
    assert perm_order(e) == 1


def test_compose_applies_right_factor_first():
    # p sends 0->1, q sends 1->2; (q after p) must send 0->2
    p = parse_cycles("(0 1)", 3)
    q = parse_cycles("(1 2)", 3)
    qp = compose(q, p)
    assert qp[0] == 2
    pq = compose(p, q)
    assert pq[0] == 1
    assert pq != qp


def test_inverse_undoes():
    p = parse_cycles("(0 1 2 3)(4 5)", 6)
    assert compose(p, inverse(p)) == identity(6)
    assert compose(inverse(p), p) == identity(6)


def test_conjugate_relabels_cycle_structure():
    a = parse_cycles("(0 1 2)", 4)
    p = parse_cycles("(0 1)", 4)
    c = conjugate(a, p)
    # a p a^-1 swaps the images of 0 and 1 under a, namely 1 and 2
    assert c == parse_cycles("(1 2)", 4)
    assert perm_order(c) == perm_order(p)


def test_perm_order_is_lcm_of_cycle_lengths():
    assert perm_order(parse_cycles("(0 1 2)(3 4)", 5)) == 6
    assert perm_order(parse_cycles("(0 1 2 3 4 5)", 6)) == 6
    assert perm_order(identity(1)) == 1


def test_parse_format_roundtrip():
    for text, degree in [
        ("(0 1 2)(3 4)", 5),
        ("(0 5)(1 4)(2 3)", 6),
        ("()", 4),
    ]:
        p = parse_cycles(text, degree)
        assert parse_cycles(format_cycles(p), degree) == p
    assert format_cycles(identity(3)) == "()"


def test_parse_cycles_rejects_bad_input():
    with pytest.raises(StructureError):
        parse_cycles("(0 1)(1 2)", 3)  # repeated point
    with pytest.raises(StructureError):
        parse_cycles("(0 9)", 3)  # point out of range


def test_closure_symmetric_group():
    gens = [parse_cycles("(0 1)", 4), parse_cycles("(0 1 2 3)", 4)]
    elems = closure(gens, 4)
    assert len(elems) == 24
    assert elems == sorted(elems)


def test_closure_respects_budget():
    gens = [parse_cycles("(0 1)", 6), parse_cycles("(0 1 2 3 4 5)", 6)]
    with pytest.raises(ClosureBudgetError):
        closure(gens, 6, budget=100)


def test_permgroup_basic_properties():
    g = PermGroup([parse_cycles("(0 1 2 3)", 4)], 4)
    assert g.order == 4
    assert is_transitive(g)
    h = PermGroup([parse_cycles("(0 1)", 4), parse_cycles("(2 3)", 4)], 4)
    assert h.order == 4
    assert not is_transitive(h)


def test_orbit_and_stabilizer_sizes_multiply():
    # S3 acting on 3 points: orbit 3, stabilizer 2
    g = PermGroup([parse_cycles("(0 1)", 3), parse_cycles("(0 1 2)", 3)], 3)
    assert g.order == 6
    assert orbit(g, 0) == frozenset({0, 1, 2})
    stab = point_stabilizer(g, 0)
    assert stab.order == 2
    assert len(orbit(g, 0)) * stab.order == g.order


def test_point_stabilizer_fixes_its_point():
    g = PermGroup([parse_cycles("(0 1 2 3 4)", 5), parse_cycles("(1 2 4 3)", 5)], 5)
    stab = point_stabilizer(g, 0)
    assert all(p[0] == 0 for p in stab.elements)
    assert g.order == len(orbit(g, 0)) * stab.order


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
