"""Normalizer-of-translations contexts: size, factorization, stabilizer."""

from __future__ import annotations

import numpy as np
import pytest

from hgcensus.catalog import groups_of_order
from hgcensus.errors import BudgetError
from hgcensus.holomorph import build_holomorph
from hgcensus.perm import compose, is_transitive, point_stabilizer


def test_image_matrix_rows_are_the_sorted_holomorph_elements():
    # oracle: every translation-after-automorphism product, as tuples
    for n in range(2, 13):
        for g in groups_of_order(n):
            ctx = build_holomorph(g)
            want = sorted(
                {compose(ctx.embed_element(a), alpha) for a in range(n) for alpha in ctx.aut.elements}
            )
            assert [tuple(row) for row in ctx.perms.tolist()] == want, g.name


def test_order_is_group_times_automorphisms():
    for n in (4, 6, 8, 9, 10, 12):
        for g in groups_of_order(n):
            ctx = build_holomorph(g)
            assert ctx.hol.order == g.order * ctx.aut.order, g.name


def test_elementary_abelian_rank3_has_order_1344():
    g = next(x for x in groups_of_order(8) if x.name == "C2xC2xC2")
    ctx = build_holomorph(g)
    assert ctx.aut.order == 168
    assert ctx.hol.order == 1344


def test_holomorph_is_transitive_with_stabilizer_the_automorphisms():
    for g in groups_of_order(6):
        ctx = build_holomorph(g)
        assert is_transitive(ctx.hol)
        stab = point_stabilizer(ctx.hol, 0)
        assert stab.elements == ctx.aut.elements


def test_contains_both_translation_actions():
    for g in groups_of_order(8):
        ctx = build_holomorph(g)
        hol = ctx.hol.elements
        assert ctx.left.elements <= hol
        assert ctx.right.elements <= hol
        right = {tuple(ctx.perms[i].tolist()) for i in ctx.right_indices}
        assert right == ctx.right.elements
        assert not right <= ctx.aut.elements


def test_every_element_factors_as_translation_times_automorphism():
    g = groups_of_order(12)[1]
    ctx = build_holomorph(g)
    for x in ctx.hol.sorted_elements:
        alpha = ctx.project_to_stabilizer(x)
        assert alpha in ctx.aut.elements
        assert compose(ctx.embed_element(x[0]), alpha) == x


def test_index_round_trip_and_translation_index_sets():
    g = groups_of_order(8)[0]
    ctx = build_holomorph(g)
    perms = ctx.hol.sorted_elements
    assert [tuple(row) for row in ctx.perms.tolist()] == perms
    right = ctx.right_indices
    assert len(right) == g.order
    assert {perms[i] for i in right.tolist()} == ctx.right.elements
    stab = np.flatnonzero(ctx.perms[:, 0] == 0)
    assert {perms[i] for i in stab.tolist()} == ctx.aut.elements


def test_dense_table_budget_is_honest():
    big = next(x for x in groups_of_order(16) if x.name == "C2xC2xC2xC2")
    ctx = build_holomorph(big)
    assert ctx.hol.order == 322560
    with pytest.raises(BudgetError):
        ctx.table()  # default budget is far below this order


def test_table_matches_composition():
    g = groups_of_order(6)[1]
    ctx = build_holomorph(g)
    T = ctx.table()
    perms = ctx.hol.sorted_elements
    assert T.order == len(perms)
    for i in (0, 1, 2, 7, 11):
        for j in (0, 3, 5, 10):
            assert perms[T.mul[i, j]] == compose(perms[i], perms[j])
