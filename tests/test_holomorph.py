"""Normalizer-of-translations contexts: size, factorization, stabilizer."""

from __future__ import annotations

import numpy as np
import pytest

from hgcensus.actions import cocycle_decompose
from hgcensus.catalog import groups_of_order
from hgcensus.errors import BudgetError, ConsistencyError
from hgcensus.holomorph import build_holomorph
from hgcensus.perm import compose, is_transitive, row_index


def test_image_matrix_rows_are_the_sorted_holomorph_elements():
    # oracle: every translation-after-automorphism product, as tuples
    for n in range(2, 13):
        for g in groups_of_order(n):
            ctx = build_holomorph(g)
            auts = [tuple(alpha) for alpha in ctx.aut.elements.tolist()]
            want = sorted(
                {compose(tuple(g.mul[a].tolist()), alpha) for a in range(n) for alpha in auts}
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
        hol = ctx.hol.elements
        assert np.array_equal(hol[hol[:, 0] == 0], ctx.aut.elements)


def test_contains_both_translation_actions():
    for g in groups_of_order(8):
        ctx = build_holomorph(g)
        hol = ctx.hol.elements
        assert (row_index(ctx.left.elements, hol) >= 0).all()
        assert (row_index(ctx.right.elements, hol) >= 0).all()
        right = ctx.perms[ctx.right_indices]
        assert np.array_equal(right, ctx.right.elements)
        assert not (row_index(right, ctx.aut.elements) >= 0).all()


def test_every_element_factors_as_translation_times_automorphism():
    g = groups_of_order(12)[1]
    ctx = build_holomorph(g)
    pi, gamma = cocycle_decompose(ctx, ctx.hol)
    auts = {tuple(alpha) for alpha in ctx.aut.elements.tolist()}
    for x, a, alpha in zip(ctx.hol.elements.tolist(), pi.tolist(), map(tuple, gamma.tolist())):
        assert alpha in auts
        assert list(compose(tuple(g.mul[a].tolist()), alpha)) == x


def test_index_round_trip_and_translation_index_sets():
    g = groups_of_order(8)[0]
    ctx = build_holomorph(g)
    perms = ctx.hol.elements
    assert np.shares_memory(perms, ctx.perms) and np.array_equal(perms, ctx.perms)
    assert np.array_equal(row_index(perms, ctx.perms), np.arange(len(perms)))
    right = ctx.right_indices
    assert len(right) == g.order
    assert np.array_equal(perms[right], ctx.right.elements)
    stab = np.flatnonzero(ctx.perms[:, 0] == 0)
    assert np.array_equal(perms[stab], ctx.aut.elements)


def test_dense_table_budget_is_honest():
    big = next(x for x in groups_of_order(16) if x.name == "C2xC2xC2xC2")
    ctx = build_holomorph(big)
    assert ctx.hol.order == 322560
    with pytest.raises(BudgetError) as err:
        ctx.table()  # default budget is far below this order
    # refused on the holomorph's order, before Aut(C2^4)'s table is built
    assert err.value.spent == 322560
    assert ctx.aut._table is None


def test_table_matches_composition():
    # every product of every holomorph table at degrees 2-15:
    # row mul[i, j] of perms is perms[i] after perms[j]
    for n in range(2, 16):
        for g in groups_of_order(n):
            ctx = build_holomorph(g)
            perms, mul = ctx.perms, ctx.table().mul
            assert mul.shape == (len(perms), len(perms)), g.name
            for lo in range(0, len(perms), 128):
                assert np.array_equal(perms[mul[lo : lo + 128]], perms[lo : lo + 128][:, perms]), g.name


def test_product_law_spot_checks_reject_a_latin_non_group_table():
    g = groups_of_order(6)[1]  # S3
    ctx = build_holomorph(g)
    t = g.mul
    auts = ctx.aut.elements.astype(t.dtype)
    ctx._verify(t, auts)
    # swap the intercalate on rows x, x h and columns x, h x (h an
    # involution): still Latin with identity 0, no longer a group
    h = int(np.flatnonzero(g.elem_order == 2)[0])
    x = 1 if h != 1 else 2
    b, d = int(t[x, h]), int(t[h, x])
    bad = t.copy()
    bad[[x, x, b, b], [x, d, x, d]] = t[[x, x, b, b], [d, x, d, x]]
    with pytest.raises(ConsistencyError, match="product law"):
        ctx._verify(bad, auts)
