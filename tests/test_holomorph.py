"""Normalizer-of-translations contexts: size, factorization, stabilizer."""

from __future__ import annotations

import tracemalloc
from itertools import permutations

import numpy as np
import pytest

from conftest import cocycle_decompose, compose, regular_representation
from hgcensus import holomorph
from hgcensus.catalog import groups_of_order
from hgcensus.enumeration import enumerate_transitive_classes
from hgcensus.errors import BudgetError, ConsistencyError, StructureError
from hgcensus.holomorph import build_holomorph, in_holomorph
from hgcensus.perm import is_transitive, row_index
from hgcensus.table import FactoredMul, GroupTable


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


def test_the_holomorph_law_matches_membership_in_the_built_holomorph():
    # every permutation of degrees 2-6 against the sorted element rows
    for n in range(2, 7):
        every = np.array(list(permutations(range(n))))
        for g in groups_of_order(n):
            want = row_index(every, build_holomorph(g).perms) >= 0
            assert np.array_equal(in_holomorph(g, every), want), g.name
    # rows that are no bijection, or leave the points, are refused
    g = groups_of_order(4)[0]
    assert not in_holomorph(g, [[0, 0, 0, 0], [0, 1, 2, 4], [1, 0, 3, 3]]).any()


@pytest.mark.parametrize("degree", [8, 12, 15, 41, 77])
def test_the_holomorph_law_accepts_every_holomorph_element(degree):
    for g in groups_of_order(degree):
        assert in_holomorph(g, build_holomorph(g).perms).all(), g.name


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


@pytest.mark.parametrize("degree", range(2, 13))
def test_cycle_type_ids_match_cycle_types(degree):
    # across every holomorph of the degree, two rows share an id exactly
    # when their sorted cycle lengths, found by walking the cycles, agree
    pairs = set()
    for g in groups_of_order(degree):
        ctx = build_holomorph(g)
        for row, cid in zip(ctx.perms.tolist(), ctx.cycle_types.tolist()):
            lengths, seen = [], set()
            for start in range(degree):
                x, k = start, 0
                while x not in seen:
                    seen.add(x)
                    x, k = row[x], k + 1
                if k:
                    lengths.append(k)
            pairs.add((tuple(sorted(lengths)), cid))
    assert len({t for t, _ in pairs}) == len({c for _, c in pairs}) == len(pairs)


def test_contains_both_translation_actions():
    for g in groups_of_order(8):
        ctx = build_holomorph(g)
        hol = ctx.hol.elements
        assert (row_index(regular_representation(g).elements, hol) >= 0).all()
        assert (row_index(regular_representation(g, "right").elements, hol) >= 0).all()
        right = ctx.perms[ctx.right_indices]
        assert np.array_equal(right, regular_representation(g, "right").elements)
        assert not (row_index(right, ctx.aut.elements) >= 0).all()


@pytest.mark.parametrize("degree", range(2, 16))
def test_left_translation_rows_are_the_base_table(census, degree):
    # raw row a * |A| + 0 is the translation by a after the identity
    for ctx in census(degree).contexts:
        assert np.array_equal(ctx.perms[ctx.left_indices], ctx.group.mul), ctx.group.name
        assert np.array_equal(ctx.left_indices, np.sort(ctx.left_indices))


def test_every_element_factors_as_translation_times_automorphism():
    g = groups_of_order(12)[1]
    ctx = build_holomorph(g)
    pi, gamma = cocycle_decompose(g, ctx.hol)
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
    assert np.array_equal(perms[right], regular_representation(g, "right").elements)
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


def _law_rows(ctx, xs: np.ndarray) -> np.ndarray:
    """Rows xs of the holomorph table straight from the product law
    (a . alpha)(b . beta) = (a alpha(b)) . (alpha beta), as rows of perms."""
    n_aut = ctx.aut.order
    a, k = np.divmod(ctx._raw.astype(np.int64), n_aut)
    auts, aut_mul = ctx.aut.elements, ctx.aut.table().mul
    point = ctx.group.mul[a[xs, None], auts[k[xs, None], a]]
    return ctx._rank[point * n_aut + aut_mul[k[xs, None], k]]


def _factored(ctx, monkeypatch):
    """The table of `ctx` in its factored form, whatever its size."""
    with monkeypatch.context() as patch:
        patch.setattr(holomorph, "_DENSE_MAX", 0)
        T = ctx.table()
    assert isinstance(T.mul, FactoredMul)
    return T


def test_factored_table_equals_the_dense_table(monkeypatch):
    # every holomorph at degrees 2-15 and 41, cell for cell, in row blocks
    for n in [*range(2, 16), 41]:
        for g in groups_of_order(n):
            dense = build_holomorph(g).table()
            assert isinstance(dense.mul, np.ndarray), g.name
            T = _factored(build_holomorph(g), monkeypatch)
            m = T.order
            xs = np.arange(m)
            for lo in range(0, m, 256):
                block = xs[lo : lo + 256, None]
                assert np.array_equal(T.mul[block, xs], dense.mul[lo : lo + 256]), g.name
            assert np.array_equal(T.inv, dense.inv) and np.array_equal(T.elem_order, dense.elem_order), g.name


@pytest.mark.parametrize(("degree", "name"), [(30, "D15"), (77, "C77")])
def test_large_holomorph_tables_keep_only_their_rows(degree, name):
    g = next(x for x in groups_of_order(degree) if x.name == name)
    ctx = build_holomorph(g)
    T = ctx.table()
    m = T.order
    assert m > holomorph._DENSE_MAX and isinstance(T.mul, FactoredMul)
    assert T.mul.rows.shape == (g.order + ctx.aut.order, m)
    xs = np.arange(m)
    for lo in range(0, m, 64):
        block = xs[lo : lo + 64]
        assert np.array_equal(T.mul[block[:, None], xs], _law_rows(ctx, block)), lo
    assert (T.mul[xs, T.inv] == 0).all() and (T.mul[T.inv, xs] == 0).all()


def test_corrupted_kept_rows_are_rejected(monkeypatch):
    g = groups_of_order(6)[1]  # S3
    ctx = build_holomorph(g)
    T = _factored(ctx, monkeypatch)
    a, k = np.divmod(ctx._raw, ctx.aut.order)
    rows = T.mul.rows
    GroupTable(FactoredMul(rows, a, g.order + k), inv=T.inv)
    repeat = rows.copy()
    repeat[4, 7] = repeat[4, 8]  # kept row 4 is no longer a permutation
    # translation row 2 still a permutation, but lambda_2 lambda_2^-1 is no longer 0
    swapped = rows.copy()
    zero = int(np.flatnonzero(rows[2] == 0)[0])
    swapped[2, [zero, zero + 1]] = rows[2, [zero + 1, zero]]
    for bad in (repeat, swapped):
        with pytest.raises(StructureError, match="unique inverse"):
            GroupTable(FactoredMul(bad, a, g.order + k), inv=T.inv)


def test_large_holomorph_enumeration_never_holds_a_square_table():
    g = next(x for x in groups_of_order(77) if x.name == "C77")
    ctx = build_holomorph(g)
    m = len(ctx.perms)
    tracemalloc.start()
    try:
        records = enumerate_transitive_classes(ctx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(records) == 20
    assert peak < m * m * 2 / 4, peak
