"""Group catalog: completeness per order, representations, automorphisms."""

from __future__ import annotations

import hashlib
import importlib.resources
import re
from itertools import permutations

import numpy as np
import pytest

from conftest import compose, opposite_group, regular_representation
from hgcensus import catalog
from hgcensus.catalog import (
    automorphism_group,
    catalog_orders,
    groups_of_order,
    invariants,
)
from hgcensus.errors import ConsistencyError, StructureError, UnsupportedOrderError
from hgcensus.expected import EXPECTED
from hgcensus.iso import IsoSearch
from hgcensus.perm import closure, is_transitive, parse_cycles, row_index
from hgcensus.table import GroupTable

# the reference table's type column doubles as the group count per order
KNOWN_TYPE_COUNTS = {n: EXPECTED[n].types for n in catalog_orders() if n in EXPECTED}


def _catalog_file_blocks() -> list[tuple[str, int, list[str]]]:
    """(name, degree, generator lines) of every block of the data file."""
    text = importlib.resources.files("hgcensus").joinpath("catalog_data.txt").read_text()
    blocks = re.findall(r"^group (\S+) order=\d+ degree=(\d+).*?\n(.*?)^end$", text, re.M | re.S)
    return [(name, int(deg), re.findall(r"^gen (.*)$", body, re.M)) for name, deg, body in blocks]


def test_catalog_tables_keep_their_file_generators_in_order():
    groups = {g.name: g for n in catalog_orders() for g in groups_of_order(n)}
    blocks = _catalog_file_blocks()
    assert blocks and len(blocks) == len(groups)
    for name, degree, lines in blocks:
        perms = np.array([parse_cycles(line, degree) for line in lines])
        want = row_index(perms, closure(perms.tolist(), degree)).tolist()
        assert groups[name].name == name
        assert groups[name].generators() == want, name


def test_every_covered_order_has_the_right_number_of_groups():
    assert KNOWN_TYPE_COUNTS  # guard against an empty loop
    for n, count in KNOWN_TYPE_COUNTS.items():
        assert len(groups_of_order(n)) == count, f"order {n}"


def test_uncovered_order_raises_with_coverage_list():
    with pytest.raises(UnsupportedOrderError) as err:
        groups_of_order(100)
    assert err.value.order == 100
    assert 16 in err.value.covered


def test_catalog_groups_are_pairwise_nonisomorphic():
    for n in catalog_orders():
        groups = groups_of_order(n)
        for i in range(len(groups)):
            for j in range(i + 1, len(groups)):
                assert IsoSearch(groups[i], groups[j]).run("count") == 0, (
                    f"{groups[i].name} vs {groups[j].name}"
                )


def test_every_catalog_order_is_self_tested_for_repeats(monkeypatch):
    # an order above 12 that lists one group twice
    groups = groups_of_order(14)
    cat = dict(catalog._load_catalog())
    cat[14] = [groups[0], *groups]
    monkeypatch.setattr(catalog, "_catalog_cache", cat)
    monkeypatch.setattr(catalog, "_checked_orders", set())
    with pytest.raises(StructureError, match="isomorphic"):
        groups_of_order(14)


def test_regular_representation_is_regular():
    for n in (6, 8, 12):
        for g in groups_of_order(n):
            left = regular_representation(g, "left")
            assert left.order == n
            assert is_transitive(left)
            assert (left.elements[:, 0] == 0).sum() == 1  # trivial stabilizer
            assert np.array_equal(left.elements, closure(left.generators.tolist(), n))


def test_left_and_right_translations_commute():
    g = groups_of_order(8)[2]  # any nonabelian sample works the same way
    left = [tuple(p) for p in regular_representation(g, "left").elements.tolist()]
    right = [tuple(p) for p in regular_representation(g, "right").elements.tolist()]
    for la in left:
        for rb in right:
            assert compose(la, rb) == compose(rb, la)


def test_opposite_group_is_transpose_and_isomorphic():
    for g in groups_of_order(6):
        op = opposite_group(g)
        assert np.array_equal(op.mul, g.mul.T)
        assert op.name == g.name + "_op" and op.generators() == g.generators()
        # inversion is an isomorphism onto the opposite group
        assert IsoSearch(g, op).run("count") > 0
    abelian = groups_of_order(5)[0]
    assert np.array_equal(opposite_group(abelian).mul, abelian.mul)


def _aut_order_by_brute_force(g: GroupTable) -> int:
    """Count bijections fixing 0 that preserve the product, by full scan."""
    t = g.mul
    n = g.order
    count = 0
    for rest in permutations(range(1, n)):
        m = (0,) + rest
        if all(m[t[a, b]] == t[m[a], m[b]] for a in range(n) for b in range(n)):
            count += 1
    return count


def test_automorphism_group_matches_full_bijection_scan():
    # scan cost is (n-1)! * n^2, fine through order 8
    for n in (2, 3, 4, 5, 6, 7, 8):
        for g in groups_of_order(n):
            assert automorphism_group(g).order == _aut_order_by_brute_force(g), g.name


def test_automorphism_orders_of_classical_groups():
    by_name = {g.name: g for g in groups_of_order(8)}
    assert automorphism_group(by_name["Q8"]).order == 24
    assert automorphism_group(by_name["D4"]).order == 8
    assert automorphism_group(by_name["C2xC2xC2"]).order == 168
    c16 = {g.name: g for g in groups_of_order(16)}
    assert automorphism_group(c16["C2xC2xC2xC2"]).order == 20160  # |GL(4, 2)|


def test_automorphisms_fix_identity_and_preserve_products():
    g = groups_of_order(12)[3]
    auts = automorphism_group(g)
    t = g.mul
    assert np.array_equal(np.lexsort(auts.elements.T[::-1]), np.arange(auts.order))
    assert auts.elements[0].tolist() == list(range(g.order))
    for alpha in auts.elements:
        assert alpha[0] == 0
        for s in g.generators():
            for b in range(g.order):
                assert alpha[t[s, b]] == t[alpha[s], alpha[b]]


def _catalog_groups() -> list[GroupTable]:
    return [g for n in catalog_orders() for g in groups_of_order(n)]


def test_automorphism_group_equals_the_backtracking_listing(all_maps):
    # every catalog group, C2^4 (|Aut| = 20160) included
    groups = _catalog_groups()
    assert len(groups) == 59
    for g in groups:
        maps = np.array(all_maps(IsoSearch(g, g)))
        assert np.array_equal(automorphism_group(g).elements, maps[np.lexsort(maps.T[::-1])]), g.name


def test_automorphism_generators_are_chain_witnesses_that_each_double_the_group():
    for g in _catalog_groups():
        aut = automorphism_group(g)
        gens = aut.generators
        assert np.array_equal(closure(gens.tolist(), g.order), aut.elements), g.name
        assert len(gens) <= np.log2(aut.order), g.name
        # each witness lies outside the group the earlier ones generate, so
        # by Lagrange each at least doubles it
        for i in range(len(gens)):
            assert row_index(gens[i : i + 1], closure(gens[:i].tolist(), g.order))[0] < 0, (g.name, i)


def test_automorphism_witnesses_are_pinned():
    # the Aut(N) witnesses, which `automorphism_group` closes and holomorphs
    # are built from, come from an unseeded chain: their digest over every
    # catalog group but C2^4 (whose 20160 maps stay unclosed) is fixed
    digest = hashlib.sha256()
    for n in catalog_orders():
        for g in groups_of_order(n):
            if g.name != "C2xC2xC2xC2":
                digest.update(g.name.encode())
                gens = np.ascontiguousarray(automorphism_group(g).generators, dtype=np.int64)
                digest.update(gens.tobytes())
    assert digest.hexdigest() == "9e33bdf6d4aa01cef4bc303ca18c5d4e20a41f6af168f7e21c4579804c8e5780"


def _count_doubled(count):
    return lambda self: 2 * count(self)


def _last_witness_dropped(count):
    def run(self):
        n = count(self)
        self.witnesses = self.witnesses[:-1]
        return n
    return run


@pytest.mark.parametrize("corrupt", [_count_doubled, _last_witness_dropped])
def test_automorphism_group_rejects_a_count_its_witnesses_do_not_reach(monkeypatch, corrupt):
    d4 = {g.name: g for g in groups_of_order(8)}["D4"]
    fresh = GroupTable(d4.mul.copy(), "D4", d4.generators())  # no cached Aut
    monkeypatch.setattr(IsoSearch, "_count", corrupt(IsoSearch._count))
    with pytest.raises(ConsistencyError, match="witnesses generate"):
        automorphism_group(fresh)


def _relabeled(g: GroupTable, sigma: tuple[int, ...]) -> GroupTable:
    """The same group on shuffled element indices (identity kept at 0)."""
    n = g.order
    inv = [0] * n
    for i, v in enumerate(sigma):
        inv[v] = i
    t = np.empty_like(g.mul)
    for a in range(n):
        for b in range(n):
            t[a, b] = sigma[g.mul[inv[a], inv[b]]]
    gens = [sigma[s] for s in g.generators()]
    return GroupTable(t, g.name + "_shuffled", gens)


def test_invariants_are_relabeling_invariant():
    rng = np.random.default_rng(7)
    for n in (6, 8, 12):
        for g in groups_of_order(n):
            sigma = (0,) + tuple(int(v) for v in rng.permutation(np.arange(1, n)))
            assert invariants(_relabeled(g, sigma)) == invariants(g), g.name


def test_invariants_separate_most_order8_groups():
    invs = [invariants(g) for g in groups_of_order(8)]
    assert len({(i.abelian, i.exponent, i.center_order, i.order_multiset) for i in invs}) == 5


def _latin_nonassociative(g: GroupTable) -> np.ndarray:
    """g's table with one intercalate swapped: still Latin, identity kept.

    For an involution h, rows x and x h and columns x and h x hold the
    2x2 subsquare {x x, x h x}; swapping its two values breaks some product.
    """
    t = g.mul
    h = int(np.flatnonzero(g.elem_order == 2)[0])
    x = 1 if h != 1 else 2
    a, b, c, d = x, int(t[x, h]), x, int(t[h, x])
    out = t.copy()
    out[[a, a, b, b], [c, d, c, d]] = t[[a, a, b, b], [d, c, d, c]]
    return out


def test_table_validate_rejects_tables_that_are_not_groups():
    s3 = groups_of_order(6)[1]
    t = s3.mul
    gens = s3.generators()
    with pytest.raises(StructureError):
        GroupTable(t[[1, 0, 2, 3, 4, 5]], "row0", gens).validate("row0")
    not_latin = t.copy()
    not_latin[1, np.flatnonzero(t[1] != 0)[0]] = t[1, np.flatnonzero(t[1] != 0)[1]]
    with pytest.raises(StructureError):
        GroupTable(not_latin, "not_latin", gens).validate("not_latin")
    involution = int(np.flatnonzero(s3.elem_order == 2)[0])
    with pytest.raises(StructureError, match="miss elements"):
        GroupTable(t, "short_gens", [involution]).validate("short_gens")


def test_latin_nonassociative_order_42_table_is_rejected():
    for g in groups_of_order(42):
        bad = _latin_nonassociative(g)
        rng = np.arange(42)
        assert (np.sort(bad, axis=0) == rng[:, None]).all() and (np.sort(bad, axis=1) == rng).all()
        assert np.array_equal(bad[0], rng) and np.array_equal(bad[:, 0], rng)
        assert not np.array_equal(bad[bad], bad[:, bad])  # some (a b) c != a (b c)
        # no given generators: the greedy set generates, so Light's test runs
        with pytest.raises(StructureError, match="not associative"):
            GroupTable(bad).validate(g.name + "_swapped")
