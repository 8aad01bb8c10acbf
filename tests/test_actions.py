"""Action artifacts: bracoids, two-operation carriers, braid-relation maps."""

from __future__ import annotations

import re
from functools import cache

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import cocycle_decompose, regular_representation
from hgcensus.actions import (
    SkewBrace,
    SkewBracoid,
    YBESolution,
    bracoid_from_subgroup,
    brace_from_regular,
    realize_regular_subgroup,
    trivial_brace,
    ybe_solution,
)
from hgcensus.catalog import from_perm_generators, groups_of_order
from hgcensus.cli import _dump_canonical
from hgcensus.classify import stab_respecting_iso
from hgcensus.errors import ConsistencyError, StructureError
from hgcensus.holomorph import build_holomorph
from hgcensus.iso import IsoSearch
from hgcensus.perm import PermGroup, closure, orbit_labels, parse_cycles, row_index
from hgcensus.table import GroupTable


def _c2_context():
    return build_holomorph(groups_of_order(2)[0])


def test_reduced_bracoid_from_each_record(census):
    c = census(6)
    for rec in c.records:
        b = bracoid_from_subgroup(rec.ctx.group, rec.rep)
        assert b.reduced
        assert b.degree == 6
        assert b.acting.order == rec.order
        assert np.array_equal(b.action[0], np.arange(6))
        d = b.to_json_dict()
        assert d["kind"] == "skew_bracoid"
        assert d["acting_order"] == rec.order


def test_nonreduced_bracoid_through_a_covering_map():
    ctx = _c2_context()
    g4 = from_perm_generators("C4m", [(1, 2, 3, 0)], 4)  # element i = rotation by i
    e, s = (0, 1), (1, 0)
    images = [e, s, e, s]
    b = bracoid_from_subgroup(ctx.group, regular_representation(ctx.group), delta=(g4, images))
    assert not b.reduced
    assert b.acting.order == 4
    assert b.degree == 2


def test_bracoid_covering_map_rejections():
    ctx = _c2_context()
    g4 = from_perm_generators("C4m", [(1, 2, 3, 0)], 4)
    e, s = (0, 1), (1, 0)
    left = regular_representation(ctx.group)
    with pytest.raises(StructureError):
        bracoid_from_subgroup(ctx.group, left, delta=(g4, [e, s, e]))  # short
    with pytest.raises(StructureError):
        bracoid_from_subgroup(ctx.group, left, delta=(g4, [s, e, s, e]))  # identity moved
    with pytest.raises(StructureError):
        bracoid_from_subgroup(ctx.group, left, delta=(g4, [e, s, s, e]))  # not a morphism
    with pytest.raises(StructureError):
        bracoid_from_subgroup(ctx.group, left, delta=(g4, [e, e, e, e]))  # not onto


def test_bracoid_requires_transitive_subgroup():
    g = groups_of_order(4)[0]
    ctx = build_holomorph(g)
    stab = PermGroup(ctx.aut.elements, 4)
    with pytest.raises(StructureError):
        bracoid_from_subgroup(ctx.group, stab)


def test_cocycle_decomposition_of_every_degree6_record(census):
    c = census(6)
    for rec in c.records:
        pi, gamma = cocycle_decompose(rec.ctx.group, rec.rep)
        assert len(pi) == rec.order
        aut_rows = {tuple(p) for p in rec.ctx.aut.elements.tolist()}
        for row in gamma:
            assert tuple(int(v) for v in row) in aut_rows
        if rec.regular:
            assert sorted(pi.tolist()) == list(range(6))
        if np.array_equal(rec.rep.elements, regular_representation(rec.ctx.group).elements):
            # pure translations have trivial stabilizer parts
            assert (gamma == np.arange(6)).all()


def test_cocycle_rejects_foreign_subgroup():
    s3_natural = PermGroup([parse_cycles("(0 1 2)", 3), parse_cycles("(0 1)", 3)], 3)
    with pytest.raises(StructureError):
        cocycle_decompose(groups_of_order(6)[0], s3_natural)


def test_brace_transport_of_the_two_translation_actions():
    g = groups_of_order(6)[1]  # S3
    ctx = build_holomorph(g)
    left = brace_from_regular(g, regular_representation(g))
    assert left.add is g  # N's catalog table is the first operation
    assert np.array_equal(left.add.mul, left.circ.mul)  # same operation twice
    right = brace_from_regular(g, regular_representation(g, "right"))
    assert np.array_equal(right.circ.mul, g.mul.T)  # opposite multiplication
    assert not np.array_equal(right.add.mul, right.circ.mul)
    # a holomorph context stands for its group
    assert brace_from_regular(ctx, regular_representation(g)).to_json_dict() == left.to_json_dict()


def test_brace_transport_requires_regularity():
    g = groups_of_order(6)[1]
    ctx = build_holomorph(g)
    with pytest.raises(StructureError):
        brace_from_regular(ctx.group, ctx.hol)


def test_brace_validation_catches_broken_identity():
    g = groups_of_order(6)[0]
    t = g.mul.astype(np.int32)
    bad = t.copy()
    bad[[1, 2]] = bad[[2, 1]]  # rows swapped: 1 * 0 is no longer 1
    with pytest.raises((StructureError, ConsistencyError)):
        SkewBrace(GroupTable(t), GroupTable(bad)).validate()


def test_trivial_brace_of_abelian_group_gives_the_flip_map():
    v4 = next(g for g in groups_of_order(4) if g.name == "C2xC2")
    sol = ybe_solution(trivial_brace(v4))
    for x in range(4):
        for y in range(4):
            assert tuple(sol.r[x, y]) == (y, x)


def test_trivial_brace_of_s3_gives_flip_conjugation():
    s3 = groups_of_order(6)[1]
    t = s3.mul
    tinv = np.array([int(np.nonzero(t[a] == 0)[0][0]) for a in range(6)])
    sol = ybe_solution(trivial_brace(s3))
    for x in range(6):
        for y in range(6):
            assert tuple(sol.r[x, y]) == (y, int(t[t[tinv[y], x], y]))


def test_ybe_solutions_from_all_degree6_braces(census):
    c = census(6)
    seen_nontrivial_sigma = False
    for rec in c.records:
        if not rec.regular:
            continue
        sol = ybe_solution(brace_from_regular(rec.ctx.group, rec.rep))
        assert sol.order == 6
        d = sol.to_json_dict()
        assert len(d["r"]) == 36
        if any(sol.sigma[x].tolist() != list(range(6)) for x in range(6)):
            seen_nontrivial_sigma = True
    assert seen_nontrivial_sigma  # mixed-type classes exist at degree 6


def test_realize_regular_subgroup_identity_map(census):
    for rec in census(6).records:
        left = regular_representation(rec.ctx.group)
        if rec.regular and np.array_equal(rec.rep.elements, left.elements):
            phi = np.arange(rec.order)
            out = realize_regular_subgroup(rec.rep, rec.rep, rec.ctx.group, phi)
            assert np.array_equal(out.elements, left.elements)


def test_realize_regular_subgroup_across_types(census):
    # move one type's translations onto the points of an isomorphic record
    # living in the other type's holomorph
    cross = None
    for cls in census(6).classes + census(8).classes:
        names = {name for name, _ in cls.members}
        if len(names) > 1:
            cross = cls
            break
    assert cross is not None
    (na, ra), (nb, rb) = cross.members[0], next(
        m for m in cross.members if m[0] != cross.members[0][0]
    )
    phi = stab_respecting_iso(ra.rep, rb.rep)
    assert phi is not None
    realized = realize_regular_subgroup(ra.rep, rb.rep, rb.ctx.group, phi)
    n = rb.ctx.n
    assert realized.order == n
    assert len({p[0] for p in realized.elements.tolist()}) == n
    assert np.array_equal(realized.elements, closure(realized.generators.tolist(), n))
    # abstract type equals the second record's base group
    T = realized.table()
    assert IsoSearch(T, rb.ctx.group).run("count") > 0


def test_realize_regular_subgroup_rejects_nonmorphism():
    g = groups_of_order(4)[0]
    left = regular_representation(g)
    phi = np.arange(g.order)
    phi[[1, 2]] = phi[[2, 1]]
    with pytest.raises(StructureError):
        realize_regular_subgroup(left, left, g, phi)


# -- one-cell mutations: every validator must notice -----------------------


@cache
def _s3_right_brace() -> SkewBrace:
    """S3 with its opposite multiplication as circle: add != circ."""
    ctx = build_holomorph(groups_of_order(6)[1])
    return brace_from_regular(ctx.group, regular_representation(ctx.group, "right"))


@cache
def _hol_s3_bracoid() -> tuple[SkewBracoid, GroupTable]:
    """Hol(S3), order 36, acting on the 6 points of S3, and its table."""
    ctx = build_holomorph(groups_of_order(6)[1])
    return bracoid_from_subgroup(ctx.group, ctx.hol), ctx.hol.table()


@given(st.sampled_from(["add", "circ"]), st.integers(0, 5), st.integers(0, 5), st.integers(1, 5))
def test_brace_one_cell_mutation_is_rejected(which, i, j, shift):
    b = _s3_right_brace()
    tables = {"add": b.add.mul.copy(), "circ": b.circ.mul.copy()}
    tables[which][i, j] = (tables[which][i, j] + shift) % 6
    with pytest.raises((StructureError, ConsistencyError)):
        SkewBrace(GroupTable(tables["add"]), GroupTable(tables["circ"])).validate()


@given(st.integers(0, 35), st.integers(0, 5), st.integers(1, 5))
def test_bracoid_one_cell_mutation_is_rejected(g, mu, shift):
    b, T = _hol_s3_bracoid()
    action = b.action.copy()
    action[g, mu] = (action[g, mu] + shift) % 6
    for acting in (T, b.acting):  # the table route and the row route
        with pytest.raises((StructureError, ConsistencyError)):
            SkewBracoid(acting, b.target, action, b.reduced).validate()


# -- generator checks against all-elements references ----------------------


def _rejects(build) -> bool:
    """Whether building the object, or its `validate`, raises."""
    try:
        build().validate()
    except (StructureError, ConsistencyError):
        return True
    return False


def _bracoid_reference(mul: np.ndarray, target: np.ndarray, a: np.ndarray) -> bool:
    """Action law and compatibility law checked for every acting element."""
    m, n = a.shape
    if not np.array_equal(a[0], np.arange(n)):
        return False
    if not all(np.array_equal(a[mul[g]], a[g][a]) for g in range(m)):
        return False
    if len(set(a[:, 0].tolist())) != n:
        return False
    tinv = np.array([int(np.flatnonzero(target[x] == 0)[0]) for x in range(n)])
    for row in a:
        # g(mu nu) == g(mu) g(e)^-1 g(nu) for all mu, nu
        if not np.array_equal(row[target], target[target[row, tinv[row[0]]][:, None], row[None, :]]):
            return False
    return True


def _is_group_by_all_triples(t: np.ndarray) -> bool:
    n = len(t)
    rng = np.arange(n)
    return bool(
        np.array_equal(t[0], rng) and np.array_equal(t[:, 0], rng)
        and (np.sort(t, axis=1) == rng).all() and (np.sort(t, axis=0) == rng[:, None]).all()
        and np.array_equal(t[t], t[:, t])
    )


def _brace_reference(add: np.ndarray, circ: np.ndarray) -> bool:
    """Both tables are groups and x o (y + z) == (x o y) - x + (x o z) for every x."""
    if not (_is_group_by_all_triples(add) and _is_group_by_all_triples(circ)):
        return False
    return _bracoid_reference(circ, add, circ)


@pytest.mark.parametrize("degree", range(2, 9))
def test_bracoid_validation_agrees_with_all_elements_reference(census, degree):
    # the row route (M's own rows) and the table route (M's table) accept
    # every record with the same bytes and reject the same mutations
    rng = np.random.default_rng(degree)
    verdicts = set()
    for rec in census(degree).records:
        b = bracoid_from_subgroup(rec.ctx.group, rec.rep)
        T = rec.rep.table()
        assert b.acting is rec.rep
        table = SkewBracoid(T, b.target, rec.rep.elements, True)
        table.validate()
        assert _dump_canonical(b.payload()) == _dump_canonical(table.payload())
        variants = [b.action]
        for _ in range(2):  # seeded one-cell mutations
            a = b.action.copy()
            g, mu = rng.integers(0, a.shape[0]), rng.integers(0, degree)
            a[g, mu] = (a[g, mu] + rng.integers(1, degree)) % degree
            variants.append(a)
        for a in variants:
            ok = _bracoid_reference(T.mul, b.target.mul, a)
            assert _rejects(lambda: SkewBracoid(T, b.target, a, b.reduced)) == (not ok)
            assert _rejects(lambda: SkewBracoid(b.acting, b.target, a, b.reduced)) == (not ok)
            verdicts.add(ok)
    assert verdicts == {True, False}


@pytest.mark.parametrize("fault, message", [
    ("removed", "not closed"),
    ("stray", "not closed"),
    ("coset", "not generated from the identity"),
    ("swapped", "not strictly increasing"),
])
def test_bracoid_row_route_rejects_rows_that_are_not_the_generated_group(census, fault, message):
    rec = next(r for r in census(6).records if r.order < len(r.ctx.perms))
    M, N = rec.rep, rec.ctx.group
    hol = rec.ctx.perms
    r = hol[np.flatnonzero(row_index(hol, M.elements) < 0)[0]]  # in Hol(N), outside M
    rows = {
        "removed": np.delete(M.elements, len(M.elements) // 2, axis=0),
        "stray": np.unique(np.vstack([M.elements, r]), axis=0),
        # closed under every generator, but r M is not reached from the identity
        "coset": np.unique(np.vstack([M.elements, r[M.elements]]), axis=0),
        "swapped": M.elements[[0, 2, 1, *range(3, len(M.elements))]],
    }[fault]
    with pytest.raises(StructureError, match=message):
        bracoid_from_subgroup(N, PermGroup(M.generators, N.order, elements=rows))


@pytest.mark.parametrize("degree", range(2, 9))
def test_brace_validation_agrees_with_all_elements_reference(census, degree):
    rng = np.random.default_rng(degree)
    seen = set()
    for rec in census(degree).records:
        if not rec.regular:
            continue
        br = brace_from_regular(rec.ctx.group, rec.rep)
        variants = [("brace", br.add.mul, br.circ.mul)]
        for _ in range(3):  # seeded relabellings fixing 0: the circle stays a group
            relabel = np.concatenate([[0], 1 + rng.permutation(degree - 1)])
            relabelled = np.empty_like(br.circ.mul)
            relabelled[np.ix_(relabel, relabel)] = relabel[br.circ.mul]
            variants.append(("relabelled", br.add.mul, relabelled))
        for which in range(2):  # seeded one-cell mutations of each table
            tables = [br.add.mul.copy(), br.circ.mul.copy()]
            x, y = rng.integers(0, degree, size=2)
            tables[which][x, y] = (tables[which][x, y] + rng.integers(1, degree)) % degree
            variants.append(("mutated", *tables))
        for kind, add, circ in variants:
            ok = _brace_reference(add, circ)
            assert _rejects(lambda: SkewBrace(GroupTable(add), GroupTable(circ))) == (not ok)
            seen.add((kind, ok))
    assert {("brace", True), ("mutated", False)} <= seen
    # from degree 4 on, some relabelled circle groups fail compatibility only
    assert degree < 4 or ("relabelled", False) in seen


def test_action_law_is_checked_on_every_generator():
    b, T = _hol_s3_bracoid()
    g1, g2 = T.generators()[:2]
    # h -> h g2 off <g1>: commutes with left multiplication by g1 only, so
    # the rows satisfy the action law at g1 but are no action of T
    lab = orbit_labels(T.mul[[g1]])
    phi = np.where(lab == lab[0], np.arange(T.order), T.mul[:, g2])
    action = b.action[phi]
    assert np.array_equal(action[T.mul[g1]], action[g1][action])
    assert not _bracoid_reference(T.mul, b.target.mul, action)
    with pytest.raises(StructureError, match="not a group action"):
        SkewBracoid(T, b.target, action, False).validate()


def test_bracoid_with_non_associative_acting_table_is_rejected():
    b, T = _hol_s3_bracoid()
    t = T.mul
    # rows 3 and 5 hold an intercalate {t[3, 1], t[3, 3]} in columns 1 and 3
    r, s, c, d = 3, 5, 1, 3
    assert t[r, c] == t[s, d] and t[r, d] == t[s, c]
    swapped = t.copy()
    swapped[[r, r, s, s], [c, d, c, d]] = t[[r, r, s, s], [d, c, d, c]]
    T = GroupTable(swapped)
    gens = T.generators()
    # still Latin with identity 0, untouched generator rows, so the action
    # law and compatibility hold on generators: only Light's test can object
    assert r not in gens and s not in gens
    assert all(np.array_equal(b.action[swapped[g]], b.action[g][b.action]) for g in gens)
    assert not _is_group_by_all_triples(swapped)
    with pytest.raises(StructureError, match="not associative"):
        SkewBracoid(T, b.target, b.action, True).validate()


@given(st.integers(0, 1), st.integers(0, 5), st.integers(0, 5), st.integers(1, 5))
def test_ybe_one_value_mutation_is_rejected(side, x, y, shift):
    sol = ybe_solution(_s3_right_brace())
    r, sigma, rho = sol.r.copy(), sol.sigma.copy(), sol.rho.copy()
    r[x, y, side] = (r[x, y, side] + shift) % 6
    if side == 0:
        sigma[x, y] = r[x, y, 0]
    else:
        rho[y, x] = r[x, y, 1]
    with pytest.raises((StructureError, ConsistencyError)):
        YBESolution(6, r, sigma, rho).validate()


def _first_braid_failure(r: np.ndarray):
    """Triple-by-triple reference for YBESolution's braid check."""
    n = r.shape[0]
    for x in range(n):
        for y in range(n):
            for z in range(n):
                a, b = r[x, y]
                b, c = r[b, z]
                a, b = r[a, b]
                u, w = r[y, z]
                v, u = r[x, u]
                u, w = r[u, w]
                if (a, b, c) != (v, u, w):
                    return x, y, z
    return None


def test_non_commuting_permutation_map_breaks_the_braid_relation():
    # r(x, y) = (f(y), g(x)) is a solution iff f g = g f (Lyubashenko)
    f, g = np.array([1, 0, 2]), np.array([0, 2, 1])
    assert not np.array_equal(f[g], g[f])
    r = np.stack(np.broadcast_arrays(f[None, :], g[:, None]), axis=-1)
    sol = YBESolution(3, r, np.tile(f, (3, 1)), np.tile(g, (3, 1)))
    first = _first_braid_failure(r)
    assert first is not None
    with pytest.raises(ConsistencyError, match=re.escape(f"braid relation fails at {first}")):
        sol.validate()
    commuting = np.stack(np.broadcast_arrays(f[None, :], f[:, None]), axis=-1)
    assert _first_braid_failure(commuting) is None
    YBESolution(3, commuting, np.tile(f, (3, 1)), np.tile(f, (3, 1))).validate()


_PERM3 = st.permutations(range(3))


@given(st.lists(_PERM3, min_size=3, max_size=3), st.lists(_PERM3, min_size=3, max_size=3))
def test_braid_check_reports_the_first_failing_triple(sigma_rows, rho_rows):
    sigma, rho = np.array(sigma_rows), np.array(rho_rows)
    r = np.stack([sigma, rho.T], axis=-1)  # r(x, y) = (sigma_x(y), rho_y(x))
    first = _first_braid_failure(r)
    sol = YBESolution(3, r, sigma, rho)
    if first is None:
        sol.validate()
    else:
        with pytest.raises(ConsistencyError, match=re.escape(f"braid relation fails at {first}")):
            sol.validate()
