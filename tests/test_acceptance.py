"""Acceptance suite: one test (or parametrized group) per release criterion.

Criterion 1 compares the engine against the embedded reference table for
degrees 2 through 13.  The degree 12 case fails by design: the reference
table prints 38 almost-classical records, while the almost-classical count
per type provably equals the number of subgroup conjugacy classes of the
base group's automorphism group, which sums to 46 at degree 12.  The
engine's 46 is kept; the README gives the full analysis, and
test_almost_classical_record_count_equals_aut_subgroup_classes in
tests/test_counts.py checks the bijection it rests on.  Every other
criterion must pass.
"""

from __future__ import annotations

import json
import time

import numpy as np
import pytest

from conftest import cocycle_decompose, compose
from hgcensus import build_degree_census
from hgcensus.actions import (
    bracoid_from_subgroup,
    brace_from_regular,
    ybe_solution,
)
from hgcensus.catalog import catalog_orders, groups_of_order
from hgcensus.cli import main
from hgcensus.counts import hgs_count_for_class
from hgcensus.degree2pq import build_family, witness_M_series, witness_four_types
from hgcensus.enumeration import subgroup_classes
from hgcensus.errors import BudgetError
from hgcensus.holomorph import build_holomorph

# reference rows, degrees 2..13: (types, hgs_total, sbracoids_total, gal_hgs,
# sbraces, ac_hgs, ac_sbracoids, bc_hgs)
REFERENCE_ROWS = {
    2: (1, 1, 1, 1, 1, 1, 1, 1),
    3: (1, 2, 2, 1, 1, 2, 2, 2),
    4: (2, 10, 8, 6, 4, 6, 6, 7),
    5: (1, 3, 3, 1, 1, 3, 3, 3),
    6: (2, 15, 12, 8, 6, 7, 6, 9),
    7: (1, 4, 4, 1, 1, 4, 4, 4),
    8: (5, 348, 148, 190, 47, 74, 47, 147),
    9: (2, 38, 23, 12, 4, 26, 20, 28),
    10: (2, 27, 20, 10, 6, 11, 9, 17),
    11: (1, 4, 4, 1, 1, 4, 4, 4),
    12: (5, 249, 134, 102, 38, 56, 38, 81),
    13: (1, 6, 6, 1, 1, 6, 6, 6),
}

ROW_14 = (2, 32, 24, 12, 6, 14, 12, 19)
ROW_15 = (1, 8, 8, 1, 1, 8, 8, 8)
ROW_30 = (4, 479, 304, 80, 36, 99, 72, 197)

CELL_NAMES = ("types", "hgs_total", "sbracoids_total", "gal_hgs",
              "sbraces", "ac_hgs", "ac_sbracoids", "bc_hgs")


def test_criterion_1_runtime_for_degrees_2_to_13(census):
    start = time.perf_counter()
    for degree in REFERENCE_ROWS:
        census(degree)
    elapsed = time.perf_counter() - start
    assert elapsed < 900.0, f"degrees 2..13 took {elapsed:.0f}s"


@pytest.mark.parametrize("degree", sorted(REFERENCE_ROWS))
def test_criterion_1_exact_row(census, degree):
    got = census(degree).row.cells()
    want = REFERENCE_ROWS[degree]
    diffs = [
        f"{name}: engine {g} vs reference {w}"
        for name, g, w in zip(CELL_NAMES, got, want)
        if g != w
    ]
    note = ""
    if degree == 12:
        note = (
            "; the ac_sbracoids disagreement is the known reference-table "
            "discrepancy: per type, almost-classical records biject with "
            "subgroup conjugacy classes of the base group's automorphism "
            "group, and those class counts sum to 46 at degree 12, not the "
            "printed 38 (analysis in the README; the bijection is checked by "
            "test_almost_classical_record_count_equals_aut_subgroup_classes)"
        )
    assert got == want, f"degree {degree}: " + "; ".join(diffs) + note


def test_criterion_2_rows_14_and_15(census):
    start = time.perf_counter()
    assert census(14).row.cells() == ROW_14
    assert census(15).row.cells() == ROW_15
    assert time.perf_counter() - start < 300.0


def test_criterion_3_brace_counts_cross_consistent(census):
    pinned = {4: 4, 6: 6, 8: 47, 10: 6, 12: 38}
    for degree, count in pinned.items():
        c = census(degree)
        regular_records = [rec for rec in c.records if rec.regular]
        assert len(regular_records) == count, f"degree {degree}"
        assert c.row.sbraces == count, f"degree {degree}"


def test_criterion_4_degree_16_fails_honestly(census):
    big = next(g for g in groups_of_order(16) if g.name == "C2xC2xC2xC2")
    ctx = build_holomorph(big)
    assert ctx.hol.order == 322560
    with pytest.raises(BudgetError):
        ctx.table()
    c = census(16)
    assert c.row.types == 14
    assert c.row.partial
    assert c.row.cells()[1:] == (None,) * 7  # unknowns, never guesses


def test_criterion_5_bracoid_axioms_and_cocycle_claims(census):
    """Every record at degrees 2..8: action axioms plus the five
    decomposition guarantees (existence, automorphism parts, twisted
    product law, exact recomposition, stabilizer alignment)."""
    checked = 0
    for degree in range(2, 9):
        c = census(degree)
        for rec in c.records:
            b = bracoid_from_subgroup(rec.ctx.group, rec.rep)
            b.validate()  # exhaustive triple checks over the action
            assert b.reduced

            pi, gamma = cocycle_decompose(rec.ctx.group, rec.rep)
            perms = [tuple(p) for p in rec.rep.elements.tolist()]
            assert len(pi) == rec.order
            aut_set = {tuple(p) for p in rec.ctx.aut.elements.tolist()}
            stab_set = {tuple(p) for p in rec.stabilizer.elements.tolist()}
            t = rec.ctx.group.mul
            for i, p in enumerate(perms):
                assert tuple(int(v) for v in gamma[i]) in aut_set
                assert tuple(int(v) for v in t[pi[i], gamma[i]]) == p
                assert (pi[i] == 0) == (p in stab_set)
            assert rec.regular == (sorted(pi.tolist()) == list(range(degree)))
            if rec.order <= 64:
                pos = {p: i for i, p in enumerate(perms)}
                gam = [tuple(int(v) for v in row) for row in gamma]
                for i, x in enumerate(perms):
                    for j, y in enumerate(perms):
                        k = pos[compose(x, y)]
                        assert gam[k] == compose(gam[i], gam[j])
                        assert pi[k] == t[pi[i], gam[i][pi[j]]]
            checked += 1
    assert checked == sum(len(census(d).records) for d in range(2, 9))


def test_criterion_5_ybe_braid_and_nondegeneracy(census):
    braces_at_8 = 0
    for degree in range(2, 9):
        for rec in census(degree).records:
            if not rec.regular:
                continue
            sol = ybe_solution(brace_from_regular(rec.ctx.group, rec.rep))
            sol.validate()  # braid relation on all triples
            rng = np.arange(degree)
            for x in range(degree):
                assert np.array_equal(np.sort(sol.sigma[x]), rng)
                assert np.array_equal(np.sort(sol.rho[x]), rng)
            if degree == 8:
                braces_at_8 += 1
    assert braces_at_8 == 47


def test_criterion_5_almost_classical_implies_correspondence(census):
    seen_ac = 0
    for degree in range(2, 11):
        c = census(degree)
        assert None not in c.ac_flags and None not in c.bc_flags
        for ac, bc in zip(c.ac_flags, c.bc_flags):
            if ac:
                assert bc
                seen_ac += 1
    assert seen_ac > 0


def test_criterion_5_hol_conjugacy_equals_aut_conjugacy(census):
    """Transitive subgroups of a holomorph are conjugate under the full
    holomorph exactly when conjugate under the stabilizer alone, so each
    record's stabilizer-only orbit must already have the full class size."""
    for degree in range(2, 9):
        for rec in census(degree).records:
            gens = [(tuple(a), tuple(np.argsort(a).tolist())) for a in rec.ctx.aut.generators.tolist()]
            start = frozenset(map(tuple, rec.rep.elements.tolist()))
            seen = {start}
            frontier = [start]
            while frontier:
                cur = frontier.pop()
                for a, ai in gens:
                    moved = frozenset(compose(a, compose(p, ai)) for p in cur)
                    if moved not in seen:
                        seen.add(moved)
                        frontier.append(moved)
            assert len(seen) == rec.class_size, (degree, rec.type_name, rec.order)


def test_criterion_5_orbit_stabilizer_and_integrality(census):
    for degree in list(range(2, 16)) + [30]:
        c = census(degree)
        for rec in c.records:
            assert rec.class_size * rec.normalizer_order == rec.ctx.hol.order
        for cls in c.classes:
            count = hgs_count_for_class(cls)  # raises if any term is fractional
            assert count > 0
            assert cls.aut_marked_order > 0


def _closure_indices(mul: np.ndarray, seed: tuple[int, ...]) -> tuple[int, ...]:
    mask = np.zeros(mul.shape[0], dtype=bool)
    mask[list(seed)] = True
    while True:
        idx = np.flatnonzero(mask)
        before = int(mask.sum())
        mask[mul[np.ix_(idx, idx)].ravel()] = True
        if int(mask.sum()) == before:
            return tuple(idx.tolist())


def _all_subgroups_by_scan(mul: np.ndarray) -> set[tuple[int, ...]]:
    """Exhaustive subgroup enumeration by one-element extensions."""
    found = {(0,)}
    frontier = [(0,)]
    while frontier:
        elems = frontier.pop()
        arr = np.array(elems, dtype=np.int64)
        skip = np.zeros(mul.shape[0], dtype=bool)
        skip[arr] = True
        for g in range(1, mul.shape[0]):
            if skip[g]:
                continue
            skip[mul[g, arr]] = True  # the whole coset extends identically
            new = _closure_indices(mul, elems + (g,))
            if new not in found:
                found.add(new)
                frontier.append(new)
    return found


def _group_into_conjugacy_classes(
    mul: np.ndarray, inv: np.ndarray, gens: list[int], subgroups: set[tuple[int, ...]]
) -> list[set[tuple[int, ...]]]:
    remaining = set(subgroups)
    classes = []
    while remaining:
        start = remaining.pop()
        orbit = {start}
        frontier = [start]
        while frontier:
            cur = np.array(frontier.pop(), dtype=np.int64)
            for a in gens:
                moved = tuple(np.sort(mul[mul[a, cur], inv[a]]).tolist())
                if moved not in orbit:
                    orbit.add(moved)
                    frontier.append(moved)
        remaining -= orbit
        classes.append(orbit)
    return classes


def test_criterion_5_subgroup_lattice_oracle_small_holomorphs():
    """Every holomorph of order at most 400: the conjugacy-class search must
    agree with a from-scratch scan on subgroup sets, class sizes, and the
    lex-least canonical member."""
    checked = 0
    for n in catalog_orders():
        for g in groups_of_order(n):
            ctx = build_holomorph(g)
            if ctx.hol.order > 400:
                continue
            T = ctx.table()
            mul = T.mul.astype(np.int64)
            oracle = _all_subgroups_by_scan(mul)
            gens = T.small_generating_set(np.arange(T.order, dtype=np.int64))
            oracle_classes = _group_into_conjugacy_classes(
                mul, T.inv.astype(np.int64), list(gens), oracle
            )
            classes = subgroup_classes(T)
            assert sum(c.class_size for c in classes) == len(oracle), g.name
            assert len(classes) == len(oracle_classes), g.name
            by_rep = {min(orbit): len(orbit) for orbit in oracle_classes}
            for c in classes:
                key = tuple(c.indices.tolist())
                assert key in by_rep, (g.name, key)
                assert by_rep[key] == c.class_size, (g.name, key)
            checked += 1
    assert checked == 29  # qualifying holomorphs across the catalog


@pytest.mark.parametrize("p,q", [(5, 3), (7, 3), (13, 3)])
def test_criterion_6_witness_subgroups(p, q):
    start = time.perf_counter()
    fam = build_family(p, q)  # re-verifies the automorphism order formulas
    expected_members = 6 if (p - 1) % q == 0 else 4
    assert len(fam.members) == expected_members

    full = 2 * p * q * (p - 1) * (q - 1)
    reports = witness_four_types(fam)
    cyclic = fam.members[0].group.name
    for name in ("M2", "M3", "M4"):
        assert reports[name].normalizer_order == full
        assert reports[name].abstract == cyclic
    assert reports["J2"].normalizer_order == q * full
    assert reports["J2"].abstract == fam.members[1].group.name
    assert reports["J3"].normalizer_order == p * full
    assert reports["J3"].abstract == fam.members[2].group.name

    series = witness_M_series(fam)  # raises unless pairwise matched
    assert len(series) == expected_members
    target = 2 * p * q * (p - 1)
    for rep in series:
        assert rep.subgroup.order == target
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"(p={p}, q={q}) took {elapsed:.0f}s"


def test_criterion_7_degree_30_exact_or_unknown(census):
    assert census(30).row.cells() == ROW_30
    starved = build_degree_census(30, node_budget=2000)
    assert starved.row.partial
    for name, value in zip(CELL_NAMES, starved.row.cells()):
        exact = ROW_30[CELL_NAMES.index(name)]
        assert value is None or value == exact, f"{name} degraded to a wrong number"
    assert starved.row.types == 4  # the catalog still answers


def test_criterion_8_byte_identical_artifacts(tmp_path, capsys):
    def run(cache_dir):
        rc = main(["enumerate", "--degrees", "2-12", "--format", "csv",
                   "--cache-dir", str(cache_dir)])
        capsys.readouterr()
        assert rc == 0
        return {
            p.name: p.read_bytes() for p in sorted(cache_dir.glob("degree-*.json"))
        }

    first = run(tmp_path / "a")
    second = run(tmp_path / "a")  # consecutive run over the same cache
    assert first == second
    other = run(tmp_path / "b")  # independent cold run
    assert first == other
    assert len(first) == 11
    for name, blob in first.items():
        payload = json.loads(blob)
        assert payload["degree"] == int(name[7:10])
