"""Shared fixtures and oracles.

`compose`, `regular_representation` and `opposite_group` are plain
permutation and table helpers that only tests use; test modules import
them from here, as they do `cocycle_decompose`, which splits every element
of a subgroup of Hol(N) on M's own table, and `fields_by_stabilizer_orbits`,
the reference intermediate field count.  Census construction dominates the suite's runtime, so
results are cached per (degree, options) for the whole session and shared
across modules.  Property tests run under one deterministic hypothesis
profile.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from hgcensus import build_degree_census
from hgcensus.counts import _minimal_block
from hgcensus.errors import ConsistencyError, StructureError
from hgcensus.holomorph import in_holomorph
from hgcensus.iso import IsoSearch
from hgcensus.perm import Perm, PermGroup, orbit_labels
from hgcensus.table import GroupTable

# fixed examples and no per-example deadline: the suite stays deterministic
# and does not flake on a loaded host
settings.register_profile("hgcensus", deadline=None, derandomize=True)
settings.load_profile("hgcensus")


def compose(p: Perm, q: Perm) -> Perm:
    """Composite p after q: (p . q)(x) = p(q(x)), the oracle for products
    of image rows."""
    return tuple(p[i] for i in q)


def regular_representation(g: GroupTable, side: str = "left") -> PermGroup:
    """Left action a: x -> a*x, or right action a: x -> x*a, on 0..n-1.

    Row a of either action sends 0 to a, so the rows come sorted.
    """
    if side == "left":
        perms = g.mul
    elif side == "right":
        perms = g.mul.T
    else:
        raise StructureError(f"side must be 'left' or 'right', got {side!r}")
    return PermGroup(perms[g.generators()], g.order, elements=perms)


def opposite_group(g: GroupTable) -> GroupTable:
    return GroupTable(g.mul.T.copy(), g.name + "_op", g.generators())


def cocycle_decompose(N: GroupTable, M: PermGroup) -> tuple[np.ndarray, np.ndarray]:
    """Split each element of M, a subgroup of Hol(N) for N's table, into
    its translation and automorphism parts.

    Returns (pi, gamma) over M's sorted elements: pi[i] is the point the
    element sends the identity to, gamma[i] the image row of its stabilizer
    part.  Verifies M lies in Hol(N) (`in_holomorph`), so that every gamma
    row is an automorphism, that the gamma rows multiply like M (on
    generators, see `GroupTable.acts`), the twisted product law for
    generators against every element, and exact recomposition of the action.
    """
    P = M.elements.astype(np.int32)
    if M.degree != N.order or not in_holomorph(N, P).all():
        raise StructureError("subgroup does not live in this holomorph")
    t = N.mul
    pi = P[:, 0].copy()
    gamma = t[N.inv[pi][:, None], P].astype(np.int32)
    T = M.table()
    if not T.acts(gamma, "subgroup table"):
        raise ConsistencyError("automorphism parts do not multiply")
    gens = np.array(T.generators(), dtype=np.int64)
    # pi(s k) = pi(s) gamma_s(pi(k)) for each generator s and every element k
    if (pi[T.mul[gens]] != t[pi[gens][:, None], gamma[gens][:, pi]]).any():
        raise ConsistencyError("translation parts violate the twisted product law")
    if not np.array_equal(t[pi[:, None], gamma], P):
        raise ConsistencyError("decomposition does not recompose to the action")
    return pi, gamma


@pytest.fixture(scope="session")
def census():
    """Factory returning a cached DegreeCensus for a degree.

    Keyword options are forwarded to build_degree_census and participate
    in the cache key, so budget-limited variants do not collide with the
    default runs.
    """
    cache = {}

    def get(degree: int, **options):
        key = (degree, tuple(sorted(options.items())))
        if key not in cache:
            cache[key] = build_degree_census(degree, **options)
        return cache[key]

    return get


def _minimal_conjugate(T, elems: np.ndarray) -> tuple[int, ...]:
    """Lex-least sorted index tuple among all conjugates of a subgroup,
    by brute force over the whole group."""
    return min(tuple(np.sort(T.conj_many(g, elems)).tolist()) for g in range(T.order))


@pytest.fixture(scope="session")
def minimal_conjugate():
    """The brute-force canonical form that subgroup-class searches are checked against."""
    return _minimal_conjugate


def _subtable(T: GroupTable, indices) -> tuple[GroupTable, np.ndarray]:
    """The subgroup on `indices` as a table of its own, local index i
    standing for global index idx[i] (idx sorted); also returns idx."""
    idx = np.array(sorted(indices), dtype=np.int64)
    if idx[0] != 0:
        raise StructureError("subgroup must contain the identity (index 0)")
    back = np.full(T.order, -1, dtype=np.int64)
    back[idx] = np.arange(len(idx))
    local = back[T.mul[np.ix_(idx, idx)]]
    if local.min() < 0:
        raise StructureError("indices are not closed under multiplication")
    return GroupTable(local.astype(T.mul.dtype)), idx


def _record_table(rec) -> tuple[GroupTable, np.ndarray]:
    """A transitive record's k x k table, plus the mask of its point-0
    stabilizer: what the engine's searches on the holomorph table must
    agree with."""
    T, idx = _subtable(rec.ctx.table(), rec.indices)
    return T, rec.ctx.perms[idx, 0] == 0


def _conjugacy_classes(T: GroupTable) -> list[np.ndarray]:
    """Classes ordered by least element, each sorted: orbits under conjugation."""
    g = np.array(T.generators(), dtype=np.int64)
    lab = orbit_labels(T.conj_many(g[:, None], np.arange(T.order)))
    by_class = np.argsort(lab, kind="stable")
    return np.split(by_class, np.flatnonzero(np.diff(lab[by_class])) + 1)


@pytest.fixture(scope="session")
def subtable():
    """Subgroup tables built by relabelling a block of the group's table."""
    return _subtable


@pytest.fixture(scope="session")
def record_table():
    """The k x k table and stabilizer mask of a transitive record."""
    return _record_table


def _all_maps(search: IsoSearch) -> list[np.ndarray]:
    """Every map a search admits, listed by backtracking without stopping
    at the first: the listing the engine's chain counts are checked against."""
    if not search.feasible:
        return []
    if search.m == 1:
        return [np.zeros(1, dtype=np.int64)]
    phi = np.full(search.plan.total, -1, dtype=np.intp)
    phi[0] = 0
    cols = [range(len(c)) for c in search.cands]
    return search._descend(cols, 0, phi, [0] * len(cols), False)


@pytest.fixture(scope="session")
def all_maps():
    """The reference listing of every isomorphism a search admits."""
    return _all_maps


@pytest.fixture(scope="session")
def conjugacy_classes():
    """A table's conjugacy classes, the reference for the colours' class sizes."""
    return _conjugacy_classes


def fields_by_stabilizer_orbits(record) -> int:
    """Invariant blocks through 0 of a transitive record, from one atom per
    orbit of the point stabilizer G' (an element of G' maps every block
    through 0 onto itself) and their join closure: the reference for
    `intermediate_field_count`, which takes one atom per N_A(G)-orbit."""
    ctx = record.ctx
    n = ctx.n
    gens = ctx.perms[record.gens].tolist()
    lab = orbit_labels(ctx.perms[record.indices[record.stab_positions]])
    zero = frozenset([0])
    atoms = {_minimal_block(gens, n, zero, x) for x in np.flatnonzero(lab == np.arange(n))[1:].tolist()}
    blocks = {zero} | atoms
    frontier = list(atoms)
    while frontier:
        b = frontier.pop()
        for a in atoms:
            if not a <= b:
                joined = _minimal_block(gens, n, b, next(iter(a - b)))
                if joined not in blocks:
                    blocks.add(joined)
                    frontier.append(joined)
    return len(blocks)
