"""Explicit actions recovered from transitive holomorph subgroups.

A transitive subgroup M of Hol(N) acts on the points of N by evaluation.
This module materializes that action as a verified table (a skew bracoid),
splits it into its translation and automorphism parts, transports regular
actions onto the carrier of N (a skew brace), derives the set-theoretic
Yang-Baxter map of a brace, and realizes N as a regular subgroup of the
symmetric group on the points of an external acting group.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .catalog import CayleyGroup
from .errors import ConsistencyError, StructureError
from .holomorph import HolomorphContext
from .perm import Perm, PermGroup, compose, inverse, is_transitive
from .table import GroupTable


def _small_generating_set(elems_sorted: Sequence[Perm]) -> list[Perm]:
    """Small generating subset; keeps law checks near-linear in the order."""
    T = GroupTable.from_perms(elems_sorted)
    return [elems_sorted[i] for i in T.generators()] or [elems_sorted[0]]


@dataclass
class SkewBracoid:
    """A group acting transitively on the carrier of another group.

    `action[g, mu]` is the point of `target` reached by letting the acting
    group's element g move mu.  The compatibility law ties the action to the
    target's multiplication: moving a product equals the product of the moved
    factors with the image of the target's identity cancelled in between.
    """

    acting: GroupTable
    target: CayleyGroup
    action: np.ndarray
    reduced: bool

    @property
    def degree(self) -> int:
        return self.target.order

    def validate(self) -> None:
        m = self.acting.order
        n = self.target.order
        a = self.action
        if a.shape != (m, n):
            raise StructureError("bracoid: action table shape mismatch")
        rng = np.arange(n)
        if not np.array_equal(a[0], rng):
            raise StructureError("bracoid: acting identity does not fix points")
        for g in range(m):
            if not np.array_equal(a[self.acting.mul[g]], a[g][a]):
                raise StructureError("bracoid: action is not a group action")
        if len(set(a[:, 0].tolist())) != n:
            raise StructureError("bracoid: action is not transitive")
        t = self.target.table
        tinv = self.target.as_table().inv
        for g in range(m):
            row = a[g]
            lhs = row[t]
            rhs = t[np.ix_(t[row, tinv[row[0]]], row)]
            if not np.array_equal(lhs, rhs):
                raise ConsistencyError(f"bracoid: compatibility law fails for acting element {g}")

    def to_json_dict(self) -> dict:
        return {
            "kind": "skew_bracoid",
            "acting_order": int(self.acting.order),
            "degree": int(self.degree),
            "reduced": bool(self.reduced),
            "action": self.action.astype(int).tolist(),
        }


@dataclass
class SkewBrace:
    """One carrier with two compatible group operations sharing identity 0."""

    order: int
    add: np.ndarray
    circ: np.ndarray

    def validate(self) -> None:
        add = GroupTable(self.add)
        add.validate("brace additive table")
        GroupTable(self.circ).validate("brace circle table")
        t, c = self.add, self.circ
        neg = add.inv
        for x in range(self.order):
            # x o (y + z) == (x o y) - x + (x o z), grouped left to right
            lhs = c[x][t]
            rhs = t[np.ix_(t[c[x], neg[x]], c[x])]
            if not np.array_equal(lhs, rhs):
                raise ConsistencyError(f"brace: compatibility fails at element {x}")

    def to_json_dict(self) -> dict:
        return {
            "kind": "skew_brace",
            "order": int(self.order),
            "additive": self.add.astype(int).tolist(),
            "circle": self.circ.astype(int).tolist(),
        }


@dataclass
class YBESolution:
    """A set-theoretic Yang-Baxter map r(x, y) = (sigma[x][y], rho[y][x])."""

    order: int
    r: np.ndarray
    sigma: np.ndarray
    rho: np.ndarray

    def validate(self) -> None:
        n = self.order
        rng = np.arange(n)
        degenerate = (np.sort(self.sigma, axis=1) != rng).any(axis=1)
        degenerate |= (np.sort(self.rho, axis=1) != rng).any(axis=1)
        if degenerate.any():
            raise ConsistencyError(f"YBE map is degenerate at {int(np.argmax(degenerate))}")
        # (r x 1)(1 x r)(r x 1) against (1 x r)(r x 1)(1 x r) on every triple
        s, f = self.r[..., 0], self.r[..., 1]
        x, y, z = np.meshgrid(rng, rng, rng, indexing="ij", sparse=True)
        lx, ly, lz = s[x, y], f[x, y], z
        ly, lz = s[ly, lz], f[ly, lz]
        lx, ly = s[lx, ly], f[lx, ly]
        rx, ry, rz = x, s[y, z], f[y, z]
        rx, ry = s[rx, ry], f[rx, ry]
        ry, rz = s[ry, rz], f[ry, rz]
        bad = (lx != rx) | (ly != ry) | (lz != rz)
        if bad.any():
            raise ConsistencyError(
                f"braid relation fails at {tuple(int(v) for v in np.argwhere(bad)[0])}"
            )

    def to_json_dict(self) -> dict:
        n = self.order
        return {
            "kind": "ybe_solution",
            "order": int(n),
            "r": [[int(self.r[x, y, 0]), int(self.r[x, y, 1])]
                  for x in range(n) for y in range(n)],
            "sigma": self.sigma.astype(int).tolist(),
            "rho": self.rho.astype(int).tolist(),
        }


def bracoid_from_subgroup(
    ctx: HolomorphContext,
    M: PermGroup,
    delta: Optional[tuple[CayleyGroup, Sequence[Perm]]] = None,
) -> SkewBracoid:
    """Evaluation action of a transitive holomorph subgroup, as a bracoid.

    With `delta` omitted the acting group is M itself and the result is
    reduced.  Otherwise `delta = (G, images)` supplies a surjection from a
    group G onto M, `images[i]` being the holomorph element assigned to G's
    element i.
    """
    if not is_transitive(M):
        raise StructureError("bracoid requires a transitive subgroup")
    if delta is None:
        perms = M.sorted_elements
        acting = GroupTable.from_perms(perms)
        action = np.array(perms, dtype=np.int32)
        reduced = True
    else:
        g, images = delta
        if len(images) != g.order:
            raise StructureError("delta must assign an image to every element")
        images = [tuple(p) for p in images]
        if images[0] != tuple(range(M.degree)):
            raise StructureError("delta must send the identity to the identity")
        t = g.table
        for s in g.distinguished_generators:
            for j in range(g.order):
                if images[int(t[s, j])] != compose(images[s], images[j]):
                    raise StructureError("delta is not a homomorphism")
        if set(images) != set(M.elements):
            raise StructureError("delta is not a surjection onto the subgroup")
        acting = g.as_table()
        action = np.array(images, dtype=np.int32)
        reduced = len(set(images)) == g.order
    b = SkewBracoid(acting, ctx.group, action, reduced)
    b.validate()
    return b


def cocycle_decompose(ctx: HolomorphContext, M: PermGroup) -> tuple[np.ndarray, np.ndarray]:
    """Split each element into its translation and automorphism parts.

    Returns (pi, gamma) over M's sorted elements: pi[i] is the point the
    element sends the identity to, gamma[i] the image row of its stabilizer
    part.  Verifies gamma lands in the automorphism group, the twisted
    product law on generator pairs, and exact recomposition of the action.
    """
    if not M.elements <= ctx.hol.elements:
        raise StructureError("subgroup does not live in this holomorph")
    perms = M.sorted_elements
    m = len(perms)
    n = ctx.n
    aut_set = ctx.aut.elements
    pi = np.fromiter((p[0] for p in perms), dtype=np.int32, count=m)
    parts = []
    for p in perms:
        alpha = ctx.project_to_stabilizer(p)
        if alpha not in aut_set:
            raise ConsistencyError("stabilizer part is not an automorphism")
        parts.append(alpha)
    gamma = np.array(parts, dtype=np.int32)

    pos = {p: i for i, p in enumerate(perms)}
    t = ctx.group.table
    gens = list(M.generators) if len(M.generators) <= 16 else _small_generating_set(perms)
    for s in gens:
        i = pos[s]
        for j, k in enumerate(perms):
            prod = pos[compose(s, k)]
            if parts[prod] != compose(parts[i], parts[j]):
                raise ConsistencyError("automorphism parts do not multiply")
            if pi[prod] != t[pi[i], parts[i][pi[j]]]:
                raise ConsistencyError("translation parts violate the twisted product law")
    if not np.array_equal(t[pi[:, None], gamma], np.array(perms, dtype=np.int32)):
        raise ConsistencyError("decomposition does not recompose to the action")
    return pi, gamma


def brace_from_regular(ctx: HolomorphContext, M: PermGroup) -> SkewBrace:
    """Transport a regular subgroup's multiplication onto the carrier of N.

    The bijection is evaluation at the identity point; the carrier keeps N's
    own multiplication as the first operation and gains the subgroup's as the
    second.
    """
    n = ctx.n
    perms = M.sorted_elements
    if len(perms) != n or len({p[0] for p in perms}) != n:
        raise StructureError("brace transport requires a regular subgroup")
    circ = np.empty((n, n), dtype=np.int32)
    for p in perms:
        circ[p[0]] = p
    b = SkewBrace(n, ctx.group.table.astype(np.int32), circ)
    b.validate()
    return b


def trivial_brace(group: CayleyGroup) -> SkewBrace:
    """Both operations equal to the group's own multiplication."""
    t = group.table.astype(np.int32)
    b = SkewBrace(group.order, t, t.copy())
    b.validate()
    return b


def ybe_solution(b: SkewBrace) -> YBESolution:
    """Yang-Baxter map of a brace: r(x, y) = (-x + x o y, first^-1 o x o y).

    Inversions use the operation they belong to; products associate left to
    right.  The braid relation and non-degeneracy are checked on all triples.
    """
    n = b.order
    t, c = b.add, b.circ
    neg = GroupTable(t).inv
    cinv = GroupTable(c).inv
    sigma = np.empty((n, n), dtype=np.int32)
    rho = np.empty((n, n), dtype=np.int32)
    r = np.empty((n, n, 2), dtype=np.int32)
    for x in range(n):
        u = t[neg[x], c[x]]
        sigma[x] = u
        r[x, :, 0] = u
        r[x, :, 1] = c[c[cinv[u], x], np.arange(n)]
    for y in range(n):
        rho[y] = r[:, y, 1]
    sol = YBESolution(n, r, sigma, rho)
    sol.validate()
    return sol


def realize_regular_subgroup(
    M: PermGroup,
    ctx: HolomorphContext,
    phi: dict[Perm, Perm],
) -> PermGroup:
    """Regular image of N on the points of an external acting group.

    `phi` maps each element of a transitive group G (basepoint 0) onto M,
    respecting point stabilizers.  Points of G correspond to carrier points
    of N via evaluation at the basepoint; conjugating N's left translations
    through that bijection gives a regular subgroup normalized by G.
    """
    dom = list(phi.keys())
    if not dom:
        raise StructureError("empty isomorphism")
    deg = len(dom[0])
    g_elems = frozenset(dom)
    if len({phi[p] for p in dom}) != len(dom) or {phi[p] for p in dom} != set(M.elements):
        raise StructureError("map is not a bijection onto the subgroup")
    ident = tuple(range(deg))
    if ident not in g_elems or phi[ident] != tuple(range(M.degree)):
        raise StructureError("map does not preserve the identity")
    # homomorphism on generator pairs extends to all pairs by induction on words
    for s in _small_generating_set(sorted(dom)):
        for p in dom:
            q = compose(s, p)
            if q not in g_elems or phi[q] != compose(phi[s], phi[p]):
                raise StructureError("map is not a homomorphism")
    for p in dom:
        if (p[0] == 0) != (phi[p][0] == 0):
            raise StructureError("map does not respect point stabilizers")

    n = ctx.n
    if deg * sum(1 for p in dom if p[0] == 0) != len(dom) or deg != n:
        raise StructureError("coset space size does not match the carrier")
    bar = [-1] * n
    for p in dom:
        v = phi[p][0]
        if bar[p[0]] == -1:
            bar[p[0]] = v
        elif bar[p[0]] != v:
            raise StructureError("point correspondence is not well defined")
    bar_perm = tuple(bar)
    if sorted(bar_perm) != list(range(n)):
        raise StructureError("point correspondence is not a bijection")
    bar_inv = inverse(bar_perm)

    alphas = [compose(bar_inv, compose(ctx.embed_element(a), bar_perm)) for a in range(n)]
    alpha_set = frozenset(alphas)
    if len(alpha_set) != n or len({p[0] for p in alphas}) != n:
        raise ConsistencyError("realized image is not regular")
    for g in dom:
        for a in ctx.group.distinguished_generators:
            if compose(g, compose(alphas[a], inverse(g))) not in alpha_set:
                raise ConsistencyError("realized image is not normalized by the acting group")
    gens = [alphas[a] for a in ctx.group.distinguished_generators] or [alphas[0]]
    return PermGroup(gens, n, _elements=alpha_set)


__all__ = [
    "SkewBracoid",
    "SkewBrace",
    "YBESolution",
    "bracoid_from_subgroup",
    "cocycle_decompose",
    "brace_from_regular",
    "trivial_brace",
    "ybe_solution",
    "realize_regular_subgroup",
]
