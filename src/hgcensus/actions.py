"""Explicit actions recovered from transitive holomorph subgroups.

A transitive subgroup M of Hol(N) acts on the points of N by evaluation.
This module materializes that action as a verified table (a skew bracoid),
transports regular actions onto the carrier of N (a skew brace), derives
the set-theoretic Yang-Baxter map of a brace, and realizes N as a regular
subgroup of the symmetric group on the points of an external acting
group.  N is given
by its catalog `GroupTable`, whose `mul` is the carrier's first operation.

No function here builds Hol(N) or reads more of it than N's table.  M lies
in Hol(N) exactly when its generators pass `holomorph.in_holomorph`, which
is the compatibility law (see `SkewBracoid.validate`).  A reduced bracoid acts by
M's own sorted rows, proven to be the group M's generators generate; no
table of M is built.  Every other law is checked on the generators of a
table that has passed Light's test (`GroupTable.acts`), and a skew brace
is validated as the regular bracoid of its circle table, built once on
M's generators.  Tables are never changed in place and record a passed
`validate`, so N's catalog table, validated at load, is not checked again.

Each artifact's `payload()` holds its tables as the integer arrays it was
built and checked on, for the writer in `cli`; `to_json_dict()` is the
same payload with nested lists.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .classify import is_stab_respecting_iso
from .errors import ConsistencyError, StructureError
from .holomorph import HolomorphContext, in_holomorph
from .perm import PermGroup, orbit_labels, row_index
from .table import GroupTable


@dataclass
class SkewBracoid:
    """A group acting transitively on the carrier of another group.

    `action[g, mu]` is the point of `target` reached by letting the acting
    group's element g move mu; the acting group is a table over those rows,
    or a `PermGroup` whose sorted elements are the rows.  The compatibility
    law ties the action to the target's multiplication: moving a product
    equals the product of the moved factors with the image of the target's
    identity cancelled in between.
    """

    acting: Union[GroupTable, PermGroup]
    target: GroupTable
    action: np.ndarray
    reduced: bool

    @property
    def degree(self) -> int:
        return self.target.order

    def validate(self) -> None:
        """Check the action law, transitivity and compatibility.

        A permutation group's rows are proven to be the group its
        generators generate (`_generated_rows`); a table's action law is
        checked on its generators after Light's test (`GroupTable.acts`).
        Compatibility holds for g, with c = a[g](e) and psi = c^-1 a[g],
        exactly when psi is an automorphism of the target, that is, when
        a[g] lies in its holomorph (`in_holomorph`).  The passing elements
        are the preimage of the holomorph under g -> a[g], a subgroup, so
        generators suffice.
        """
        a, n = self.action, self.target.order
        if a.shape != (self.acting.order, n):
            raise StructureError("bracoid: action table shape mismatch")
        if not np.array_equal(a[0], np.arange(n)):
            raise StructureError("bracoid: acting identity does not fix points")
        if isinstance(self.acting, PermGroup):
            gens = _generated_rows(self.acting.generators, a)
        else:
            if not self.acting.acts(a, "bracoid acting group"):
                raise StructureError("bracoid: action is not a group action")
            gens = np.array(self.acting.generators(), dtype=np.int64)
        if not _covers_evenly(a[:, 0], n):
            raise StructureError("bracoid: action is not transitive")
        bad = ~in_holomorph(self.target, a[gens])
        if bad.any():
            g = int(gens[np.argmax(bad)])
            raise ConsistencyError(f"bracoid: compatibility law fails for acting element {g}")

    def payload(self) -> dict:
        return {
            "kind": "skew_bracoid",
            "acting_order": int(self.acting.order),
            "degree": int(self.degree),
            "reduced": bool(self.reduced),
            "action": self.action,
        }

    def to_json_dict(self) -> dict:
        return _as_lists(self.payload())


@dataclass
class SkewBrace:
    """One carrier with two compatible group operations sharing identity 0,
    held as the tables `add` and `circ` of the two operations."""

    add: GroupTable
    circ: GroupTable

    @property
    def order(self) -> int:
        return self.add.order

    def validate(self) -> None:
        """A brace is the regular bracoid of its circle group on the additive one."""
        self.add.validate("brace additive table")
        SkewBracoid(self.circ, self.add, self.circ.mul, True).validate()

    def payload(self) -> dict:
        return {
            "kind": "skew_brace",
            "order": int(self.order),
            "additive": self.add.mul,
            "circle": self.circ.mul,
        }

    def to_json_dict(self) -> dict:
        return _as_lists(self.payload())


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

    def payload(self) -> dict:
        n = self.order
        return {
            "kind": "ybe_solution",
            "order": int(n),
            "r": self.r.reshape(n * n, 2),
            "sigma": self.sigma,
            "rho": self.rho,
        }

    def to_json_dict(self) -> dict:
        return _as_lists(self.payload())


def _generated_rows(gens: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Positions of the permutations `gens` among `rows`, once the rows,
    strictly increasing with the identity first (checked by the caller),
    are proven to be <gens> in O(|rows| k).  If r.s is a row for every row
    r and generator s, then r -> r.s permutes the rows; if those maps join
    every row to the identity's, every row is a word in the generators,
    and a set holding the identity and closed under them holds every word.
    """
    m, n = rows.shape
    if gens.shape[1:] != (n,) or (np.sort(gens, axis=1) != np.arange(n)).any():
        raise StructureError("bracoid: a generator is not a permutation of the points")
    step = rows[1:].astype(np.int64) - rows[:-1]
    first = (step != 0).argmax(axis=1)
    if (step[np.arange(m - 1), first] <= 0).any():
        raise StructureError("bracoid: action rows are not strictly increasing")
    # maps[j, i] is the position of r_i . s_j, r_i after s_j
    maps = row_index(rows[:, gens].transpose(1, 0, 2).reshape(-1, n), rows).reshape(len(gens), m)
    if (maps < 0).any():
        raise StructureError("bracoid: action rows are not closed under the generators")
    if orbit_labels(maps).any():
        raise StructureError("bracoid: action rows are not generated from the identity")
    return maps[:, 0]


def _covers_evenly(points: np.ndarray, n: int) -> bool:
    """Whether `points` hold each of 0..n-1 equally often: the images of
    one point under a transitive group action, or under a regular set of
    permutations once each.  Checked by a sort, as a plain `np.unique`
    would import `numpy.ma` on its first call."""
    k, rest = divmod(len(points), n)
    return not rest and np.array_equal(np.sort(points), np.repeat(np.arange(n), k))


def _as_lists(payload: dict) -> dict:
    """An artifact's payload with every array as nested lists."""
    return {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in payload.items()}


def _table_of(N: Union[GroupTable, HolomorphContext]) -> GroupTable:
    """N's table.  A holomorph context is taken too and stands for its
    `group`: `perfbench/traced.py` replays the export with one."""
    return N.group if isinstance(N, HolomorphContext) else N


def bracoid_from_subgroup(
    N: Union[GroupTable, HolomorphContext],
    M: PermGroup,
    delta: Optional[tuple[GroupTable, Sequence[Sequence[int]]]] = None,
) -> SkewBracoid:
    """Evaluation action of a transitive subgroup M of Hol(N), as a bracoid.

    N is given by its table.  With `delta` omitted the acting group is M
    itself, proven on its own rows, and the result is reduced.  Otherwise
    `delta = (G, images)` supplies a surjection from a group G, given by
    its table, onto M, `images[i]` being the holomorph element assigned to
    G's element i.  Validation proves delta a homomorphism and M a transitive
    subgroup of Hol(N).
    """
    if delta is None:
        acting, action, reduced = M, M.elements, True
    else:
        acting, images = delta
        action = np.array(images, dtype=np.int32)
        image = np.unique(action, axis=0)
        if not np.array_equal(image, M.elements):
            raise StructureError("delta is not a surjection onto the subgroup")
        reduced = len(image) == acting.order
    b = SkewBracoid(acting, _table_of(N), action, reduced)
    b.validate()
    return b


def brace_from_regular(N: Union[GroupTable, HolomorphContext], M: PermGroup) -> SkewBrace:
    """Transport a regular subgroup of Hol(N) onto the carrier of N.

    The bijection is evaluation at the identity point: point x stands for
    the element of M sending 0 to x.  The carrier keeps N's table as the
    first operation and gains M's multiplication as the second, a table
    whose generators are M's own.  Validation proves M lies in Hol(N).
    """
    N = _table_of(N)
    n = N.order
    rows = M.elements
    if rows.shape != (n, n) or not _covers_evenly(rows[:, 0], n):
        raise StructureError("brace transport requires a regular subgroup")
    circ = np.empty((n, n), dtype=np.int32)
    circ[rows[:, 0]] = rows
    b = SkewBrace(N, GroupTable(circ, gens=M.generators[:, 0].tolist()))
    b.validate()
    return b


def trivial_brace(group: GroupTable) -> SkewBrace:
    """Both operations equal to the group's own multiplication."""
    b = SkewBrace(group, group)
    b.validate()
    return b


def ybe_solution(b: SkewBrace) -> YBESolution:
    """Yang-Baxter map of a brace: r(x, y) = (-x + x o y, first^-1 o x o y).

    Inversions use the operation they belong to, read from the brace's
    tables; products associate left to right.  The braid relation and
    non-degeneracy are checked on all triples.
    """
    n = b.order
    t, c = b.add.mul, b.circ.mul
    neg, cinv = b.add.inv, b.circ.inv
    x = np.arange(n)
    sigma = t[neg[:, None], c]
    tau = c[c[cinv[sigma], x[:, None]], x[None, :]]
    sol = YBESolution(n, np.stack([sigma, tau], axis=-1), sigma, tau.T)
    sol.validate()
    return sol


def realize_regular_subgroup(
    G: PermGroup,
    M: PermGroup,
    N: GroupTable,
    phi: np.ndarray,
) -> PermGroup:
    """Regular image of N, given by its table, on the points of an external acting group.

    `phi` is an index map over sorted elements: G's element i goes to M's
    element phi[i].  It must be an isomorphism of the transitive group G
    (basepoint 0) onto M respecting point stabilizers.  Points of G
    correspond to carrier points of N via evaluation at the basepoint;
    conjugating N's left translations through that bijection gives a
    regular subgroup normalized by G.  Normalization is checked on G's
    generators, since the elements that normalize a group form a subgroup.
    """
    P, Q = G.elements, M.elements
    if not is_stab_respecting_iso(phi, G.table(), P, Q):
        raise StructureError("map is not a stabilizer-respecting isomorphism onto the subgroup")
    n = N.order
    if P.shape[1] != n or n * int((P[:, 0] == 0).sum()) != len(P):
        raise StructureError("coset space size does not match the carrier")
    bar = np.full(n, -1, dtype=np.int64)
    bar[P[:, 0]] = Q[phi, 0]
    if not np.array_equal(bar[P[:, 0]], Q[phi, 0]):
        raise StructureError("point correspondence is not well defined")
    if not np.array_equal(np.sort(bar), np.arange(n)):
        raise StructureError("point correspondence is not a bijection")

    alphas = np.argsort(bar)[N.mul[:, bar]]  # bar^-1 . lambda_a . bar
    if not _covers_evenly(alphas[:, 0], n):
        raise ConsistencyError("realized image is not regular")
    for g in G.generators:
        if (row_index(g[alphas[:, np.argsort(g)]], alphas) < 0).any():
            raise ConsistencyError("realized image is not normalized by the acting group")
    gens = alphas[N.generators()]
    return PermGroup(gens, n, elements=alphas[np.lexsort(alphas.T[::-1])])


__all__ = [
    "SkewBracoid",
    "SkewBrace",
    "YBESolution",
    "bracoid_from_subgroup",
    "brace_from_regular",
    "trivial_brace",
    "ybe_solution",
    "realize_regular_subgroup",
]
