"""Holomorph of a finite group as a permutation group on the group itself.

For a group N of order n, given as its catalog `GroupTable`, acting on its
own elements 0..n-1 (identity at 0), the holomorph is generated by left
translations and automorphisms.  Every element x factors uniquely as
x = translation(x(0)) followed by an automorphism, so the element set is
built by direct products rather than closure; consistency of the
factorization is spot-checked at build time.

Inside the engine the holomorph is one integer image matrix `perms`: row i
holds the point images of element i, rows in lexicographic order.  Table
indices, subgroup classes and records all refer to these row numbers.  The
`hol` group holds `perms` itself as its elements; whether a row lies in
Hol(N) is decided from N's table alone, by `in_holomorph`.  The same
factorization gives the product table, and this module is the only place
that knows it: x = a . alpha multiplies as x y = a (alpha y), so `table()`
builds the n translation rows and |Aut N| automorphism rows from N's table
and Aut(N)'s, never looking up an image row.  A small holomorph fills out
its m x m table from them; a large one keeps only those rows
(`table.FactoredMul`).
"""

from __future__ import annotations

from functools import cached_property
from typing import Optional

import numpy as np

from .catalog import automorphism_group
from .errors import ConsistencyError
from .perm import PermGroup, row_index
from .table import FactoredMul, GroupTable, _mix, _rows, check_budget, index_dtype, sample_indices, spot_check

_SPOT_CHECKS = 100

# Largest holomorph whose table is filled out densely, m^2 int16 cells
# (8 MB here).  Above it the table keeps only its n + |Aut N| translation
# and automorphism rows and every product costs two lookups: Hol(C77)'s
# 4620 elements keep 137 rows (1.3 MB) instead of 40.7 MB.  Below it the
# searches are dominated by many tiny products, where one lookup pays, and
# the table stays small next to the interpreter; every holomorph of degrees
# 2-15 (at most 1344 elements) and Hol(C41) (1640) is dense.
_DENSE_MAX = 2048


class HolomorphContext:
    """A group's table, its translation images, automorphisms, and their join."""

    def __init__(self, group: GroupTable):
        self.group = group
        self.n = group.order
        self.aut = automorphism_group(group)
        t = group.mul
        auts = self.aut.elements.astype(t.dtype, copy=False)
        # raw row a*|A| + k is the translation by a after automorphism k
        raw = t[:, auts].reshape(self.n * len(auts), self.n)
        order = np.lexsort(raw.T[::-1])
        self.perms = raw[order]
        rank = np.empty(len(order), dtype=np.int32)
        rank[order] = np.arange(len(order))
        self._raw, self._rank = order.astype(np.int32), rank
        # automorphism 0 is the identity, the least row of `auts`
        self.left_indices = rank[np.arange(self.n) * len(auts)]
        if not np.array_equal(self.perms[self.left_indices], t):
            raise ConsistencyError(f"{self.group.name}: left translation rows do not act as x -> b*x")
        self.right_indices = self._right_translation_rows(t, auts, rank)
        self._verify(t, auts)
        self._table: Optional[GroupTable] = None

    def _right_translation_rows(self, t: np.ndarray, auts: np.ndarray, rank: np.ndarray) -> np.ndarray:
        """Sorted row indices of the right translations x -> x*b.

        x*b = b * (b^-1 x b), so the right translation by b is the left
        translation by b after the inner automorphism of b^-1.
        """
        b = np.arange(self.n)
        k = row_index(t[t[self.group.inv], b[:, None]], auts)  # row b: x -> b^-1 x b
        if (k < 0).any():
            raise ConsistencyError(f"{self.group.name}: right translation not in holomorph")
        rows = rank[b * len(auts) + k]
        if not np.array_equal(self.perms[rows], t.T):
            raise ConsistencyError(f"{self.group.name}: right translation rows do not act as x -> x*b")
        return np.sort(rows)

    def _verify(self, t: np.ndarray, auts: np.ndarray) -> None:
        perms = self.perms
        if len(perms) > 1 and not (perms[1:] != perms[:-1]).any(axis=1).all():
            raise ConsistencyError(
                f"{self.group.name}: holomorph has repeated elements, "
                f"expected {self.n} * {self.aut.order} distinct"
            )
        if not np.array_equal(perms[perms[:, 0] == 0], auts):
            raise ConsistencyError(f"{self.group.name}: point stabilizer is not the automorphism group")
        # (a . alpha)(b . beta) = (a alpha(b)) . (alpha beta) on sampled pairs
        a, b = (sample_indices(_SPOT_CHECKS, self.n, stream) for stream in (3, 4))
        alpha, beta = (auts[sample_indices(_SPOT_CHECKS, len(auts), stream)] for stream in (5, 6))
        k = np.arange(_SPOT_CHECKS)[:, None]
        x = t[a[:, None], alpha]
        y = t[b[:, None], beta]
        c = t[a, alpha[k[:, 0], b]]
        if not np.array_equal(x[k, y], t[c[:, None], alpha[k, beta]]):
            raise ConsistencyError(f"{self.group.name}: holomorph product law fails")

    @cached_property
    def hol(self) -> PermGroup:
        """The holomorph as a permutation group whose elements are `perms`."""
        gens = np.concatenate([self.group.mul[self.group.generators()], self.aut.generators])
        return PermGroup(gens, self.n, elements=self.perms)

    @cached_property
    def fixed_points(self) -> np.ndarray:
        """Number of points each row of `perms` fixes."""
        return (self.perms == np.arange(self.n)).sum(axis=1)

    @cached_property
    def cycle_types(self) -> np.ndarray:
        """One uint64 id per row of `perms` for its cycle type on the n
        points: the `_mix` of the fixed-point counts of x, x^2, ..., x^n,
        which determine the cycle type and are determined by it (x^k fixes
        the points of the cycles whose length divides k).  The id depends
        on the permutation alone, so it compares across the holomorphs of
        one degree; a collision only merges ids.  Each power is one table
        gather, so every temporary is one entry per row."""
        T = self.table()
        rng = np.arange(len(self.perms), dtype=np.int64)
        fix = self.fixed_points.astype(np.uint64)
        ids, power = fix, rng
        for _ in range(1, self.n):
            power = T.mul[power, rng]
            ids = _mix(ids, fix[power])
        return ids

    @cached_property
    def base_subgroups(self) -> np.ndarray:
        """Membership mask of every subgroup of N, one row per subgroup."""
        subs = self.group.all_subgroups()
        member = np.zeros((len(subs), self.n), dtype=bool)
        for i, sub in enumerate(subs):
            member[i, sub] = True
        return member

    # -- product table --------------------------------------------------------

    def table(self) -> GroupTable:
        """Multiplication table of the holomorph over the rows of `perms`,
        from the product law (a . alpha)(b . beta) = (a alpha(b)) . (alpha beta).

        Element x = a . alpha (raw row a*|A| + k, the translation by a after
        automorphism k) multiplies as x y = a (alpha y), so the n translation
        rows and the |A| automorphism rows of the table give every product:
        one entry of N's table or of Aut(N)'s per kept cell, and `rank` maps
        its raw row back to a row of `perms`.  Up to `_DENSE_MAX` elements
        the table is filled out from the kept rows, one gather per
        automorphism; above it the table keeps only them (`FactoredMul`)
        and takes its inverses from the law, (a . alpha)^-1 =
        alpha^-1(a^-1) . alpha^-1.  The budget is checked before Aut(N)'s
        table is built.
        """
        if self._table is None:
            m = len(self.perms)
            check_budget(m)
            n, n_aut = self.n, self.aut.order
            aut_table = self.aut.table()
            a, k = np.divmod(self._raw, n_aut)
            dtype = index_dtype(m)
            rank = self._rank.astype(dtype)
            # kept row r maps b . beta to point[r, b] . aut_of[r, beta]: the
            # translations (a b) . beta, then the automorphisms alpha(b) . (alpha beta)
            point = np.concatenate([self.group.mul, self.aut.elements], dtype=np.int32)
            aut_of = np.concatenate([np.tile(np.arange(n_aut), (n, 1)), aut_table.mul], dtype=np.int32)
            rows = np.empty((n + n_aut, m), dtype=dtype)
            step = _rows(m, 4)  # kept rows of int32 raw indices per block
            for lo in range(0, n + n_aut, step):
                hi = lo + step
                raw = np.take(point[lo:hi], a, axis=1) * n_aut + np.take(aut_of[lo:hi], k, axis=1)
                np.take(rank, raw, out=rows[lo:hi])
            if m <= _DENSE_MAX:
                # the n elements a . alpha_j sharing automorphism j take one
                # gather: row x is rows[a[x]] read at rows[n + j]
                dense = np.empty((m, m), dtype=dtype)
                for j, xs in enumerate(np.argsort(k, kind="stable").reshape(n_aut, n)):
                    dense[xs] = np.take(rows[a[xs]], rows[n + j], axis=1)
                table = GroupTable(dense)
            else:
                k_inv = aut_table.inv[k]
                inv = rank[self.aut.elements[k_inv, self.group.inv[a]].astype(np.int32) * n_aut + k_inv]
                table = GroupTable(FactoredMul(rows, a, n + k), inv=inv)
            spot_check(self.perms, table.mul)
            self._table = table
        return self._table

    def __repr__(self) -> str:
        return f"HolomorphContext({self.group.name}, order={len(self.perms)})"


def build_holomorph(group: GroupTable) -> HolomorphContext:
    return HolomorphContext(group)


def in_holomorph(N: GroupTable, rows) -> np.ndarray:
    """Whether each row, the images of N's points, lies in Hol(N): whether
    it is a bijection r with psi = r(0)^-1 r, which fixes 0, an automorphism
    of N.  After N passes `validate` (Light's test) the g with
    psi(g x) = psi(g) psi(x) for all x form a subgroup, so the law is
    checked on N's generators only, as in `GroupTable.acts`."""
    N.validate(N.name)
    n = N.order
    rows = np.asarray(rows, dtype=np.int64).reshape(-1, n)
    ok = (np.sort(rows, axis=1) == np.arange(n)).all(axis=1)
    rows = np.where(ok[:, None], rows, np.arange(n))  # keep indexing in range
    t, g = N.mul, np.array(N.generators(), dtype=np.int64)
    psi = t[N.inv[rows[:, 0]][:, None], rows]
    return ok & (psi[:, t[g]] == t[psi[:, g][:, :, None], psi[:, None, :]]).all(axis=(1, 2))


__all__ = ["HolomorphContext", "build_holomorph", "in_holomorph"]
