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
`hol` group holds `perms` itself as its elements; `left` and `right` hold
the translation rows of N's table.  The same factorization gives the dense
table: `table()` multiplies (a . alpha)(b . beta) = (a alpha(b)) .
(alpha beta) with N's table and Aut(N)'s, and never looks up an image row.
"""

from __future__ import annotations

from functools import cached_property
from typing import Optional

import numpy as np

from .catalog import automorphism_group, regular_representation
from .errors import ConsistencyError
from .perm import PermGroup, row_index
from .table import GroupTable, check_budget, spot_check

_SPOT_CHECKS = 100

# rows of the product table filled per step, in int32: keeps the m-wide
# temporaries small next to the table itself
_ROW_BLOCK = 16


class HolomorphContext:
    """A group's table, its translation images, automorphisms, and their join."""

    def __init__(self, group: GroupTable):
        self.group = group
        self.n = group.order
        self.aut = automorphism_group(group)
        # images of 0 and the generator points determine a holomorph element
        self.base = [0] + [g for g in group.generators() if g != 0]
        t = group.mul
        auts = self.aut.elements.astype(t.dtype, copy=False)
        # raw row a*|A| + k is the translation by a after automorphism k
        raw = t[:, auts].reshape(self.n * len(auts), self.n)
        order = np.lexsort(raw.T[::-1])
        self.perms = raw[order]
        rank = np.empty(len(order), dtype=np.int32)
        rank[order] = np.arange(len(order))
        self._raw, self._rank = order.astype(np.int32), rank
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
        rng = np.random.default_rng(20260819)
        a, b = rng.integers(0, self.n, size=(2, _SPOT_CHECKS))
        alpha, beta = auts[rng.integers(0, len(auts), size=(2, _SPOT_CHECKS))]
        k = np.arange(_SPOT_CHECKS)[:, None]
        x = t[a[:, None], alpha]
        y = t[b[:, None], beta]
        c = t[a, alpha[k[:, 0], b]]
        if not np.array_equal(x[k, y], t[c[:, None], alpha[k, beta]]):
            raise ConsistencyError(f"{self.group.name}: holomorph product law fails")

    @cached_property
    def left(self) -> PermGroup:
        """Left translations x -> a*x."""
        return regular_representation(self.group, "left")

    @cached_property
    def right(self) -> PermGroup:
        """Right translations x -> x*a."""
        return regular_representation(self.group, "right")

    @cached_property
    def hol(self) -> PermGroup:
        """The holomorph as a permutation group whose elements are `perms`."""
        gens = np.concatenate([self.left.generators, self.aut.generators])
        return PermGroup(gens, self.n, elements=self.perms)

    @cached_property
    def base_subgroups(self) -> np.ndarray:
        """Membership mask of every subgroup of N, one row per subgroup."""
        subs = self.group.all_subgroups()
        member = np.zeros((len(subs), self.n), dtype=bool)
        for i, sub in enumerate(subs):
            member[i, sub] = True
        return member

    # -- dense table ----------------------------------------------------------

    def table(self) -> GroupTable:
        """Multiplication table of the holomorph over the rows of `perms`,
        from the product law (a . alpha)(b . beta) = (a alpha(b)) . (alpha beta).

        Row i is raw row a*|A| + k, the translation by a after automorphism
        k, so a product needs one entry of N's table and one of Aut(N)'s,
        and `rank` maps its raw row back to a row of `perms`.  The budget
        is checked before Aut(N)'s table is built.
        """
        if self._table is None:
            m = len(self.perms)
            check_budget(m)
            t = self.group.mul
            auts = self.aut.elements
            aut_mul = self.aut.table().mul
            a, k = np.divmod(self._raw, len(auts))
            mul = np.empty((m, m), dtype=np.int16 if m < 2**15 else np.int32)
            rank = self._rank.astype(mul.dtype)
            for lo in range(0, m, _ROW_BLOCK):
                ai, ki = a[lo : lo + _ROW_BLOCK], k[lo : lo + _ROW_BLOCK]
                c = t[ai[:, None], auts[ki]].astype(np.int32) * len(auts)  # a alpha(b) for every b
                raw = np.take(c, a, axis=1) + np.take(aut_mul[ki], k, axis=1)
                np.take(rank, raw, out=mul[lo : lo + _ROW_BLOCK])
            spot_check(self.perms, mul)
            self._table = GroupTable(mul)
        return self._table

    def __repr__(self) -> str:
        return f"HolomorphContext({self.group.name}, order={len(self.perms)})"


def build_holomorph(group: GroupTable) -> HolomorphContext:
    return HolomorphContext(group)


__all__ = ["HolomorphContext", "build_holomorph"]
