"""Holomorph of a finite group as a permutation group on the group itself.

For a group N of order n acting on its own elements 0..n-1 (identity at 0),
the holomorph is generated by left translations and automorphisms.  Every
element x factors uniquely as x = translation(x(0)) followed by an
automorphism, so the element set is built by direct products rather than
closure; consistency of the factorization is spot-checked at build time.

Inside the engine the holomorph is one integer image matrix `perms`: row i
holds the point images of element i, rows in lexicographic order.  Table
indices, subgroup classes and records all refer to these row numbers;
permutation tuples are built only on request, through the `hol` view.
"""

from __future__ import annotations

from functools import cached_property
from typing import Optional

import numpy as np

from .catalog import CayleyGroup, automorphism_group, regular_representation
from .errors import ConsistencyError
from .perm import Perm, PermGroup, compose, inverse
from .table import DEFAULT_TABLE_BUDGET, GroupTable

_SPOT_CHECKS = 100


class HolomorphContext:
    """A group, its translation images, automorphisms, and their join."""

    def __init__(self, group: CayleyGroup):
        self.group = group
        self.n = group.order
        self.left = regular_representation(group, "left")
        self.right = regular_representation(group, "right")
        self.aut = automorphism_group(group)
        t = np.asarray(group.table)
        auts = np.array(self.aut.sorted_elements, dtype=t.dtype)
        # raw row a*|A| + k is the translation by a after automorphism k
        raw = t[:, auts].reshape(self.n * len(auts), self.n)
        order = np.lexsort(raw.T[::-1])
        self.perms = raw[order]
        rank = np.empty(len(order), dtype=np.int64)
        rank[order] = np.arange(len(order))
        self.right_indices = self._right_translation_rows(t, auts, rank)
        self._verify(t, auts)
        self._table: Optional[GroupTable] = None

    def _right_translation_rows(self, t: np.ndarray, auts: np.ndarray, rank: np.ndarray) -> np.ndarray:
        """Sorted row indices of the right translations x -> x*b.

        x*b = b * (b^-1 x b), so the right translation by b is the left
        translation by b after the inner automorphism of b^-1.
        """
        inv = np.argmax(t == 0, axis=1)
        aut_pos = {row.tobytes(): k for k, row in enumerate(auts)}
        rows = []
        for b in range(self.n):
            k = aut_pos.get(t[t[inv[b]], b].tobytes())
            if k is None:
                raise ConsistencyError(f"{self.group.name}: right translation not in holomorph")
            rows.append(rank[b * len(auts) + k])
        rows = np.array(rows, dtype=np.int64)
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
        rng = np.random.default_rng(20260819)
        for _ in range(_SPOT_CHECKS):
            a, b = rng.integers(0, self.n, size=2)
            alpha = auts[rng.integers(0, len(auts))]
            beta = auts[rng.integers(0, len(auts))]
            x = t[a][alpha]
            y = t[b][beta]
            c = t[a, alpha[b]]
            if not np.array_equal(x[y], t[c][alpha[beta]]):
                raise ConsistencyError(f"{self.group.name}: holomorph product law fails")

    @cached_property
    def hol(self) -> PermGroup:
        """The holomorph as a tuple-level permutation group, built on first use."""
        gens = list(self.left.generators) + list(self.aut.generators)
        return PermGroup(gens, self.n, _elements=frozenset(map(tuple, self.perms.tolist())))

    @cached_property
    def base_subgroups(self) -> np.ndarray:
        """Membership mask of every subgroup of N, one row per subgroup."""
        subs = self.group.as_table().all_subgroups()
        member = np.zeros((len(subs), self.n), dtype=bool)
        for i, sub in enumerate(subs):
            member[i, sub] = True
        return member

    # -- dense table ----------------------------------------------------------

    def table(self, table_budget: int = DEFAULT_TABLE_BUDGET) -> GroupTable:
        """Multiplication table of the holomorph over the rows of `perms`."""
        if self._table is None:
            # images of 0 and the generator points determine a holomorph element
            base = [0] + [g for g in self.group.distinguished_generators if g != 0]
            self._table = GroupTable.from_perms(self.perms, table_budget, base=base)
        return self._table

    # -- element operations ----------------------------------------------------

    def embed_element(self, a: int) -> Perm:
        """Left translation by group element a."""
        return tuple(int(v) for v in self.group.table[a])

    def project_to_stabilizer(self, x: Perm) -> Perm:
        """Automorphism part of x under the translation/stabilizer factorization."""
        return compose(inverse(self.embed_element(x[0])), x)

    def __repr__(self) -> str:
        return f"HolomorphContext({self.group.name}, order={len(self.perms)})"


def build_holomorph(group: CayleyGroup) -> HolomorphContext:
    return HolomorphContext(group)


__all__ = ["HolomorphContext", "build_holomorph"]
