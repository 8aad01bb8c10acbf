"""Transitive subgroup classes of a holomorph, up to conjugacy.

Subgroup classes are found by ascending generation: starting from the
trivial subgroup, each stored class representative H is extended to
<H, x> for one x per orbit of the candidate space under two-sided
H-multiplication and normalizer conjugation (extensions by elements of
the same orbit land in the same conjugacy class).  Every conjugate of a
discovered subgroup is fingerprinted, so repeat classes are recognized
in O(1) regardless of which conjugate shows up.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from hashlib import blake2b
from typing import Optional

import numpy as np

from .errors import ConsistencyError, SearchBudgetError
from .holomorph import HolomorphContext
from .perm import PermGroup
from .table import GroupTable

DEFAULT_NODE_BUDGET = 10_000_000
DEFAULT_TIME_BUDGET = 1800.0


@dataclass
class SubgroupClass:
    """One conjugacy class of subgroups, held by its lex-least member."""

    indices: np.ndarray  # sorted element indices of the canonical member
    gens: list[int]
    normalizer: np.ndarray
    class_size: int

    @property
    def order(self) -> int:
        return len(self.indices)


def _digest(indices: np.ndarray) -> bytes:
    return blake2b(indices.astype(np.int32).tobytes(), digest_size=16).digest()


def minimal_conjugate(T: GroupTable, elems: np.ndarray) -> tuple[int, ...]:
    """Lex-least sorted index array among all conjugates of the subgroup.

    Brute force over the whole group; meant for cross-checks on small
    tables, not for the enumeration itself.
    """
    best = None
    for g in range(T.order):
        cand = tuple(np.sort(T.conj_many(g, elems)).tolist())
        if best is None or cand < best:
            best = cand
    return best


def subgroup_classes(
    T: GroupTable,
    node_budget: int = DEFAULT_NODE_BUDGET,
    time_budget: float = DEFAULT_TIME_BUDGET,
) -> list[SubgroupClass]:
    """All subgroup conjugacy classes of the tabled group.

    Raises SearchBudgetError when more than `node_budget` subgroup
    closures are attempted or `time_budget` seconds elapse.
    """
    m = T.order
    deadline = time.monotonic() + time_budget
    spent = 0

    registry: dict[bytes, int] = {}
    classes: list[SubgroupClass] = []
    queue: deque[int] = deque()

    def register(elems: np.ndarray, gens: list[int]) -> Optional[int]:
        d = _digest(elems)
        if d in registry:
            return None
        cid = len(classes)
        norm = T.normalizer_of(elems, gens)
        best: Optional[tuple] = None
        best_g = 0
        seen = np.zeros(m, dtype=bool)
        count = 0
        for g in range(m):
            if seen[g]:
                continue
            seen[T.mul[g, norm]] = True  # conjugate depends only on the coset g*norm
            conj = np.sort(T.conj_many(g, elems))
            registry[_digest(conj)] = cid
            count += 1
            tup = tuple(conj.tolist())
            if best is None or tup < best:
                best, best_g = tup, g
        canonical = np.array(best, dtype=np.int64)
        canon_gens = [int(T.conj(best_g, x)) for x in gens]
        canon_norm = np.sort(T.conj_many(best_g, norm))
        if count * len(norm) != m:
            raise ConsistencyError("conjugate count does not match normalizer index")
        classes.append(SubgroupClass(canonical, canon_gens, canon_norm, count))
        return cid

    trivial = register(np.array([0], dtype=np.int64), [])
    queue.append(trivial)

    while queue:
        cid = queue.popleft()
        cls = classes[cid]
        elems, gens = cls.indices, cls.gens
        if cls.order == m:
            continue
        maps = []
        for h in gens:
            maps.append(T.mul[h, :].astype(np.int64))
            maps.append(T.mul[:, h].astype(np.int64))
        rng = np.arange(m, dtype=np.int64)
        for ng in T.small_generating_set(cls.normalizer):
            conj_map = T._mul_flat[T.mul[ng, rng].astype(np.int64) * m + int(T.inv[ng])]
            maps.append(conj_map.astype(np.int64))
        processed = np.zeros(m, dtype=bool)
        processed[elems] = True
        for x0 in range(m):
            if processed[x0]:
                continue
            orbit = [x0]
            processed[x0] = True
            qi = 0
            while qi < len(orbit):
                y = orbit[qi]
                qi += 1
                for mp in maps:
                    z = int(mp[y])
                    if not processed[z]:
                        processed[z] = True
                        orbit.append(z)
            spent += 1
            if spent > node_budget:
                raise SearchBudgetError("subgroup closure budget exhausted", spent=spent, budget=node_budget)
            if spent % 256 == 0 and time.monotonic() > deadline:
                raise SearchBudgetError("subgroup search time budget exhausted", spent=spent, budget=node_budget)
            grown = T.extend_subgroup(elems, gens, x0)
            new_id = register(grown, gens + [x0])
            if new_id is not None:
                queue.append(new_id)

    order_key = [(c.order, tuple(c.indices.tolist())) for c in classes]
    return [classes[i] for i in sorted(range(len(classes)), key=lambda i: order_key[i])]


@dataclass
class TransitiveClassRecord:
    """A conjugacy class of transitive subgroups of a holomorph.

    The class is held by row indices into `ctx.perms`; `rep` and
    `stabilizer` are tuple-level views built on first use.
    """

    ctx: HolomorphContext
    indices: np.ndarray
    gens: list[int]
    class_size: int
    normalizer_order: int
    stabilizer_order: int
    regular: bool

    @property
    def order(self) -> int:
        return len(self.indices)

    @property
    def type_name(self) -> str:
        return self.ctx.group.name

    @cached_property
    def rep(self) -> PermGroup:
        perms = self.ctx.perms
        gens = [tuple(perms[g].tolist()) for g in self.gens or [0]]
        elems = frozenset(map(tuple, perms[self.indices].tolist()))
        return PermGroup(gens, self.ctx.n, _elements=elems)

    @cached_property
    def stabilizer(self) -> PermGroup:
        rows = self.ctx.perms[self.indices]
        return PermGroup.from_elements(map(tuple, rows[rows[:, 0] == 0].tolist()), self.ctx.n)

    @cached_property
    def _table_with_stab(self) -> tuple[GroupTable, np.ndarray]:
        T, _ = self.ctx.table().subtable(self.indices)
        return T, self.ctx.perms[self.indices, 0] == 0

    def table_with_stab(self) -> tuple[GroupTable, np.ndarray]:
        """Multiplication table of the class representative, plus a mask
        marking the point-0 stabilizer inside it.  Cached per record."""
        return self._table_with_stab


def enumerate_transitive_classes(
    ctx: HolomorphContext,
    node_budget: int = DEFAULT_NODE_BUDGET,
    time_budget: float = DEFAULT_TIME_BUDGET,
) -> list[TransitiveClassRecord]:
    """Transitive subgroup classes of Hol, sorted by (order, canonical member)."""
    all_classes = subgroup_classes(ctx.table(), node_budget, time_budget)
    img0 = ctx.perms[:, 0]
    n = ctx.n
    out = []
    for cls in all_classes:
        stab_order = int((img0[cls.indices] == 0).sum())
        if cls.order != stab_order * n:
            continue  # orbit of 0 is smaller than the whole domain
        out.append(
            TransitiveClassRecord(
                ctx=ctx,
                indices=cls.indices,
                gens=cls.gens,
                class_size=cls.class_size,
                normalizer_order=len(cls.normalizer),
                stabilizer_order=stab_order,
                regular=cls.order == n,
            )
        )
    return out


__all__ = [
    "SubgroupClass",
    "TransitiveClassRecord",
    "subgroup_classes",
    "minimal_conjugate",
    "enumerate_transitive_classes",
    "DEFAULT_NODE_BUDGET",
    "DEFAULT_TIME_BUDGET",
]
