"""Transitive subgroup classes of a holomorph, up to conjugacy.

Subgroup classes are found by ascending generation: starting from the
trivial subgroup, each stored class representative H is extended to
<H, x> for one x per orbit of the candidate space under two-sided
H-multiplication and normalizer conjugation (extensions by elements of
the same orbit land in the same conjugacy class).  Every conjugate of a
discovered subgroup, one per coset of its normalizer (`_coset_leaders`
sweeps them), is registered by the exact bytes of its sorted indices, so
repeat classes are recognized in O(1) regardless of which conjugate
shows up, and two distinct subgroups never share a key.

<H, x> = <H, x^j> for every j coprime to the order of x, so once <H, x0>
is closed, every orbit holding a generator of <x0> is done: a later orbit
representative there could only give a conjugate of <H, x0>, already
registered, and is skipped without a closure.  The generators of each
cyclic subgroup (`_cyclic_families`) are found once per table.  Skipped
representatives come after x0, so every class keeps its first discoverer.

The search runs in waves: every class waiting in the queue is one wave.
The wave's candidates are listed first, class by class, then closed
together by `GroupTable.close_extensions`, a chunk of closures at a time,
and registered in the order they were listed.  The queue is first in,
first out and closures never read the registry, so classes are found,
numbered and kept exactly as by closing one candidate at a time.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .errors import ConsistencyError, SearchBudgetError
from .holomorph import HolomorphContext
from .perm import PermGroup, orbit_labels
from .table import GroupTable, index_dtype

DEFAULT_NODE_BUDGET = 10_000_000
DEFAULT_TIME_BUDGET = 1800.0


@dataclass
class SubgroupClass:
    """One conjugacy class of subgroups, held by its lex-least member."""

    indices: np.ndarray  # sorted element indices of the canonical member
    gens: list[int]
    normalizer: np.ndarray
    normalizer_gens: list[int]  # generate `normalizer`: `gens`, then greedy extras from its sorted elements
    class_size: int

    @property
    def order(self) -> int:
        return len(self.indices)


def subgroup_classes(
    T: GroupTable,
    node_budget: int = DEFAULT_NODE_BUDGET,
    time_budget: float = DEFAULT_TIME_BUDGET,
    started: Optional[float] = None,
) -> list[SubgroupClass]:
    """All subgroup conjugacy classes of the tabled group.

    Each new class H, met through its sorted elements and generators, gets
    its normalizer N(H) and N(H)'s generators: H's own `gens`, then a greedy
    pass over N(H)'s sorted elements from H.  Its conjugates g H g^-1 come
    one per coset g N(H), each led by its least element (`_coset_leaders`).
    The class keeps the lex-least conjugate.

    Raises SearchBudgetError when more than `node_budget` candidates are
    tried or `time_budget` seconds elapse since `started`, a
    `time.monotonic()` reading (default: entry); the clock is read every
    256 candidates while a wave's candidates are listed, and between the
    chunks of its closures.  A caller that passes its own start runs several
    searches on one clock, each getting only the time left.  A candidate
    skipped because its cyclic family's extension is already closed counts
    like a closed one, so the budgets stop at the same candidate as a
    search without skips.
    """
    m = T.order
    start = time.monotonic() if started is None else started
    spent = 0

    def check_clock() -> None:
        if (elapsed := time.monotonic() - start) > time_budget:
            raise SearchBudgetError("subgroup search time budget exhausted", spent=elapsed, budget=time_budget)

    rng = np.arange(m, dtype=np.int64)
    key_dtype = index_dtype(m)
    # the members of x's cyclic family, the generators of <x>, are
    # by_family[first[x]:last[x]]
    family = _cyclic_families(T)
    by_family = np.argsort(family, kind="stable")
    first = np.searchsorted(family[by_family], family, "left")
    last = np.searchsorted(family[by_family], family, "right")
    registry: dict[bytes, int] = {}
    classes: list[SubgroupClass] = []
    queue: list[int] = []  # ids of the classes the next wave extends

    def register(elems: np.ndarray, gens: list[int]) -> None:
        if elems.astype(key_dtype).tobytes() in registry:
            return
        cid = len(classes)
        norm = T.normalizer_of(elems, gens)
        reps = _coset_leaders(T, norm)
        if len(reps) * len(norm) != m:
            raise ConsistencyError("conjugate count does not match normalizer index")
        conjs = np.sort(T.conj_many(reps[:, None], elems), axis=1)
        for row in conjs.astype(key_dtype):
            registry[row.tobytes()] = cid
        best = np.lexsort(conjs.T[::-1])[0]  # distinct cosets give distinct rows
        g = int(reps[best])
        classes.append(
            SubgroupClass(
                conjs[best].astype(np.int64),
                [T.conj(g, x) for x in gens],
                np.sort(T.conj_many(g, norm)),
                [T.conj(g, x) for x in T.small_generating_set(norm, start=(elems, gens))],
                len(reps),
            )
        )
        queue.append(cid)

    register(np.array([0], dtype=np.int64), [])
    while queue:
        wave, queue = queue, []
        subgroups: list[tuple[np.ndarray, list[int]]] = []
        jobs: list[tuple[int, int]] = []
        for cid in wave:
            cls = classes[cid]
            if cls.order == m:
                continue
            lab = orbit_labels(_candidate_maps(T, cls.gens, cls.normalizer_gens))
            in_h = np.zeros(m, dtype=bool)
            in_h[cls.indices] = True
            done = np.zeros(m, dtype=bool)  # orbit labels whose extension is listed
            for x0 in np.flatnonzero((lab == rng) & ~in_h).tolist():
                spent += 1
                if spent > node_budget:
                    raise SearchBudgetError("subgroup closure budget exhausted", spent=spent, budget=node_budget)
                if spent % 256 == 0:
                    check_clock()
                if done[x0]:
                    continue
                done[lab[by_family[first[x0] : last[x0]]]] = True
                jobs.append((len(subgroups), x0))
            subgroups.append((cls.indices, cls.gens))
        listed, closed = iter(jobs), 0
        for chunk in T.close_extensions(subgroups, jobs):
            for elems, (s, x0) in zip(chunk, listed):
                register(elems, subgroups[s][1] + [x0])
            closed += len(chunk)
            if closed < len(jobs):  # before the wave's next chunk
                check_clock()

    order_key = [(c.order, tuple(c.indices.tolist())) for c in classes]
    return [classes[i] for i in sorted(range(len(classes)), key=lambda i: order_key[i])]


def _coset_leaders(T: GroupTable, norm: np.ndarray) -> np.ndarray:
    """The least element of each left coset g N, in increasing order: a
    conjugate g H g^-1 of a subgroup H with normalizer N depends only on
    g N.  The cosets are swept, each from the least element not yet
    covered, so a normal H takes one step."""
    m = T.order
    covered = np.zeros(m, dtype=bool)
    reps = []
    g = 0
    while not covered[g]:
        reps.append(g)
        covered[T.mul[g, norm]] = True
        g = int(covered.argmin())  # the least uncovered element, else 0
    return np.array(reps, dtype=np.int64)


def _candidate_maps(T: GroupTable, gens: Sequence[int], normalizer_gens: Sequence[int]) -> np.ndarray:
    """Maps whose orbits are the candidate orbits of a subgroup H.

    Left and right multiplication by H and conjugation by N_G(H) preserve H
    and send <H, x> to a conjugate of it, so one extension per orbit
    suffices.  Conjugation by h in H is left multiplication by h after
    right multiplication by h^-1, so besides H's generators `gens` only the
    normalizer's extras, `normalizer_gens` past its prefix `gens`, need a
    conjugation row.
    """
    rng = np.arange(T.order, dtype=np.int64)
    h = np.array(gens, dtype=np.int64)[:, None]
    extra = np.array(normalizer_gens[len(gens):], dtype=np.int64)[:, None]
    return np.concatenate([T.mul[h, rng], T.mul[rng, h], T.conj_many(extra, rng)])


def _cyclic_families(T: GroupTable) -> np.ndarray:
    """For each element x, the least y with <y> = <x>: the least x^j over
    the j coprime to the order of x, one vectorized power step per j up to
    the largest element order."""
    rng = np.arange(T.order, dtype=np.int64)
    orders = T.elem_order
    family = rng.copy()
    power = rng
    for j in range(2, int(orders.max())):
        power = T.mul[power, rng].astype(np.int64)  # x^j
        family = np.where(np.gcd(j, orders) == 1, np.minimum(family, power), family)
    return family


@dataclass
class TransitiveClassRecord:
    """A conjugacy class of transitive subgroups of a holomorph.

    The class is held by row indices into `ctx.perms`, which are also its
    indices into the holomorph table; `rep` and `stabilizer` are groups on
    slices of those rows, built on first use.  `aut_normalizer` is N_A(G),
    the point-0 stabilizer of the representative's normalizer: the
    automorphisms of N that normalize G, sorted, `normalizer_order / n`
    indices.
    `colours`, the representative's element colours, are set by
    `enumerate_transitive_classes`, one pass per holomorph.  Searches run
    on the holomorph table (`side`); the representative never gets a table
    of its own.
    """

    ctx: HolomorphContext
    indices: np.ndarray
    gens: list[int]
    class_size: int
    aut_normalizer: np.ndarray
    stabilizer_order: int
    regular: bool

    @property
    def order(self) -> int:
        return len(self.indices)

    @property
    def normalizer_order(self) -> int:
        """|N_Hol(G)| = n |N_A(G)|: the normalizer is transitive, as G is."""
        return self.ctx.n * len(self.aut_normalizer)

    @property
    def type_name(self) -> str:
        return self.ctx.group.name

    @cached_property
    def rep(self) -> PermGroup:
        perms = self.ctx.perms
        return PermGroup(perms[self.gens], self.ctx.n, elements=perms[self.indices])

    @cached_property
    def stabilizer(self) -> PermGroup:
        rows = self.rep.elements
        stab = rows[rows[:, 0] == 0]
        return PermGroup(stab[1:], self.ctx.n, elements=stab)

    @cached_property
    def colours(self) -> np.ndarray:
        """Colours of the representative's elements in index order, read
        off the holomorph table (`GroupTable.subgroup_colours`): set at
        enumeration, and computed alone only for a record without them."""
        return self.ctx.table().subgroup_colours([(self.indices, self.gens)])[0]

    @property
    def side(self) -> tuple[GroupTable, np.ndarray, np.ndarray]:
        """The representative as an `IsoSearch` side: the holomorph table,
        the record's indices into it and their colours."""
        return self.ctx.table(), self.indices, self.colours

    @cached_property
    def stab_positions(self) -> np.ndarray:
        """Positions in `indices` of the point-0 stabilizer."""
        return np.flatnonzero(self.ctx.perms[self.indices, 0] == 0)


def enumerate_transitive_classes(
    ctx: HolomorphContext,
    node_budget: int = DEFAULT_NODE_BUDGET,
    time_budget: float = DEFAULT_TIME_BUDGET,
    started: Optional[float] = None,
) -> list[TransitiveClassRecord]:
    """Transitive subgroup classes of Hol, sorted by (order, canonical
    member), each with its colours, which one `subgroup_colours` pass over
    every record sets.  The budgets and `started` are `subgroup_classes`'s."""
    T = ctx.table()
    img0 = ctx.perms[:, 0]
    n = ctx.n
    out = []
    for cls in subgroup_classes(T, node_budget, time_budget, started):
        stab_order = int((img0[cls.indices] == 0).sum())
        if cls.order != stab_order * n:
            continue  # orbit of 0 is smaller than the whole domain
        out.append(
            TransitiveClassRecord(
                ctx=ctx,
                indices=cls.indices,
                gens=cls.gens,
                class_size=cls.class_size,
                aut_normalizer=cls.normalizer[img0[cls.normalizer] == 0],
                stabilizer_order=stab_order,
                regular=cls.order == n,
            )
        )
    for rec, colours in zip(out, T.subgroup_colours([(rec.indices, rec.gens) for rec in out])):
        rec.colours = colours
    return out


__all__ = [
    "SubgroupClass",
    "TransitiveClassRecord",
    "subgroup_classes",
    "enumerate_transitive_classes",
    "DEFAULT_NODE_BUDGET",
    "DEFAULT_TIME_BUDGET",
]
