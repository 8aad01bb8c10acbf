"""Isomorphism and automorphism search on indexed groups.

Backtracking over generator images.  Every element carries one key,
2 * colour + mark: the colour is `GroupTable.colours()`, an invariant every
isomorphism preserves, and the mark is an exact low bit for membership in
an optional marked subset on each side.  Equal sorted keys are necessary
for a map to exist, candidate images of a generator are the elements of
T2 with its key, and each level checks the keys of the elements it maps
first.  That is how stabilizer-respecting isomorphism and marked
automorphism counts share one engine; a further invariant, such as cycle
type on the points, would be one more key column next to the mark.
Partial maps are extended level by level along a precomputed breadth tree
and every (element, generator) product is verified before descending, so
dead branches die early.  That check is the only pruning besides the keys:
a test on the orders of short words such as g_j g_i would only repeat
conditions the verified products already enforce.

Counts never list the maps.  For the generator sequence g_1..g_k,
|Aut(T, marked)| is the product over i of the orbit size of g_i under the
automorphisms fixing g_1..g_{i-1} (orbit-stabilizer; Holt, Eick & O'Brien,
Handbook of Computational Group Theory, ch. 4).  Levels are done from k
down to 1, each candidate image b of g_i costing one "first" search with
g_1..g_{i-1} pinned to themselves and g_i to b.  Every automorphism found
so far fixes g_1..g_{i-1}, so a found witness puts the whole orbit of b
under them into the orbit of g_i and a failed search rules the whole orbit
of b out; no other point of that orbit is searched.  Between different
tables the isomorphisms form one coset of Aut(T2, marked2), so the count
is 0 or that group's chain count.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .perm import orbit_labels
from .table import GroupTable


class _Level:
    __slots__ = ("elems", "n_old", "build", "verify", "new_pos")

    def __init__(self, elems, n_old, build, verify, new_pos):
        self.elems = elems          # global indices, position-ordered
        self.n_old = n_old          # prefix length shared with previous level
        self.build = build          # [(gen_slot, parent_pos, target_pos), ...]
        self.verify = verify        # [(gen_slot, x_pos, xg_pos), ...]
        self.new_pos = new_pos      # positions first seen at this level


class _SourcePlan:
    """Breadth trees and verification pairs for one generating sequence."""

    def __init__(self, T: GroupTable, gens: list[int]):
        self.T = T
        self.gens = gens
        self.levels: list[_Level] = []
        elems: list[int] = [0]
        pos_of = {0: 0}
        for i, g in enumerate(gens):
            n_old = len(elems)
            build = []
            frontier = list(range(n_old))
            first = True
            while frontier:
                nxt: list[int] = []
                slots = [i] if first else list(range(i + 1))
                for j in slots:
                    gj = gens[j]
                    parents, targets = [], []
                    for p in frontier:
                        t = int(T.mul[elems[p], gj])
                        if t not in pos_of:
                            pos_of[t] = len(elems)
                            elems.append(t)
                            parents.append(p)
                            targets.append(pos_of[t])
                            nxt.append(pos_of[t])
                    if parents:
                        build.append((j, np.array(parents), np.array(targets)))
                frontier = nxt
                first = False
            new_pos = np.arange(n_old, len(elems))
            verify = []
            for j in range(i + 1):
                if j < i:
                    xs = new_pos
                else:
                    xs = np.arange(len(elems))
                if len(xs) == 0:
                    continue
                gj = gens[j]
                xg = [pos_of[int(T.mul[elems[x], gj])] for x in xs.tolist()]
                verify.append((j, xs.copy(), np.array(xg)))
            self.levels.append(
                _Level(np.array(elems, dtype=np.int64), n_old, build, verify, new_pos)
            )
        self.total = len(elems)
        self.elem_at = np.array(elems, dtype=np.int64)


class IsoSearch:
    """Shared state for iso/aut searches from T1 into T2."""

    def __init__(
        self,
        T1: GroupTable,
        T2: GroupTable,
        marked1: Optional[np.ndarray] = None,
        marked2: Optional[np.ndarray] = None,
    ):
        self.T1 = T1
        self.T2 = T2
        self.m = T1.order
        self.feasible = T1.order == T2.order
        if not self.feasible:
            return
        # key 2 * colour + mark: the mark is an exact low bit
        self.key1 = _keys(T1, marked1)
        self.key2 = _keys(T2, marked2)
        by_key = np.argsort(self.key2, kind="stable")
        sorted2 = self.key2[by_key]
        if not np.array_equal(np.sort(self.key1), sorted2):
            self.feasible = False
            return
        # favor rare colours (small image buckets), then high orders
        _, colour_of, count = np.unique(T1.colours(), return_inverse=True, return_counts=True)
        xs = np.arange(1, self.m)
        pref = xs[np.lexsort((-T1.elem_order[xs], count[colour_of[xs]]))]
        gens = T1.small_generating_set(np.concatenate([[0], pref]))
        self.plan = _SourcePlan(T1, gens)
        # keys the elements first mapped at each level must find
        self.want = [self.key1[self.plan.elem_at[lv.new_pos]] for lv in self.plan.levels]
        lo = np.searchsorted(sorted2, self.key1[gens], "left")
        hi = np.searchsorted(sorted2, self.key1[gens], "right")
        self.cands = [by_key[a:b] for a, b in zip(lo, hi)]

    def run(self, mode: str = "count"):
        """mode "count" -> int; "first" -> map array or None; "all" -> list of maps."""
        if mode == "count":
            return self._count()
        if not self.feasible:
            return None if mode == "first" else []
        if self.m == 1:
            one = np.zeros(1, dtype=np.int64)
            return one if mode == "first" else [one]
        phi = np.full(self.plan.total, -1, dtype=np.int64)
        phi[0] = 0
        maps = self._descend(self.cands, 0, phi, [0] * len(self.cands), mode == "first")
        if mode == "first":
            return maps[0] if maps else None
        return maps

    def _count(self) -> int:
        """Number of marked isomorphisms, by the orbit-stabilizer chain."""
        if not self.feasible:
            return 0
        if self.m == 1:
            return 1
        if not (self.T1 is self.T2 and np.array_equal(self.key1, self.key2)):
            # the isomorphisms are one coset of Aut(T2, marked2)
            if self.run("first") is None:
                return 0
            marked = np.flatnonzero(self.key2 & 1)
            return IsoSearch(self.T2, self.T2, marked, marked).run("count")
        plan = self.plan
        gens = plan.gens
        found: list[np.ndarray] = []  # automorphisms fixing gens[:i] at level i
        count = 1
        for i in range(len(gens) - 1, -1, -1):
            lab = orbit_labels(np.array(found, dtype=np.int64).reshape(-1, self.m))
            dead = np.zeros(self.m, dtype=bool)  # labels of orbits with no witness
            n_fixed = plan.levels[i].n_old
            for b in self.cands[i].tolist():
                if lab[b] == lab[gens[i]] or dead[lab[b]]:
                    continue
                # pin gens[:i] to themselves and gens[i] to b, search the rest
                phi = np.full(plan.total, -1, dtype=np.int64)
                phi[:n_fixed] = plan.elem_at[:n_fixed]
                cands = self.cands[:i] + [np.array([b], dtype=np.int64)] + self.cands[i + 1 :]
                witness = self._descend(cands, i, phi, gens[:i] + [0] * (len(gens) - i), True)
                if witness:
                    found.append(witness[0])
                    old_dead = np.flatnonzero(dead)
                    lab = orbit_labels(np.array(found, dtype=np.int64))
                    dead = np.zeros(self.m, dtype=bool)
                    dead[lab[old_dead]] = True
                else:
                    dead[lab[b]] = True
            count *= int((lab == lab[gens[i]]).sum())
        return count

    def _descend(
        self, cands, start: int, phi: np.ndarray, gen_img: list[int], first: bool
    ) -> list[np.ndarray]:
        """Complete maps extending levels < `start` of `phi`, as arrays over T1."""
        T2 = self.T2
        m2 = T2.order
        mul2 = T2._mul_flat
        plan = self.plan
        levels = plan.levels
        k = len(levels)
        key2, want = self.key2, self.want
        found: list[np.ndarray] = []

        def descend(level: int) -> bool:
            lv = levels[level]
            end = len(lv.elems)
            for b in map(int, cands[level]):
                gen_img[level] = b
                for j, parents, targets in lv.build:
                    phi[targets] = mul2[phi[parents] * m2 + gen_img[j]]
                good = True
                for j, xs, xgs in lv.verify:
                    if not np.array_equal(mul2[phi[xs] * m2 + gen_img[j]], phi[xgs]):
                        good = False
                        break
                if good and not np.array_equal(key2[phi[lv.new_pos]], want[level]):
                    good = False
                if good:
                    seen = np.bincount(phi[:end], minlength=m2)
                    if (seen > 1).any():
                        good = False
                if good:
                    if level + 1 == k:
                        out = np.full(self.m, -1, dtype=np.int64)
                        out[plan.elem_at] = phi
                        found.append(out)
                        if first:
                            return True
                    elif descend(level + 1):
                        return True
            return False

        descend(start)
        del descend  # the closure refers to itself: keep that cycle from holding the tables
        return found


def _keys(T: GroupTable, marked: Optional[np.ndarray]) -> np.ndarray:
    key = 2 * T.colours()
    if marked is not None:
        key[np.asarray(marked, dtype=np.int64)] += 1
    return key


__all__ = [
    "IsoSearch",
]
