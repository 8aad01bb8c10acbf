"""Isomorphism and automorphism search on indexed groups.

Backtracking over generator images.  Candidate images are bucketed by
conjugacy-class fingerprints; partial maps are extended level by level along
a precomputed breadth tree and every (element, generator) product is verified
before descending, so dead branches die early.  An optional marked subset on
each side must be preserved elementwise, which is how stabilizer-respecting
isomorphism and marked automorphism counts share one engine.

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

from collections import Counter
from typing import Optional

import numpy as np

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


def _greedy_generators(T: GroupTable, rank) -> list[int]:
    """Generating sequence favoring rare fingerprints (small image buckets)."""
    m = T.order
    by_pref = sorted(range(1, m), key=lambda x: (rank(x), -int(T.elem_order[x]), x))
    gens: list[int] = []
    cur = np.array([0], dtype=np.int64)
    in_cur = {0}
    while len(in_cur) < m:
        pick = next(x for x in by_pref if x not in in_cur)
        cur = T.extend_subgroup(cur, gens, pick)
        gens.append(pick)
        in_cur = set(cur.tolist())
    return gens


class IsoSearch:
    """Shared state for iso/aut searches from T1 into T2."""

    def __init__(
        self,
        T1: GroupTable,
        T2: GroupTable,
        marked1: Optional[np.ndarray] = None,
        marked2: Optional[np.ndarray] = None,
        gens: Optional[list[int]] = None,
    ):
        self.T1 = T1
        self.T2 = T2
        self.m = T1.order
        self.feasible = T1.order == T2.order
        self.mark1 = None
        self.mark2 = None
        if marked1 is not None or marked2 is not None:
            s1 = np.zeros(T1.order, dtype=bool)
            s1[np.asarray(marked1, dtype=np.int64)] = True
            s2 = np.zeros(T2.order, dtype=bool)
            s2[np.asarray(marked2, dtype=np.int64)] = True
            self.mark1, self.mark2 = s1, s2
            if s1.sum() != s2.sum():
                self.feasible = False
        if not self.feasible:
            return
        keys1 = T1.element_fingerprints()
        keys2 = T2.element_fingerprints()
        if Counter(map(hash, keys1)) != Counter(map(hash, keys2)):
            self.feasible = False
            return
        buckets: dict = {}
        for x, key in enumerate(keys2):
            buckets.setdefault(hash(key), []).append(x)
        self.buckets = {k: np.array(v, dtype=np.int64) for k, v in buckets.items()}
        self.keys1 = [hash(k) for k in keys1]
        if gens is None:
            gens = _greedy_generators(T1, lambda x: len(self.buckets.get(self.keys1[x], ())))
        self.plan = _SourcePlan(T1, gens)
        self.cands = []
        for g in gens:
            arr = self.buckets.get(self.keys1[g])
            if arr is None:
                self.feasible = False
                return
            if self.mark1 is not None:
                arr = arr[self.mark2[arr] == bool(self.mark1[g])]
                if len(arr) == 0:
                    self.feasible = False
                    return
            self.cands.append(arr)
        # probe data: orders of short words mixing each gen with earlier ones
        self.probes = []
        for i, gi in enumerate(gens):
            rows = []
            for j in range(i):
                gj = gens[j]
                rows.append(
                    (
                        j,
                        int(T1.elem_order[T1.mul[gj, gi]]),
                        int(T1.elem_order[T1.mul[gi, gj]]),
                    )
                )
            self.probes.append(rows)

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
        same = self.T1 is self.T2 and (
            self.mark1 is None or np.array_equal(self.mark1, self.mark2)
        )
        if not same:
            # the isomorphisms are one coset of Aut(T2, marked2)
            if self.run("first") is None:
                return 0
            marked = None if self.mark2 is None else np.flatnonzero(self.mark2)
            return IsoSearch(self.T2, self.T2, marked, marked).run("count")
        plan = self.plan
        gens = plan.gens
        found: list[np.ndarray] = []  # automorphisms fixing gens[:i] at level i
        count = 1
        for i in range(len(gens) - 1, -1, -1):
            reach = np.zeros(self.m, dtype=bool)
            dead = np.zeros(self.m, dtype=bool)
            _close(reach, [gens[i]], found)
            n_fixed = plan.levels[i].n_old
            for b in self.cands[i].tolist():
                if reach[b] or dead[b]:
                    continue
                # pin gens[:i] to themselves and gens[i] to b, search the rest
                phi = np.full(plan.total, -1, dtype=np.int64)
                phi[:n_fixed] = plan.elem_at[:n_fixed]
                cands = self.cands[:i] + [np.array([b], dtype=np.int64)] + self.cands[i + 1 :]
                witness = self._descend(cands, i, phi, gens[:i] + [0] * (len(gens) - i), True)
                if witness:
                    found.append(witness[0])
                    _close(reach, np.flatnonzero(reach), found)
                    _close(dead, np.flatnonzero(dead), found)
                else:
                    _close(dead, [b], found)
            count *= int(reach.sum())
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
        found: list[np.ndarray] = []

        def descend(level: int) -> bool:
            lv = levels[level]
            end = len(lv.elems)
            for b in map(int, cands[level]):
                ok = True
                for j, o_left, o_right in self.probes[level]:
                    bj = gen_img[j]
                    if (
                        int(T2.elem_order[T2.mul[bj, b]]) != o_left
                        or int(T2.elem_order[T2.mul[b, bj]]) != o_right
                    ):
                        ok = False
                        break
                if not ok:
                    continue
                gen_img[level] = b
                for j, parents, targets in lv.build:
                    phi[targets] = mul2[phi[parents] * m2 + gen_img[j]]
                good = True
                for j, xs, xgs in lv.verify:
                    if not np.array_equal(mul2[phi[xs] * m2 + gen_img[j]], phi[xgs]):
                        good = False
                        break
                if good and self.mark1 is not None:
                    np_new = lv.new_pos
                    src = self.mark1[plan.elem_at[np_new]]
                    if not np.array_equal(self.mark2[phi[np_new]], src):
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
        return found


def _close(mask: np.ndarray, seeds, maps: list[np.ndarray]) -> None:
    """Add the orbit of `seeds` under the group generated by `maps` to `mask`."""
    frontier = np.asarray(seeds, dtype=np.int64)
    mask[frontier] = True
    while len(frontier) and maps:
        images = np.unique(np.concatenate([mp[frontier] for mp in maps]))
        frontier = images[~mask[images]]
        mask[frontier] = True


__all__ = [
    "IsoSearch",
]
