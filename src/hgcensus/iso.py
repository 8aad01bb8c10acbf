"""Isomorphism and automorphism search on subgroups of indexed groups.

A search side is a table plus the sorted element indices of the subgroup
searched and that subgroup's colours: a catalog group is its whole table
with `GroupTable.colours()`, a transitive record its indices into the
holomorph table with `record.search_colours`.  No table of the subgroup
itself is built.  Keys, the injectivity check, orbit labels and the maps
returned run over the subgroup's own positions 0..k-1 (position i is the
i-th sorted index).  The search reads side 1's table only to plan, and
side 2's only at construction: for each distinct key among the generators
it fills one table of right products, whose row c holds the side-2
position of x * c for every position x, c running over the side-2
elements with that key.
Partial maps hold side-2 positions, so every build and verify step is one
gather in such a row, whatever the form or order of the side's table.

Side 1's half of a search (keys, generator choice, breadth tree) is a
`SourcePlan`, built from that side and its marked set alone, so a caller
that searches from one side many times passes the plan as side 1.

Backtracking over generator images.  Every element carries one key,
2 * colour + mark: the colour is invariant under every isomorphism, and
the mark is an exact low bit for membership in an optional marked subset
on each side.  Equal sorted keys are necessary for a map to exist,
candidate images of a generator are the elements of side 2 with its key,
and each level checks the keys of the elements it maps first.  That is how
stabilizer-respecting isomorphism and marked automorphism counts share one
engine.  A transitive record's search colours also mix in each element's
cycle type on the points, which every stabilizer-respecting isomorphism
keeps, as it is conjugation by a bijection of the points.  Partial maps
are extended level by level along a precomputed breadth tree and every
(element, generator) product is verified before descending, so dead
branches die early.  That check and the keys are the only pruning inside
a search: a test on the orders of short words such as g_j g_i would only
repeat conditions the verified products already enforce.

Counts never list the maps.  For the generator sequence g_1..g_k,
|Aut(T, marked)| is the product over i of the orbit size of g_i under the
automorphisms fixing g_1..g_{i-1} (orbit-stabilizer; Holt, Eick & O'Brien,
Handbook of Computational Group Theory, ch. 4).  Levels are done from k
down to 1, each candidate image b of g_i costing one "first" search with
g_1..g_{i-1} pinned to themselves and g_i to b.  Every automorphism found
so far fixes g_1..g_{i-1}, so a found witness puts the whole orbit of b
under them into the orbit of g_i and a failed search rules the whole orbit
of b out; no other point of that orbit is searched.  Before any search,
the keys refute candidates: an automorphism fixing g_j and sending g_i to
b sends g_i g_j to b g_j and g_j g_i to g_j b, and keeps every key, so a b
with key(b g_j) != key(g_i g_j) or key(g_j b) != key(g_j g_i) for some
j < i has no witness.  That costs two gathers per pinned generator, and a
refuted b's whole orbit is refuted with it, so the chain finds the same
witnesses and count, minus searches that could only fail.  Between
different sides the isomorphisms form one coset of Aut(side 2, marked2),
so the count is 0 or that group's chain count.  A one-sided count may be
seeded (`seeds`) with a group that normalizes the searched subgroup and
keeps its keys, as N_A(G) does for a class weight: the seeds that fix
g_1..g_{i-1} act inside level i's stabilizer, so at the level's first
search a greedy generating set of them joins the orbits, each generator
proving itself first (`_seed_maps`).  Orbits under any subgroup of that
stabilizer keep the count exact: seeds only remove searches that would
succeed, and a failed search rules out a larger orbit.  The count keeps
the witnesses it found (`witnesses`): each lies outside the group the
earlier ones and the level's seeds generate.  Unseeded, they are a strong
generating set of Aut(T, marked), so `catalog.automorphism_group`, whose
count never seeds, closes them instead of listing every map; a seeded
count's witnesses alone need not generate the group.  The engine never
lists every map; the tests' reference listing (`all_maps` in their
`conftest.py`) runs `_descend` without stopping at the first.
"""

from __future__ import annotations

from functools import cached_property
from typing import Optional, Union

import numpy as np

from .errors import ConsistencyError, StructureError
from .perm import orbit_labels
from .table import GroupTable, _rows, index_dtype

Side = Union[GroupTable, tuple[GroupTable, np.ndarray, np.ndarray]]


class _Level:
    __slots__ = ("end", "n_old", "build", "verify", "new_pos")

    def __init__(self, end, n_old, build, verify, new_pos):
        self.end = end              # positions mapped once this level is done
        self.n_old = n_old          # prefix length shared with previous level
        self.build = build          # [(gen_slot, parent_pos, target_pos), ...]
        self.verify = verify        # [(gen_slot, x_pos, xg_pos), ...]
        self.new_pos = new_pos      # positions first seen at this level


class _BreadthTree:
    """Breadth trees and verification pairs for one generating sequence of
    a k-element subgroup of T, the subgroup on the sorted indices `elems`
    whose keys are `key`.

    Positions number the subgroup's elements in discovery order: `elem_at`
    holds their table indices and `pos_of` maps a table index back to its
    position (-1 = not reached).  Each (breadth step, generator slot) is one
    gather of the frontier's products; right multiplication by one element
    is injective, so a gather holds no repeats and its new elements keep
    frontier order.
    """

    def __init__(self, T: GroupTable, elems: np.ndarray, gens: list[int], key: np.ndarray):
        mul = T.mul
        k = len(elems)
        self.gens = gens
        self.levels: list[_Level] = []
        elem_at = np.zeros(k, dtype=np.int64)
        pos_of = np.full(T.order, -1, dtype=np.int64)
        pos_of[0] = 0
        total = 1
        for i in range(len(gens)):
            n_old = total
            build = []
            frontier = np.arange(n_old)
            slots = [i]
            while len(frontier):
                nxt = []
                for j in slots:
                    t = mul[elem_at[frontier], gens[j]]
                    fresh = pos_of[t] < 0
                    if fresh.any():
                        new = t[fresh]
                        targets = np.arange(total, total + len(new))
                        elem_at[targets] = new
                        pos_of[new] = targets
                        build.append((j, frontier[fresh], targets))
                        nxt.append(targets)
                        total += len(new)
                frontier = np.concatenate(nxt) if nxt else []
                slots = range(i + 1)
            new_pos = np.arange(n_old, total)
            verify = []
            for j in range(i + 1):
                xs = new_pos if j < i else np.arange(total)
                if len(xs):
                    verify.append((j, xs, pos_of[mul[elem_at[xs], gens[j]]]))
            self.levels.append(_Level(total, n_old, build, verify, new_pos))
        self.total = total
        back = _back(T, elems)
        self.local = back[elem_at]  # subgroup position of each plan position
        self.gen_pos = back[gens]
        # keys the elements first mapped at each level must find
        self.want = [key[self.local[lv.new_pos]] for lv in self.levels]


class SourcePlan:
    """Side 1 of a search, reusable by every search from that side: the
    keys at once, and the generator choice and its `_BreadthTree` on the
    first feasible search (`tree`)."""

    def __init__(self, side: Side, marked: Optional[np.ndarray] = None):
        self.T, self.elems, self.colours = _side(side)
        self.key = _keys(self.colours, marked)

    @cached_property
    def tree(self) -> _BreadthTree:
        # favor rare colours (small image buckets), then high orders
        _, colour_of, count = np.unique(self.colours, return_inverse=True, return_counts=True)
        elems = self.elems
        xs = np.arange(1, len(elems))
        orders = self.T.elem_order[elems[xs]]
        pref = elems[xs[np.lexsort((-orders, count[colour_of[xs]]))]]
        gens = self.T.small_generating_set(np.concatenate([[0], pref]))
        return _BreadthTree(self.T, elems, gens, self.key)


class IsoSearch:
    """Shared state for iso/aut searches from side 1 into side 2.

    A side is a `GroupTable`, searched whole, or a triple (table, sorted
    element indices, colours in that order) naming a subgroup of the table.
    Side 1 may also be a `SourcePlan`, which brings its own marked set in
    place of `marked1`.  `marked1`, `marked2` and the maps returned are in
    positions 0..k-1 of each side's sorted indices.  `seeds`, indices into
    side 2's table, name a group that normalizes side 2's subgroup and
    keeps its marked set: a count starts each level's orbits from the
    conjugations by those of its elements that fix the level's pinned
    generators, and checks each generator it takes (`_seed_maps`).
    """

    def __init__(
        self,
        side1: Union[Side, SourcePlan],
        side2: Side,
        marked1: Optional[np.ndarray] = None,
        marked2: Optional[np.ndarray] = None,
        seeds: Optional[np.ndarray] = None,
    ):
        self.source = side1 if isinstance(side1, SourcePlan) else SourcePlan(side1, marked1)
        self.T2, self.elems2, self.colours2 = _side(side2)
        self.seeds = seeds
        self.witnesses: list[np.ndarray] = []  # kept by a one-sided count
        self.m = len(self.source.elems)
        self.feasible = self.m == len(self.elems2)
        if not self.feasible:
            return
        # key 2 * colour + mark: the mark is an exact low bit
        self.key2 = _keys(self.colours2, marked2)
        by_key = np.argsort(self.key2, kind="stable")
        sorted2 = self.key2[by_key]
        if not np.array_equal(np.sort(self.source.key), sorted2):
            self.feasible = False
            return
        self.plan = plan = self.source.tree
        # candidate images of each generator: side-2 positions with its key,
        # ascending; one product table per distinct key, shared by its slots
        gen_keys = self.source.key[plan.gen_pos]
        lo = np.searchsorted(sorted2, gen_keys, "left")
        hi = np.searchsorted(sorted2, gen_keys, "right")
        self.cands = [by_key[a:b] for a, b in zip(lo, hi)]
        back2 = _back(self.T2, self.elems2)
        tables: dict[int, np.ndarray] = {}
        for a, cands in zip(lo.tolist(), self.cands):
            if a not in tables:
                tables[a] = _right_products(self.T2, self.elems2, back2, cands)
        self.right = [tables[a] for a in lo.tolist()]

    def run(self, mode: str = "count"):
        """mode "count" -> int; "first" -> map array or None."""
        if mode == "count":
            return self._count()
        if mode != "first":
            raise ValueError(f"unknown search mode {mode!r}")
        if not self.feasible:
            return None
        if self.m == 1:
            return np.zeros(1, dtype=np.int64)
        phi = np.full(self.plan.total, -1, dtype=np.intp)
        phi[0] = 0
        cols = [range(len(c)) for c in self.cands]
        maps = self._descend(cols, 0, phi, [0] * len(cols), True)
        return maps[0] if maps else None

    def _count(self) -> int:
        """Number of marked isomorphisms, by the orbit-stabilizer chain."""
        if not self.feasible:
            return 0
        if self.m == 1:
            return 1
        src = self.source
        same = (src.T is self.T2 and np.array_equal(src.elems, self.elems2)
                and np.array_equal(src.key, self.key2))
        if not same:
            # the isomorphisms are one coset of Aut(side 2, marked2)
            if self.run("first") is None:
                return 0
            side2 = (self.T2, self.elems2, self.colours2)
            marked = np.flatnonzero(self.key2 & 1)
            return IsoSearch(side2, side2, marked, marked, self.seeds).run("count")
        plan, right, key = self.plan, self.right, self.key2
        n_gens = len(plan.gens)
        cols = [range(len(c)) for c in self.cands]
        gen_pos = plan.gen_pos.tolist()
        # one side: generator j's own column among its candidates
        own = [int(np.searchsorted(c, g)) for c, g in zip(self.cands, gen_pos)]
        found: list[np.ndarray] = []  # automorphisms fixing gens[:i] at level i
        fixes = None  # fixes[a, j]: seed a fixes gens[:j + 1], at the first search
        count = 1
        for i in range(n_gens - 1, -1, -1):
            # this level's seed maps, None until its first search
            seeded = None if self.seeds is not None else []
            lab = _orbits(found, [], self.m)
            dead = np.zeros(self.m, dtype=bool)  # labels of orbits with no witness
            n_fixed = plan.levels[i].n_old
            gi = gen_pos[i]
            # keys of b * g_j and g_j * b must match those of g_i * g_j and
            # g_j * g_i for every pinned g_j
            cands = self.cands[i]
            live = np.ones(len(cands), dtype=bool)
            for j in range(i):
                times_gj = right[j][own[j]]
                live &= key[times_gj[cands]] == key[times_gj[gi]]
                gj_times = right[i][:, gen_pos[j]]
                live &= key[gj_times] == key[gj_times[own[i]]]
            for c in np.flatnonzero(live).tolist():
                orbit = lab[cands[c]]
                if orbit == lab[gi] or dead[orbit]:
                    continue
                if seeded is None:
                    # the level's first search: its seeds join the orbits
                    # first (no search has failed yet, so none is dead)
                    if fixes is None:
                        pinned = self.elems2[plan.gen_pos]
                        conj = self.T2.conj_many(self.seeds[:, None], pinned)
                        fixes = np.logical_and.accumulate(conj == pinned, axis=1)
                    seeded = self._seed_maps(self.seeds[fixes[:, i - 1]] if i else self.seeds, i, own)
                    lab = _orbits(found, seeded, self.m)
                    orbit = lab[cands[c]]
                    if orbit == lab[gi]:
                        continue
                # pin gens[:i] to themselves and gens[i] to b, search the rest
                phi = np.full(plan.total, -1, dtype=np.intp)
                phi[:n_fixed] = plan.local[:n_fixed]
                pinned = cols[:i] + [[c]] + cols[i + 1 :]
                witness = self._descend(pinned, i, phi, own[:i] + [0] * (n_gens - i), True)
                if witness:
                    found.append(witness[0])
                    old_dead = np.flatnonzero(dead)
                    lab = _orbits(found, seeded, self.m)
                    dead = np.zeros(self.m, dtype=bool)
                    dead[lab[old_dead]] = True
                else:
                    dead[orbit] = True
            count *= int((lab == lab[gi]).sum())
        self.witnesses = found
        return count

    def _seed_maps(self, group: np.ndarray, i: int, own: list[int]) -> list[np.ndarray]:
        """Position maps of the conjugations by a greedy generating set of
        `group`, seeds that fix gens[:i].  Each must prove itself before it
        is used: it maps the subgroup into itself, keeps every key, fixes
        gens[:i], and is a homomorphism on the plan's generators,
        s(x g_j) = s(x) s(g_j) for every position x, read from the right
        products; a conjugation is injective, so it is then an automorphism.
        Raises ConsistencyError otherwise."""
        if len(group) < 2:
            return []
        T, gen_pos = self.T2, self.plan.gen_pos
        gens = np.array(T.small_generating_set(group), dtype=np.int64)
        smaps = _back(T, self.elems2)[T.conj_many(gens[:, None], self.elems2)].astype(np.int64)
        ok = ((smaps >= 0).all() and (self.key2[smaps] == self.key2).all()
              and (smaps[:, gen_pos[:i]] == gen_pos[:i]).all())
        for j, cands in enumerate(self.cands):
            if not ok:
                break
            img = smaps[:, gen_pos[j]]
            c = np.searchsorted(cands, img).clip(max=len(cands) - 1)
            ok = ((cands[c] == img).all()
                  and (smaps[:, self.right[j][own[j]]] == self.right[j][c[:, None], smaps]).all())
        if not ok:
            raise ConsistencyError(
                f"a seed among {gens.tolist()} is not an automorphism of the searched "
                "subgroup fixing its pinned generators"
            )
        return list(smaps)

    def _descend(
        self, cols, start: int, phi: np.ndarray, gen_img: list[int], first: bool
    ) -> list[np.ndarray]:
        """Complete maps extending levels < `start` of `phi`, as arrays over
        side 1's positions.  `phi` holds side-2 positions; `gen_img[j]` is
        generator j's column among its candidates, so right[j][gen_img[j]]
        is the right multiplication by its image."""
        levels, local = self.plan.levels, self.plan.local
        k = len(levels)
        right = self.right
        key2, want = self.key2, self.plan.want
        found: list[np.ndarray] = []

        def descend(level: int) -> bool:
            lv = levels[level]
            for c in cols[level]:
                gen_img[level] = c
                for j, parents, targets in lv.build:
                    phi[targets] = right[j][gen_img[j]][phi[parents]]
                good = True
                for j, xs, xgs in lv.verify:
                    if not np.array_equal(right[j][gen_img[j]][phi[xs]], phi[xgs]):
                        good = False
                        break
                if good:
                    good = (np.array_equal(key2[phi[lv.new_pos]], want[level])
                            and not (np.bincount(phi[: lv.end], minlength=self.m) > 1).any())
                if good:
                    if level + 1 == k:
                        out = np.empty(self.m, dtype=np.int64)
                        out[local] = phi
                        found.append(out)
                        if first:
                            return True
                    elif descend(level + 1):
                        return True
            return False

        descend(start)
        del descend  # the closure refers to itself: keep that cycle from holding the tables
        return found


def _side(side: Side) -> tuple[GroupTable, np.ndarray, np.ndarray]:
    """(table, sorted indices, colours) of a search side; a table alone is
    its whole group."""
    if isinstance(side, GroupTable):
        return side, np.arange(side.order, dtype=np.int64), side.colours()
    T, elems, colours = side
    return T, np.asarray(elems, dtype=np.int64), colours


def _orbits(found: list[np.ndarray], seeded: list[np.ndarray], m: int) -> np.ndarray:
    """Orbit labels of the m positions under the maps found and seeded."""
    return orbit_labels(np.array(found + seeded, dtype=np.int64).reshape(-1, m))


def _back(T: GroupTable, elems: np.ndarray) -> np.ndarray:
    """Position of each of T's indices in `elems`, -1 off the subgroup."""
    back = np.full(T.order, -1, dtype=index_dtype(len(elems)))
    back[elems] = np.arange(len(elems))
    return back


def _right_products(T: GroupTable, elems: np.ndarray, back: np.ndarray, cands: np.ndarray) -> np.ndarray:
    """Row c: the position of elems[x] * elems[cands[c]] for every position
    x, filled a few rows at a time in `back`'s narrow dtype, each block's
    int64 index temporaries within `_TEMP_BYTES`."""
    k = len(elems)
    out = np.empty((len(cands), k), dtype=back.dtype)
    step = _rows(k, 8)
    for lo in range(0, len(cands), step):
        out[lo : lo + step] = back[T.mul[elems, elems[cands[lo : lo + step], None]]]
    if out.min() < 0:
        raise StructureError("search side is not closed under multiplication")
    return out


def _keys(colours: np.ndarray, marked: Optional[np.ndarray]) -> np.ndarray:
    key = 2 * colours
    if marked is not None:
        key[np.asarray(marked, dtype=np.int64)] += 1
    return key


__all__ = [
    "IsoSearch",
    "SourcePlan",
]
