"""Indexed finite groups backed by a dense multiplication table.

Elements are integers 0..order-1 with 0 the identity.  The table makes
subgroup closure, normalizers and conjugacy sweeps cheap integer work, which
is what keeps whole-lattice searches inside holomorphs tractable.
"""

from __future__ import annotations

from math import lcm
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import BudgetError, StructureError
from .perm import Perm

# Largest group we are willing to table densely (order^2 cells).
DEFAULT_TABLE_BUDGET = 6000

# rows per block when locating inverses: keeps the m-wide boolean
# temporary small next to the table itself
_ROW_BLOCK = 128


class GroupTable:
    """A finite group as index arithmetic: mul[a, b], inv[a], identity 0."""

    __slots__ = (
        "order", "mul", "inv", "elem_order", "_mul_flat", "_gens", "_classes", "_fingerprints"
    )

    def __init__(self, mul: np.ndarray):
        m = mul.shape[0]
        if mul.shape != (m, m):
            raise StructureError("multiplication table must be square")
        self.order = m
        self.mul = mul
        self._mul_flat = mul.ravel()
        inv = np.empty(m, dtype=mul.dtype)
        for lo in range(0, m, _ROW_BLOCK):
            rows, cols = np.nonzero(mul[lo : lo + _ROW_BLOCK] == 0)
            if not np.array_equal(rows, np.arange(min(_ROW_BLOCK, m - lo))):
                raise StructureError("table row lacks a unique inverse")
            inv[lo : lo + len(cols)] = cols
        self.inv = inv
        self.elem_order = self._element_orders()
        self._gens: Optional[list[int]] = None
        self._classes: Optional[list[np.ndarray]] = None
        self._fingerprints: Optional[np.ndarray] = None

    # -- construction ------------------------------------------------------

    @classmethod
    def from_perms(
        cls,
        elems: Sequence[Perm],
        table_budget: int = DEFAULT_TABLE_BUDGET,
        base: Optional[Sequence[int]] = None,
    ) -> "GroupTable":
        """Table for a set of permutations closed under composition.

        `elems` must be sorted with the identity first; indices follow it.
        `base` is an optional list of points whose images separate the
        elements; when given (and actually separating) products are located
        by base-image keys instead of whole-tuple hashing, which is much
        faster for large element sets.
        """
        m = len(elems)
        if m > table_budget:
            raise BudgetError("group too large to table densely", spent=m, budget=table_budget)
        n = len(elems[0])
        if list(elems[0]) != list(range(n)):
            raise StructureError("element 0 must be the identity")
        dtype = np.int16 if m < 2**15 else np.int32
        arr = np.array(elems, dtype=np.int32)
        if base is None:
            base = cls._greedy_base(arr)
        if base is not None and n ** len(base) <= 50_000_000:
            mul = cls._mul_via_base(arr, list(base), dtype)
            if mul is not None:
                return cls(mul)
        lookup = {bytes(np.asarray(p, dtype=np.int32).data): i for i, p in enumerate(elems)}
        if len(lookup) != m:
            raise StructureError("duplicate elements")
        mul = np.empty((m, m), dtype=dtype)
        for i in range(m):
            rows = arr[i][arr]  # (p_i . p_j)(x) = p_i[p_j[x]]
            for j in range(m):
                idx = lookup.get(bytes(rows[j].data))
                if idx is None:
                    raise StructureError("elements not closed under composition")
                mul[i, j] = idx
        return cls(mul)

    @staticmethod
    def _greedy_base(arr: np.ndarray) -> Optional[list[int]]:
        """Short list of points whose images separate the elements, or None."""
        m, n = arr.shape
        base = [0]
        keys = arr[:, 0].astype(np.int64)
        while True:
            distinct = len(np.unique(keys))
            if distinct == m:
                return base
            if n ** (len(base) + 1) > 50_000_000:
                return None
            best, best_count = -1, distinct
            for x in range(n):
                if x in base:
                    continue
                count = len(np.unique(keys * n + arr[:, x]))
                if count > best_count:
                    best, best_count = x, count
            if best < 0:
                return None
            base.append(best)
            keys = keys * n + arr[:, best].astype(np.int64)

    @staticmethod
    def _mul_via_base(arr: np.ndarray, base: list[int], dtype) -> Optional[np.ndarray]:
        """Base-keyed product table, or None if the base does not separate."""
        m, n = arr.shape
        arr64 = arr.astype(np.int64)
        cols = arr64[:, base]
        powers = n ** np.arange(len(base) - 1, -1, -1, dtype=np.int64)
        keys = cols @ powers
        lut = np.full(n ** len(base), -1, dtype=np.int64)
        lut[keys] = np.arange(m)
        if int((lut >= 0).sum()) != m:
            return None
        mul = np.empty((m, m), dtype=dtype)
        for i in range(m):
            row = lut[arr64[i][cols] @ powers]  # (p_i . p_j)(b) = p_i[p_j[b]]
            if row.min() < 0:
                raise StructureError("elements not closed under composition")
            mul[i] = row
        rng = np.random.default_rng(5)
        for a, b in rng.integers(0, m, size=(200, 2)):
            if not np.array_equal(arr[a][arr[b]], arr[mul[a, b]]):
                raise StructureError("base-keyed product table disagrees with composition")
        return mul

    def subtable(self, indices: Sequence[int]) -> tuple["GroupTable", np.ndarray]:
        """Table of the subgroup on `indices`; also returns the index list.

        Local index i corresponds to global index out[i]; identity stays 0.
        All of the group's indices give back this table itself, not a copy.
        """
        idx = np.array(sorted(indices), dtype=np.int64)
        if idx[0] != 0:
            raise StructureError("subgroup must contain the identity (index 0)")
        k = len(idx)
        if np.array_equal(idx, np.arange(self.order)):
            return self, idx
        # stay in the table's own dtype: these are k*k arrays
        back = np.full(self.order, -1, dtype=self.mul.dtype)
        back[idx] = np.arange(k)
        local = back[self.mul[np.ix_(idx, idx)]]
        if (local < 0).any():
            raise StructureError("indices are not closed under multiplication")
        dtype = np.int16 if k < 2**15 else np.int32
        return GroupTable(local.astype(dtype, copy=False)), idx

    # -- basic per-element data -------------------------------------------

    def _element_orders(self) -> np.ndarray:
        """Orders of all elements at once: one vectorized power step per round."""
        m = self.order
        out = np.ones(m, dtype=np.int32)
        todo = np.arange(1, m, dtype=np.int64)
        power = todo.copy()
        k = 1
        while len(todo):
            if k >= m:
                raise StructureError("table element has no finite order")
            power = self._mul_flat[power * m + todo].astype(np.int64)
            k += 1
            done = power == 0
            out[todo[done]] = k
            todo, power = todo[~done], power[~done]
        return out

    def prod(self, a: int, b: int) -> int:
        return int(self.mul[a, b])

    def conj(self, a: int, x: int) -> int:
        """a x a^-1."""
        return int(self.mul[self.mul[a, x], self.inv[a]])

    def conj_many(self, a: int, xs: np.ndarray) -> np.ndarray:
        """a xs a^-1 elementwise."""
        m = self.order
        return self._mul_flat[self.mul[a, xs].astype(np.int64) * m + int(self.inv[a])]

    def exponent(self) -> int:
        out = 1
        for k in np.unique(self.elem_order):
            out = lcm(out, int(k))
        return out

    # -- subgroup machinery ------------------------------------------------

    def closure_of(self, seeds: Iterable[int]) -> np.ndarray:
        """Sorted indices of the subgroup generated by `seeds`."""
        mul = self.mul
        seen = {0}
        frontier = [0]
        gens = sorted(set(int(s) for s in seeds))
        for g in gens:
            if g not in seen:
                seen.add(g)
                frontier.append(g)
        qi = 0
        while qi < len(frontier):
            cur = frontier[qi]
            qi += 1
            for g in gens:
                nxt = int(mul[cur, g])
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        return np.array(sorted(seen), dtype=np.int64)

    def extend_subgroup(self, elems: np.ndarray, gens: Sequence[int], new: int) -> np.ndarray:
        """Sorted indices of <H, new> given H's sorted `elems` and `gens`.

        Coset fill: walk right cosets of H instead of single elements.
        """
        mul = self.mul
        known = set(elems.tolist())
        if new in known:
            return elems
        all_gens = list(gens) + [new]
        reps = [new]
        known.update(mul[elems, new].tolist())
        qi = 0
        while qi < len(reps):
            r = reps[qi]
            qi += 1
            for g in all_gens:
                t = int(mul[r, g])
                if t not in known:
                    reps.append(t)
                    known.update(mul[elems, t].tolist())
        return np.array(sorted(known), dtype=np.int64)

    def small_generating_set(self, elems: np.ndarray) -> list[int]:
        """Greedy generators for the subgroup on sorted `elems`."""
        gens: list[int] = []
        cur = np.array([0], dtype=np.int64)
        cur_set = {0}
        for x in elems.tolist():
            if x not in cur_set:
                cur = self.extend_subgroup(cur, gens, x)
                gens.append(int(x))
                cur_set = set(cur.tolist())
            if len(cur_set) == len(elems):
                break
        return gens

    def normalizer_of(self, elems: np.ndarray, gens: Sequence[int]) -> np.ndarray:
        """Indices a with a H a^-1 = H, vectorized over the whole group."""
        m = self.order
        member = np.zeros(m, dtype=bool)
        member[elems] = True
        ok = np.ones(m, dtype=bool)
        rng = np.arange(m, dtype=np.int64)
        for g in gens:
            col = self.mul[rng, g].astype(np.int64)
            conj = self._mul_flat[col * m + self.inv[rng].astype(np.int64)]
            ok &= member[conj]
        return rng[ok]

    def centralizer_of(self, gens: Sequence[int]) -> np.ndarray:
        m = self.order
        rng = np.arange(m, dtype=np.int64)
        ok = np.ones(m, dtype=bool)
        for g in gens:
            ok &= self.mul[rng, g] == self.mul[g, rng]
        return rng[ok]

    def generators(self) -> list[int]:
        """Greedy generating set of the whole group, computed once per table."""
        if self._gens is None:
            self._gens = self.small_generating_set(np.arange(self.order, dtype=np.int64))
        return self._gens

    def center(self) -> np.ndarray:
        return self.centralizer_of(self.generators())

    def derived_subgroup(self) -> np.ndarray:
        """Normal closure of the commutators [s, t] = s t s^-1 t^-1 of generators.

        Grows a generating set from the commutators and adds every
        conjugate of one of its generators by a group generator that is
        not yet inside, until the set is stable.
        """
        mul, inv = self.mul, self.inv
        gens = self.generators()
        queue = [int(mul[mul[mul[s, t], inv[s]], inv[t]]) for s in gens for t in gens]
        elems = np.array([0], dtype=np.int64)
        member = np.zeros(self.order, dtype=bool)
        member[0] = True
        sub_gens: list[int] = []
        while queue:
            x = queue.pop()
            if member[x]:
                continue
            elems = self.extend_subgroup(elems, sub_gens, x)
            sub_gens.append(x)
            member[elems] = True
            queue.extend(self.conj(g, x) for g in gens)
        return elems

    def is_abelian(self) -> bool:
        g = np.array(self.generators(), dtype=np.int64)
        block = self.mul[np.ix_(g, g)]
        return bool((block == block.T).all())

    def all_subgroups(self) -> list[np.ndarray]:
        """Every subgroup, by exhaustive one-element extensions.

        Exact-set dedup only; no conjugacy reasoning.  Meant for small
        groups and for oracle checks against smarter searches.
        """
        trivial = np.array([0], dtype=np.int64)
        found = {(0,): trivial}
        frontier = [(trivial, ())]
        while frontier:
            elems, gens = frontier.pop()
            in_h = np.zeros(self.order, dtype=bool)
            in_h[elems] = True
            skip = in_h.copy()
            for g in range(self.order):
                if skip[g]:
                    continue
                skip[self.mul[g, elems].astype(np.int64)] = True  # whole coset gH
                ext = self.extend_subgroup(elems, list(gens), g)
                key = tuple(ext.tolist())
                if key not in found:
                    found[key] = ext
                    frontier.append((ext, gens + (g,)))
        return [found[k] for k in sorted(found)]

    # -- conjugacy classes and fingerprints ---------------------------------

    def conjugacy_classes(self) -> list[np.ndarray]:
        if self._classes is not None:
            return self._classes
        m = self.order
        gens = self.generators()
        assigned = np.zeros(m, dtype=bool)
        classes = []
        for x in range(m):
            if assigned[x]:
                continue
            orb = [x]
            assigned[x] = True
            qi = 0
            while qi < len(orb):
                cur = orb[qi]
                qi += 1
                for g in gens:
                    y = self.conj(g, cur)
                    if not assigned[y]:
                        assigned[y] = True
                        orb.append(y)
            classes.append(np.array(sorted(orb), dtype=np.int64))
        self._classes = classes
        return classes

    def class_fingerprints(self) -> list:
        """Canonical fingerprint key per conjugacy class.

        Start from (element order, class size) and refine through power and
        inverse maps a fixed number of rounds, so keys from different groups
        of the same order are directly comparable.  Isomorphisms preserve
        fingerprints, so equal keys are necessary for generator images.
        """
        if self._fingerprints is not None:
            return self._fingerprints
        classes = self.conjugacy_classes()
        m = self.order
        cls_of = np.zeros(m, dtype=np.int64)
        for ci, cl in enumerate(classes):
            cls_of[cl] = ci
        sig: list = [(int(self.elem_order[cl[0]]), len(cl)) for cl in classes]
        for _ in range(3):
            keys = []
            for ci, cl in enumerate(classes):
                rep = int(cl[0])
                powers = []
                oo = int(self.elem_order[rep])
                primes = set()
                d = 2
                while d * d <= oo:
                    if oo % d == 0:
                        primes.add(d)
                        while oo % d == 0:
                            oo //= d
                    d += 1
                if oo > 1:
                    primes.add(oo)
                for p in sorted(primes):
                    x = rep
                    for _ in range(p - 1):
                        x = self.prod(x, rep)
                    powers.append(sig[int(cls_of[x])])
                powers.append(sig[int(cls_of[int(self.inv[rep])])])
                keys.append((sig[ci], tuple(powers)))
            sig = keys
        self._fingerprints = sig
        return sig

    def element_fingerprints(self) -> list:
        """Fingerprint key for every element (index-aligned)."""
        classes = self.conjugacy_classes()
        keys = self.class_fingerprints()
        out: list = [None] * self.order
        for ci, cl in enumerate(classes):
            for x in cl.tolist():
                out[x] = keys[ci]
        return out


__all__ = [
    "GroupTable",
    "DEFAULT_TABLE_BUDGET",
]
