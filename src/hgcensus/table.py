"""Indexed finite groups: elements 0..order-1 with 0 the identity, and
products read as mul[x, y] with integer x and y that broadcast.

A dense table holds every product, order^2 cells.  A factored table
(`FactoredMul`) holds only a few kept product rows and reads each product
through two of them, for groups whose elements factor through a small set
of rows, as a holomorph's elements factor as translation after
automorphism.  Every method here reads products through that one indexing
form, so subgroup closure, normalizers and conjugacy sweeps are the same
integer work on either form; only `validate` and `acts`, which check every
cell, take whole rows and columns of a dense table.

Subgroup closure is a right-coset fill.  One closure <H, x>
(`extend_subgroup`) marks its cosets from single representatives, one at
a time; many closures at once (`close_extensions`) are filled together, a
level of cosets at a time, in one flat membership mask (`_CosetFill`).
"""

from __future__ import annotations

from math import lcm
from typing import Iterable, Iterator, Optional, Sequence, Union

import numpy as np

from .errors import BudgetError, StructureError
from .perm import PermGroup, orbit_labels

# Largest group we are willing to table densely (order^2 cells).
DEFAULT_TABLE_BUDGET = 6000

# rows per block when locating inverses and validating:
# keeps the m-wide temporaries small next to the table itself
_ROW_BLOCK = 128

# elements and position-map cells `subgroup_colours` works on at once: one
# pass over many subgroups, with temporaries small next to the table
_COLOUR_POSITIONS = 8192
_COLOUR_MAP_CELLS = 2**17

# bytes of each of the coset fill's temporaries: a chunk of
# `close_extensions` jobs shares one membership mask of one-byte cells, and
# frontier products and gathered cosets, int64 cells, are taken in blocks
_FILL_BYTES = 2**17


def index_dtype(k: int) -> type:
    """The narrower of int16 and int32 that holds every index below k."""
    return np.int16 if k < 2**15 else np.int32


def check_budget(m: int) -> None:
    """Refuse, before anything is built, a dense table of more than
    `DEFAULT_TABLE_BUDGET` elements."""
    if m > DEFAULT_TABLE_BUDGET:
        raise BudgetError("group too large to table densely", spent=m, budget=DEFAULT_TABLE_BUDGET)


def sample_indices(count: int, bound: int, stream: int) -> np.ndarray:
    """`count` fixed pseudo-random indices in [0, bound): the splitmix64
    `_mix` of 0..count-1 with the stream number, reduced mod `bound`."""
    return (_mix(np.arange(count, dtype=np.uint64), np.uint64(stream)) % np.uint64(bound)).astype(np.int64)


def spot_check(elems: np.ndarray, mul: np.ndarray) -> None:
    """Compare 200 sampled products of the table with composition of the
    image rows: (p_a . p_b)(x) = p_a[p_b[x]] must be row mul[a, b]."""
    a, b = sample_indices(200, len(elems), 1), sample_indices(200, len(elems), 2)
    if not np.array_equal(elems[a[:, None], elems[b]], elems[mul[a, b]]):
        raise StructureError("product table disagrees with composition")


class FactoredMul:
    """Products of a group whose element x acts as kept row `left[x]` after
    kept row `right[x]`: x y = rows[left[x], rows[right[x], y]].

    Indexed like a dense table, mul[x, y] with integer x and y that
    broadcast; each product costs two lookups in the kept rows.
    """

    __slots__ = ("rows", "order", "_flat", "_left", "_right")

    def __init__(self, rows: np.ndarray, left: np.ndarray, right: np.ndarray):
        self.rows = rows
        self.order = rows.shape[1]
        self._flat = rows.ravel()
        # row offsets into the flat kept rows
        self._left = left.astype(np.intp) * self.order
        self._right = right.astype(np.intp) * self.order

    @property
    def dtype(self) -> np.dtype:
        return self.rows.dtype

    @property
    def itemsize(self) -> int:
        return self.rows.itemsize

    def __getitem__(self, xy):
        x, y = xy
        return self._flat[self._left[x] + self._flat[self._right[x] + y]]


class GroupTable:
    """A finite group as index arithmetic: mul[a, b], inv[a], identity 0.

    `mul` is a dense (order, order) array or a `FactoredMul`; a factored
    table takes its inverses `inv` from the caller, who knows the law.
    `name` labels the group in messages and reports.  `gens`, when given,
    is the generating list `generators()` returns as is (order, repeats and
    identity kept); `validate` checks that it generates.
    """

    __slots__ = (
        "order", "mul", "inv", "elem_order", "name", "_gens", "_colours", "_valid", "_aut",
    )

    def __init__(
        self,
        mul: Union[np.ndarray, FactoredMul],
        name: str = "",
        gens: Optional[Sequence[int]] = None,
        inv: Optional[np.ndarray] = None,
    ):
        if isinstance(mul, FactoredMul):
            m = mul.order
            # every product row composes two kept rows, so it is a
            # permutation once they are; x x^-1 = x^-1 x = 0 checks `inv`
            rng = np.arange(m)
            unique = (
                inv is not None
                and all((np.sort(mul.rows[lo : lo + _ROW_BLOCK], axis=1) == rng).all()
                        for lo in range(0, len(mul.rows), _ROW_BLOCK))
                and (mul[rng, inv] == 0).all() and (mul[inv, rng] == 0).all()
            )
        else:
            m = mul.shape[0]
            if mul.shape != (m, m):
                raise StructureError("multiplication table must be square")
            # the identity 0 is the least entry of any row that holds it; each
            # row must hold it once, counted a block of rows at a time
            inv = mul.argmin(1).astype(mul.dtype)
            unique = (mul[np.arange(m), inv] == 0).all() and all(
                np.count_nonzero(mul[lo : lo + _ROW_BLOCK] == 0) == min(_ROW_BLOCK, m - lo)
                for lo in range(0, m, _ROW_BLOCK)
            )
        if not unique:
            raise StructureError("table row lacks a unique inverse")
        self.order = m
        self.mul = mul
        self.inv = inv
        self.elem_order = self._element_orders()
        self.name = name
        self._gens: Optional[list[int]] = None if gens is None else list(gens)
        self._colours: Optional[np.ndarray] = None
        self._valid = False
        # |Aut| and its chain witnesses as a group (`catalog.automorphism_order`)
        self._aut: Optional[tuple[int, PermGroup]] = None

    # -- construction ------------------------------------------------------

    @classmethod
    def from_perms(cls, elems: np.ndarray, gens: Optional[Sequence[int]] = None) -> "GroupTable":
        """Table for a set of permutations closed under composition.

        `elems` holds one image row per element, sorted with the identity
        first; indices follow it.  `gens`, the row indices of a generating
        set, become the table's `generators()`, so Light's test and every
        check made on generators run on them; without it the table finds a
        greedy set when one is first needed.  More than
        `DEFAULT_TABLE_BUDGET` elements raise BudgetError.  Products are
        located by their images of a greedy base (`_base_levels`), looked up
        one base point at a time.
        """
        m = len(elems)
        check_budget(m)
        n = len(elems[0])
        if list(elems[0]) != list(range(n)):
            raise StructureError("element 0 must be the identity")
        arr = np.array(elems, dtype=np.int32)
        base, levels = cls._base_levels(arr)
        cols = np.ascontiguousarray(arr[:, base].T)  # row k: every p_j(b_k)
        mul = np.empty((m, m), dtype=index_dtype(m))
        step = max(1, 2**16 // m)  # rows of products per block
        for lo in range(0, m, step):
            rows = arr[lo : lo + step]
            key = np.zeros(1, dtype=np.int32)
            for level, col in zip(levels, cols):
                key = np.take(level, key * n + np.take(rows, col, axis=1))  # (p_i . p_j)(b) = p_i[p_j[b]]
            mul[lo : lo + step] = key
        if mul.min() < 0:
            raise StructureError("elements not closed under composition")
        spot_check(arr, mul)
        return cls(mul, gens=gens)

    @staticmethod
    def _base_levels(arr: np.ndarray) -> tuple[list[int], list[np.ndarray]]:
        """A greedy base of points whose images separate the elements, and
        one lookup table per base point.

        Each element is keyed by a dense id of its images of the base points
        so far.  Level k maps id * degree + (image of point k) to the next
        id, or to -1 where no element has that pair; its trailing block of
        -1s is where a missing prefix (-1) lands, so it stays -1 through
        later levels.  The last level's ids are the element indices.
        """
        m, n = arr.shape
        ids = np.zeros(m, dtype=np.int64)
        count = 1
        base: list[int] = []
        levels: list[np.ndarray] = []
        while count < m or not base:
            every = np.sort(ids[:, None] * n + arr, axis=0)  # keys with each point added
            distinct = 1 + np.count_nonzero(every[1:] != every[:-1], axis=0)
            x = int(distinct.argmax())
            if base and distinct[x] == count:
                raise StructureError("duplicate elements")
            keys = ids * n + arr[:, x]
            found, new = np.unique(keys, return_inverse=True)
            level = np.full((count + 1) * n, -1, dtype=np.int32)
            count = len(found)
            level[keys] = new if count < m else np.arange(m)
            base.append(x)
            levels.append(level)
            ids = new
        return base, levels

    # -- group laws ----------------------------------------------------------

    def validate(self, what: str) -> None:
        """Raise StructureError unless the dense table is a group with identity 0.

        Associativity is Light's test: the elements a with (x a) y = x (a y)
        for all x, y are closed under products in any bracketing, so
        checking it for a set of generators covers every product of them,
        in particular every product `closure_of`'s coset fill forms.  Such
        elements also split the table into right cosets of every subgroup
        they form, so Lagrange's theorem, on which the fill's early stop
        rests, holds as soon as the generators pass.  Each
        generator costs one order^2 comparison.  The Latin and
        associativity comparisons run over blocks of `_ROW_BLOCK` rows (and
        columns), so no temporary exceeds block * order cells.  Success is
        recorded on the instance, and tables are never changed in place, so
        later calls return at once.
        """
        if self._valid:
            return
        t = self.mul
        m = self.order
        rng = np.arange(m)
        if not (np.array_equal(t[0], rng) and np.array_equal(t[:, 0], rng)):
            raise StructureError(f"{what}: index 0 is not an identity")
        blocks = [(lo, lo + _ROW_BLOCK) for lo in range(0, m, _ROW_BLOCK)]
        for lo, hi in blocks:
            if not ((np.sort(t[lo:hi], axis=1) == rng).all()
                    and (np.sort(t[:, lo:hi], axis=0) == rng[:, None]).all()):
                raise StructureError(f"{what}: rows/columns are not permutations")
        gens = self.generators()
        if len(self.closure_of(gens)) != m:
            raise StructureError(f"{what}: products of the generators miss elements")
        for g in gens:
            for lo, hi in blocks:
                if not np.array_equal(t[t[lo:hi, g]], t[lo:hi][:, t[g]]):
                    raise StructureError(f"{what}: multiplication is not associative at generator {g}")
        self._valid = True

    def acts(self, rows: np.ndarray, what: str) -> bool:
        """Whether rows[g h] = rows[g] o rows[h] for every pair of elements.

        `rows[g]` is the permutation assigned to element g, and rows[0]
        must be the identity.  After the table passes `validate` (Light's
        test) it is associative and `generators()` generate it; the
        elements g with rows[g h] = rows[g] o rows[h] for every h are then
        closed under products, so checking the generators covers every
        element.
        """
        self.validate(what)
        return all(np.array_equal(rows[self.mul[g]], rows[g][rows]) for g in self.generators())

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
            power = self.mul[power, todo].astype(np.int64)
            k += 1
            done = power == 0
            out[todo[done]] = k
            todo, power = todo[~done], power[~done]
        return out

    def conj(self, a: int, x: int) -> int:
        """a x a^-1."""
        return int(self.mul[self.mul[a, x], self.inv[a]])

    def conj_many(self, a, xs: np.ndarray) -> np.ndarray:
        """a xs a^-1 elementwise; `a` broadcasts against `xs`, so a column
        of elements gives one row of conjugates per element."""
        return self.mul[self.mul[a, xs], self.inv[a]]

    def exponent(self) -> int:
        out = 1
        for k in np.unique(self.elem_order):
            out = lcm(out, int(k))
        return out

    # -- subgroup machinery ------------------------------------------------

    def closure_of(self, seeds: Iterable[int]) -> np.ndarray:
        """Sorted indices of the subgroup generated by `seeds`."""
        return self._fold(seeds)[0]

    def extend_subgroup(self, elems: np.ndarray, gens: Sequence[int], new: int) -> np.ndarray:
        """Sorted indices of <H, new> given H's sorted `elems` and `gens`.

        The result is a union of right cosets H r, filled from H new by right
        multiplication with H's generators and `new`, one representative at
        a time (`_coset_walk`).  Lagrange stop: a proper subgroup containing
        H has at most m/p elements, p the least prime dividing [G : H], so
        once the fill passes m/p the result is the whole group.
        """
        member = np.zeros(self.order, dtype=bool)
        member[elems] = True
        if member[new]:
            return elems
        most = self.order // _prime_factors(self.order // len(elems))[0]
        if not self._coset_walk(elems, [*gens, new], new, member, most):
            return np.arange(self.order, dtype=np.int64)
        return np.flatnonzero(member)

    def _coset_walk(self, elems, gens, new, member, most) -> bool:
        """Mark the cosets H new and H r g, one representative r at a time,
        until no new coset appears; False, with the fill left unfinished,
        once more than `most` elements are marked."""
        mul = self.mul
        h = len(elems)
        member[mul[elems, new]] = True
        reps = [new]
        for r in reps:  # grows as cosets are found
            if h * (len(reps) + 1) > most:
                return False
            for g in gens:
                t = int(mul[r, g])
                if not member[t]:
                    member[mul[elems, t]] = True
                    reps.append(t)
        return True

    def close_extensions(
        self, subgroups: Sequence[tuple[np.ndarray, Sequence[int]]], jobs: Sequence[tuple[int, int]]
    ) -> Iterator[list[np.ndarray]]:
        """Sorted indices of <H, x> for each job (s, x), where subgroups[s]
        = (sorted elements, generators) of H: the same sets `extend_subgroup`
        returns, yielded as one list per chunk of consecutive jobs, in job
        order.

        A chunk holds as many jobs as fit a membership mask of `_FILL_BYTES`
        one-byte cells, at least one, and is filled as one `_CosetFill`; a
        chunk of one job is `extend_subgroup`, whose walk costs less than
        setting up the kernel for one closure.
        A chunk's arrays may be views of one buffer, which a kept view holds
        alive.  Nothing is computed for a chunk until the caller asks for
        it, so a caller that reads the clock between chunks stops the work
        there.
        """
        per = max(1, _FILL_BYTES // self.order)
        for lo in range(0, len(jobs), per):
            chunk = jobs[lo : lo + per]
            if len(chunk) == 1:
                (s, x), = chunk
                yield [self.extend_subgroup(*subgroups[s], x)]
            else:
                owner, xs = np.array(chunk, dtype=np.intp).T
                yield _CosetFill(self, subgroups, owner, xs).run()

    def small_generating_set(
        self, elems: np.ndarray, start: Optional[tuple[np.ndarray, Sequence[int]]] = None
    ) -> list[int]:
        """Greedy generators for the subgroup on `elems`.

        `elems` lists the subgroup's elements in preference order: each one
        not yet generated becomes the next generator.  Sorted order gives
        the default set.  `start`, the sorted elements and generators of a
        subgroup of it, seeds the pass: the result is then those generators
        followed by the elements that enlarged it.
        """
        return self._fold(elems.tolist(), stop=len(elems), start=start)[1]

    def _fold(
        self, seeds: Iterable[int], stop: int = 0, start: Optional[tuple[np.ndarray, Sequence[int]]] = None
    ) -> tuple[np.ndarray, list[int]]:
        """`extend_subgroup` folded over the seeds from the subgroup `start`
        (elements and generators, default the trivial one): the sorted
        subgroup they generate and its generators, those of `start` followed
        by the seeds that enlarged it, ending early once the subgroup has
        `stop` elements."""
        elems, gens = start if start is not None else (np.array([0], dtype=np.int64), [])
        gens = list(gens)
        member = np.zeros(self.order, dtype=bool)
        member[elems] = True
        for x in seeds:
            if len(elems) == stop:
                break
            if not member[x]:
                elems = self.extend_subgroup(elems, gens, int(x))
                gens.append(int(x))
                member[elems] = True
        return elems, gens

    def normalizer_of(self, elems: np.ndarray, gens: Sequence[int]) -> np.ndarray:
        """Indices a with a H a^-1 = H, vectorized over the whole group."""
        m = self.order
        member = np.zeros(m, dtype=bool)
        member[elems] = True
        ok = np.ones(m, dtype=bool)
        rng = np.arange(m, dtype=np.int64)
        for g in gens:
            ok &= member[self.conj_many(rng, g)]
        return rng[ok]

    def centralizer_of(self, gens: Sequence[int]) -> np.ndarray:
        m = self.order
        rng = np.arange(m, dtype=np.int64)
        ok = np.ones(m, dtype=bool)
        for g in gens:
            ok &= self.mul[rng, g] == self.mul[g, rng]
        return rng[ok]

    def generators(self) -> list[int]:
        """The given generators, else a greedy generating set computed once."""
        if self._gens is None:
            self._gens = self.small_generating_set(np.arange(self.order, dtype=np.int64))
        return self._gens

    def center(self) -> np.ndarray:
        return self.centralizer_of(self.generators())

    def derived_subgroup(self) -> np.ndarray:
        """Normal closure of the commutators [s, t] = s t s^-1 t^-1 of generators:
        the subgroup generated by every conjugate of every commutator."""
        mul, inv = self.mul, self.inv
        g = np.array(self.generators(), dtype=np.int64)
        s, t = np.repeat(g, len(g)), np.tile(g, len(g))
        comms = mul[mul[mul[s, t], inv[s]], inv[t]]
        return self.closure_of(np.unique(self.conj_many(np.arange(self.order)[:, None], comms)))

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

    # -- colours ------------------------------------------------------------

    def colours(self) -> np.ndarray:
        """One non-negative int64 colour per element, preserved by every
        isomorphism: `subgroup_colours` of the whole group, computed once."""
        if self._colours is None:
            whole = (np.arange(self.order, dtype=np.int64), self.generators())
            self._colours = self.subgroup_colours([whole])[0]
        return self._colours

    def subgroup_colours(self, subgroups: Sequence[tuple[np.ndarray, Sequence[int]]]) -> list[np.ndarray]:
        """Colours of each subgroup, given as (sorted elements, generators),
        one int64 array per subgroup in its elements' order.

        Starts from (element order, conjugacy-class size in the subgroup),
        then three rounds mix in the colours of x^-1 and of x^p for each
        prime p dividing the subgroup's exponent.  Each ingredient is read
        here and is invariant under isomorphism, so the result equals the
        colours of the subgroup's own table without building it.  The mix
        is fixed uint64 arithmetic, so colours of different tables compare
        directly; a collision only merges colours.  Equal colours are
        necessary for an element and its image.

        The subgroups are coloured together, a chunk at a time
        (`_colour_chunks`): a chunk lays its subgroups' elements side by
        side on disjoint positions, reads inverses, orders and powers once
        over all of them, labels every conjugacy class with one
        `orbit_labels` call and runs the mix rounds once.
        """
        out: list[np.ndarray] = []
        for chunk in _colour_chunks([len(elems) for elems, _ in subgroups], self.order):
            out.extend(self._colour_chunk([subgroups[i] for i in chunk]))
        return out

    def _colour_chunk(self, subgroups: Sequence[tuple[np.ndarray, Sequence[int]]]) -> list[np.ndarray]:
        """`subgroup_colours` of one chunk.  Subgroup s holds positions
        offsets[s]..offsets[s+1]-1, and the flat position map holds the
        position of its element x at s * order + x, so the product at each
        position is located by one gather pos[row + product].  Subgroups
        with fewer generators than the widest are padded with the
        identity, whose conjugation moves nothing."""
        sizes = [len(elems) for elems, _ in subgroups]
        offsets = np.cumsum([0] + sizes)
        elems = np.concatenate([np.asarray(e, dtype=np.int64) for e, _ in subgroups])
        owner = np.repeat(np.arange(len(subgroups)), sizes)
        row = owner * self.order  # subgroup s's row in the flat position map
        pos = np.full(len(subgroups) * self.order, -1, dtype=index_dtype(len(elems)))
        pos[row + elems] = np.arange(len(elems))
        width = max(len(gens) for _, gens in subgroups)
        gens = np.zeros((width, len(subgroups)), dtype=np.int64)
        for s, (_, g) in enumerate(subgroups):
            gens[: len(g), s] = g
        lab = orbit_labels(pos[row + self.conj_many(gens[:, owner], elems)])
        size = np.bincount(lab, minlength=len(elems))[lab].astype(np.uint64)
        orders = self.elem_order[elems]
        exponent = np.lcm.reduceat(orders, offsets[:-1])
        # (positions, their x^p) for each prime p, on the positions of the
        # subgroups whose exponent p divides, in increasing p
        powers = []
        for p in sorted({p for e in set(exponent.tolist()) for p in _prime_factors(e)}):
            divides = exponent % p == 0
            at = slice(None) if divides.all() else np.flatnonzero(divides[owner])
            powers.append((at, pos[row[at] + self._powers(p, elems[at])]))
        inverse = pos[row + self.inv[elems]]
        c = _mix(orders.astype(np.uint64), size)
        for _ in range(3):
            new = _mix(c, c[inverse])
            for at, f in powers:
                new[at] = _mix(new[at], c[f])
            c = new
        c = (c >> np.uint64(1)).astype(np.int64)
        return [c[lo:hi] for lo, hi in zip(offsets[:-1], offsets[1:])]

    def _powers(self, e: int, elems: np.ndarray) -> np.ndarray:
        """x^e for every x in `elems`, by repeated squaring."""
        out = np.zeros(len(elems), dtype=np.int64)
        sq = elems
        while e:
            if e & 1:
                out = self.mul[out, sq].astype(np.int64)
            sq = self.mul[sq, sq].astype(np.int64)
            e >>= 1
        return out


def _prime_factors(n: int) -> list[int]:
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    return out + [n] if n > 1 else out


class _CosetFill:
    """Right-coset fills of a chunk of closures <H_j, x_j>, level by level.

    Job j's element y is cell j * order + y of one flat membership mask, and
    a coset H_j t is keyed by the cell of its least element.  Each
    subgroup's elements are stored once, however many jobs extend it, and
    a coset H_j t is gathered as one run of exactly |H_j| cells, so jobs
    of different subgroups share a gather without padding.  A job's row of the step matrix holds H_j's
    generators and x_j with their repeated squares x^2, x^4, ... below x's
    order, so a long cycle takes logarithmically many levels; rows are
    padded with the identity, whose products are always marked.

    A fill starts from each job's identity cell, whose coset is H_j.  Each
    level marks the cosets of the candidate cells, keeps the least cell of
    each new coset as the frontier, and multiplies the frontier by its
    job's steps; the products not yet marked are the next candidates.  A
    job stops with the whole group once its marked elements, counted as
    |H_j| per new coset, pass `extend_subgroup`'s Lagrange bound.  Frontier
    products and gathered cosets are taken in blocks of at most
    `_FILL_BYTES` bytes of int64 cells.
    """

    def __init__(self, T: GroupTable, subgroups: Sequence[tuple[np.ndarray, Sequence[int]]],
                 owner: np.ndarray, xs: np.ndarray):
        m = T.order
        self.mul, self.m = T.mul, m
        first = int(owner.min())
        hs = subgroups[first : int(owner.max()) + 1]
        owner = owner - first
        sizes = np.array([len(elems) for elems, _ in hs], dtype=np.intp)
        most = [m // _prime_factors(m // h)[0] if h < m else m for h in sizes.tolist()]
        self.most = np.array(most, dtype=np.intp)[owner]
        self.hsz = sizes[owner]
        self.hcat = np.concatenate([elems for elems, _ in hs]).astype(np.intp)
        self.hoff = (np.cumsum(sizes) - sizes)[owner]
        self.base = np.arange(len(owner), dtype=np.intp) * m
        self.member = np.zeros(len(owner) * m, dtype=bool)
        self.count = np.zeros(len(owner), dtype=np.intp)
        self.alive = np.ones(len(owner), dtype=bool)
        gens = np.zeros((len(hs), max(len(g) for _, g in hs) + 1), dtype=np.intp)
        for s, (_, g) in enumerate(hs):
            gens[s, : len(g)] = g
        gens = gens[owner]
        gens[:, -1] = xs
        self.steps = self._squares(T, gens)

    @staticmethod
    def _squares(T: GroupTable, gens: np.ndarray) -> np.ndarray:
        """Each row's generators and their repeated squares below their
        order, the identity moved to the end and the columns that hold
        nothing else dropped."""
        orders = T.elem_order[gens]
        cols, power, e = [gens], gens, 2
        while (live := orders > e).any():
            power = np.where(live, T.mul[power, power], 0)
            cols.append(power)
            e *= 2
        steps = np.sort(np.concatenate(cols, axis=1), axis=1)[:, ::-1]
        return steps[:, : max(1, np.count_nonzero(steps, axis=1).max())]

    def run(self) -> list[np.ndarray]:
        """Fill every job level by level from its identity cell until no job
        has a new coset; return each job's sorted elements."""
        cells = self.base
        while len(cells):
            cells = self._products(self._mark(cells))
        m = self.m
        self.member.reshape(-1, m)[~self.alive] = False  # a stopped job gets `whole`
        elems = np.flatnonzero(self.member)
        elems %= m
        size = np.where(self.alive, self.count, 0)
        whole = np.arange(m)
        return [elems[hi - k : hi] if k else whole for hi, k in zip(np.cumsum(size).tolist(), size.tolist())]

    def _mark(self, cells: np.ndarray) -> np.ndarray:
        """Mark the cosets H_j t of the candidate cells j * order + t, sorted,
        distinct and unmarked, and return the least cells of the new cosets
        of the jobs within their Lagrange bound."""
        m = self.m
        found = []
        while len(cells):
            job = cells // m
            h = self.hsz[job]
            ends = np.cumsum(h)
            k = max(1, int(np.searchsorted(ends, _FILL_BYTES // 8, "right")))
            job, h = job[:k], h[:k]
            base = self.base[job]
            elems = self.hcat[_ranges(self.hoff[job], h)]
            coset = np.repeat(base, h) + self.mul[elems, np.repeat(cells[:k] - base, h)]
            found.append(np.minimum.reduceat(coset, ends[:k] - h))
            self.member[coset] = True
            cells = cells[k:]
            if len(cells):  # drop the cosets this block marked
                cells = cells[~self.member[cells]]
        front = _distinct(np.concatenate(found) if len(found) > 1 else found[0])
        self.count += np.bincount(front // m, minlength=len(self.count)) * self.hsz
        if (self.count > self.most).any():
            self.alive &= self.count <= self.most
            front = front[self.alive[front // m]]
        return front

    def _products(self, front: np.ndarray) -> np.ndarray:
        """The unmarked products of the frontier cells with their jobs'
        steps, sorted and distinct."""
        m = self.m
        rows = max(1, _FILL_BYTES // 8 // self.steps.shape[1])
        found = []
        for lo in range(0, len(front), rows):
            f = front[lo : lo + rows]
            job = f // m
            base = self.base[job][:, None]
            cells = base + self.mul[f[:, None] - base, self.steps[job]]
            found.append(cells[~self.member[cells]])
        if not found:
            return front
        return _distinct(np.concatenate(found) if len(found) > 1 else found[0])


def _distinct(a: np.ndarray) -> np.ndarray:
    """The distinct values of the 1-d array `a`, sorted; `a` is sorted in
    place."""
    a.sort()
    keep = np.empty(len(a), dtype=bool)
    keep[:1] = True
    np.not_equal(a[1:], a[:-1], out=keep[1:])
    return a[keep]


def _ranges(starts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """The concatenated ranges starts[i], ..., starts[i] + sizes[i] - 1."""
    ends = np.cumsum(sizes)
    return np.arange(ends[-1] if len(ends) else 0) + np.repeat(starts - ends + sizes, sizes)


def _colour_chunks(sizes: Sequence[int], order: int) -> list[range]:
    """Consecutive runs of subgroups coloured together: each run holds at
    most `_COLOUR_POSITIONS` elements and a position map of at most
    `_COLOUR_MAP_CELLS` cells (one row of `order` per subgroup), or a
    single subgroup."""
    runs, lo, total = [], 0, 0
    for i, k in enumerate(sizes):
        if i > lo and (total + k > _COLOUR_POSITIONS or (i - lo + 1) * order > _COLOUR_MAP_CELLS):
            runs.append(range(lo, i))
            lo, total = i, 0
        total += k
    if sizes:
        runs.append(range(lo, len(sizes)))
    return runs


def _mix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Order-dependent uint64 hash of two colour arrays (a splitmix64 finalizer)."""
    h = a * np.uint64(0x9E3779B97F4A7C15) ^ (b + np.uint64(0x632BE59BD9B4E019))
    h = (h ^ (h >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    h = (h ^ (h >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return h ^ (h >> np.uint64(31))


__all__ = [
    "GroupTable",
    "DEFAULT_TABLE_BUDGET",
]
