"""Finite permutations and permutation groups with 0-based points.

A permutation on n points is a tuple of images: p[x] is the image of x.
Composition follows (p * q)(x) = p(q(x)), i.e. q acts first.  All groups
materialize their full element set; closure is guarded by an element budget
and raises instead of truncating.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .errors import ClosureBudgetError, StructureError

Perm = tuple[int, ...]

DEFAULT_ELEMENT_BUDGET = 500_000


def identity(degree: int) -> Perm:
    return tuple(range(degree))


def compose(p: Perm, q: Perm) -> Perm:
    """Composite p after q: (p . q)(x) = p(q(x))."""
    return tuple(p[i] for i in q)


def inverse(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, j in enumerate(p):
        out[j] = i
    return tuple(out)


def conjugate(a: Perm, p: Perm) -> Perm:
    """a . p . a^-1, the relabeling of p along a."""
    out = [0] * len(p)
    for i, j in enumerate(p):
        out[a[i]] = a[j]
    return tuple(out)


def perm_order(p: Perm) -> int:
    """Multiplicative order, via lcm of cycle lengths."""
    from math import lcm

    n = len(p)
    seen = [False] * n
    order = 1
    for start in range(n):
        if seen[start]:
            continue
        length = 0
        x = start
        while not seen[x]:
            seen[x] = True
            x = p[x]
            length += 1
        order = lcm(order, length)
    return order


def is_perm(images: Sequence[int]) -> bool:
    n = len(images)
    return sorted(images) == list(range(n))


def parse_cycles(text: str, degree: int) -> Perm:
    """Parse cycle notation like "(0 1 2)(3 4)"; "()" is the identity."""
    images = list(range(degree))
    body = text.strip()
    if body in ("()", ""):
        return tuple(images)
    if not body.startswith("(") or not body.endswith(")"):
        raise StructureError(f"bad cycle notation: {text!r}")
    for chunk in body[1:-1].split(")("):
        points = [int(tok) for tok in chunk.replace(",", " ").split()]
        if len(points) != len(set(points)):
            raise StructureError(f"repeated point in cycle: {text!r}")
        for pt in points:
            if not 0 <= pt < degree:
                raise StructureError(f"point {pt} out of range for degree {degree}")
        for i, pt in enumerate(points):
            images[pt] = points[(i + 1) % len(points)]
    if not is_perm(images):
        raise StructureError(f"cycles overlap: {text!r}")
    return tuple(images)


def format_cycles(p: Perm) -> str:
    """Cycle notation with fixed points omitted; identity prints as "()"."""
    n = len(p)
    seen = [False] * n
    parts = []
    for start in range(n):
        if seen[start] or p[start] == start:
            seen[start] = True
            continue
        cyc = []
        x = start
        while not seen[x]:
            seen[x] = True
            cyc.append(x)
            x = p[x]
        parts.append("(" + " ".join(str(pt) for pt in cyc) + ")")
    return "".join(parts) if parts else "()"


def closure(
    generators: Iterable[Perm],
    degree: int,
    budget: int = DEFAULT_ELEMENT_BUDGET,
) -> list[Perm]:
    """All products of the generators, as a lexicographically sorted list.

    Breadth-first word saturation; the output is independent of generator
    order.  Raises ClosureBudgetError once more than `budget` elements exist.
    """
    gens = [tuple(g) for g in generators]
    for g in gens:
        if len(g) != degree or not is_perm(g):
            raise StructureError(f"not a permutation of degree {degree}: {g}")
    e = identity(degree)
    seen = {e}
    frontier = deque([e])
    while frontier:
        cur = frontier.popleft()
        for g in gens:
            nxt = compose(cur, g)
            if nxt not in seen:
                if len(seen) >= budget:
                    raise ClosureBudgetError(
                        "closure exceeded element budget",
                        spent=len(seen),
                        budget=budget,
                    )
                seen.add(nxt)
                frontier.append(nxt)
    return sorted(seen)


class PermGroup:
    """A permutation group given by generators, with materialized elements."""

    __slots__ = ("degree", "generators", "_elements", "_sorted")

    def __init__(
        self,
        generators: Iterable[Perm],
        degree: int,
        _elements: Optional[frozenset[Perm]] = None,
    ):
        self.degree = degree
        self.generators = tuple(tuple(g) for g in generators)
        self._elements: Optional[frozenset[Perm]] = _elements
        self._sorted: Optional[list[Perm]] = None

    @classmethod
    def from_elements(cls, elements: Iterable[Perm], degree: int) -> "PermGroup":
        elems = frozenset(tuple(p) for p in elements)
        gens = tuple(sorted(elems - {identity(degree)})) or (identity(degree),)
        return cls(gens, degree, _elements=elems)

    @property
    def elements(self) -> frozenset[Perm]:
        if self._elements is None:
            self._elements = frozenset(closure(self.generators, self.degree))
        return self._elements

    @property
    def sorted_elements(self) -> list[Perm]:
        if self._sorted is None:
            self._sorted = sorted(self.elements)
        return self._sorted

    @property
    def order(self) -> int:
        return len(self.elements)

    def __contains__(self, p: Perm) -> bool:
        return tuple(p) in self.elements

    def __le__(self, other: "PermGroup") -> bool:
        return self.degree == other.degree and self.elements <= other.elements

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, PermGroup)
            and self.degree == other.degree
            and self.elements == other.elements
        )

    def __hash__(self) -> int:
        return hash((self.degree, self.elements))

    def __iter__(self) -> Iterator[Perm]:
        return iter(self.sorted_elements)

    def __repr__(self) -> str:
        return f"PermGroup(degree={self.degree}, order={self.order})"


def orbit_labels(maps: np.ndarray) -> np.ndarray:
    """Least point of each point's orbit under the group the rows generate.

    `maps` is a (k, m) integer array whose rows are permutations of 0..m-1;
    k = 0 gives arange(m).  The orbits are the connected components of the
    edges x -> map(x), labelled by root hooking and pointer jumping
    (Shiloach & Vishkin, J. Algorithms 3, 1982): each round hooks the
    larger label of every edge joining two labels under the smaller one,
    then jumps every point to its root.  Hooking roots, rather than taking
    neighbour minima, keeps the round count logarithmic on long cycles.
    """
    maps = np.asarray(maps, dtype=np.int64)
    lab = np.arange(maps.shape[1], dtype=np.int64)
    while True:
        here, there = np.broadcast_to(lab, maps.shape), lab[maps]
        join = here != there
        if not join.any():
            return lab
        np.minimum.at(lab, np.maximum(here, there)[join], np.minimum(here, there)[join])
        while True:
            up = lab[lab]
            if np.array_equal(up, lab):
                break
            lab = up


def rows_in(rows: np.ndarray, members: np.ndarray) -> np.ndarray:
    """Mask of the rows of `rows` that are also rows of `members`."""

    def keys(a: np.ndarray) -> np.ndarray:  # one byte-string key per row
        a = np.ascontiguousarray(a, dtype=members.dtype)
        return a.view(np.dtype((np.void, a.dtype.itemsize * a.shape[1]))).ravel()

    known = np.sort(keys(members))
    query = keys(rows)
    pos = np.searchsorted(known, query).clip(max=len(known) - 1)
    return known[pos] == query


def orbit(g: PermGroup, x: int) -> frozenset[int]:
    """Orbit of the point x under g."""
    if not 0 <= x < g.degree:
        raise StructureError(f"point {x} out of range for degree {g.degree}")
    lab = orbit_labels(np.array(g.generators, dtype=np.int64).reshape(-1, g.degree))
    return frozenset(np.flatnonzero(lab == lab[x]).tolist())


def is_transitive(g: PermGroup) -> bool:
    return len(orbit(g, 0)) == g.degree


def point_stabilizer(g: PermGroup, x: int) -> PermGroup:
    """Subgroup fixing the point x, by filtering the element set."""
    stab = [p for p in g.sorted_elements if p[x] == x]
    sub = PermGroup.from_elements(stab, g.degree)
    if sub.order * len(orbit(g, x)) != g.order:
        raise StructureError("orbit-stabilizer mismatch; input not a group?")
    return sub
