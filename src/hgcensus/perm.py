"""Finite permutations and permutation groups with 0-based points.

A permutation on n points is a row of images: p[x] is the image of x.
Composition follows (p * q)(x) = p(q(x)), i.e. q acts first.  Groups hold
their elements as an integer array of lex-sorted rows; tuples appear only
where cycle notation is parsed and printed, and inside `closure`'s
breadth-first search.  Closure is guarded by an element budget and raises
instead of truncating.
"""

from __future__ import annotations

from collections import deque
from operator import itemgetter
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

import numpy as np

from .errors import ClosureBudgetError, StructureError

if TYPE_CHECKING:
    from .table import GroupTable

Perm = tuple[int, ...]

DEFAULT_ELEMENT_BUDGET = 500_000


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
        try:
            points = [int(tok) for tok in chunk.replace(",", " ").split()]
        except ValueError:
            raise StructureError(f"bad cycle notation: {text!r}") from None
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
    generators: Iterable[Sequence[int]],
    degree: int,
    budget: int = DEFAULT_ELEMENT_BUDGET,
) -> np.ndarray:
    """All products of the generators, as lexicographically sorted image rows.

    Breadth-first word saturation over tuples; the (order, degree) result
    starts with the identity and is independent of generator order.  Raises
    ClosureBudgetError once more than `budget` elements exist.
    """
    gens = [tuple(g) for g in generators]
    for g in gens:
        if len(g) != degree or not is_perm(g):
            raise StructureError(f"not a permutation of degree {degree}: {g}")
    # itemgetter(*g)(cur) is cur after g; below two points every
    # permutation is the identity, and itemgetter would return a scalar
    steps = [itemgetter(*g) for g in gens] if degree > 1 else []
    e = tuple(range(degree))
    seen = {e}
    frontier = deque([e])
    while frontier:
        cur = frontier.popleft()
        for step in steps:
            nxt = step(cur)
            if nxt not in seen:
                if len(seen) >= budget:
                    raise ClosureBudgetError(
                        "closure exceeded element budget",
                        spent=len(seen),
                        budget=budget,
                    )
                seen.add(nxt)
                frontier.append(nxt)
    return np.array(sorted(seen), dtype=np.int64).reshape(len(seen), degree)


class PermGroup:
    """A permutation group held as image rows.

    `generators` is a (k, degree) array.  `elements` is the lex-sorted
    (order, degree) array of every element's images, identity first: the
    layout of `HolomorphContext.perms`.  Elements passed in are taken as
    given; otherwise `closure` computes them on first use.
    """

    __slots__ = ("degree", "generators", "_elements", "_table")

    def __init__(
        self,
        generators: Iterable[Sequence[int]],
        degree: int,
        elements: Optional[np.ndarray] = None,
    ):
        self.degree = degree
        gens = np.asarray(generators)
        self.generators = gens.reshape(-1, degree) if gens.size == 0 else gens
        self._elements = elements
        self._table: Optional[GroupTable] = None

    @property
    def elements(self) -> np.ndarray:
        if self._elements is None:
            self._elements = closure(self.generators.tolist(), self.degree)
        return self._elements

    @property
    def order(self) -> int:
        return len(self.elements)

    def table(self) -> GroupTable:
        """Multiplication table over `elements`, built on first use.  Its
        `generators()` are the rows of this group's own `generators`, so
        checks made on a table's generators run on them."""
        if self._table is None:
            from .table import GroupTable  # table imports perm

            gens = row_index(self.generators, self.elements)
            if (gens < 0).any():
                raise StructureError("a generator is not among the group's elements")
            self._table = GroupTable.from_perms(self.elements, gens.tolist())
        return self._table

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
    A root with several joining edges is hooked by plain assignment under
    any one of its smaller partners: labels only decrease, so no cycle
    forms, and an orbit's least point is never hooked, so it ends as the
    orbit's only root.  Each round gathers lab[maps] once and takes the
    labels of the joining edges alone; jumping stops when every label is
    a root, lab[lab] == lab.
    """
    maps = np.asarray(maps, dtype=np.int64)
    lab = np.arange(maps.shape[1], dtype=np.int64)
    while True:
        there = lab[maps]
        join = there != lab
        if not join.any():
            return lab
        here, there = np.broadcast_to(lab, maps.shape)[join], there[join]
        lab[np.maximum(here, there)] = np.minimum(here, there)
        while True:
            up = lab[lab]
            if (up == lab).all():
                break
            lab = up


def row_index(rows: np.ndarray, members: np.ndarray) -> np.ndarray:
    """Position of each row of `rows` among the rows of `members`, -1 where absent."""
    dtype = np.result_type(rows, members)

    def keys(a: np.ndarray) -> np.ndarray:  # one byte-string key per row
        a = np.ascontiguousarray(a, dtype=dtype)
        return a.view(np.dtype((np.void, a.dtype.itemsize * a.shape[1]))).ravel()

    known = keys(members)
    order = np.argsort(known)
    query = keys(rows)
    pos = order[np.searchsorted(known[order], query).clip(max=len(known) - 1)]
    return np.where(known[pos] == query, pos, -1)


def is_transitive(g: PermGroup) -> bool:
    """Whether the generators' orbit of point 0 is every point."""
    return not orbit_labels(g.generators).any()
