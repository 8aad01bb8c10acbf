"""Catalog of finite groups by multiplication table.

Groups are loaded from a line-oriented data file of generator permutations
(see catalog_data.txt) or built directly from structure formulas.  Element 0
is always the identity; distinguished generators are element indices known to
generate the whole group.
"""

from __future__ import annotations

import importlib.resources
import shlex
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .errors import StructureError, UnsupportedOrderError
from .iso import IsoSearch
from .perm import Perm, PermGroup, closure, compose, parse_cycles
from .table import GroupTable

_ASSOC_CHECK_LIMIT = 30
_SELFTEST_LIMIT = 12


@dataclass(frozen=True)
class GroupInvariants:
    """Cheap isomorphism invariants; equal under any relabeling."""

    order: int
    order_multiset: tuple[tuple[int, int], ...]  # (element order, count)
    center_order: int
    derived_order: int
    abelian: bool
    exponent: int


class CayleyGroup:
    """A finite group as an explicit multiplication table plus metadata."""

    def __init__(
        self,
        name: str,
        table: np.ndarray,
        distinguished_generators: tuple[int, ...],
        structure: str = "",
        checked: bool = False,
    ):
        self.name = name
        self.table = np.asarray(table)
        self.order = self.table.shape[0]
        self.distinguished_generators = tuple(distinguished_generators)
        self.structure = structure
        self._gt: Optional[GroupTable] = None
        self._aut: Optional[PermGroup] = None
        if not checked:
            self.validate()

    # -- construction --------------------------------------------------------

    @classmethod
    def from_perm_generators(
        cls, name: str, gens: Sequence[Perm], degree: int, structure: str = ""
    ) -> "CayleyGroup":
        elems = closure(gens, degree)
        index = {p: i for i, p in enumerate(elems)}
        n = len(elems)
        table = np.empty((n, n), dtype=np.int16)
        for i, p in enumerate(elems):
            for j, q in enumerate(elems):
                table[i, j] = index[compose(p, q)]
        dist = tuple(index[tuple(g)] for g in gens)
        return cls(name, table, dist, structure)

    @classmethod
    def from_elements(
        cls,
        name: str,
        elements: Sequence,
        mult: Callable,
        identity,
        generators: Sequence,
        structure: str = "",
    ) -> "CayleyGroup":
        """Build from abstract carrier values and a multiplication callable."""
        rest = sorted(e for e in elements if e != identity)
        ordered = [identity] + rest
        index = {e: i for i, e in enumerate(ordered)}
        n = len(ordered)
        table = np.empty((n, n), dtype=np.int16)
        for i, a in enumerate(ordered):
            for j, b in enumerate(ordered):
                c = mult(a, b)
                if c not in index:
                    raise StructureError(f"{name}: product {c!r} not in carrier")
                table[i, j] = index[c]
        g = cls(name, table, tuple(index[x] for x in generators), structure)
        g.element_values = list(ordered)
        g.value_index = index
        return g

    # -- contracts ------------------------------------------------------------

    def validate(self) -> None:
        n = self.order
        t = self.table
        rng = np.arange(n)
        if not (np.array_equal(t[0], rng) and np.array_equal(t[:, 0], rng)):
            raise StructureError(f"{self.name}: element 0 is not an identity")
        for i in range(n):
            if sorted(t[i]) != list(rng) or sorted(t[:, i]) != list(rng):
                raise StructureError(f"{self.name}: row/column {i} is not a permutation")
        if n <= _ASSOC_CHECK_LIMIT:
            triples = ((a, b, c) for a in range(n) for b in range(n) for c in range(n))
        else:
            rng_state = np.random.default_rng(7)
            triples = (tuple(x) for x in rng_state.integers(0, n, size=(4000, 3)))
        for a, b, c in triples:
            if t[t[a, b], c] != t[a, t[b, c]]:
                raise StructureError(f"{self.name}: associativity fails at {(a, b, c)}")
        gen_closure = self.as_table().closure_of(self.distinguished_generators)
        if len(gen_closure) != n:
            raise StructureError(f"{self.name}: distinguished generators do not generate")

    def as_table(self) -> GroupTable:
        if self._gt is None:
            self._gt = GroupTable(self.table)
        return self._gt

    def __repr__(self) -> str:
        return f"CayleyGroup({self.name}, order={self.order})"


def invariants(g: CayleyGroup | GroupTable) -> GroupInvariants:
    """Invariants of the table; center, derived subgroup and the abelian
    test all work from the table's one cached generating set."""
    gt = g.as_table() if isinstance(g, CayleyGroup) else g
    orders, counts = np.unique(gt.elem_order, return_counts=True)
    return GroupInvariants(
        order=gt.order,
        order_multiset=tuple(zip(orders.tolist(), counts.tolist())),
        center_order=len(gt.center()),
        derived_order=len(gt.derived_subgroup()),
        abelian=gt.is_abelian(),
        exponent=gt.exponent(),
    )


def regular_representation(g: CayleyGroup, side: str = "left") -> PermGroup:
    """Left action a: x -> a*x, or right action a: x -> x*a, on 0..n-1."""
    t = g.table
    if side == "left":
        perms = [tuple(int(v) for v in t[a]) for a in range(g.order)]
    elif side == "right":
        perms = [tuple(int(v) for v in t[:, a]) for a in range(g.order)]
    else:
        raise StructureError(f"side must be 'left' or 'right', got {side!r}")
    gens = [perms[i] for i in g.distinguished_generators]
    return PermGroup(gens, g.order, _elements=frozenset(perms))


def opposite_group(g: CayleyGroup) -> CayleyGroup:
    return CayleyGroup(
        g.name + "_op",
        g.table.T.copy(),
        g.distinguished_generators,
        structure=g.structure,
        checked=True,
    )


def automorphism_group(g: CayleyGroup) -> PermGroup:
    """All automorphisms, as permutations of the element indices.

    Backtracking over images of the distinguished generators; candidate
    images are pruned by conjugacy-fingerprint and partial-product checks.
    """
    if g._aut is None:
        gt = g.as_table()
        if g.order == 1:
            return PermGroup([(0,)], 1)
        search = IsoSearch(gt, gt, gens=list(g.distinguished_generators))
        maps = search.run("all")
        perms = [tuple(int(v) for v in arr) for arr in maps]
        g._aut = PermGroup.from_elements(perms, g.order)
    return g._aut


# -- catalog file ------------------------------------------------------------

_catalog_cache: Optional[dict[int, list[CayleyGroup]]] = None
_checked_orders: set[int] = set()


def _parse_catalog(text: str) -> dict[int, list[CayleyGroup]]:
    out: dict[int, list[CayleyGroup]] = {}
    name = None
    order = degree = None
    structure = ""
    gens: list[str] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("group "):
            if name is not None:
                raise StructureError(f"catalog line {lineno}: nested group block")
            parts = shlex.split(line)
            name = parts[1]
            attrs = dict(p.split("=", 1) for p in parts[2:])
            order = int(attrs["order"])
            degree = int(attrs["degree"])
            structure = attrs.get("struct", "")
            gens = []
        elif line.startswith("gen "):
            gens.append(line[4:].strip())
        elif line == "end":
            if name is None:
                raise StructureError(f"catalog line {lineno}: stray end")
            perms = [parse_cycles(s, degree) for s in gens]
            grp = CayleyGroup.from_perm_generators(name, perms, degree, structure)
            if grp.order != order:
                raise StructureError(
                    f"{name}: declared order {order}, generated order {grp.order}"
                )
            out.setdefault(order, []).append(grp)
            name = None
        else:
            raise StructureError(f"catalog line {lineno}: unrecognized: {line!r}")
    if name is not None:
        raise StructureError("catalog ended inside a group block")
    return out


def _load_catalog() -> dict[int, list[CayleyGroup]]:
    global _catalog_cache
    if _catalog_cache is None:
        text = (
            importlib.resources.files("hgcensus")
            .joinpath("catalog_data.txt")
            .read_text(encoding="utf-8")
        )
        _catalog_cache = _parse_catalog(text)
    return _catalog_cache


def catalog_orders() -> tuple[int, ...]:
    return tuple(sorted(_load_catalog().keys()))


def groups_of_order(n: int) -> list[CayleyGroup]:
    """Catalog groups of order n, in catalog file order."""
    cat = _load_catalog()
    if n not in cat:
        raise UnsupportedOrderError(n, catalog_orders())
    groups = cat[n]
    if n <= _SELFTEST_LIMIT and n not in _checked_orders:
        for i in range(len(groups)):
            for j in range(i + 1, len(groups)):
                if IsoSearch(groups[i].as_table(), groups[j].as_table()).run("first") is not None:
                    raise StructureError(
                        f"catalog groups {groups[i].name} and {groups[j].name} are isomorphic"
                    )
        _checked_orders.add(n)
    return groups


__all__ = [
    "CayleyGroup",
    "GroupInvariants",
    "invariants",
    "regular_representation",
    "opposite_group",
    "automorphism_group",
    "groups_of_order",
    "catalog_orders",
]
