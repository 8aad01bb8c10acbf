"""Catalog of finite groups by multiplication table.

Every group is built from permutation generators by
`CayleyGroup.from_perm_generators`: those of a line-oriented data file (see
catalog_data.txt) or those of a faithful action written in code.  Element 0
is always the identity; distinguished generators are element indices known to
generate the whole group.
"""

from __future__ import annotations

import importlib.resources
import shlex
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import StructureError, UnsupportedOrderError
from .iso import IsoSearch
from .perm import PermGroup, parse_cycles, row_index
from .table import GroupTable

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
        cls, name: str, gens: Sequence[Sequence[int]], degree: int, structure: str = ""
    ) -> "CayleyGroup":
        perms = PermGroup(gens, degree)
        gt = perms.table()  # indices follow the sorted elements, identity first
        dist = tuple(row_index(perms.generators, perms.elements).tolist())
        group = cls(name, gt.mul, dist, structure, checked=True)
        group._gt = gt
        group.validate()
        return group

    # -- contracts ------------------------------------------------------------

    def validate(self) -> None:
        gt = self.as_table()
        gt.validate(self.name)
        if len(gt.closure_of(self.distinguished_generators)) != self.order:
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
    """Left action a: x -> a*x, or right action a: x -> x*a, on 0..n-1.

    Row a of either action sends 0 to a, so the rows come sorted.
    """
    if side == "left":
        perms = g.table
    elif side == "right":
        perms = g.table.T
    else:
        raise StructureError(f"side must be 'left' or 'right', got {side!r}")
    return PermGroup(perms[list(g.distinguished_generators)], g.order, elements=perms)


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
    images are pruned by element colours (`GroupTable.colours`) and
    partial-product checks.
    Every element but the identity is listed as a generator.
    """
    if g._aut is None:
        gt = g.as_table()
        maps = np.array(IsoSearch(gt, gt, gens=list(g.distinguished_generators)).run("all"))
        maps = maps[np.lexsort(maps.T[::-1])]
        g._aut = PermGroup(maps[1:], g.order, elements=maps)
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
