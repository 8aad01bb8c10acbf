"""Catalog of finite groups by multiplication table.

Every group is a named `GroupTable` built from permutation generators by
`from_perm_generators`: those of a line-oriented data file (see
catalog_data.txt) or those of a faithful action written in code.  Element 0
is always the identity, and the table's `generators()` are the indices of
the given permutations, in the given order.
"""

from __future__ import annotations

import importlib.resources
import shlex
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ConsistencyError, StructureError, UnsupportedOrderError
from .iso import IsoSearch
from .perm import PermGroup, parse_cycles
from .table import GroupTable

@dataclass(frozen=True)
class GroupInvariants:
    """Cheap isomorphism invariants; equal under any relabeling."""

    order: int
    order_multiset: tuple[tuple[int, int], ...]  # (element order, count)
    center_order: int
    derived_order: int
    abelian: bool
    exponent: int


def from_perm_generators(name: str, gens: Sequence[Sequence[int]], degree: int) -> GroupTable:
    """The named table of the group the permutations generate.

    Indices follow the sorted elements, identity first, and the table's
    `generators()` are the given permutations' indices, in order.
    """
    table = PermGroup(gens, degree).table()
    table.name = name
    table.validate(name)
    return table


def invariants(gt: GroupTable) -> GroupInvariants:
    """Invariants of the table; center, derived subgroup and the abelian
    test all work from the table's one generating set."""
    orders, counts = np.unique(gt.elem_order, return_counts=True)
    return GroupInvariants(
        order=gt.order,
        order_multiset=tuple(zip(orders.tolist(), counts.tolist())),
        center_order=len(gt.center()),
        derived_order=len(gt.derived_subgroup()),
        abelian=gt.is_abelian(),
        exponent=gt.exponent(),
    )


def automorphism_order(g: GroupTable) -> int:
    """|Aut(g)|, the orbit-stabilizer chain count of `IsoSearch` from the
    table onto itself, run once per table.  The chain's witnesses are kept
    on the table, unclosed, for `automorphism_group`."""
    if g._aut is None:
        search = IsoSearch(g, g)
        count = search.run("count")
        g._aut = (count, PermGroup(search.witnesses, g.order))
    return g._aut[0]


def automorphism_group(g: GroupTable) -> PermGroup:
    """All automorphisms, as permutations of the element indices, lex-sorted.

    The witnesses of `automorphism_order`'s chain are the generators, and
    `perm.closure` gives the elements, which must number exactly the count.
    Cached on the table.
    """
    count = automorphism_order(g)
    aut = g._aut[1]
    if aut.order != count:
        raise ConsistencyError(
            f"{g.name}: the chain counts {count} automorphisms, its witnesses generate {aut.order}"
        )
    return aut


# -- catalog file ------------------------------------------------------------

_catalog_cache: Optional[dict[int, list[GroupTable]]] = None
_checked_orders: set[int] = set()


def _parse_catalog(text: str) -> dict[int, list[GroupTable]]:
    out: dict[int, list[GroupTable]] = {}
    name = None
    order = degree = None
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
            gens = []
        elif line.startswith("gen "):
            gens.append(line[4:].strip())
        elif line == "end":
            if name is None:
                raise StructureError(f"catalog line {lineno}: stray end")
            perms = [parse_cycles(s, degree) for s in gens]
            grp = from_perm_generators(name, perms, degree)
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


def _load_catalog() -> dict[int, list[GroupTable]]:
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


def groups_of_order(n: int) -> list[GroupTable]:
    """Catalog groups of order n, in catalog file order."""
    cat = _load_catalog()
    if n not in cat:
        raise UnsupportedOrderError(n, catalog_orders())
    groups = cat[n]
    if n not in _checked_orders:
        for i in range(len(groups)):
            for j in range(i + 1, len(groups)):
                if IsoSearch(groups[i], groups[j]).run("first") is not None:
                    raise StructureError(
                        f"catalog groups {groups[i].name} and {groups[j].name} are isomorphic"
                    )
        _checked_orders.add(n)
    return groups


__all__ = [
    "from_perm_generators",
    "GroupInvariants",
    "invariants",
    "automorphism_order",
    "automorphism_group",
    "groups_of_order",
    "catalog_orders",
]
