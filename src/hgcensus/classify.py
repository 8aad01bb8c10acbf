"""Equivalence classes of transitive records under stabilizer-respecting
isomorphism.

Two transitive permutation groups are considered equivalent when some
abstract isomorphism between them carries the point-0 stabilizer of one
onto the point-0 stabilizer of the other.  Records of one degree, drawn
from the holomorphs of every group of that order, are partitioned into
such classes; each class corresponds to one isomorphism type of field
extension datum realized by possibly several holomorphs.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .catalog import GroupInvariants, invariants
from .enumeration import TransitiveClassRecord
from .errors import ConsistencyError
from .iso import IsoSearch
from .perm import Perm, PermGroup
from .table import GroupTable


@dataclass
class EquivalenceClass:
    """One class of mutually stabilizer-respecting-isomorphic records."""

    degree: int
    members: list[tuple[str, TransitiveClassRecord]]
    abstract_invariants: GroupInvariants
    label: str
    # filled lazily by the counting layer; |Aut(G)| resp. |Aut(G, G')|
    aut_marked_order: Optional[int] = field(default=None, repr=False)

    @property
    def order(self) -> int:
        return self.members[0][1].order

    @property
    def stabilizer_order(self) -> int:
        return self.members[0][1].stabilizer_order

    @property
    def regular(self) -> bool:
        return self.members[0][1].regular

    def records(self) -> list[TransitiveClassRecord]:
        return [rec for _, rec in self.members]


def stab_respecting_iso(g1: PermGroup, g2: PermGroup) -> Optional[dict[Perm, Perm]]:
    """Isomorphism g1 -> g2 carrying point-0 stabilizer onto point-0
    stabilizer, or None.  The stabilizer constraint prunes the search
    rather than filtering afterwards."""
    if g1.order != g2.order:
        return None
    e1 = g1.sorted_elements
    e2 = g2.sorted_elements
    s1 = np.flatnonzero([p[0] == 0 for p in e1])
    s2 = np.flatnonzero([p[0] == 0 for p in e2])
    if len(s1) != len(s2):
        return None
    search = IsoSearch(GroupTable.from_perms(e1), GroupTable.from_perms(e2), marked1=s1, marked2=s2)
    img = search.run("first")
    if img is None:
        return None
    return {e1[i]: e2[int(img[i])] for i in range(len(e1))}


def _bucket_key(T: GroupTable, mask: np.ndarray, inv: GroupInvariants):
    stab_orders = tuple(sorted(T.elem_order[mask].tolist()))
    return (inv, stab_orders, hash(tuple(sorted(T.class_fingerprints()))))


def _same_class(a, b) -> bool:
    (ta, ma), (tb, mb) = a, b
    search = IsoSearch(ta, tb, marked1=np.flatnonzero(ma), marked2=np.flatnonzero(mb))
    return search.run("first") is not None


def classify_degree(records: list[TransitiveClassRecord]) -> list[EquivalenceClass]:
    """Partition one degree's records (all types together) into classes.

    Records are bucketed by cheap isomorphism invariants first; the
    backtracking search runs only within a bucket.  Output order and
    labels are deterministic: classes sorted by (order, stabilizer
    order, first-seen position), numbered within each (order,
    stabilizer order) group.
    """
    if not records:
        return []
    degree = records[0].ctx.n
    for rec in records:
        if rec.ctx.n != degree:
            raise ConsistencyError("records of mixed degree cannot be classified together")

    tables = [rec.table_with_stab() for rec in records]
    keys = [_bucket_key(T, mask, invariants(T)) for T, mask in tables]

    leaders: dict = {}
    class_members: dict[int, list[int]] = {}
    for i in range(len(records)):
        home = None
        for j in leaders.setdefault(keys[i], []):
            if _same_class(tables[j], tables[i]):
                home = j
                break
        if home is None:
            leaders[keys[i]].append(i)
            home = i
            class_members[home] = []
        class_members[home].append(i)

    ordered = sorted(
        class_members.items(),
        key=lambda kv: (records[kv[0]].order, records[kv[0]].stabilizer_order, kv[0]),
    )
    seq: dict[tuple[int, int], int] = {}
    out = []
    for leader, idxs in ordered:
        rec0 = records[leader]
        shape = (rec0.order, rec0.stabilizer_order)
        seq[shape] = seq.get(shape, 0) + 1
        label = f"d{degree}-o{shape[0]}-s{shape[1]}-c{seq[shape]}"
        cls = EquivalenceClass(
            degree=degree,
            members=[(records[i].type_name, records[i]) for i in idxs],
            abstract_invariants=keys[leader][0],
            label=label,
        )
        for _, rec in cls.members:
            if rec.order != cls.order or rec.stabilizer_order != cls.stabilizer_order:
                raise ConsistencyError("class members disagree on order data")
        out.append(cls)

    if sum(len(c.members) for c in out) != len(records):
        raise ConsistencyError("classification lost or duplicated records")
    return out


__all__ = [
    "EquivalenceClass",
    "stab_respecting_iso",
    "classify_degree",
]
