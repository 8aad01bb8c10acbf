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

from .enumeration import TransitiveClassRecord
from .errors import ConsistencyError
from .iso import IsoSearch, SourcePlan
from .perm import PermGroup
from .table import GroupTable


@dataclass
class EquivalenceClass:
    """One class of mutually stabilizer-respecting-isomorphic records."""

    degree: int
    members: list[tuple[str, TransitiveClassRecord]]
    label: str
    # filled lazily by the counting layer; |Aut(G)| resp. |Aut(G, G')|
    aut_marked_order: Optional[int] = field(default=None, repr=False)
    # the leader's search plan from classify, held for the weight's count
    # and dropped by it; None for a class of one record
    _plan: Optional[SourcePlan] = field(default=None, init=False, repr=False, compare=False)

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


def stab_respecting_iso(g1: PermGroup, g2: PermGroup) -> Optional[np.ndarray]:
    """Isomorphism g1 -> g2 carrying point-0 stabilizer onto point-0
    stabilizer, or None.  The result is an index map over the sorted
    elements: g1's element i goes to g2's element phi[i].  The stabilizer
    constraint prunes the search rather than filtering afterwards."""
    if g1.order != g2.order:
        return None
    s1 = np.flatnonzero(g1.elements[:, 0] == 0)
    s2 = np.flatnonzero(g2.elements[:, 0] == 0)
    if len(s1) != len(s2):
        return None
    return IsoSearch(g1.table(), g2.table(), marked1=s1, marked2=s2).run("first")


def is_stab_respecting_iso(
    phi: np.ndarray, T1: GroupTable, rows1: np.ndarray, rows2: np.ndarray
) -> bool:
    """Whether the index map phi is an isomorphism that carries the point-0
    stabilizer onto the point-0 stabilizer.

    `rows1` and `rows2` hold two permutation groups' sorted elements, `T1`
    is the table of `rows1`, and phi[i] indexes the image of rows1[i] in
    rows2.  phi must be a bijection matching stabilizer to stabilizer, and
    the homomorphism law is `T1.acts` on the image rows.
    """
    if len(phi) != len(rows1) or not np.array_equal(np.sort(phi), np.arange(len(rows2))):
        return False
    image = rows2[phi]
    return np.array_equal(rows1[:, 0] == 0, image[:, 0] == 0) and T1.acts(image, "source group")


def _bucket_classes(
    records: list[TransitiveClassRecord], bucket: list[int], plans: dict[int, SourcePlan]
) -> dict[int, list[int]]:
    """Members by leader within one bucket of record indices, in index order.

    A leader is always side 1: its plan is built at its first comparison
    and serves the rest of the bucket.  The plans of leaders that gained a
    member go into `plans`, for their class weight; the others are dropped
    with the bucket.
    """
    members: dict[int, list[int]] = {}
    leader_plans: dict[int, SourcePlan] = {}
    for i in bucket:
        rec = records[i]
        home = None
        for j in members:
            if j not in leader_plans:
                leader_plans[j] = SourcePlan(records[j].side, records[j].stab_positions)
            search = IsoSearch(leader_plans[j], rec.side, marked2=rec.stab_positions)
            if search.run("first") is not None:
                home = j
                break
        if home is None:
            members[i] = [i]
        else:
            members[home].append(i)
    plans.update((j, plan) for j, plan in leader_plans.items() if len(members[j]) > 1)
    return members


def classify_degree(records: list[TransitiveClassRecord]) -> list[EquivalenceClass]:
    """Partition one degree's records (all types together) into classes.

    Records are bucketed by their sorted element colours and sorted
    stabilizer colours (`TransitiveClassRecord.colours`, read off the
    holomorph tables); the backtracking search runs only within a bucket,
    on the records' indices into their holomorph tables, and each bucket
    walks its records and leaders in index order.  Each leader's side of
    the search is planned once per bucket (`iso.SourcePlan`), and a class
    of two or more records keeps its leader's plan for the class weight,
    which drops it.  Output order and labels
    are deterministic: classes sorted by (order, stabilizer order,
    first-seen position), numbered within each (order, stabilizer order)
    group.
    """
    if not records:
        return []
    degree = records[0].ctx.n
    for rec in records:
        if rec.ctx.n != degree:
            raise ConsistencyError("records of mixed degree cannot be classified together")

    buckets: dict[tuple[bytes, bytes], list[int]] = {}
    for i, rec in enumerate(records):
        # equal for any two records a stabilizer-respecting isomorphism joins
        key = np.sort(rec.colours[rec.stab_positions]).tobytes(), np.sort(rec.colours).tobytes()
        buckets.setdefault(key, []).append(i)

    class_members: dict[int, list[int]] = {}
    plans: dict[int, SourcePlan] = {}
    for bucket in buckets.values():
        class_members.update(_bucket_classes(records, bucket, plans))

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
            label=label,
        )
        cls._plan = plans.pop(leader, None)
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
    "is_stab_respecting_iso",
    "classify_degree",
]
